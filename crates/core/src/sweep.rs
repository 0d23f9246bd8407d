//! Sweep runner: in-flight dedup and the persistent run cache for
//! multi-job experiment sweeps.
//!
//! [`run_many_resilient`] drives a batch of [`Job`]s across the
//! work-stealing executor ([`crate::executor`]) and returns one `Result`
//! per job, in job order. Each unique cell executes at most once. A
//! failure — invalid config, empty workload, OOM, DRAM fault, watchdog
//! trip, invariant violation, even a panic — becomes that cell's typed
//! error row, and the rest of the sweep completes. Nothing is retried:
//! re-running a deterministic simulator reproduces every failure, a
//! panic included, bit for bit.
//!
//! The sweep does no I/O of its own. The run cache is the only thing it
//! persists: rerunning an interrupted sweep over the same cache serves
//! every finished cell as a hit and executes the rest — the "kill the
//! sweep, rerun the command" recovery story.
//!
//! Determinism note: every run is steered through exactly the span
//! boundaries [`System::try_run`] uses ([`span_boundaries`] with no
//! extra pitch), so the cache never changes a result. The cache relies
//! on that: its fingerprint covers the config and mix, nothing else.
//!
//! # Deduplication and the run cache
//!
//! Identical `(config, mix)` cells share one execution: the first
//! occurrence (the *leader*) runs, and its outcome
//! — success or typed error — fans out to every duplicate, preserving
//! output order and per-cell error semantics. Soundness rests on the
//! canonical fingerprint ([`crate::runcache::job_fingerprint`]) covering
//! *every* semantic knob, so equal fingerprints mean deterministic
//! duplicates by the replay-proof contract. Dedup is therefore always
//! on. The *persistent* cache additionally serves leaders from prior
//! processes' results — except for cells
//! [`crate::runcache::bypass_reason`] names, which always execute. The
//! first cache hit of each sweep is re-executed and compared bit-for-bit
//! (metrics *and* final replay hash) against the stored entry, turning
//! every warm sweep into a standing audit of the cache's soundness.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use refsim_dram::time::Ps;

use crate::error::RefsimError;
use crate::executor::{self, default_threads, ExecutorStats};
use crate::experiment::Job;
use crate::metrics::RunMetrics;
use crate::replay::{span_boundaries, StateHashes};
use crate::runcache::{
    bypass_reason, job_fingerprint, CacheEntry, CacheLookup, CacheStats, RunCache,
};
use crate::system::System;

/// Outcome of a sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-job results, in job order.
    pub results: Vec<Result<RunMetrics, RefsimError>>,
    /// Dedup and run-cache telemetry for this sweep.
    pub stats: CacheStats,
    /// Scheduling telemetry from the work-stealing executor (steals,
    /// tail-cell histogram).
    pub executor: ExecutorStats,
}

/// Best-effort recovery of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f`, turning a panic into a typed [`RefsimError::Panicked`]
/// carrying the payload's message.
fn catch_panic<T>(f: impl FnOnce() -> Result<T, RefsimError>) -> Result<T, RefsimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(RefsimError::Panicked(panic_message(payload.as_ref()))))
}

// ---- per-cell driver -----------------------------------------------------

/// Everything one finished run yields.
struct RunOutcome {
    metrics: RunMetrics,
    /// Final replay state hash, computed only when `want_hash` (i.e.
    /// the result is destined for a cache entry or a verification).
    hash: Option<u64>,
    /// Wall-clock nanoseconds the run took.
    wall_nanos: u64,
}

/// Runs `job` from scratch through the span boundaries of
/// [`System::try_run`].
fn run_job(job: &Job, want_hash: bool) -> Result<RunOutcome, RefsimError> {
    let t0 = Instant::now();
    let cfg = &job.cfg;
    let mut sys = System::try_new(cfg.clone(), &job.mix)?;
    if cfg.warmup == Ps::ZERO {
        sys.begin_measure();
    }
    for b in span_boundaries(cfg, None) {
        sys.try_run_until(b)?;
        if b == cfg.warmup {
            sys.begin_measure();
        }
    }
    sys.audit_retention();
    // Invariant violations become a typed per-job error row rather than
    // a crashed sweep.
    sys.finish_audit()?;
    let hash = want_hash.then(|| StateHashes::of(&sys).combined());
    Ok(RunOutcome {
        metrics: sys.collect(),
        hash,
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

// ---- the runner ----------------------------------------------------------

/// Error-tolerant sweep: runs every job to a `Result` in job order,
/// serving leaders from `cache` when it holds them. Per-job failures
/// (a panic included) are *data* — they land in
/// [`SweepReport::results`], never abort the sweep. `cache` is `None`
/// to persist nothing; in-flight dedup is active regardless.
pub fn run_many_resilient(jobs: &[Job], threads: usize, cache: Option<&RunCache>) -> SweepReport {
    let n = jobs.len();
    let fingerprints: Vec<u64> = jobs
        .iter()
        .map(|j| job_fingerprint(&j.cfg, &j.mix))
        .collect();

    // In-flight dedup: group cells by canonical fingerprint. The first
    // index of each group is its *leader* and the only cell that
    // executes; the group's outcome fans out to all.
    let mut leaders: Vec<usize> = Vec::new();
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, &fp) in fingerprints.iter().enumerate() {
        let g = groups.entry(fp).or_default();
        if g.is_empty() {
            leaders.push(i);
        }
        g.push(i);
    }

    let mut stats = CacheStats {
        requested: n as u64,
        deduped: (n - leaders.len()) as u64,
        ..CacheStats::default()
    };

    let results: Mutex<Vec<Option<Result<RunMetrics, RefsimError>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let stats_mx = Mutex::new(&mut stats);
    // One sampled verification per sweep: the first hit claims it.
    let verify_claimed = AtomicBool::new(false);
    let workers = if threads == 0 {
        default_threads()
    } else {
        threads
    };

    let bump = |f: &dyn Fn(&mut CacheStats)| {
        f(&mut stats_mx.lock().expect("poisoned"));
    };

    // One leader's outcome: a cache hit served outright, or a run
    // (verified against the held entry when it claimed the sampled
    // audit). The persistent cache applies only to cacheable cells;
    // audited / fault-injected / debug-knob runs must execute for real.
    let run_leader = |i: usize, fp: u64| -> Result<RunMetrics, RefsimError> {
        let cache = match cache {
            Some(_) if bypass_reason(&jobs[i].cfg).is_some() => {
                bump(&|st| st.bypassed += 1);
                None
            }
            c => c,
        };
        let mut verify = None;
        if let Some(c) = cache {
            match c.lookup(fp) {
                CacheLookup::Hit(entry, sz) => {
                    if verify_claimed.swap(true, Ordering::Relaxed) {
                        bump(&|st| {
                            st.hits += 1;
                            st.bytes_read += sz;
                            st.saved_nanos += entry.wall_nanos;
                        });
                        return Ok(entry.metrics);
                    }
                    // Sampled audit: re-run the cell and hold the entry
                    // to bit-identity on metrics and the final replay
                    // hash.
                    verify = Some((entry, sz));
                }
                CacheLookup::Absent => bump(&|st| {
                    st.misses += 1;
                    st.misses_absent += 1;
                }),
                CacheLookup::Corrupt => bump(&|st| {
                    st.misses += 1;
                    st.misses_corrupt += 1;
                }),
                CacheLookup::Io(_) => bump(&|st| {
                    st.misses += 1;
                    st.misses_io += 1;
                }),
            }
        }
        bump(&|st| st.executed += 1);
        let out = catch_panic(|| run_job(&jobs[i], cache.is_some()))?;
        let store = match verify {
            Some((entry, sz)) => {
                let clean = out.metrics == entry.metrics && out.hash == Some(entry.replay_hash);
                if clean {
                    bump(&|st| {
                        st.hits += 1;
                        st.verified += 1;
                        st.bytes_read += sz;
                    });
                } else {
                    // The fresh run wins; the stale entry is overwritten.
                    bump(&|st| st.verify_failures += 1);
                }
                !clean
            }
            None => true,
        };
        if let (true, Some(c)) = (store, cache) {
            store_entry(c, fp, &out, &stats_mx);
        }
        Ok(out.metrics)
    };

    // One executor dispatch: run a leader and fan its outcome out to
    // every cell of its group (the leader included), cloning errors per
    // cell.
    let exec_stats = executor::execute(leaders.len(), workers, |p| {
        let i = leaders[p];
        let fp = fingerprints[i];
        let outcome = run_leader(i, fp);
        let mut res = results.lock().expect("poisoned");
        for &j in &groups[&fp] {
            res[j] = Some(outcome.clone());
        }
    });

    let results = results
        .into_inner()
        .expect("poisoned")
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect();
    SweepReport {
        results,
        stats,
        executor: exec_stats,
    }
}

/// Persists a freshly executed result as a cache entry, folding byte
/// counts into the sweep's stats. Store failures are non-fatal but
/// counted: the result is already in hand, the cache just stays cold.
fn store_entry(
    cache: &RunCache,
    fingerprint: u64,
    out: &RunOutcome,
    stats_mx: &Mutex<&mut CacheStats>,
) {
    let Some(hash) = out.hash else { return };
    let entry = CacheEntry {
        fingerprint,
        replay_hash: hash,
        wall_nanos: out.wall_nanos,
        metrics: out.metrics.clone(),
    };
    let mut st = stats_mx.lock().expect("poisoned");
    match cache.store(&entry) {
        Ok(written) => {
            st.stores += 1;
            st.bytes_written += written;
        }
        Err(_) => st.store_failures += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::experiment::run_many_checked;
    use refsim_os::partition::PartitionPlan;
    use refsim_workloads::mix::WorkloadMix;
    use refsim_workloads::profiles::Benchmark;
    use std::fs;
    use std::path::PathBuf;

    fn tiny_job(seed: u64) -> Job {
        let mut cfg = SystemConfig::table1().with_time_scale(512).with_seed(seed);
        cfg.warmup = cfg.trefw() / 8;
        cfg.measure = cfg.trefw() / 2;
        Job {
            cfg,
            mix: WorkloadMix::from_groups(
                "tiny",
                &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
                "M + L",
            ),
        }
    }

    /// A job whose run deterministically fails (`EmptyWorkload`).
    fn broken_job(seed: u64) -> Job {
        Job {
            mix: WorkloadMix::from_groups("empty", &[], "-"),
            ..tiny_job(seed)
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("refsim-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn assert_rows_match(
        want: &[Result<RunMetrics, RefsimError>],
        got: &[Result<RunMetrics, RefsimError>],
        what: &str,
    ) {
        assert_eq!(want.len(), got.len(), "{what}");
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: job {i}");
        }
    }

    #[test]
    fn sweep_rows_match_standalone_runs() {
        let jobs = [tiny_job(1), tiny_job(2)];
        let standalone: Vec<_> = jobs
            .iter()
            .map(|j| System::try_new(j.cfg.clone(), &j.mix).and_then(|mut s| s.try_run()))
            .collect();
        assert_rows_match(&standalone, &run_many_checked(&jobs, 2), "sweep");
    }

    #[test]
    fn a_panic_becomes_a_typed_error_row() {
        let r: Result<(), _> = catch_panic(|| panic!("boom"));
        assert!(
            matches!(r, Err(RefsimError::Panicked(ref m)) if m == "boom"),
            "{r:?}"
        );
        let cell = 7;
        let r: Result<(), _> = catch_panic(|| panic!("cell {cell} fell over"));
        assert!(
            matches!(r, Err(RefsimError::Panicked(ref m)) if m == "cell 7 fell over"),
            "{r:?}"
        );
        // Results that did not unwind pass through untouched.
        assert!(matches!(catch_panic(|| Ok(3)), Ok(3)));
        assert!(matches!(
            catch_panic::<()>(|| Err(RefsimError::EmptyWorkload)),
            Err(RefsimError::EmptyWorkload)
        ));
    }

    #[test]
    fn deterministic_errors_fail_fast_without_retry() {
        let mut bad = tiny_job(7);
        bad.cfg.measure = Ps::ZERO; // rejected by SystemConfig::validate
        let report = run_many_resilient(&[bad], 1, None);
        assert!(matches!(
            report.results[0],
            Err(RefsimError::InvalidConfig(_))
        ));
        assert_eq!(
            report.executor.tail_ms.iter().sum::<u64>(),
            1,
            "the failed cell is dispatched exactly once"
        );
    }

    #[test]
    fn confine_width_outside_the_rank_is_an_invalid_config_row() {
        for banks_per_task in [0, 9] {
            let mut job = tiny_job(13);
            job.cfg = job
                .cfg
                .with_partition(PartitionPlan::Confine { banks_per_task });
            let rows = run_many_checked(&[job, tiny_job(14)], 2);
            assert!(
                matches!(rows[0], Err(RefsimError::InvalidConfig(_))),
                "width {banks_per_task}: {:?}",
                rows[0]
            );
            assert!(rows[1].is_ok(), "width {banks_per_task}: healthy cell");
        }
    }

    #[test]
    fn second_invocation_serves_finished_cells_from_the_cache() {
        let jobs = [tiny_job(8), broken_job(9), tiny_job(10)];
        let dir = tmp_dir("rerun");
        let cache = RunCache::new(&dir);

        // First invocation: job 1 fails; the other two finish and land
        // in the cache.
        let first = run_many_resilient(&jobs, 1, Some(&cache));
        assert!(matches!(first.results[1], Err(RefsimError::EmptyWorkload)));
        assert!(first.results[0].is_ok() && first.results[2].is_ok());
        assert_eq!(first.stats.stores, 2);

        // Second invocation over the same cache: every finished cell is
        // a hit, only the failed one runs (and fails the same way).
        let second = run_many_resilient(&jobs, 1, Some(&cache));
        assert_eq!(second.stats.hits, 2, "{:?}", second.stats);
        assert_eq!(second.stats.misses_absent, 1, "{:?}", second.stats);
        assert_eq!(second.stats.stores, 0, "{:?}", second.stats);
        assert_rows_match(&first.results, &second.results, "rerun");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_sweep_option_changes_a_result() {
        // A duplicate cell keeps dedup fan-out on the path.
        let jobs = [tiny_job(11), tiny_job(12), tiny_job(11)];
        let reference = run_many_checked(&jobs, 2);
        let dir = tmp_dir("opts");
        let cache = RunCache::new(&dir);
        for (pass, cache) in [
            ("no cache", None),
            ("cold cache", Some(&cache)),
            ("warm cache", Some(&cache)),
        ] {
            let rep = run_many_resilient(&jobs, 2, cache);
            assert_rows_match(&reference, &rep.results, pass);
            assert_eq!(rep.stats.verify_failures, 0, "{pass}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
