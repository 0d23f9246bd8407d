//! Resilient sweep runner: bounded retry, quarantine, in-flight dedup
//! and the persistent run cache for multi-job experiment sweeps.
//!
//! [`run_many_resilient`] drives a batch of [`Job`]s across the
//! work-stealing executor ([`crate::executor`]) and returns one `Result`
//! per job, in job order. A job that panics is retried from scratch up
//! to [`SweepOptions::max_retries`] times; a job that keeps panicking
//! is *quarantined* so the rest of the sweep completes. Deterministic
//! failures (invalid config, empty workload, OOM, DRAM faults, watchdog
//! trips) are never retried: re-running a deterministic simulator
//! reproduces them bit for bit.
//!
//! The sweep does no I/O of its own. The run cache
//! ([`SweepOptions::cache`]) is the only thing it persists: rerunning an
//! interrupted sweep over the same cache serves every finished cell as
//! a hit and executes the rest — the "kill the sweep, rerun the
//! command" recovery story.
//!
//! Determinism note: every attempt is steered through exactly the span
//! boundaries [`System::try_run`] uses ([`span_boundaries`] with no
//! extra pitch), so no sweep option changes a result. The cache relies
//! on that: its fingerprint covers the config and mix, not the options.
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
//! on. The *persistent* cache ([`SweepOptions::cache`]) additionally
//! serves leaders from prior processes' results — except for cells
//! [`crate::runcache::bypass_reason`] names, which always execute.
//! With [`SweepOptions::verify_sampled`] set (the default), the first
//! cache hit of each sweep is re-executed and compared bit-for-bit
//! (metrics *and* final replay hash) against the stored entry, turning
//! every warm sweep into a standing audit of the cache's soundness.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use refsim_dram::time::Ps;

use crate::error::RefsimError;
use crate::executor::{self, default_threads, ExecItem, ExecutorStats, Verdict};
use crate::experiment::Job;
use crate::metrics::RunMetrics;
use crate::replay::{span_boundaries, StateHashes};
use crate::runcache::{
    bypass_reason, job_fingerprint, CacheEntry, CacheLookup, CacheStats, RunCache,
};
use crate::system::System;

/// Options for a resilient sweep. None of them changes a result.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Additional attempts after the first failure of a retryable job.
    pub max_retries: u32,
    /// Test-only fault injection: panic a chosen job mid-run. Injection
    /// targets a job *index*; a duplicate cell deduped onto another
    /// leader never runs and so never fires its injection.
    pub inject: Option<PanicInjection>,
    /// Persistent content-addressed run cache. `None` (the default)
    /// disables persistence; in-process dedup is active regardless.
    pub cache: Option<RunCache>,
    /// Re-execute the first cache hit of the sweep and require the
    /// fresh run to reproduce the entry's metrics and replay hash
    /// bit-for-bit. On by default; a mismatch is counted in
    /// [`CacheStats::verify_failures`] and the fresh result wins.
    pub verify_sampled: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            max_retries: 1,
            inject: None,
            cache: None,
            verify_sampled: true,
        }
    }
}

/// Deterministic fault injection for testing the retry path: the
/// chosen job panics after completing `after_spans` span boundaries, on
/// each of its first `attempts` attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// Index of the job to kill.
    pub job: usize,
    /// Number of attempts that die before one is allowed to finish.
    pub attempts: u32,
    /// Span boundaries the doomed attempt completes before panicking.
    pub after_spans: u64,
}

/// Outcome of a resilient sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-job results, in job order.
    pub results: Vec<Result<RunMetrics, RefsimError>>,
    /// Total retry attempts across all jobs.
    pub retries: u64,
    /// Jobs whose retryable failures exhausted the retry budget.
    pub quarantined: Vec<usize>,
    /// Dedup and run-cache telemetry for this sweep.
    pub stats: CacheStats,
    /// Scheduling telemetry from the work-stealing executor (steals,
    /// requeues, tail-cell histogram).
    pub executor: ExecutorStats,
}

/// Whether a failed attempt is worth retrying. Only a panic qualifies:
/// every other failure reproduces identically.
fn is_retryable(e: &RefsimError) -> bool {
    matches!(e, RefsimError::Panicked(_))
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

// ---- per-attempt driver --------------------------------------------------

/// Everything one finished attempt yields.
struct AttemptOutcome {
    metrics: RunMetrics,
    /// Final replay state hash, computed only when `want_hash` (i.e.
    /// the result is destined for a cache entry or a verification).
    hash: Option<u64>,
    /// Wall-clock nanoseconds this attempt took.
    wall_nanos: u64,
}

/// Runs one attempt of `job` from scratch through the span boundaries
/// of [`System::try_run`], firing `opts.inject` when it targets this
/// attempt.
fn run_attempt(
    job: &Job,
    job_idx: usize,
    attempt: u32,
    opts: &SweepOptions,
    want_hash: bool,
) -> Result<AttemptOutcome, RefsimError> {
    let t0 = Instant::now();
    let cfg = &job.cfg;
    let mut sys = System::try_new(cfg.clone(), &job.mix)?;
    if cfg.warmup == Ps::ZERO {
        sys.begin_measure();
    }
    for (s_idx, b) in span_boundaries(cfg, None).into_iter().enumerate() {
        sys.try_run_until(b)?;
        if b == cfg.warmup {
            sys.begin_measure();
        }
        if let Some(inj) = &opts.inject {
            if inj.job == job_idx && attempt < inj.attempts && s_idx as u64 == inj.after_spans {
                panic!("injected sweep fault (job {job_idx}, attempt {attempt})");
            }
        }
    }
    sys.audit_retention();
    // Invariant violations become a typed per-job error row rather than
    // a crashed sweep; they are deterministic, so `is_retryable` keeps
    // them out of the retry loop.
    sys.finish_audit()?;
    let hash = want_hash.then(|| StateHashes::of(&sys.export_state()).combined());
    Ok(AttemptOutcome {
        metrics: sys.collect(),
        hash,
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

// ---- the runner ----------------------------------------------------------

/// Error-tolerant sweep: runs every job to a `Result` in job order,
/// retrying panicked attempts from scratch and quarantining jobs that
/// keep panicking. Per-job failures are *data* — they land in
/// [`SweepReport::results`], never abort the sweep.
pub fn run_many_resilient(jobs: &[Job], threads: usize, opts: &SweepOptions) -> SweepReport {
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
    let retries = AtomicU64::new(0);
    let quarantined = Mutex::new(Vec::new());
    let stats_mx = Mutex::new(&mut stats);
    // One sampled verification per sweep: the first hit claims it.
    let verify_claimed = AtomicBool::new(false);
    let workers = if threads == 0 {
        default_threads()
    } else {
        threads
    };

    // Cost-model estimates for dispatch ordering: a cached wall from a
    // prior process, read without lookup side effects. Bypassed cells
    // and cold caches have no estimate and run in submission order.
    let items: Vec<ExecItem> = leaders
        .iter()
        .enumerate()
        .map(|(p, &i)| ExecItem {
            id: p,
            estimate_nanos: opts.cache.as_ref().and_then(|c| {
                bypass_reason(&jobs[i].cfg)
                    .is_none()
                    .then(|| c.peek_wall_nanos(fingerprints[i]))
                    .flatten()
            }),
        })
        .collect();

    // Per-leader state that must survive executor requeues: the sweep —
    // not the executor — owns the retry budget (so `PanicInjection`
    // attempt counting is unchanged), and the cache decision is made
    // exactly once per leader no matter how many dispatches it takes.
    let attempts: Vec<AtomicU32> = leaders.iter().map(|_| AtomicU32::new(0)).collect();
    let prepared: Vec<OnceLock<Prepared>> = leaders.iter().map(|_| OnceLock::new()).collect();

    let bump = |f: &dyn Fn(&mut CacheStats)| {
        f(&mut stats_mx.lock().expect("poisoned"));
    };

    // The cache decision for one leader: serve a hit outright, or
    // execute (optionally verifying against the held entry). The
    // persistent cache applies only to cacheable cells; audited /
    // fault-injected / debug-knob runs must execute for real.
    let prepare = |i: usize, fp: u64| -> Prepared {
        let cache = match &opts.cache {
            Some(c) => match bypass_reason(&jobs[i].cfg) {
                None => Some(c),
                Some(_) => {
                    bump(&|st| st.bypassed += 1);
                    None
                }
            },
            None => None,
        };
        let Some(cache) = cache else {
            bump(&|st| st.executed += 1);
            return Prepared::Execute {
                verify: None,
                verify_sz: 0,
                use_cache: false,
            };
        };
        let lookup = cache.lookup(fp);
        match &lookup {
            CacheLookup::Hit(_, _) => {}
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
        if let CacheLookup::Hit(entry, sz) = lookup {
            if opts.verify_sampled && !verify_claimed.swap(true, Ordering::Relaxed) {
                // Sampled audit: re-run the cell and hold the entry to
                // bit-identity on metrics and the final replay hash.
                bump(&|st| st.executed += 1);
                Prepared::Execute {
                    verify: Some(entry),
                    verify_sz: sz,
                    use_cache: true,
                }
            } else {
                bump(&|st| {
                    st.hits += 1;
                    st.bytes_read += sz;
                    st.saved_nanos += entry.wall_nanos;
                });
                Prepared::Serve(Box::new(entry.metrics))
            }
        } else {
            bump(&|st| st.executed += 1);
            Prepared::Execute {
                verify: None,
                verify_sz: 0,
                use_cache: true,
            }
        }
    };

    // Fans one leader's terminal outcome out to every cell of its group
    // (the leader included), cloning errors per cell.
    let finish = |fp: u64, outcome: Result<RunMetrics, RefsimError>, cell_quarantined: bool| {
        let group = &groups[&fp];
        if cell_quarantined {
            quarantined.lock().expect("poisoned").extend(group.iter());
        }
        let mut res = results.lock().expect("poisoned");
        for &j in group {
            res[j] = Some(outcome.clone());
        }
    };

    // One executor dispatch of one leader: a single attempt, with the
    // verdict routing retries (requeue) and terminal outcomes (fan-out).
    let exec_run = |p: usize| -> Verdict {
        let i = leaders[p];
        let fp = fingerprints[i];
        let prep = prepared[p].get_or_init(|| prepare(i, fp));
        let (verify, verify_sz, use_cache) = match prep {
            Prepared::Serve(m) => {
                finish(fp, Ok((**m).clone()), false);
                return Verdict::Done;
            }
            Prepared::Execute {
                verify,
                verify_sz,
                use_cache,
            } => (verify, *verify_sz, *use_cache),
        };
        let attempt = attempts[p].load(Ordering::Relaxed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_attempt(&jobs[i], i, attempt, opts, use_cache)
        }))
        .unwrap_or_else(|payload| Err(RefsimError::Panicked(panic_message(payload.as_ref()))));
        match r {
            Ok(out) => {
                let store = match verify {
                    Some(entry) => {
                        let clean =
                            out.metrics == entry.metrics && out.hash == Some(entry.replay_hash);
                        if clean {
                            bump(&|st| {
                                st.hits += 1;
                                st.verified += 1;
                                st.bytes_read += verify_sz;
                            });
                        } else {
                            // The fresh run wins; the stale entry is
                            // overwritten.
                            bump(&|st| st.verify_failures += 1);
                        }
                        !clean
                    }
                    None => use_cache,
                };
                if store {
                    if let Some(cache) = &opts.cache {
                        store_entry(cache, fp, &out, &stats_mx);
                    }
                }
                finish(fp, Ok(out.metrics), false);
                Verdict::Done
            }
            Err(e) => {
                let retryable = is_retryable(&e);
                if retryable && attempt < opts.max_retries {
                    retries.fetch_add(1, Ordering::Relaxed);
                    attempts[p].fetch_add(1, Ordering::Relaxed);
                    Verdict::Requeue
                } else {
                    finish(fp, Err(e), retryable);
                    Verdict::Done
                }
            }
        }
    };

    let exec_stats = executor::execute(&items, workers, exec_run);

    let mut quarantined = quarantined.into_inner().expect("poisoned");
    quarantined.sort_unstable();
    let results = results
        .into_inner()
        .expect("poisoned")
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect();
    SweepReport {
        results,
        retries: retries.into_inner(),
        quarantined,
        stats,
        executor: exec_stats,
    }
}

/// The once-per-leader cache decision, cached across executor requeues
/// so a retried dispatch never re-probes (or re-counts) the cache.
#[derive(Debug)]
enum Prepared {
    /// Serve the cached metrics without executing.
    Serve(Box<RunMetrics>),
    /// Execute the cell.
    Execute {
        /// Sampled-audit entry the fresh run must reproduce bit-for-bit.
        verify: Option<Box<CacheEntry>>,
        /// On-disk size of the verify entry (for `bytes_read`).
        verify_sz: u64,
        /// Hash the result and store it back into the persistent cache.
        use_cache: bool,
    },
}

/// Persists a freshly executed result as a cache entry, folding byte
/// counts into the sweep's stats. Store failures are non-fatal but
/// counted: the result is already in hand, the cache just stays cold.
fn store_entry(
    cache: &RunCache,
    fingerprint: u64,
    out: &AttemptOutcome,
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
    fn default_options_match_the_plain_checked_sweep() {
        let jobs = [tiny_job(1), tiny_job(2)];
        let plain = run_many_checked(&jobs, 2);
        let resilient = run_many_resilient(&jobs, 2, &SweepOptions::default());
        assert_eq!(resilient.retries, 0);
        assert_rows_match(&plain, &resilient.results, "default options");
    }

    #[test]
    fn injected_panic_retries_from_scratch_bit_identical() {
        let jobs = [tiny_job(3), tiny_job(4)];
        let clean = run_many_checked(&jobs, 1);
        // Job 0 dies once after its warm-up span and is re-run from the
        // start.
        let faulted = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                max_retries: 1,
                inject: Some(PanicInjection {
                    job: 0,
                    attempts: 1,
                    after_spans: 0,
                }),
                ..SweepOptions::default()
            },
        );
        assert_eq!(
            faulted.retries, 1,
            "the injected panic must trigger a retry"
        );
        assert!(faulted.quarantined.is_empty());
        assert_rows_match(&clean, &faulted.results, "retried sweep");
    }

    #[test]
    fn repeated_failures_are_quarantined_and_the_sweep_completes() {
        let jobs = [tiny_job(5), tiny_job(6)];
        let report = run_many_resilient(
            &jobs,
            2,
            &SweepOptions {
                max_retries: 1,
                inject: Some(PanicInjection {
                    job: 0,
                    attempts: 5, // outlives the retry budget
                    after_spans: 1,
                }),
                ..SweepOptions::default()
            },
        );
        assert_eq!(report.quarantined, vec![0]);
        assert!(
            matches!(
                report.results[0],
                Err(RefsimError::Panicked(ref m)) if m.contains("injected")
            ),
            "unexpected job-0 result: {:?}",
            report.results[0]
        );
        assert!(report.results[1].is_ok(), "healthy jobs must still finish");
    }

    #[test]
    fn deterministic_errors_fail_fast_without_retry() {
        let mut bad = tiny_job(7);
        bad.cfg.measure = Ps::ZERO; // rejected by SystemConfig::validate
        let report = run_many_resilient(&[bad], 1, &SweepOptions::default());
        assert_eq!(report.retries, 0);
        assert!(matches!(
            report.results[0],
            Err(RefsimError::InvalidConfig(_))
        ));
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn second_invocation_serves_finished_cells_from_the_cache() {
        let jobs = [tiny_job(8), tiny_job(9), tiny_job(10)];
        let dir = tmp_dir("rerun");
        let cache = RunCache::new(&dir);

        // First invocation: job 1 keeps dying and is quarantined; the
        // other two finish and land in the cache.
        let first = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                max_retries: 0,
                inject: Some(PanicInjection {
                    job: 1,
                    attempts: 9,
                    after_spans: 0,
                }),
                cache: Some(cache.clone()),
                ..SweepOptions::default()
            },
        );
        assert_eq!(first.quarantined, vec![1]);
        assert!(first.results[0].is_ok() && first.results[2].is_ok());
        assert_eq!(first.stats.stores, 2);

        // Second invocation over the same cache, no faults: every other
        // cell is a hit, only the failed one runs.
        let second = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                cache: Some(cache),
                ..SweepOptions::default()
            },
        );
        assert_eq!(second.stats.hits, 2, "{:?}", second.stats);
        assert_eq!(second.stats.misses_absent, 1, "{:?}", second.stats);
        assert_eq!(second.stats.stores, 1, "{:?}", second.stats);
        assert!(second.quarantined.is_empty());
        assert_rows_match(&run_many_checked(&jobs, 1), &second.results, "rerun");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_sweep_option_changes_a_result() {
        // A duplicate cell keeps dedup fan-out on the path.
        let jobs = [tiny_job(11), tiny_job(12), tiny_job(11)];
        let reference = run_many_checked(&jobs, 2);
        let panic_once = PanicInjection {
            job: 1,
            attempts: 1,
            after_spans: 1,
        };
        for verify_sampled in [true, false] {
            for (max_retries, inject) in [(0, None), (1, Some(panic_once))] {
                let dir = tmp_dir(&format!("opts-{verify_sampled}-{max_retries}"));
                for (pass, cache) in [
                    ("no cache", None),
                    ("cold cache", Some(RunCache::new(&dir))),
                    ("warm cache", Some(RunCache::new(&dir))),
                ] {
                    let opts = SweepOptions {
                        max_retries,
                        inject,
                        cache,
                        verify_sampled,
                    };
                    let rep = run_many_resilient(&jobs, 2, &opts);
                    assert_rows_match(&reference, &rep.results, &format!("{opts:?} ({pass})"));
                    assert_eq!(rep.stats.verify_failures, 0, "{opts:?} ({pass})");
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}
