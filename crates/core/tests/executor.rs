//! End-to-end guarantee of the work-stealing sweep executor: result
//! assembly is bit-identical across any worker count — the executor
//! decides *where* and *when* a cell runs, never *what* it computes —
//! for healthy, failing, and cache-served job sets.

use std::path::PathBuf;

use proptest::prelude::*;
use refsim_core::experiment::Job;
use refsim_core::prelude::*;
use refsim_core::runcache::{job_fingerprint, RunCache};
use refsim_core::sweep::{run_many_resilient, SweepReport};
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

/// Worker counts the determinism proptests sweep: serial, even split,
/// more workers than a typical host, more workers than jobs.
const THREAD_MATRIX: [usize; 4] = [1, 2, 7, 16];

fn tiny_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table1().with_time_scale(4096).with_seed(seed);
    cfg.warmup = cfg.trefw() / 8;
    cfg.measure = cfg.trefw() / 2;
    cfg
}

fn healthy_job(seed: u64) -> Job {
    Job {
        cfg: tiny_cfg(seed),
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
        cfg: tiny_cfg(seed),
        mix: WorkloadMix::from_groups("empty", &[], "-"),
    }
}

/// Mixed healthy/error job set with a duplicated cell (exercises the
/// in-flight dedup fan-out path under every worker count).
fn mixed_jobs(base_seed: u64) -> Vec<Job> {
    vec![
        healthy_job(base_seed),
        broken_job(base_seed.wrapping_add(1)),
        healthy_job(base_seed.wrapping_add(2)),
        healthy_job(base_seed),
        healthy_job(base_seed.wrapping_add(3)),
        broken_job(base_seed.wrapping_add(4)),
    ]
}

/// A fresh directory under the system temp dir, removed when dropped:
/// when its case ends, and also when a failed assertion unwinds or
/// returns early through it.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("refsim-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        TmpDir(d)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Debug strings are the bit-identity witness: they cover every metric
/// field and the full error payload.
fn outcome_fingerprints(rep: &SweepReport) -> Vec<String> {
    rep.results.iter().map(|r| format!("{r:?}")).collect()
}

/// Replay hashes the sweep stored for each job, read back from its run
/// cache (`None` for cells that failed and stored nothing).
fn stored_replay_hashes(cache: &RunCache, jobs: &[Job]) -> Vec<Option<u64>> {
    jobs.iter()
        .map(|j| {
            cache
                .load(job_fingerprint(&j.cfg, &j.mix))
                .map(|(entry, _)| entry.replay_hash)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Healthy + failing + duplicated cells produce bit-identical
    /// results at every worker count.
    #[test]
    fn results_are_bit_identical_across_worker_counts(seed in 0u64..1024) {
        let jobs = mixed_jobs(seed);
        let want = outcome_fingerprints(&run_many_resilient(&jobs, 1, None));
        for threads in THREAD_MATRIX {
            let rep = run_many_resilient(&jobs, threads, None);
            prop_assert_eq!(&outcome_fingerprints(&rep), &want, "threads={}", threads);
        }
    }

    /// Every worker count populates a fresh cache with the same replay
    /// hashes, and a warm re-run (cells served from disk) returns the
    /// same bytes as its cold run.
    #[test]
    fn cached_sweeps_are_bit_identical_across_worker_counts(seed in 0u64..1024) {
        let jobs = mixed_jobs(seed);
        let mut want: Option<(Vec<String>, Vec<Option<u64>>)> = None;
        for threads in THREAD_MATRIX {
            let dir = TmpDir::new(&format!("m{threads}-{seed}"));
            let cache = RunCache::new(&dir.0);
            let cold = run_many_resilient(&jobs, threads, Some(&cache));
            let hashes = stored_replay_hashes(&cache, &jobs);
            let warm = run_many_resilient(&jobs, threads, Some(&cache));
            prop_assert_eq!(
                outcome_fingerprints(&warm),
                outcome_fingerprints(&cold),
                "warm serve must match the cold run at threads={}",
                threads
            );
            match &want {
                None => want = Some((outcome_fingerprints(&cold), hashes)),
                Some((results, stored)) => {
                    prop_assert_eq!(&outcome_fingerprints(&cold), results, "threads={}", threads);
                    prop_assert_eq!(&hashes, stored, "replay hashes at threads={}", threads);
                }
            }
        }
    }
}
