//! End-to-end guarantees of the content-addressed run cache and the
//! in-flight deduplication layer in the resilient sweep runner:
//!
//! * duplicated jobs execute once and fan out bit-identically, in
//!   order, including error outcomes;
//! * the canonical fingerprint is stable across releases (golden hash)
//!   and moves whenever any semantic knob moves;
//! * audited / fault-injected / debug-knob runs never touch the
//!   persistent cache;
//! * a warm cache serves every cell, the sampled verifier re-runs
//!   exactly one, and a poisoned entry loses to the fresh run.

use std::path::PathBuf;

use proptest::prelude::*;
use refsim_core::config::{EngineKind, SystemConfig};
use refsim_core::experiment::{run_many_checked, Job};
use refsim_core::faults::FaultPlan;
use refsim_core::runcache::{job_fingerprint, CacheEntry, RunCache};
use refsim_core::sanitize::AuditLevel;
use refsim_core::sweep::run_many_resilient;
use refsim_dram::time::Ps;
use refsim_os::partition::PartitionPlan;
use refsim_os::sched::SchedPolicy;
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

fn tiny_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table1().with_time_scale(512).with_seed(seed);
    cfg.warmup = cfg.trefw() / 8;
    cfg.measure = cfg.trefw() / 2;
    cfg
}

fn tiny_job(seed: u64) -> Job {
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

fn tmp_cache(tag: &str) -> RunCache {
    let d = std::env::temp_dir().join(format!("refsim-rc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    RunCache::new(d)
}

fn cache_files(cache: &RunCache) -> Vec<PathBuf> {
    match std::fs::read_dir(cache.dir()) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => Vec::new(),
    }
}

// ---- in-flight dedup -----------------------------------------------------

#[test]
fn duplicated_jobs_execute_once_and_fan_out_in_order() {
    let a = tiny_job(1);
    let b = tiny_job(2);
    let jobs = [a.clone(), b.clone(), a.clone(), a.clone()];

    let report = run_many_resilient(&jobs, 2, None);
    assert_eq!(report.results.len(), 4);
    assert_eq!(
        report.stats.requested, 4,
        "every requested cell is accounted for"
    );
    assert_eq!(report.stats.deduped, 2, "two of the four cells are repeats");
    assert_eq!(
        report.stats.executed, 2,
        "each unique fingerprint must execute exactly once"
    );

    // Order-preserved and bit-identical to the plain per-cell sweep.
    let reference: Vec<_> = run_many_checked(&[a, b], 2)
        .into_iter()
        .map(|r| r.expect("reference sweep"))
        .collect();
    let expect = [&reference[0], &reference[1], &reference[0], &reference[0]];
    for (i, (got, want)) in report.results.iter().zip(expect).enumerate() {
        let got = got.as_ref().expect("dedup sweep result");
        assert_eq!(got, want, "cell {i}: fan-out must be bit-identical");
    }
}

#[test]
fn duplicated_erroring_cell_fans_out_the_error() {
    let jobs = [broken_job(3), tiny_job(4), broken_job(3)];
    let report = run_many_resilient(&jobs, 2, None);
    assert_eq!(
        report.stats.executed, 2,
        "broken cell runs once, good cell once"
    );
    assert!(report.results[1].is_ok());
    for i in [0, 2] {
        let e = report.results[i]
            .as_ref()
            .expect_err("broken cell must fail");
        assert_eq!(e.to_string(), "workload mix has no tasks", "cell {i}");
    }
}

// ---- fingerprint ---------------------------------------------------------

/// Golden canonical fingerprint of the Table 1 preset over a fixed mix.
/// This value may only change together with `runcache::CACHE_SCHEMA`;
/// an unintentional move here silently invalidates every on-disk cache.
#[test]
fn fingerprint_matches_golden_hash() {
    let job = tiny_job(0xA5A5);
    assert_eq!(job_fingerprint(&job.cfg, &job.mix), 0x4194_1b9d_a120_7a74);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single semantic knob change must move the fingerprint.
    #[test]
    fn fingerprint_tracks_every_semantic_knob(knob in 0usize..10, v in 1u64..1000) {
        let base = tiny_job(9);
        let mut cfg = base.cfg.clone();
        match knob {
            0 => {
                cfg = cfg.with_refresh(refsim_dram::refresh::RefreshPolicyKind::NoRefresh);
            }
            1 => {
                let step = cfg.step;
                cfg = cfg.with_step(step + Ps(v));
            }
            2 => {
                let flipped = match cfg.engine {
                    EngineKind::FixedStep => EngineKind::EventSkip,
                    EngineKind::EventSkip => EngineKind::FixedStep,
                };
                cfg = cfg.with_engine(flipped);
            }
            3 => {
                cfg = cfg.with_sched(SchedPolicy::RefreshAware {
                    eta_thresh: 1 + v as u32,
                    best_effort: false,
                });
            }
            4 => {
                cfg = cfg.with_partition(PartitionPlan::Confine {
                    banks_per_task: 1 + (v as u32 % 7),
                });
            }
            5 => {
                let seed = cfg.seed;
                cfg = cfg.with_seed(seed ^ v);
            }
            6 => cfg.measure += Ps(v),
            7 => cfg.warmup += Ps(v),
            8 => {
                cfg = cfg.with_backend(refsim_dram::backend::BackendKind::Shadow);
            }
            9 => {
                // The perturbation knob bypasses the cache outright, but the
                // fingerprint must still move so no stale entry can alias it.
                cfg = cfg.with_shadow_drop_every(1 + v);
            }
            _ => unreachable!(),
        }
        prop_assert_ne!(
            job_fingerprint(&cfg, &base.mix),
            job_fingerprint(&base.cfg, &base.mix),
            "knob {} must be part of the canonical fingerprint", knob
        );
    }
}

// ---- bypass guard --------------------------------------------------------

#[test]
fn audited_faulted_and_debug_runs_never_touch_the_cache() {
    let cache = tmp_cache("bypass");
    let base = tiny_job(11);
    let variants: [(&str, Job); 3] = [
        (
            "audit",
            Job {
                cfg: base.cfg.clone().with_audit(AuditLevel::Sampled),
                mix: base.mix.clone(),
            },
        ),
        (
            "fault plan",
            Job {
                cfg: base.cfg.clone().with_fault_plan(FaultPlan::none(7)),
                mix: base.mix.clone(),
            },
        ),
        (
            "debug knob",
            Job {
                cfg: base.cfg.clone().with_debug_skip_overshoot(Ps(1)),
                mix: base.mix.clone(),
            },
        ),
    ];
    for (what, job) in variants {
        let report = run_many_resilient(std::slice::from_ref(&job), 1, Some(&cache));
        assert!(report.results[0].is_ok(), "{what}: run itself succeeds");
        assert_eq!(report.stats.bypassed, 1, "{what}: must bypass");
        assert_eq!(
            report.stats.hits + report.stats.misses,
            0,
            "{what}: no lookups"
        );
        assert_eq!(report.stats.stores, 0, "{what}: no stores");
    }
    assert!(
        cache_files(&cache).is_empty(),
        "bypassed runs must leave the cache directory empty"
    );
    let _ = std::fs::remove_dir_all(cache.dir());
}

// ---- persistent cache ----------------------------------------------------

#[test]
fn warm_cache_serves_every_cell_and_verifies_one() {
    let cache = tmp_cache("warm");
    let jobs = [tiny_job(21), tiny_job(22), tiny_job(21)];

    let cold = run_many_resilient(&jobs, 2, Some(&cache));
    assert_eq!(cold.stats.misses, 2, "cold: every unique cell misses");
    assert_eq!(cold.stats.stores, 2, "cold: every unique cell is stored");
    assert_eq!(cold.stats.executed, 2);
    assert_eq!(
        cache_files(&cache).len(),
        2,
        "two entries, no stray temp files"
    );

    let warm = run_many_resilient(&jobs, 2, Some(&cache));
    assert_eq!(warm.stats.hits, 2, "warm: every unique cell hits");
    assert_eq!(warm.stats.misses, 0);
    assert_eq!(
        warm.stats.executed, 1,
        "warm: only the sampled verification re-run executes"
    );
    assert_eq!(warm.stats.verified, 1);
    assert_eq!(warm.stats.verify_failures, 0);
    for (i, (a, b)) in cold.results.iter().zip(&warm.results).enumerate() {
        assert_eq!(
            a.as_ref().expect("cold"),
            b.as_ref().expect("warm"),
            "cell {i}: cached metrics must be bit-identical"
        );
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn poisoned_entry_is_caught_by_verification_and_overwritten() {
    let cache = tmp_cache("poison");
    let job = tiny_job(31);
    let fp = job_fingerprint(&job.cfg, &job.mix);

    // Seed the cache honestly, then corrupt the entry's payload while
    // keeping its framing valid: claim a wrong replay hash.
    let cold = run_many_resilient(std::slice::from_ref(&job), 1, Some(&cache));
    let (honest, _) = cache.load(fp).expect("stored entry");
    cache
        .store(&CacheEntry {
            replay_hash: honest.replay_hash ^ 0xdead_beef,
            ..honest.clone()
        })
        .expect("plant poisoned entry");

    let warm = run_many_resilient(std::slice::from_ref(&job), 1, Some(&cache));
    assert_eq!(warm.stats.verify_failures, 1, "the lie must be caught");
    assert_eq!(warm.stats.hits, 0, "a refuted entry is not a hit");
    assert_eq!(
        warm.results[0].as_ref().expect("fresh"),
        cold.results[0].as_ref().expect("cold"),
        "the fresh run wins"
    );
    let (repaired, _) = cache.load(fp).expect("repaired entry");
    assert_eq!(
        repaired.replay_hash, honest.replay_hash,
        "verification must overwrite the poisoned entry"
    );
    let _ = std::fs::remove_dir_all(cache.dir());
}
