//! Behaviour digest: a checked-in fingerprint of what the simulator
//! computes, so refactors and deletions can prove they changed nothing.
//!
//! Each line of `tests/golden/behaviour.digest` is one cell: a label,
//! the FNV-64 of the cell's `RunMetrics` `Debug` string, the final
//! `StateHashes::combined()`, and an FNV-64 fold over every sample of
//! `replay::trace`. The cells cover all eight refresh policies under
//! the event-skip engine, the fixed-step engine, a TLB-conflict mix,
//! the co-design at two and four channels, the co-design with retention
//! tracking under injected refresh faults, and the shadow backend, all
//! at a fast time scale.
//!
//! On a mismatch the test writes the freshly computed digest next to
//! the build output and fails with its path. A change that is meant to
//! move behaviour regenerates the golden file from the workspace root
//! with
//!
//! ```text
//! cp target/behaviour.digest.new crates/core/tests/golden/behaviour.digest
//! ```
//!
//! and says why in its change notes.

use std::hash::Hasher;
use std::path::PathBuf;

use refsim_core::codec::{fnv64, Fnv64};
use refsim_core::config::EngineKind;
use refsim_core::prelude::*;
use refsim_core::replay::{self, ReplayOptions, StateHashes};
use refsim_core::system::System;
use refsim_dram::backend::BackendKind;
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::time::Ps;
use refsim_dram::timing::FgrMode;
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

const GOLDEN: &str = include_str!("golden/behaviour.digest");

const ALL_POLICIES: [RefreshPolicyKind; 8] = [
    RefreshPolicyKind::NoRefresh,
    RefreshPolicyKind::AllBank,
    RefreshPolicyKind::PerBankRoundRobin,
    RefreshPolicyKind::PerBankSequential,
    RefreshPolicyKind::OooPerBank,
    RefreshPolicyKind::Fgr(FgrMode::X2),
    RefreshPolicyKind::Adaptive,
    RefreshPolicyKind::Elastic,
];

/// The fast scale of `engine.rs`: a 1/512 time scale, a quarter
/// retention window of warm-up and one window measured.
fn quick(cfg: SystemConfig) -> SystemConfig {
    let mut c = cfg.with_time_scale(512);
    c.warmup = c.trefw() / 4;
    c.measure = c.trefw();
    c
}

fn small_mix() -> WorkloadMix {
    WorkloadMix::from_groups(
        "test",
        &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
        "M + L",
    )
}

fn tlb_conflict_mix() -> WorkloadMix {
    WorkloadMix::from_groups(
        "tlb-conflict",
        &[(Benchmark::Mcf, 2), (Benchmark::GemsFdtd, 2)],
        "H + M",
    )
}

/// Every cell of the digest, in file order.
fn cells() -> Vec<(String, SystemConfig, WorkloadMix)> {
    let skip = |c: SystemConfig| quick(c).with_engine(EngineKind::EventSkip);
    let mut cells: Vec<_> = ALL_POLICIES
        .iter()
        .map(|&p| {
            (
                format!("small/{p:?}/event-skip"),
                skip(SystemConfig::table1().with_refresh(p)),
                small_mix(),
            )
        })
        .collect();
    cells.push((
        "small/co-design/fixed-step".into(),
        quick(SystemConfig::table1().co_design()).with_engine(EngineKind::FixedStep),
        small_mix(),
    ));
    cells.push((
        "tlb-conflict/AllBank/event-skip".into(),
        skip(SystemConfig::table1().with_refresh(RefreshPolicyKind::AllBank)),
        tlb_conflict_mix(),
    ));
    cells.push((
        "tlb-conflict/co-design/event-skip".into(),
        skip(SystemConfig::table1().co_design()),
        tlb_conflict_mix(),
    ));
    for channels in [2, 4] {
        cells.push((
            format!("small/co-design/{channels}ch/event-skip"),
            skip(SystemConfig::table1().co_design().with_channels(channels)),
            small_mix(),
        ));
    }
    // The retention tracker and the shadow backend carry state of their
    // own; these two cells put both streams under the digest.
    cells.push((
        "small/co-design/tracked-faults/event-skip".into(),
        skip(
            SystemConfig::table1()
                .co_design()
                .with_retention_tracking()
                .with_fault_plan(FaultPlan {
                    seed: 7,
                    skip_ppm: 0,
                    delay_ppm: 200_000,
                    max_delay: Ps::from_us(2),
                    weak_rows: 4,
                    weak_limit: Ps::from_us(50),
                    horizon: 1 << 20,
                }),
        ),
        small_mix(),
    ));
    cells.push((
        "small/AllBank/shadow/event-skip".into(),
        skip(
            SystemConfig::table1()
                .with_refresh(RefreshPolicyKind::AllBank)
                .with_retention_tracking()
                .with_backend(BackendKind::Shadow),
        ),
        small_mix(),
    ));
    cells
}

/// One digest line for `(cfg, mix)`; a run that faults yields an
/// `error` line, which never matches a golden one.
fn cell_line(label: &str, cfg: &SystemConfig, mix: &WorkloadMix) -> String {
    let run = || -> Result<(u64, u64, u64, usize), RefsimError> {
        let mut sys = System::try_new(cfg.clone(), mix)?;
        sys.try_run_until(cfg.warmup)?;
        sys.begin_measure();
        sys.try_run_until(cfg.warmup + cfg.measure)?;
        let state = StateHashes::of(&sys).combined();
        let metrics = fnv64(format!("{:?}", sys.collect()).as_bytes());
        let samples = replay::trace(cfg, mix, &ReplayOptions::for_config(cfg))?;
        let mut fold = Fnv64::new();
        for s in &samples {
            fold.write_u64(s.at.as_ps());
            fold.write_u64(s.hashes.combined());
        }
        Ok((metrics, state, fold.finish(), samples.len()))
    };
    match run() {
        Ok((metrics, state, trace, n)) => format!(
            "{label} metrics={metrics:016x} state={state:016x} trace={trace:016x} samples={n}"
        ),
        Err(e) => format!("{label} error: {e}"),
    }
}

fn golden_line(label: &str) -> &'static str {
    GOLDEN
        .lines()
        .find(|l| l.split(' ').next() == Some(label))
        .unwrap_or_else(|| panic!("no golden line for `{label}`"))
}

#[test]
fn behaviour_matches_the_golden_digest() {
    let fresh: String = cells()
        .iter()
        .map(|(label, cfg, mix)| cell_line(label, cfg, mix) + "\n")
        .collect();
    if fresh != GOLDEN {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).with_file_name("behaviour.digest.new");
        std::fs::write(&out, &fresh).expect("write the fresh digest");
        let diff: Vec<_> = fresh
            .lines()
            .zip(GOLDEN.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  golden: {b}\n  now:    {a}"))
            .collect();
        panic!(
            "behaviour digest moved; fresh digest written to {}\n{}",
            out.display(),
            diff.join("\n")
        );
    }
}

/// Negative control: an engine that overshoots its event horizons by
/// one step must move its cell's digest line. A digest that stays put
/// under a broken engine would pin nothing.
#[test]
fn overshooting_engine_moves_the_digest() {
    let label = "small/AllBank/event-skip";
    let (_, cfg, mix) = cells()
        .into_iter()
        .find(|(l, _, _)| l == label)
        .expect("cell exists");
    let broken = cfg.with_debug_skip_overshoot(Ps::from_ns(250));
    assert_ne!(cell_line(label, &broken, &mix), golden_line(label));
}
