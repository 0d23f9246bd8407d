//! Wall-clock throughput harness for the simulation engines.
//!
//! Runs a fixed scenario matrix once per advancement engine and reports
//! *simulated picoseconds per wall-clock second* — the end-to-end
//! figure of merit for the event-horizon engine. The matrix spans the
//! regimes that matter: the memory-stall-heavy reference scenario at
//! DRAM-clock fidelity (`step` = 1 tCK, where fixed-step pays an
//! iteration per 1.25 ns while event-skip leaps between completions),
//! the same scenario at the default 250 ns pitch, a compute-bound
//! counterpoint (where skipping can at best break even), and
//! mixed/policy variants in between.
//!
//! Results go to stdout as an aligned table and to `BENCH_simwall.json`
//! (hand-formatted; the workspace deliberately has no JSON dependency)
//! for CI artifact upload.
//!
//! Flags:
//!
//! * `--quick` — fewer timing reps (CI smoke);
//! * `--scale N` — time-scale divisor for every scenario (default 256);
//! * `--reps N` — timing repetitions; the median rep wins (default 3);
//! * `--out PATH` — JSON output path (default `BENCH_simwall.json`);
//! * `--threads LIST` — additionally time the 16-cell refresh-policy
//!   sweep at each comma-separated worker count (e.g. `1,2,4`) and
//!   append a `"scaling"` block to the JSON artifact;
//! * `--check` — exit non-zero unless event-skip wins ≥ 3× on the
//!   reference scenario and is no slower than fixed-step (to timing
//!   jitter) everywhere else; with `--threads`, also enforces the
//!   ≥ 1.4× sweep-scaling floor at 2 workers when the host has that
//!   many cores (the JSON records the measured host class either way),
//!   timing a 1-worker baseline even when `LIST` leaves 1 out.

use std::fmt::Write as _;
use std::time::Instant;

use refsim_core::config::{EngineKind, DEFAULT_STEP};
use refsim_core::experiment::Job;
use refsim_core::prelude::*;
use refsim_core::sweep::{run_many_resilient, SweepReport};
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::time::Ps;
use refsim_dram::timing::{FgrMode, Retention};
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

/// The scenario event-skip must win ≥ 3× on under `--check`.
const REFERENCE: &str = "stall_heavy_hifi";

/// Worker count the sweep-scaling floor applies to.
const FLOOR_THREADS: usize = 2;

/// Minimum sweep speedup at [`FLOOR_THREADS`] workers under `--check`.
/// Set below the 1.5–2.6× that `--quick` runs measure on a 2-core host.
const SCALING_FLOOR: f64 = 1.4;

/// Minimum timing repetitions behind every `--check` re-measure. A
/// `--quick` row times 0.1-0.3 s spans; the median of its 2 reps lets
/// one interference burst on a shared host fail a floor, the median of
/// 5 does not.
const RECHECK_REPS: u32 = 5;

/// One DDR3-1600 command clock — the finest pitch at which the
/// controller can schedule distinct commands, i.e. command-level
/// temporal fidelity for completion delivery.
const TCK: Ps = Ps(1_250);

struct Scenario {
    name: &'static str,
    mix: WorkloadMix,
    policy: RefreshPolicyKind,
    step: Ps,
    retention: Retention,
}

fn matrix() -> Vec<Scenario> {
    vec![
        // Reference: a pointer-chasing task per core at DRAM-clock
        // fidelity, on a hot device (32 ms retention — the paper's
        // above-85 °C operating point, so all-bank refresh blocks the
        // channel twice as often). Dependent LLC misses serialize —
        // each core issues a short op burst, then stalls ~100+ ns on
        // the in-flight load — so the machine spends most of its time
        // with every core memory-stalled. The fixed-step engine grinds
        // through ~90 empty 1.25 ns boundaries per stall (hundreds per
        // tRFC block); event-skip leaps straight to the boundary where
        // the next completion is delivered.
        Scenario {
            name: REFERENCE,
            mix: WorkloadMix::from_groups("chase-hifi", &[(Benchmark::Mcf, 2)], "H"),
            policy: RefreshPolicyKind::AllBank,
            step: TCK,
            retention: Retention::Ms32,
        },
        // The same machine at the default 250 ns pitch: completions
        // arrive faster than the step, so there is little to elide and
        // this row pins "no slower than fixed-step" at coarse pitch.
        Scenario {
            name: "stall_heavy",
            mix: WorkloadMix::from_groups("stall-heavy", &[(Benchmark::Stream, 4)], "H"),
            policy: RefreshPolicyKind::AllBank,
            step: DEFAULT_STEP,
            retention: Retention::Ms64,
        },
        // Compute-bound counterpoint: cache-friendly tasks keep both
        // cores busy retiring instructions, so the horizon is almost
        // always the very next step and skipping buys little. This row
        // exists to catch regressions in the skip-decision overhead.
        Scenario {
            name: "compute_heavy",
            mix: WorkloadMix::from_groups("compute-heavy", &[(Benchmark::Povray, 4)], "L"),
            policy: RefreshPolicyKind::AllBank,
            step: DEFAULT_STEP,
            retention: Retention::Ms64,
        },
        Scenario {
            name: "mixed",
            mix: WorkloadMix::from_groups(
                "mixed",
                &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
                "M + L",
            ),
            policy: RefreshPolicyKind::AllBank,
            step: DEFAULT_STEP,
            retention: Retention::Ms64,
        },
        // Elastic refresh reads the utilization estimate every decision,
        // exercising the per-epoch advance caps on the skip path.
        Scenario {
            name: "elastic_stall",
            mix: WorkloadMix::from_groups("elastic-stall", &[(Benchmark::Stream, 4)], "H"),
            policy: RefreshPolicyKind::Elastic,
            step: DEFAULT_STEP,
            retention: Retention::Ms64,
        },
    ]
}

/// One timed run: build, run the span, return wall seconds and the
/// step-loop iteration count.
fn time_run(cfg: &SystemConfig, mix: &WorkloadMix, span: Ps) -> (f64, u64) {
    let mut sys = System::try_new(cfg.clone(), mix).expect("scenario must build");
    let t0 = Instant::now();
    sys.try_run_until(span).expect("scenario must run clean");
    (t0.elapsed().as_secs_f64(), sys.engine_stats().iterations)
}

struct EngineResult {
    wall_s: f64,
    sim_ps_per_s: f64,
    iterations: u64,
}

fn bench_engine(
    base: &SystemConfig,
    engine: EngineKind,
    mix: &WorkloadMix,
    span: Ps,
    reps: u32,
) -> EngineResult {
    let cfg = base.clone().with_engine(engine);
    // Untimed warmup rep to populate caches/allocator, then the median
    // of `reps` timed repetitions. The fastest-of-N estimator looked
    // lower-noise but made `--check` flaky on shared hosts: a single
    // lucky fixed-step rep (or an interference burst hitting every
    // event-skip rep) skews the ratio. The median discards the outlier
    // in either direction instead of always crediting it to one side.
    let (_, iterations) = time_run(&cfg, mix, span);
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| time_run(&cfg, mix, span).0)
        .collect();
    samples.sort_by(f64::total_cmp);
    let wall_s = samples[samples.len() / 2];
    EngineResult {
        wall_s,
        sim_ps_per_s: span.as_ps() as f64 / wall_s,
        iterations,
    }
}

/// The 16-cell matrix behind `--threads`: every refresh
/// policy crossed with a stall-heavy mix on a hot device and a mixed
/// compute/memory mix at nominal retention. Policy diversity gives the
/// work-stealing executor genuinely uneven cell costs; two mixes keep
/// the matrix honest about both regimes.
fn sweep_jobs(scale: u32) -> Vec<Job> {
    let policies = [
        RefreshPolicyKind::NoRefresh,
        RefreshPolicyKind::AllBank,
        RefreshPolicyKind::PerBankRoundRobin,
        RefreshPolicyKind::PerBankSequential,
        RefreshPolicyKind::OooPerBank,
        RefreshPolicyKind::Fgr(FgrMode::X2),
        RefreshPolicyKind::Adaptive,
        RefreshPolicyKind::Elastic,
    ];
    let mixes = [
        (
            WorkloadMix::from_groups("stall-heavy", &[(Benchmark::Stream, 4)], "H"),
            Retention::Ms32,
        ),
        (
            WorkloadMix::from_groups(
                "mixed",
                &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
                "M + L",
            ),
            Retention::Ms64,
        ),
    ];
    let mut jobs = Vec::new();
    for policy in policies {
        for (mix, retention) in &mixes {
            let mut cfg = SystemConfig::table1()
                .with_time_scale(scale)
                .with_refresh(policy);
            cfg.retention = *retention;
            cfg.warmup = cfg.trefw() / 8;
            cfg.measure = cfg.trefw();
            jobs.push(Job {
                cfg,
                mix: mix.clone(),
            });
        }
    }
    jobs
}

/// One sweep-scaling measurement: the median wall over `reps`
/// repetitions at the given worker count, plus the last repetition's
/// report (for result comparison and executor telemetry). Uncached and
/// unpersisted on purpose — the row times the executor, not the disk.
fn time_sweep(jobs: &[Job], threads: usize, reps: u32) -> (f64, SweepReport) {
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let rep = run_many_resilient(jobs, threads, None);
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(rep);
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], last.expect("reps >= 1"))
}

/// A measured `--threads` row. Result Debug strings ride along so every
/// worker count can be checked bit-identical against the baseline.
struct ScalingRow {
    threads: usize,
    wall_s: f64,
    steals: u64,
    requeues: u64,
    results: Vec<String>,
}

fn measure_scaling_row(jobs: &[Job], threads: usize, reps: u32) -> ScalingRow {
    let (wall_s, rep) = time_sweep(jobs, threads, reps);
    ScalingRow {
        threads,
        wall_s,
        steals: rep.executor.steals,
        requeues: rep.executor.requeues,
        results: rep.results.iter().map(|r| format!("{r:?}")).collect(),
    }
}

fn main() {
    let mut scale: u32 = 256;
    let mut reps: u32 = 3;
    let mut out = String::from("BENCH_simwall.json");
    let mut check = false;
    let mut threads_list: Vec<usize> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                // Cut repetitions, not the span: sub-millisecond spans
                // make per-row wall times so short that host jitter can
                // flap the --check floors, and the full matrix already
                // finishes in a couple of seconds.
                reps = 2;
            }
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = v.parse().expect("--scale must be an integer");
            }
            "--reps" => {
                let v = it.next().expect("--reps needs a value");
                reps = v.parse().expect("--reps must be an integer");
            }
            "--out" => out = it.next().expect("--out needs a path"),
            "--threads" => {
                let v = it.next().expect("--threads needs a comma list, e.g. 1,2,4");
                threads_list = v
                    .split(',')
                    .map(|t| {
                        let n: usize = t.trim().parse().expect("--threads takes positive integers");
                        assert!(n > 0, "--threads entries must be positive");
                        n
                    })
                    .collect();
            }
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: [--quick] [--scale N] [--reps N] [--out PATH] \
                     [--threads LIST] [--check]"
                );
                return;
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }

    // Speedups are over the smallest worker count timed; the scaling
    // floor means speedup over one worker.
    if check && !threads_list.is_empty() && !threads_list.contains(&1) {
        threads_list.insert(0, 1);
    }

    let base = SystemConfig::table1().with_time_scale(scale);
    // Four retention windows per run: long enough that host jitter is a
    // few percent of each measurement.
    let span = base.trefw() * 4;
    println!(
        "simwall: span {} us per run, scale {scale}, median of {reps} rep(s)\n",
        span.as_ps() / 1_000_000
    );
    println!(
        "{:<18} {:>9} {:>12} {:>12} {:>11} {:>11} {:>14} {:>8}",
        "scenario",
        "step",
        "fixed (s)",
        "skip (s)",
        "fixed iters",
        "skip iters",
        "skip ps/s",
        "speedup"
    );

    let measure = |sc: &Scenario, reps: u32| {
        let mut cfg = base.clone().with_refresh(sc.policy).with_step(sc.step);
        cfg.retention = sc.retention;
        let fixed = bench_engine(&cfg, EngineKind::FixedStep, &sc.mix, span, reps);
        let skip = bench_engine(&cfg, EngineKind::EventSkip, &sc.mix, span, reps);
        let speedup = skip.sim_ps_per_s / fixed.sim_ps_per_s;
        (span, fixed, skip, speedup)
    };
    let print_row = |sc: &Scenario, fixed: &EngineResult, skip: &EngineResult, speedup: f64| {
        println!(
            "{:<18} {:>7}ns {:>12.3} {:>12.3} {:>11} {:>11} {:>14.3e} {:>7.2}x",
            sc.name,
            sc.step.as_ps() as f64 / 1000.0,
            fixed.wall_s,
            skip.wall_s,
            fixed.iterations,
            skip.iterations,
            skip.sim_ps_per_s,
            speedup
        );
    };
    let floor_of = |name: &str| if name == REFERENCE { 3.0 } else { 0.90 };

    let scenarios = matrix();
    let mut rows = Vec::new();
    for sc in &scenarios {
        let (sc_span, fixed, skip, speedup) = measure(sc, reps);
        print_row(sc, &fixed, &skip, speedup);
        rows.push((sc.name, sc.step, sc_span, fixed, skip, speedup));
    }

    if check {
        // A shared host can hand one scenario a burst of interference
        // (CI runners especially); before failing a floor, re-measure
        // that scenario up to twice, each time as the median of at least
        // `RECHECK_REPS` reps, and keep its best observation. A genuine
        // regression fails all three measurements.
        for (i, sc) in scenarios.iter().enumerate() {
            for attempt in 0..2 {
                if rows[i].5 >= floor_of(sc.name) {
                    break;
                }
                eprintln!(
                    "note: {} speedup {:.2}x below {:.2}x floor; re-measuring ({}/2)",
                    sc.name,
                    rows[i].5,
                    floor_of(sc.name),
                    attempt + 1
                );
                let (sc_span, fixed, skip, speedup) = measure(sc, reps.max(RECHECK_REPS));
                print_row(sc, &fixed, &skip, speedup);
                if speedup > rows[i].5 {
                    rows[i] = (sc.name, sc.step, sc_span, fixed, skip, speedup);
                }
            }
        }
    }

    // ---- sweep scaling matrix (--threads) ----------------------------
    let mut scaling_rows: Vec<ScalingRow> = Vec::new();
    let mut scaling_jobs_len = 0;
    if !threads_list.is_empty() {
        let jobs = sweep_jobs(scale);
        scaling_jobs_len = jobs.len();
        println!(
            "\nsweep scaling: {} cells, median of {reps} rep(s) per worker count",
            jobs.len()
        );
        println!(
            "{:<8} {:>10} {:>9} {:>8} {:>9}",
            "threads", "wall (s)", "speedup", "steals", "requeues"
        );
        // Untimed warmup pass (allocator, page cache) so the first
        // measured worker count is not penalized.
        let _ = time_sweep(&jobs, *threads_list.iter().max().expect("non-empty"), 1);
        for &t in &threads_list {
            scaling_rows.push(measure_scaling_row(&jobs, t, reps));
        }
        let baseline_idx = (0..scaling_rows.len())
            .min_by_key(|&i| scaling_rows[i].threads)
            .expect("non-empty");
        // Result assembly must be worker-count-invariant; a divergence
        // is a correctness bug, not jitter, so it fails unconditionally.
        for row in &scaling_rows {
            assert_eq!(
                row.results, scaling_rows[baseline_idx].results,
                "sweep results diverged between {} and {} workers",
                scaling_rows[baseline_idx].threads, row.threads
            );
        }
        if check {
            // Same interference policy as the engine floors: re-measure
            // a failing floor row and its baseline together up to twice,
            // each as the median of at least `RECHECK_REPS` reps, and
            // keep the pair with the best speedup.
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            for i in 0..scaling_rows.len() {
                if scaling_rows[i].threads != FLOOR_THREADS || cores < FLOOR_THREADS {
                    continue;
                }
                for attempt in 0..2 {
                    let speedup = scaling_rows[baseline_idx].wall_s / scaling_rows[i].wall_s;
                    if speedup >= SCALING_FLOOR {
                        break;
                    }
                    eprintln!(
                        "note: {}-worker speedup {speedup:.2}x below {SCALING_FLOOR:.2}x \
                         floor; re-measuring ({}/2)",
                        FLOOR_THREADS,
                        attempt + 1
                    );
                    let recheck = reps.max(RECHECK_REPS);
                    let base =
                        measure_scaling_row(&jobs, scaling_rows[baseline_idx].threads, recheck);
                    let again = measure_scaling_row(&jobs, FLOOR_THREADS, recheck);
                    if base.wall_s / again.wall_s > speedup {
                        scaling_rows[baseline_idx] = base;
                        scaling_rows[i] = again;
                    }
                }
            }
        }
        let baseline_wall = scaling_rows[baseline_idx].wall_s;
        for row in &scaling_rows {
            println!(
                "{:<8} {:>10.3} {:>8.2}x {:>8} {:>9}",
                row.threads,
                row.wall_s,
                baseline_wall / row.wall_s,
                row.steals,
                row.requeues
            );
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"simwall\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"span_ps\": {},", span.as_ps());
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"reference\": \"{REFERENCE}\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, (name, step, sc_span, fixed, skip, speedup)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"step_ps\": {}, \"span_ps\": {}, \
             \"fixed\": {{\"wall_s\": {:.6}, \"sim_ps_per_s\": {:.1}}}, \
             \"event_skip\": {{\"wall_s\": {:.6}, \"sim_ps_per_s\": {:.1}}}, \
             \"speedup\": {speedup:.4}}}{comma}",
            step.as_ps(),
            sc_span.as_ps(),
            fixed.wall_s,
            fixed.sim_ps_per_s,
            skip.wall_s,
            skip.sim_ps_per_s
        );
    }
    let _ = writeln!(
        json,
        "  ]{}",
        if scaling_rows.is_empty() { "" } else { "," }
    );
    if !scaling_rows.is_empty() {
        let baseline_wall = scaling_rows
            .iter()
            .min_by_key(|r| r.threads)
            .expect("non-empty")
            .wall_s;
        let _ = writeln!(json, "  \"scaling\": {{");
        let _ = writeln!(json, "    \"jobs\": {scaling_jobs_len},");
        let _ = writeln!(json, "    \"reps\": {reps},");
        let _ = writeln!(json, "    \"floor_threads\": {FLOOR_THREADS},");
        let _ = writeln!(json, "    \"floor\": {SCALING_FLOOR},");
        // The floor is calibrated against a host class, not wished onto
        // whatever machine happens to run CI: say outright when the
        // floor cannot apply here.
        let _ = writeln!(
            json,
            "    \"floor_skipped\": {},",
            host_cores < FLOOR_THREADS
        );
        if host_cores < FLOOR_THREADS {
            let _ = writeln!(
                json,
                "    \"note\": \"host has {host_cores} core(s), below the \
                 {FLOOR_THREADS}-worker floor class; speedups are recorded but not gated\","
            );
        }
        let _ = writeln!(json, "    \"rows\": [");
        for (i, row) in scaling_rows.iter().enumerate() {
            let comma = if i + 1 < scaling_rows.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "      {{\"threads\": {}, \"wall_s\": {:.6}, \"speedup\": {:.4}, \
                 \"steals\": {}, \"requeues\": {}}}{comma}",
                row.threads,
                row.wall_s,
                baseline_wall / row.wall_s,
                row.steals,
                row.requeues
            );
        }
        let _ = writeln!(json, "    ]");
        let _ = writeln!(json, "  }}");
    }
    let _ = writeln!(json, "}}");
    // Atomic publish so a concurrent reader (or a crash mid-write)
    // never observes a truncated artifact.
    refsim_core::vfs::write_atomic(
        &refsim_core::vfs::StdVfs,
        std::path::Path::new(&out),
        json.as_bytes(),
    )
    .expect("publish JSON artifact");
    println!("\nwrote {out}");

    if check {
        let mut failed = false;
        for (name, _, _, _, _, speedup) in &rows {
            // Reference must clear 3×; elsewhere event-skip must not be
            // slower than fixed-step (0.90 floor absorbs timer jitter on
            // rows where the honest expectation is parity).
            let floor = floor_of(name);
            if *speedup < floor {
                eprintln!("FAIL: {name} speedup {speedup:.2}x is below the {floor:.2}x floor");
                failed = true;
            }
        }
        if !scaling_rows.is_empty() {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            let baseline_wall = scaling_rows
                .iter()
                .min_by_key(|r| r.threads)
                .expect("non-empty")
                .wall_s;
            for row in &scaling_rows {
                if row.threads != FLOOR_THREADS {
                    continue;
                }
                let speedup = baseline_wall / row.wall_s;
                if cores < FLOOR_THREADS {
                    eprintln!(
                        "note: host has {cores} core(s); skipping the {FLOOR_THREADS}-worker \
                         {SCALING_FLOOR:.2}x scaling floor"
                    );
                } else if speedup < SCALING_FLOOR {
                    eprintln!(
                        "FAIL: sweep speedup {speedup:.2}x at {FLOOR_THREADS} workers is \
                         below the {SCALING_FLOOR:.2}x floor"
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: event-skip >=3x on {REFERENCE}, no slower elsewhere");
    }
}
