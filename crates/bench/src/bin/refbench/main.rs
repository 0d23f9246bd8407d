//! `refbench`: one benchmark for the simulator and the figure pipeline,
//! measured end to end and layer by layer.
//!
//! ```text
//! refbench --workload <name>|all [--seed N] [--seconds S] [--trace 0|1|PATH]
//!          [--out results.json] [--calibrate N]
//! ```
//!
//! The benchmark is a package of its own, built with
//! `cargo run --release --manifest-path crates/bench/src/bin/refbench/Cargo.toml -- ...`
//! (the command in BENCHMARK.json). The same `main.rs` is also a
//! `refsim-bench` binary, which is how its unit tests run:
//! `cargo test -p refsim-bench --bin refbench`.
//!
//! # Workloads
//!
//! Each simulation workload runs one design point on the Table 1
//! machine (1 channel, 2 ranks × 8 banks, 32 Gb, 2 cores) single
//! threaded. A *repetition* builds a fresh `System`, runs one tREFW
//! untimed (the warm-up), calls `begin_measure`, then times
//! `try_run_until` once per quantum (tREFW/16) for 8 tREFW: 128 timed
//! quanta. A run first makes the untimed *reference run* (the design
//! point at seed 24301 with the retention oracle on), then timed
//! repetitions at `--seed` until `--seconds` have passed, at least three.
//!
//! - `codesign_wl5` — WL-5 (GemsFDTD×8) under `.co_design()`, 64 ms,
//!   250 ns step, time scale 32: the paper's own configuration on its
//!   top-gain mix. It exercises Algorithm 1 (sequential per-bank
//!   refresh), Algorithm 2 (partitioned allocation) and Algorithm 3
//!   (refresh-aware scheduling) together; this is where the step loop
//!   should be optimised.
//! - `allbank_chase_hifi` — WL-1 (mcf×8), all-bank refresh, 32 ms,
//!   1.25 ns step, time scale 8: memory-stall bound at DRAM-clock
//!   fidelity. The event-skip horizon and the controller advance do most
//!   of the work; workload generation and caches do little.
//! - `compute_wl2` — WL-2 (povray×8), all-bank, 64 ms, 250 ns step,
//!   time scale 32: cache resident. Workload generation and the cache
//!   model dominate, DRAM is nearly idle and nothing is skipped, so a
//!   DRAM or engine change should show no effect here.
//! - `figure_pipeline` — `ExpOptions::quick()` at `--seed` on 2 executor
//!   threads: the 12 `all_figures` sections through collect →
//!   `RunPool::execute` → render. A *round* is a cold pass on an empty
//!   `RunCache` (every cell simulated and stored) and then a warm pass
//!   on the cache it filled (every cell served); a run makes rounds until
//!   `--seconds` have passed, at least two (about 50 s in all). What
//!   users run to regenerate the evidence; it covers the experiment,
//!   executor and cache layers and, through Figure 5, `os` allocation.
//!   BENCHMARK.json leaves it out: on the 2-core recording host its
//!   timed metrics spread up to 18% (quartile spread over 10 runs),
//!   past the 15% cap on bounds, so it is measured but not gated.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every workload reports every metric, with tracing off.
//!
//! - `sim_ps_per_s` — simulated ps per host second: the fastest
//!   repetition's measured windows; for the pipeline, the cells a cold
//!   pass executes (warm-up plus measured windows) over the fastest cold
//!   `RunPool::execute`.
//! - `setup_s` — `try_new` plus the warm-up window, median over the
//!   repetitions; for the pipeline, the collect phase, median over every
//!   pass.
//! - `pass_s` — the fastest repetition (set-up, measured windows and
//!   `collect`); for the pipeline, the fastest cold pass plus the fastest
//!   warm pass (also printed as `pipeline_cold_s` and `pipeline_warm_s`).
//! - `peak_rss_mb` — `VmHWM` from `/proc/self/status`: right after the
//!   reference run for a simulation workload, so it does not depend on
//!   `--seed` (at the end of the run, one WL-1 seed in ten read 40%
//!   above the rest); at the end of the run for the pipeline.
//! - `hmean_ipc`, `read_latency_cycles` — simulated: the paper's headline
//!   metric and Figure 11's, from the reference run (for the pipeline,
//!   the headline cell — Figure 10, 32 Gb, co-design, WL-5 — at seed
//!   24301, run without a cache). They do not depend on `--seed`, so
//!   every run of a commit reports them bit-identical, and their bound is
//!   a millionth: a speed-only change must not move them.
//!
//! Times take the fastest of several samples because the 2-core
//! recording host is shared and neighbours slow whole repetitions for
//! seconds at a time. In 6-run probes the median repetition of a run
//! spread up to 12% between runs, the fastest at most 5%.
//!
//! Text output also carries the sample counts (`repetitions`, `rounds`),
//! the median repetition `pass_s_p50` and `quantum_ms_p50` (the median
//! of the per-repetition median quantum), and for the pipeline
//! `cells_executed` and `headline_speedup` (at `--seed`).
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! The traced run alternates traced and untraced repetitions (the
//! pipeline runs one untraced and one traced round), so
//! `bench.trace_overhead_pct` compares pass walls within one process.
//! Layer metrics come from calls into each layer's public functions,
//! timed from outside (in-program phase clocks are a separate change).
//! For the pipeline, the simulation layers are measured on its headline
//! cell at the pipeline's time scale.
//!
//! - `system.ns_per_iteration`, `system.iterations_per_quantum`,
//!   `system.steps_elided_ratio` → `sim_ps_per_s` on
//!   `allbank_chase_hifi`; flat at the 250 ns step.
//! - `system.ns_per_command` → `sim_ps_per_s` on `allbank_chase_hifi`
//!   and `codesign_wl5`; `system.ns_per_kinst` → on `compute_wl2`.
//! - `system.quantum_ms_p50`, `system.quantum_ms_p90` — quantum timing
//!   (the highest tail the ten-samples rule allows also prints as text).
//! - `system.residual_share` — wall not attributed to any layer share.
//! - `workloads.next_op_ns`, `cpu.access_ns`, `cpu.llc_miss_ratio` →
//!   `sim_ps_per_s` on `compute_wl2`; barely on `allbank_chase_hifi`.
//! - `os.alloc_page_ns`, `os.alloc_spill_ratio` → `setup_s` and `pass_s`
//!   on `figure_pipeline` (measured there on Figure 5's bank-0-first
//!   loop), `setup_s` on `codesign_wl5`. `os.pick_next_ns` →
//!   `sim_ps_per_s` on `codesign_wl5` (a predicted share under 1%).
//! - `dram.enqueue_ns`, `dram.advance_ns_per_command`,
//!   `dram.enqueue_retry_ratio` → `sim_ps_per_s` on `allbank_chase_hifi`
//!   and `codesign_wl5`, not on `compute_wl2`.
//! - `<layer>.est_share` — the layer's call count in the simulation run
//!   (memory operations, `commands_total`, faults, picks) × the driver's
//!   ns per call ÷ measured wall. Estimates, not gated: the drivers call
//!   `next_op` and `access`, while the step loop still runs faster twins
//!   of both, so the shares can sum past 1 and the residual go negative.
//! - `sim.*` — modelled components at `--seed`; a speed-only change must
//!   not move them.
//! - `experiment.*`, `executor.*`, `runcache.*` → `setup_s`, `pass_s`
//!   and `sim_ps_per_s` on `figure_pipeline`. A simulation workload runs
//!   its design point as a one-cell pipeline for these (it has no Figure
//!   5, so its `experiment.figure05_s` is 0). `executor.utilization` is
//!   the warm pass's `saved_nanos` ÷ (threads × cold execute wall).
//!
//! Driver fidelity is printed as checks: over the same quanta as the
//! simulation measured, the cpu driver's MPKI must be within 15% of
//! `sim.mpki`; the dram driver must hand its controller exactly as many
//! requests as the simulation submitted (queued reads and writes plus
//! forwarded reads), with a write share within 15% of the simulation's.
//!
//! # Correctness
//!
//! These count as failed operations (`ops_failed`): a `RefsimError`; a
//! repetition whose `RunMetrics` Debug string differs from the first
//! repetition's; a retention violation in the reference run; a pipeline
//! pass whose markdown differs from the first cold pass; an
//! `error`/`violated` cell; a refuted cache entry (`verify_failures`).
//! The run then reports `"correct": false` and exits 1.
//!
//! # Seeds
//!
//! `--seed` (default 24301, the repo's 0x5EED) seeds every timed input:
//! the repetitions' workload generators and the pipeline's options. The
//! reference runs always use 24301. The seed 48879 is held out: use it
//! only to confirm a claim made on other seeds, never while developing
//! the change.
//!
//! # Trace format
//!
//! `--trace 1` writes `.refbench/spans-<workload>.jsonl` (`--trace PATH`
//! writes PATH): one span per line with `id`, `parent` (null for a
//! root), `trace` (`<workload>/<repetition>`), `name`, `start_ns`,
//! `end_ns`, `count` (layer calls covered) and `self_ns` (duration minus
//! the part its children cover). Spans wrap `try_new`, the warm-up, each
//! quantum and `collect`; each driver batch of 4096 calls; each figure
//! builder call of both phases and `RunPool::execute`. They are kept in
//! memory and written at exit.
//!
//! # Calibration
//!
//! `refbench --workload all --seconds 15 --calibrate 10` runs each
//! workload of BENCHMARK.json 10 times at `--seed` (host noise alone) and
//! 10 times at the 10 seeds after it (noise plus input variation, which a
//! harness that varies the seed sees), each in a fresh process. It prints
//! every end-to-end metric's quartiles, quartile spread and min–max
//! spread per set and rewrites the bounds in `BENCHMARK.json`: three
//! times the worst quartile spread, rounded up to a percent, between 2%
//! and 15%, with a note where the spread is more than a third of its
//! bound. A metric spreading past 15% is reported unresolved and keeps
//! its bound (the calibration exits 1): measure more work per run
//! instead of widening it. The cap is no lower because the recording
//! host drifts by more than 10% over minutes: in one set of ten 30 s
//! runs of `allbank_chase_hifi` at one seed, the fastest repetition's
//! median moved 13% between the first five runs and the last five. The simulated metrics must be bit-identical
//! in every run and get the exact bound; `setup_s` gets the largest bound
//! written. Calibrating `figure_pipeline` prints its spreads only.

mod layers;
mod pipeline;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use refsim_core::experiment::Job;
use refsim_dram::time::Ps;
use refsim_dram::timing::Retention;

use crate::layers::{Check, SimRun};
use crate::sim::SimSpec;
use crate::stats::{median, quartiles};
use crate::trace::{self_times, Tracer};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// End-to-end metrics: `(name, unit, better)`, the order they print in.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("sim_ps_per_s", "ps/s", "higher"),
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("hmean_ipc", "IPC", "higher"),
    ("read_latency_cycles", "cycles", "lower"),
];

/// Per-layer metrics: `(name, unit)`, the order they print in.
const PER_LAYER: [(&str, &str); 41] = [
    ("system.ns_per_iteration", "ns"),
    ("system.iterations_per_quantum", "count"),
    ("system.steps_elided_ratio", "ratio"),
    ("system.ns_per_command", "ns"),
    ("system.ns_per_kinst", "ns"),
    ("system.quantum_ms_p50", "ms"),
    ("system.quantum_ms_p90", "ms"),
    ("system.residual_share", "ratio"),
    ("workloads.next_op_ns", "ns"),
    ("workloads.est_share", "ratio"),
    ("cpu.access_ns", "ns"),
    ("cpu.llc_miss_ratio", "ratio"),
    ("cpu.est_share", "ratio"),
    ("os.alloc_page_ns", "ns"),
    ("os.alloc_spill_ratio", "ratio"),
    ("os.pick_next_ns", "ns"),
    ("os.est_share", "ratio"),
    ("dram.enqueue_ns", "ns"),
    ("dram.advance_ns_per_command", "ns"),
    ("dram.enqueue_retry_ratio", "ratio"),
    ("dram.est_share", "ratio"),
    ("sim.mpki", "MPKI"),
    ("sim.row_hit_ratio", "ratio"),
    ("sim.refresh_blocked_read_ratio", "ratio"),
    ("sim.stall_fraction", "ratio"),
    ("sim.refresh_dodges_per_pick", "ratio"),
    ("sim.eta_fallbacks", "count"),
    ("experiment.collect_s", "s"),
    ("experiment.execute_s", "s"),
    ("experiment.render_s", "s"),
    ("experiment.figure05_s", "s"),
    ("experiment.dedup_factor", "x"),
    ("executor.cells_per_s", "1/s"),
    ("executor.utilization", "ratio"),
    ("executor.steals", "count"),
    ("executor.requeues", "count"),
    ("runcache.bytes_written", "B"),
    ("runcache.hit_ratio", "ratio"),
    ("runcache.warm_ns_per_hit", "ns"),
    ("runcache.failures", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every unit a metric line can carry.
const UNITS: [&str; 14] = [
    "ps/s", "s", "MB", "IPC", "cycles", "ns", "ms", "count", "ratio", "MPKI", "x", "1/s", "B", "%",
];

/// The metric names a run reports in its result line.
fn catalog(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

/// The simulated end-to-end metrics: taken from each workload's
/// reference run, so every run of a commit reports them bit-identical.
const EXACT: [&str; 2] = ["hmean_ipc", "read_latency_cycles"];

/// The default `--seed`: the repo's 0x5EED.
const DEFAULT_SEED: u64 = sim::REFERENCE_SEED;

/// The default `--seconds`: short enough that `--workload all` ends
/// within 90 s on the 2-core recording host. BENCHMARK.json measures
/// 30 s per run.
const DEFAULT_SECONDS: u64 = 8;

/// The range of bounds `--calibrate` writes for timed metrics. A metric
/// that spreads past `MAX_BOUND` is left unresolved.
const MAX_BOUND: f64 = 0.15;
const MIN_BOUND: f64 = 0.02;

/// The bound of the [`EXACT`] metrics: a millionth, so any simulated
/// result that gets worse fails the comparison.
const EXACT_BOUND: f64 = 0.000_001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sim,
    Pipeline,
}

#[derive(Debug)]
struct Workload {
    name: &'static str,
    kind: Kind,
    /// Listed in BENCHMARK.json, so its end-to-end metrics are judged
    /// against the bounds there.
    gated: bool,
    /// The design point: the workload itself, or for the pipeline the
    /// headline cell its simulation layers are measured on.
    sim: SimSpec,
}

const TABLE1_STEP: Ps = Ps(250_000);

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "codesign_wl5",
        kind: Kind::Sim,
        gated: true,
        sim: SimSpec {
            mix: "WL-5",
            co_design: true,
            retention: Retention::Ms64,
            step: TABLE1_STEP,
            time_scale: 32,
        },
    },
    Workload {
        name: "allbank_chase_hifi",
        kind: Kind::Sim,
        gated: true,
        sim: SimSpec {
            mix: "WL-1",
            co_design: false,
            retention: Retention::Ms32,
            step: Ps(1_250),
            time_scale: 8,
        },
    },
    Workload {
        name: "compute_wl2",
        kind: Kind::Sim,
        gated: true,
        sim: SimSpec {
            mix: "WL-2",
            co_design: false,
            retention: Retention::Ms64,
            step: TABLE1_STEP,
            time_scale: 32,
        },
    },
    Workload {
        name: "figure_pipeline",
        kind: Kind::Pipeline,
        gated: false,
        sim: SimSpec {
            mix: "WL-5",
            co_design: true,
            retention: Retention::Ms64,
            step: TABLE1_STEP,
            time_scale: 128,
        },
    },
];

fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    /// `None`: tracing off; else where the spans go (`None` inside: the
    /// default per-workload path).
    trace: Option<Option<PathBuf>>,
    out: Option<PathBuf>,
    calibrate: Option<usize>,
}

const USAGE: &str = "usage: refbench --workload <name>|all [--seed N] [--seconds S] \
                     [--trace 0|1|PATH] [--out results.json] [--calibrate N]\n\
                     workloads: codesign_wl5 allbank_chase_hifi compute_wl2 figure_pipeline";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        calibrate: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(PathBuf::from(path))),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--calibrate" => {
                let n: usize = value()?.parse().map_err(|e| format!("--calibrate: {e}"))?;
                if n < 2 {
                    return Err("--calibrate needs at least 2 runs".to_owned());
                }
                a.calibrate = Some(n);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload != "all" && workload(&a.workload).is_none() {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// What one workload run produced.
#[derive(Debug, Default)]
struct Report {
    workload: &'static str,
    attempted: u64,
    failures: Vec<String>,
    /// The catalog metrics for this mode, in catalog order.
    metrics: Vec<Metric>,
    /// Text-only numbers beside the catalog.
    extras: Vec<Metric>,
    checks: Vec<Check>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Orders `found` by `catalog`; a missing or non-finite metric is a
    /// failure of the benchmark itself.
    fn set_metrics(&mut self, catalog: &[&str], found: Vec<Metric>) {
        for name in catalog {
            match found.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => self.metrics.push(m.clone()),
                Some(m) => self.failures.push(format!("metric {name} is {}", m.value)),
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
    }
}

fn working_dir() -> PathBuf {
    let dir = PathBuf::from(".refbench");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn run_workload(w: &Workload, a: &Args) -> Report {
    let mut r = Report {
        workload: w.name,
        ..Report::default()
    };
    let budget = Duration::from_secs(a.seconds);
    let mut found = Vec::new();
    match (&a.trace, w.kind) {
        (None, Kind::Sim) => {
            let set = sim::measure(&w.sim, w.name, a.seed, budget, &mut Tracer::off());
            r.attempted += set.attempted;
            r.failures.extend(set.failures);
            found.extend(set.reference.iter().flat_map(sim::simulated));
            found.extend(
                set.reference_rss_mb
                    .map(|mb| Metric::new("peak_rss_mb", mb, "MB")),
            );
            if !set.untraced.is_empty() {
                found.extend(sim::end_to_end(&set.untraced));
                let passes: Vec<f64> = set.untraced.iter().map(|x| secs(x.pass_ns())).collect();
                r.extras.extend([
                    Metric::new("pass_s_p50", median(&passes), "s"),
                    Metric::new("repetitions", passes.len() as f64, "count"),
                    Metric::new("quantum_ms_p50", sim::quantum_ms_p50(&set.untraced), "ms"),
                ]);
            }
        }
        (None, Kind::Pipeline) => {
            r.attempted += 1;
            match pipeline::headline_reference() {
                Ok(m) => found.extend(sim::simulated(&m)),
                Err(e) => r.failures.push(e),
            }
            let dir = working_dir().join(format!("cache-{}", std::process::id()));
            let set = pipeline::measure(
                &pipeline::figure_sections(),
                &pipeline::quick_options(a.seed),
                &dir,
                budget,
                pipeline::MIN_ROUNDS,
                &mut Tracer::off(),
            );
            let _ = std::fs::remove_dir_all(&dir);
            r.attempted += set.attempted();
            r.failures.extend(set.failures.iter().cloned());
            found.extend(pipeline::end_to_end(&set));
            for (name, passes) in [
                ("pipeline_cold_s", &set.cold),
                ("pipeline_warm_s", &set.warm),
            ] {
                let fastest = passes.iter().map(pipeline::Pass::total_ns).min();
                r.extras
                    .extend(fastest.map(|ns| Metric::new(name, secs(ns), "s")));
            }
            r.extras
                .push(Metric::new("rounds", set.cold.len() as f64, "count"));
            let cold = &set.cold[0];
            r.extras.push(Metric::new(
                "cells_executed",
                cold.cache.executed as f64,
                "count",
            ));
            if let Some(s) = pipeline::headline_speedup(&cold.tables) {
                r.extras.push(Metric::new("headline_speedup", s, "x"));
            }
        }
        (Some(path), _) => {
            let mut tr = Tracer::on();
            found.extend(traced(w, a, &mut tr, &mut r));
            let path = path
                .clone()
                .unwrap_or_else(|| working_dir().join(format!("spans-{}.jsonl", w.name)));
            r.checks.push(span_check(&tr));
            if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
                r.failures.push(format!("writing {}: {e}", path.display()));
            } else {
                r.extras.push(Metric::new(
                    "spans_written",
                    tr.spans().len() as f64,
                    "count",
                ));
            }
        }
    }
    if !found.iter().any(|m| m.name == "peak_rss_mb") {
        found.extend(peak_rss_mb().map(|mb| Metric::new("peak_rss_mb", mb, "MB")));
    }
    if r.failures.is_empty() {
        r.set_metrics(&catalog(a.trace.is_some()), found);
    }
    r
}

/// The traced run: per-layer metrics for every layer, on this
/// workload's own design point (simulation workloads) or the headline
/// cell (pipeline), plus the pipeline layers on this workload's
/// pipeline (a one-cell pipeline for simulation workloads).
fn traced(w: &Workload, a: &Args, tr: &mut Tracer, r: &mut Report) -> Vec<Metric> {
    let mut found = Vec::new();
    let budget = match w.kind {
        Kind::Sim => Duration::from_secs(a.seconds),
        Kind::Pipeline => Duration::ZERO,
    };
    let reps = sim::measure(&w.sim, w.name, a.seed, budget, tr);
    r.attempted += reps.attempted;
    r.failures.extend(reps.failures.iter().cloned());
    if reps.untraced.is_empty() || reps.traced.is_empty() {
        return found;
    }
    found.extend(sim::system_layer(&reps.untraced));
    r.extras.extend(sim::quantum_tail(&reps.untraced));
    let cfg = w.sim.config(a.seed);
    let mix = w.sim.mix();
    let run = SimRun {
        cfg: &cfg,
        mix: &mix,
        metrics: &reps.untraced[0].metrics,
        wall_ns: sim::fastest(&reps.untraced).measured_ns() as f64,
        quanta: sim::QUANTA_PER_WINDOW * sim::MEASURED_WINDOWS,
    };
    tr.set_trace(format!("{}/drivers", w.name));
    r.attempted += 1;
    match layers::run_drivers(&run, tr) {
        Ok(l) => {
            found.extend(l.metrics);
            r.checks.extend(l.checks);
        }
        Err(e) => r.failures.push(e),
    }

    let o = pipeline::quick_options(a.seed);
    let dir = working_dir().join(format!("cache-{}", std::process::id()));
    let overhead = match w.kind {
        Kind::Sim => {
            let job = Job { cfg, mix };
            tr.set_trace(format!("{}/pipeline", w.name));
            let set = pipeline::measure(
                &pipeline::cell_section(job),
                &o,
                &dir,
                Duration::ZERO,
                1,
                tr,
            );
            found.extend(pipeline_layer(&set, &dir, tr, r));
            sim::fastest(&reps.traced).pass_ns() as f64
                / sim::fastest(&reps.untraced).pass_ns() as f64
        }
        Kind::Pipeline => {
            // Figure 5's allocation loop replaces the cell's first-touch
            // allocation numbers: it is the pipeline's allocation pattern.
            tr.set_trace(format!("{}/figure5", w.name));
            let alloc = layers::figure5_alloc(tr);
            found.retain(|m| !alloc.iter().any(|x| x.name == m.name));
            found.extend(alloc);
            let sections = pipeline::figure_sections();
            let plain_dir = working_dir().join(format!("cache-{}-untraced", std::process::id()));
            let plain = pipeline::measure(
                &sections,
                &o,
                &plain_dir,
                Duration::ZERO,
                1,
                &mut Tracer::off(),
            );
            let _ = std::fs::remove_dir_all(&plain_dir);
            r.attempted += plain.attempted();
            r.failures.extend(plain.failures.iter().cloned());
            tr.set_trace(format!("{}/round", w.name));
            let set = pipeline::measure(&sections, &o, &dir, Duration::ZERO, 1, tr);
            found.extend(pipeline_layer(&set, &dir, tr, r));
            set.cold[0].total_ns() as f64 / plain.cold[0].total_ns() as f64
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    found.push(Metric::new(
        "bench.trace_overhead_pct",
        (overhead - 1.0) * 100.0,
        "%",
    ));
    found
}

/// `experiment.*`, `executor.*` and `runcache.*` from the first round's
/// cold and warm pass.
fn pipeline_layer(
    set: &pipeline::PassSet,
    dir: &Path,
    tr: &mut Tracer,
    r: &mut Report,
) -> Vec<Metric> {
    r.attempted += set.attempted();
    r.failures.extend(set.failures.iter().cloned());
    let (Some(cold), Some(warm)) = (set.cold.first(), set.warm.first()) else {
        return Vec::new();
    };
    let execute_s = secs(cold.execute_ns);
    let failures: u64 = set
        .cold
        .iter()
        .chain(&set.warm)
        .map(|p| {
            p.cache.misses_corrupt
                + p.cache.misses_io
                + p.cache.store_failures
                + p.cache.verify_failures
        })
        .sum();
    vec![
        Metric::new("experiment.collect_s", secs(cold.collect_ns), "s"),
        Metric::new("experiment.execute_s", execute_s, "s"),
        Metric::new("experiment.render_s", secs(cold.render_ns), "s"),
        Metric::new("experiment.figure05_s", secs(cold.figure05_ns), "s"),
        Metric::new("experiment.dedup_factor", cold.cache.dedup_factor(), "x"),
        Metric::new(
            "executor.cells_per_s",
            cold.cache.executed as f64 / execute_s,
            "1/s",
        ),
        Metric::new(
            "executor.utilization",
            warm.cache.saved_nanos as f64 / (pipeline::THREADS as f64 * cold.execute_ns as f64),
            "ratio",
        ),
        Metric::new("executor.steals", cold.exec.steals as f64, "count"),
        Metric::new("executor.requeues", cold.exec.requeues as f64, "count"),
        Metric::new(
            "runcache.bytes_written",
            cold.cache.bytes_written as f64,
            "B",
        ),
        Metric::new("runcache.hit_ratio", warm.cache.hit_rate(), "ratio"),
        Metric::new(
            "runcache.warm_ns_per_hit",
            pipeline::warm_ns_per_hit(&pipeline::round_dir(dir, 0), tr),
            "ns",
        ),
        Metric::new("runcache.failures", failures as f64, "count"),
    ]
}

/// The self times of every span must add up to the traced wall: the
/// summed durations of the root spans.
fn span_check(tr: &Tracer) -> Check {
    let own: u64 = self_times(tr.spans()).iter().sum();
    let wall: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let share = own as f64 / wall.max(1) as f64;
    Check {
        name: "span_self_time_coverage",
        ok: (share - 1.0).abs() <= 0.05,
        detail: format!(
            "self times sum to {:.1}% of the {:.3} s traced wall",
            share * 100.0,
            secs(wall)
        ),
    }
}

// ---- output --------------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}")
}

/// The host the numbers were measured on.
#[derive(Debug)]
struct Host {
    cores: usize,
    cpu: String,
    rev: String,
}

impl Host {
    fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // Only ask git inside a checkout of its own, so it never walks up
        // into a directory above this one.
        let rev = Path::new(".git")
            .exists()
            .then(|| {
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
        Host {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu,
            rev,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu\": {}, \"rev\": {}}}",
            self.cores,
            json_str(&self.cpu),
            json_str(&self.rev)
        )
    }
}

fn print_report(r: &Report) {
    for m in r.metrics.iter().chain(&r.extras) {
        println!("{} {} {} {}", r.workload, m.name, m.value, m.unit);
    }
    println!("{} ops_attempted {} count", r.workload, r.attempted);
    println!("{} ops_failed {} count", r.workload, r.failures.len());
    for c in &r.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("# {} check {} {verdict}: {}", r.workload, c.name, c.detail);
    }
    for f in &r.failures {
        eprintln!("{}: FAILED: {f}", r.workload);
    }
}

fn write_out(path: &Path, host: &Host, a: &Args, body: &str) {
    let json = format!(
        "{{\"host\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"results\": {body}}}\n",
        host.json(),
        a.seed,
        a.seconds,
        a.trace.is_some()
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("refbench: writing {}: {e}", path.display());
    }
}

fn report_json(r: &Report) -> String {
    let all: Vec<Metric> = r.metrics.iter().chain(&r.extras).cloned().collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"checks\": [{}], \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failures.len(),
        r.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
        r.checks
            .iter()
            .map(|c| format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(c.name),
                c.ok,
                json_str(&c.detail)
            ))
            .collect::<Vec<_>>()
            .join(", "),
        json_metrics(&all)
    )
}

// ---- child processes: `all` and `--calibrate` ----------------------------

/// One child run's parsed output.
#[derive(Debug, Default)]
struct ChildRun {
    ok: bool,
    attempted: u64,
    failed: u64,
    /// Every `<workload> <name> <value> <unit>` line.
    metrics: Vec<Metric>,
}

/// Runs `refbench --workload <name>` in a fresh process and parses its
/// metric lines; its text output (bar the JSON line) is forwarded when
/// `echo` is set.
fn run_child(name: &str, seconds: u64, seed: u64, traced: bool, echo: bool) -> ChildRun {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("refbench: cannot locate own binary: {e}");
            return ChildRun::default();
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    let out = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("refbench: running {name}: {e}");
            return ChildRun::default();
        }
    };
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut run = ChildRun {
        ok: out.status.success(),
        ..ChildRun::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if line.starts_with('{') || line.starts_with("# host") {
            continue;
        }
        if echo {
            println!("{line}");
        }
        let f: Vec<&str> = line.split(' ').collect();
        let (4, Some(&wl)) = (f.len(), f.first()) else {
            continue;
        };
        let Ok(value) = f[2].parse::<f64>() else {
            continue;
        };
        if wl != name {
            continue;
        }
        match f[1] {
            "ops_attempted" => run.attempted = value as u64,
            "ops_failed" => run.failed = value as u64,
            metric => {
                let unit = UNITS.iter().find(|u| **u == f[3]).copied().unwrap_or("");
                run.metrics.push(Metric::new(metric, value, unit));
            }
        }
    }
    run
}

fn run_all(a: &Args, host: &Host) -> bool {
    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut merged = Vec::new();
    let mut bodies = Vec::new();
    let catalog = catalog(a.trace.is_some());
    for w in &WORKLOADS {
        let run = run_child(w.name, a.seconds, a.seed, a.trace.is_some(), true);
        ok &= run.ok;
        attempted += run.attempted;
        failed += run.failed;
        merged.extend(
            run.metrics
                .iter()
                .filter(|m| catalog.contains(&m.name.as_str()))
                .map(|m| Metric::new(format!("{}.{}", w.name, m.name), m.value, m.unit)),
        );
        bodies.push(format!(
            "{}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            json_str(w.name),
            run.ok,
            run.attempted,
            run.failed,
            json_metrics(&run.metrics)
        ));
    }
    if let Some(path) = &a.out {
        write_out(path, host, a, &format!("{{{}}}", bodies.join(", ")));
    }
    println!(
        "{}",
        result_line(ok, attempted.max(1), failed, &json_metrics(&merged))
    );
    ok
}

/// A new bound from the worst quartile spread seen: three times it,
/// rounded up to a percent, clamped to `[MIN_BOUND, MAX_BOUND]`; `None`
/// when the spread itself is past `MAX_BOUND`.
fn bound_for(spread: f64) -> Option<f64> {
    let bound = ((3.0 * spread * 100.0).ceil() / 100.0).clamp(MIN_BOUND, MAX_BOUND);
    (spread <= MAX_BOUND).then_some(bound)
}

/// Runs each workload `n` times at `--seed` (noise alone) and `n` times
/// at the `n` seeds after it (noise plus input variation, as a harness
/// that varies the seed sees it), each run in a fresh process. Prints
/// every end-to-end metric's quartiles and spreads per set, then writes
/// the bounds into BENCHMARK.json.
fn calibrate(a: &Args, n: usize) -> bool {
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| w.name == a.workload || (a.workload == "all" && w.gated))
        .collect();
    let sets = [
        ("fixed", vec![a.seed; n]),
        ("seeds", (1..=n as u64).map(|i| a.seed + i).collect()),
    ];
    let mut worst = [0.0f64; END_TO_END.len()];
    let mut ok = true;
    println!(
        "{:<20} {:<6} {:<20} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "workload", "set", "metric", "q1", "median", "q3", "iqr%", "range%"
    );
    for name in chosen.iter().map(|w| w.name) {
        let mut exact: Vec<(&str, f64)> = Vec::new();
        for (set, seeds) in &sets {
            let runs: Vec<ChildRun> = seeds
                .iter()
                .map(|&seed| run_child(name, a.seconds, seed, false, false))
                .collect();
            ok &= runs.iter().all(|r| r.ok);
            for (k, (metric, _, _)) in END_TO_END.iter().enumerate() {
                let v: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.name == *metric))
                    .map(|m| m.value)
                    .collect();
                if v.len() < 2 {
                    println!("{name:<20} {set:<6} {metric:<20} (fewer than 2 runs reported it)");
                    ok = false;
                    continue;
                }
                let (q1, med, q3) = quartiles(&v);
                let iqr = stats::iqr_share(&v);
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                println!(
                    "{name:<20} {set:<6} {metric:<20} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>8.2} {:>8.2}",
                    iqr * 100.0,
                    (hi - lo) / med.abs() * 100.0
                );
                worst[k] = worst[k].max(iqr);
                if EXACT.contains(metric) {
                    exact.extend(v.iter().map(|&x| (*metric, x)));
                }
            }
        }
        for metric in EXACT {
            let mut v = exact
                .iter()
                .filter(|e| e.0 == metric)
                .map(|e| e.1.to_bits());
            let first = v.next();
            if v.any(|x| Some(x) != first) {
                println!("# {name} {metric}: differs between runs, but must be exact");
                ok = false;
            }
        }
    }
    if chosen.iter().any(|w| !w.gated) {
        println!("# bounds not written: the spreads include a workload BENCHMARK.json leaves out");
        return ok;
    }
    let mut bounds: Vec<(&str, f64)> = Vec::new();
    for ((metric, _, _), spread) in END_TO_END.iter().zip(worst) {
        if EXACT.contains(metric) {
            bounds.push((metric, EXACT_BOUND));
        } else if *metric == "setup_s" {
            // A harness judges set-up by its median only, never its
            // spread; it gets the largest bound below.
            bounds.push((metric, bound_for(spread).unwrap_or(MAX_BOUND)));
        } else if let Some(b) = bound_for(spread) {
            if 3.0 * spread > b {
                println!(
                    "# {metric}: spread {:.2}% is more than a third of its {:.0}% bound",
                    spread * 100.0,
                    b * 100.0
                );
            }
            bounds.push((metric, b));
        } else {
            println!(
                "# {metric}: spread {:.2}% is past the {:.0}% cap: unresolved, bound \
                 left as it was; measure more work per run instead",
                spread * 100.0,
                MAX_BOUND * 100.0
            );
            ok = false;
        }
    }
    // Set-up gets the largest bound, so work moved into it shows only
    // past every other metric's tolerance.
    let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
    for b in bounds.iter_mut().filter(|b| b.0 == "setup_s") {
        b.1 = largest;
    }
    match set_bounds(Path::new("BENCHMARK.json"), &bounds) {
        Ok(()) => println!("# bounds written to BENCHMARK.json: {bounds:?}"),
        Err(e) => println!("# bounds not written ({e}): {bounds:?}"),
    }
    ok
}

/// Rewrites the `"bound"` of each named metric in BENCHMARK.json. The
/// file keeps one metric object per line, so the edit is line-local.
fn set_bounds(path: &Path, bounds: &[(&str, f64)]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = String::new();
    for line in text.lines() {
        let named = bounds
            .iter()
            .find(|(m, _)| line.contains(&format!("\"name\": \"{m}\"")));
        match (named, line.find("\"bound\": ")) {
            (Some((_, b)), Some(at)) => {
                let start = at + "\"bound\": ".len();
                let end = line[start..]
                    .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .map_or(line.len(), |e| start + e);
                let _ = writeln!(out, "{}{b}{}", &line[..start], &line[end..]);
            }
            _ => {
                let _ = writeln!(out, "{line}");
            }
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("refbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    println!(
        "# host: available_parallelism {} | cpu {} | rev {}",
        host.cores, host.cpu, host.rev
    );
    let ok = if let Some(n) = a.calibrate {
        calibrate(&a, n)
    } else if a.workload == "all" {
        run_all(&a, &host)
    } else {
        let w = workload(&a.workload).expect("checked by parse_args");
        let r = run_workload(w, &a);
        print_report(&r);
        if let Some(path) = &a.out {
            write_out(
                path,
                &host,
                &a,
                &format!("{{{}: {}}}", json_str(w.name), report_json(&r)),
            );
        }
        println!(
            "{}",
            result_line(
                r.correct(),
                r.attempted.max(1),
                r.failures.len() as u64,
                &json_metrics(&r.metrics)
            )
        );
        r.correct()
    };
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's manifest, checked against the catalog above.
    const MANIFEST: &str = include_str!("../../../../../BENCHMARK.json");

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_driver_interface() {
        let a = args(&[
            "--workload",
            "compute_wl2",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("compute_wl2", 7, 3)
        );
        assert!(a.trace.is_none());
        assert_eq!(
            args(&["--workload", "all", "--trace", "1"]).unwrap().trace,
            Some(None)
        );
        let p = args(&["--workload", "all", "--trace", "spans.jsonl"]).unwrap();
        assert_eq!(p.trace, Some(Some(PathBuf::from("spans.jsonl"))));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--bogus"]).is_err());
        assert!(args(&["--workload", "all", "--seed"]).is_err());
        assert!(args(&["--workload", "all", "--calibrate", "1"]).is_err());
    }

    #[test]
    fn manifest_lists_the_catalog() {
        for w in &WORKLOADS {
            assert_eq!(
                MANIFEST.contains(&format!("\"name\": \"{}\"", w.name)),
                w.gated,
                "{}",
                w.name
            );
        }
        for (name, unit, better) in END_TO_END {
            let line = MANIFEST
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
            assert!(
                line.contains(&format!("\"better\": \"{better}\"")),
                "{line}"
            );
        }
        for (name, unit) in PER_LAYER {
            let line = MANIFEST
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(UNITS.contains(&unit), "{unit} missing from UNITS");
        }
    }

    #[test]
    fn bounds_are_three_spreads_within_limits() {
        assert_eq!(bound_for(0.0), Some(MIN_BOUND));
        assert_eq!(bound_for(0.012), Some(0.04));
        assert_eq!(bound_for(0.09), Some(MAX_BOUND));
        assert_eq!(bound_for(0.16), None);
    }

    #[test]
    fn manifest_bounds_are_exact_or_capped() {
        for (name, _, _) in END_TO_END {
            let line = MANIFEST
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap();
            let bound: f64 = line
                .split("\"bound\": ")
                .nth(1)
                .and_then(|s| s.trim_end_matches(['}', ',']).parse().ok())
                .unwrap_or_else(|| panic!("no bound in {line}"));
            if EXACT.contains(&name) {
                assert_eq!(bound, EXACT_BOUND, "{name}");
            } else {
                assert!((MIN_BOUND..=MAX_BOUND).contains(&bound), "{name}: {bound}");
            }
        }
    }

    #[test]
    fn set_bounds_edits_only_the_named_lines() {
        let dir = std::env::temp_dir().join(format!("refbench-bounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCHMARK.json");
        std::fs::write(
            &path,
            "  {\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1},\n  \
             {\"name\": \"pass_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.05}\n",
        )
        .unwrap();
        set_bounds(&path, &[("pass_s", 0.07)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bound\": 0.1}"), "{text}");
        assert!(text.contains(
            "\"name\": \"pass_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.07}"
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_output_escapes_and_keeps_every_digit() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        let m = [Metric::new("w.x", 1.234_567_890_123, "s")];
        assert_eq!(
            json_metrics(&m),
            "{\"w.x\": {\"value\": 1.234567890123, \"unit\": \"s\"}}"
        );
        assert_eq!(
            result_line(true, 3, 0, "{}"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
