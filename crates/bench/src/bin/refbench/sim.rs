//! Simulation workloads: repetitions of one design point on the Table 1
//! machine, timed from outside the simulator once per OS quantum.

use std::time::{Duration, Instant};

use refsim_core::config::SystemConfig;
use refsim_core::error::RefsimError;
use refsim_core::metrics::RunMetrics;
use refsim_core::system::System;
use refsim_dram::time::Ps;
use refsim_dram::timing::Retention;
use refsim_workloads::mix::{by_name, WorkloadMix};

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{secs, Metric};

/// Timed quanta per retention window: the OS quantum is tREFW/16 on the
/// Table 1 machine (one quantum per bank of the 16-bank sequential
/// refresh schedule).
pub const QUANTA_PER_WINDOW: u64 = 16;

/// Retention windows timed per repetition (after one untimed window).
pub const MEASURED_WINDOWS: u64 = 8;

/// Timed repetitions every run makes at least, whatever its budget.
pub const MIN_REPS: usize = 3;

/// The seed of every workload's reference run: the repo's 0x5EED. The
/// simulated end-to-end metrics come from it whatever `--seed` is, so
/// they are identical in every run of a commit.
pub const REFERENCE_SEED: u64 = 24_301;

/// One design point: a Table 2 mix on the Table 1 machine.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub mix: &'static str,
    pub co_design: bool,
    pub retention: Retention,
    pub step: Ps,
    pub time_scale: u32,
}

impl SimSpec {
    /// The configuration at `seed`: one warm-up window, then
    /// [`MEASURED_WINDOWS`] measured windows.
    pub fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::table1()
            .with_time_scale(self.time_scale)
            .with_retention(self.retention)
            .with_step(self.step)
            .with_seed(seed);
        if self.co_design {
            cfg = cfg.co_design();
        }
        cfg.warmup = cfg.trefw();
        cfg.measure = cfg.trefw() * MEASURED_WINDOWS;
        cfg
    }

    pub fn mix(&self) -> WorkloadMix {
        by_name(self.mix).expect("workload specs name Table 2 mixes")
    }
}

/// One repetition: a fresh `System`, one untimed warm-up window, then
/// the measured windows timed quantum by quantum.
#[derive(Debug)]
pub struct Rep {
    /// `try_new` plus the warm-up window.
    pub setup_ns: u64,
    pub quanta_ns: Vec<u64>,
    pub collect_ns: u64,
    pub metrics: RunMetrics,
    /// Step-loop iterations inside the measured windows.
    pub iterations: u64,
    /// Step boundaries the event-skip engine elided in them.
    pub steps_elided: u64,
}

impl Rep {
    pub fn measured_ns(&self) -> u64 {
        self.quanta_ns.iter().sum()
    }

    /// Wall of the whole repetition: what one design-point run costs.
    pub fn pass_ns(&self) -> u64 {
        self.setup_ns + self.measured_ns() + self.collect_ns
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Runs one repetition, recording its spans on `tr`.
///
/// # Errors
///
/// Whatever `System::try_new` or `System::try_run_until` returns.
pub fn run_rep(cfg: &SystemConfig, mix: &WorkloadMix, tr: &mut Tracer) -> Result<Rep, RefsimError> {
    tr.begin("repetition");
    let rep = timed_rep(cfg, mix, tr);
    tr.end(QUANTA_PER_WINDOW * MEASURED_WINDOWS);
    rep
}

fn timed_rep(cfg: &SystemConfig, mix: &WorkloadMix, tr: &mut Tracer) -> Result<Rep, RefsimError> {
    let t0 = Instant::now();
    let mut sys = System::try_new(cfg.clone(), mix)?;
    let t1 = Instant::now();
    tr.record("System::try_new", t0, t1, 1);
    let warm_end = cfg.trefw();
    sys.try_run_until(warm_end)?;
    let t2 = Instant::now();
    tr.record("warm_up", t1, t2, 1);
    sys.begin_measure();
    let before = sys.engine_stats();
    let quantum = cfg.trefw() / QUANTA_PER_WINDOW;
    let n = QUANTA_PER_WINDOW * MEASURED_WINDOWS;
    let mut quanta_ns = Vec::with_capacity(n as usize);
    for q in 1..=n {
        let a = Instant::now();
        sys.try_run_until(warm_end + quantum * q)?;
        let b = Instant::now();
        tr.record("quantum", a, b, 1);
        quanta_ns.push(ns(a, b));
    }
    let after = sys.engine_stats();
    let t3 = Instant::now();
    sys.audit_retention();
    let metrics = sys.collect();
    let t4 = Instant::now();
    tr.record("System::collect", t3, t4, 1);
    Ok(Rep {
        setup_ns: ns(t0, t2),
        quanta_ns,
        collect_ns: ns(t3, t4),
        metrics,
        iterations: after.iterations - before.iterations,
        steps_elided: after.steps_elided - before.steps_elided,
    })
}

/// The repetitions of one run, split by whether they were traced.
#[derive(Debug, Default)]
pub struct RepSet {
    /// Metrics of the reference run at [`REFERENCE_SEED`].
    pub reference: Option<RunMetrics>,
    /// The process's peak resident set right after the reference run.
    pub reference_rss_mb: Option<f64>,
    pub untraced: Vec<Rep>,
    pub traced: Vec<Rep>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// The design point at [`REFERENCE_SEED`] with the retention oracle on,
/// run once untimed. It also warms the process before the timed
/// repetitions.
///
/// # Errors
///
/// A `RefsimError`, or retention violations the oracle found.
pub fn reference(spec: &SimSpec) -> Result<RunMetrics, String> {
    let cfg = spec.config(REFERENCE_SEED).with_retention_tracking();
    let rep = run_rep(&cfg, &spec.mix(), &mut Tracer::off())
        .map_err(|e| format!("reference run: {e}"))?;
    match rep.metrics.controller.retention_violations {
        0 => Ok(rep.metrics),
        v => Err(format!("reference run: {v} retention violations")),
    }
}

/// Runs the reference run, then timed repetitions at `seed` until
/// `budget` has passed (at least [`MIN_REPS`]). With a recording
/// tracer, every other repetition is traced so the tracing overhead is
/// measured in the same process.
///
/// Every repetition must run without error and reproduce the first
/// repetition's metrics exactly.
pub fn measure(
    spec: &SimSpec,
    workload: &str,
    seed: u64,
    budget: Duration,
    tr: &mut Tracer,
) -> RepSet {
    let cfg = spec.config(seed);
    let mix = spec.mix();
    let mut set = RepSet {
        attempted: 1,
        ..RepSet::default()
    };
    match reference(spec) {
        Ok(m) => set.reference = Some(m),
        Err(e) => set.failures.push(e),
    }
    set.reference_rss_mb = crate::peak_rss_mb();
    let per_kind = if tr.enabled() { 2 } else { 1 };
    let mut first: Option<String> = None;
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_REPS * per_kind || start.elapsed() < budget {
        let traced = tr.enabled() && i % 2 == 1;
        set.attempted += 1;
        let rep = if traced {
            tr.set_trace(format!("{workload}/{i}"));
            run_rep(&cfg, &mix, tr)
        } else {
            run_rep(&cfg, &mix, &mut Tracer::off())
        };
        match rep {
            Err(e) => set.failures.push(format!("repetition {i}: {e}")),
            Ok(r) => {
                let debug = format!("{:?}", r.metrics);
                if *first.get_or_insert_with(|| debug.clone()) != debug {
                    set.failures
                        .push(format!("repetition {i}: metrics differ from repetition 0"));
                } else if traced {
                    set.traced.push(r);
                } else {
                    set.untraced.push(r);
                }
            }
        }
        i += 1;
    }
    set
}

/// The fastest repetition. Neighbours on a shared host only ever slow a
/// repetition down, for seconds at a time, so the fastest is the
/// steadiest estimate of what the code costs.
pub fn fastest(reps: &[Rep]) -> &Rep {
    reps.iter()
        .min_by_key(|r| r.pass_ns())
        .expect("every run keeps at least one repetition")
}

/// Simulated picoseconds per host second of one repetition's measured
/// windows.
pub fn sim_ps_per_s(rep: &Rep) -> f64 {
    rep.metrics.sim_time.as_ps() as f64 * 1e9 / rep.measured_ns() as f64
}

/// Average DRAM read latency in memory cycles (Figure 11's metric) and
/// the paper's headline harmonic-mean IPC.
pub fn simulated(m: &RunMetrics) -> [Metric; 2] {
    [
        Metric::new("hmean_ipc", m.hmean_ipc(), "IPC"),
        Metric::new("read_latency_cycles", m.avg_read_latency_cycles(), "cycles"),
    ]
}

/// The timed end-to-end metrics of a simulation workload: `setup_s` is
/// the median over the repetitions, `sim_ps_per_s` and `pass_s` are the
/// fastest repetition's.
pub fn end_to_end(reps: &[Rep]) -> [Metric; 3] {
    let setups: Vec<f64> = reps.iter().map(|r| secs(r.setup_ns)).collect();
    let f = fastest(reps);
    [
        Metric::new("sim_ps_per_s", sim_ps_per_s(f), "ps/s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("pass_s", secs(f.pass_ns()), "s"),
    ]
}

/// Every timed quantum of `reps`, in ms.
fn pooled_quanta_ms(reps: &[Rep]) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| r.quanta_ns.iter().map(|&q| q as f64 / 1e6))
        .collect()
}

/// Host ms per quantum: the median of the per-repetition medians.
pub fn quantum_ms_p50(reps: &[Rep]) -> f64 {
    let per_rep: Vec<f64> = reps
        .iter()
        .map(|r| {
            median(
                &r.quanta_ns
                    .iter()
                    .map(|&q| q as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    median(&per_rep)
}

/// Per-layer metrics of the step loop (`system.*`) and the modelled
/// components (`sim.*`), from untraced repetitions; times are the
/// fastest repetition's, as in the end-to-end metrics.
pub fn system_layer(reps: &[Rep]) -> Vec<Metric> {
    let m = &reps[0].metrics;
    let wall = fastest(reps).measured_ns() as f64;
    let quanta = (QUANTA_PER_WINDOW * MEASURED_WINDOWS) as f64;
    let instructions: u64 = m.tasks.iter().map(|t| t.instructions).sum();
    let (stall, cpu): (u64, u64) = m.tasks.iter().fold((0, 0), |(s, c), t| {
        (s + t.stall_time.as_ps(), c + t.cpu_time.as_ps())
    });
    let r = &reps[0];
    let c = &m.controller;
    vec![
        Metric::new("system.ns_per_iteration", wall / r.iterations as f64, "ns"),
        Metric::new(
            "system.iterations_per_quantum",
            r.iterations as f64 / quanta,
            "count",
        ),
        Metric::new(
            "system.steps_elided_ratio",
            ratio(r.steps_elided, r.iterations + r.steps_elided),
            "ratio",
        ),
        Metric::new(
            "system.ns_per_command",
            wall / c.commands_total() as f64,
            "ns",
        ),
        Metric::new(
            "system.ns_per_kinst",
            wall * 1e3 / instructions as f64,
            "ns",
        ),
        Metric::new("system.quantum_ms_p50", quantum_ms_p50(reps), "ms"),
        Metric::new(
            "system.quantum_ms_p90",
            percentile(&pooled_quanta_ms(reps), 90.0),
            "ms",
        ),
        Metric::new("sim.mpki", m.mpki(), "MPKI"),
        Metric::new(
            "sim.row_hit_ratio",
            c.row_hit_rate().unwrap_or(0.0),
            "ratio",
        ),
        Metric::new(
            "sim.refresh_blocked_read_ratio",
            ratio(c.refresh_blocked_reads, c.reads_completed),
            "ratio",
        ),
        Metric::new("sim.stall_fraction", ratio(stall, cpu), "ratio"),
        Metric::new(
            "sim.refresh_dodges_per_pick",
            ratio(m.sched.refresh_dodges, m.sched.picks),
            "ratio",
        ),
        Metric::new("sim.eta_fallbacks", m.sched.eta_fallbacks as f64, "count"),
    ]
}

/// The highest qualifying tail of the pooled quantum times when it lies
/// beyond the fixed p90 (text output only; `None` when the tail rule
/// allows nothing past p90).
pub fn quantum_tail(reps: &[Rep]) -> Option<Metric> {
    let pooled = pooled_quanta_ms(reps);
    let p = tail_percentile(pooled.len()).filter(|&p| p > 90.0)?;
    Some(Metric::new(
        format!("system.quantum_ms_p{p}"),
        percentile(&pooled, p),
        "ms",
    ))
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
