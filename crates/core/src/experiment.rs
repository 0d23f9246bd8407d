//! Experiment harness: named builders that regenerate every results
//! table and figure of the paper's evaluation (§6). Each builder returns
//! [`Table`]s whose rows mirror the corresponding figure's series.
//!
//! All builders execute their sweeps through [`run_jobs`], which routes
//! through the resilient runner (in-flight dedup always on, persistent
//! [`RunCache`] when [`ExpOptions::cache`] is set) and accumulates
//! [`CacheStats`] into [`ExpOptions::telemetry`]. When
//! [`ExpOptions::pool`] carries a [`RunPool`], builders instead
//! participate in a two-phase pipeline: a *collect* pass registers every
//! job (cross-figure dedup by canonical fingerprint), one shared
//! execution runs the unique cells, and a *render* pass re-invokes the
//! builders against the shared result map.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::time::Ps;
use refsim_dram::timing::{Density, FgrMode, Retention};
use refsim_os::bank_alloc::{BankAwareAllocator, BankVector};
use refsim_os::partition::PartitionPlan;
use refsim_os::sched::SchedPolicy;
use refsim_workloads::mix::{table2, WorkloadMix};
use refsim_workloads::profiles::Benchmark;

use crate::config::SystemConfig;
use crate::error::RefsimError;
use crate::executor::ExecutorStats;
use crate::faults::FaultPlan;
use crate::metrics::{gmean_finite, RunMetrics};
use crate::report::Table;
use crate::runcache::{job_fingerprint, CacheStats, RunCache};
use crate::sweep::run_many_resilient;

/// A refresh-mitigation scheme as compared in the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Ideal: refresh disabled (Figure 3/4 reference).
    NoRefresh,
    /// DDR3 all-bank refresh — the normalization baseline.
    AllBank,
    /// LPDDR per-bank round-robin refresh.
    PerBank,
    /// The full co-design: sequential per-bank refresh + soft
    /// partitioning + refresh-aware scheduling.
    CoDesign,
    /// Out-of-order per-bank refresh (Chang et al.).
    OooPerBank,
    /// Adaptive Refresh (Mukundan et al.).
    Adaptive,
    /// Elastic Refresh (Stuecheli et al.), §7's idle-period scheduling.
    Elastic,
    /// DDR4 fine-granularity refresh at a fixed mode.
    Fgr(FgrMode),
    /// No refresh with each task confined to `k` banks per rank
    /// (Figure 4's BLP-vs-tRFC study).
    ConfinedNoRefresh(u32),
}

impl Scheme {
    /// Label used in table headers.
    pub fn label(self) -> String {
        match self {
            Scheme::NoRefresh => "no-refresh".into(),
            Scheme::AllBank => "all-bank".into(),
            Scheme::PerBank => "per-bank".into(),
            Scheme::CoDesign => "co-design".into(),
            Scheme::OooPerBank => "ooo-per-bank".into(),
            Scheme::Adaptive => "adaptive(AR)".into(),
            Scheme::Elastic => "elastic".into(),
            Scheme::Fgr(m) => format!("ddr4-{m}"),
            Scheme::ConfinedNoRefresh(k) => format!("{k}-banks+no-tRFC"),
        }
    }

    /// Applies the scheme to a base configuration.
    pub fn apply(self, base: &SystemConfig) -> SystemConfig {
        let cfg = base.clone();
        match self {
            Scheme::NoRefresh => cfg.with_refresh(RefreshPolicyKind::NoRefresh),
            Scheme::AllBank => cfg.with_refresh(RefreshPolicyKind::AllBank),
            Scheme::PerBank => cfg.with_refresh(RefreshPolicyKind::PerBankRoundRobin),
            Scheme::CoDesign => cfg.co_design(),
            Scheme::OooPerBank => cfg.with_refresh(RefreshPolicyKind::OooPerBank),
            Scheme::Adaptive => cfg.with_refresh(RefreshPolicyKind::Adaptive),
            Scheme::Elastic => cfg.with_refresh(RefreshPolicyKind::Elastic),
            Scheme::Fgr(m) => cfg.with_refresh(RefreshPolicyKind::Fgr(m)),
            Scheme::ConfinedNoRefresh(k) => cfg
                .with_refresh(RefreshPolicyKind::NoRefresh)
                .with_partition(PartitionPlan::Confine { banks_per_task: k })
                .with_sched(SchedPolicy::Cfs),
        }
    }
}

/// Options shared by all experiment builders.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Time-scale divisor (see [`crate::config::DEFAULT_TIME_SCALE`]).
    pub time_scale: u32,
    /// Warm-up length in retention windows.
    pub warm_windows: u32,
    /// Measured length in retention windows.
    pub measure_windows: u32,
    /// Workload mixes to evaluate (Table 2 by default).
    pub workloads: Vec<WorkloadMix>,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for independent runs.
    pub threads: usize,
    /// Persistent run cache every sweep consults. `None` by default so
    /// unit tests and library callers stay hermetic; the bench CLI
    /// resolves `REFSIM_CACHE_DIR` / `--cache-dir` / `--no-cache` into
    /// this field.
    pub cache: Option<RunCache>,
    /// Cross-figure execution pool for the unified pipeline. `None`
    /// (the default) makes every builder execute its own sweep.
    pub pool: Option<Arc<RunPool>>,
    /// Accumulated dedup/cache telemetry across every sweep these
    /// options drove.
    pub telemetry: Telemetry,
}

/// Shared, cloneable accumulator of [`CacheStats`] and
/// [`ExecutorStats`] across sweeps.
#[derive(Clone, Default)]
pub struct Telemetry(Arc<Mutex<(CacheStats, ExecutorStats)>>);

impl Telemetry {
    /// Folds one sweep's cache stats into the running total.
    pub fn add(&self, stats: &CacheStats) {
        self.0.lock().expect("poisoned").0.merge(stats);
    }

    /// Folds one sweep's executor stats into the running total.
    pub fn add_exec(&self, stats: &ExecutorStats) {
        self.0.lock().expect("poisoned").1.merge(stats);
    }

    /// A copy of the current cache totals.
    pub fn snapshot(&self) -> CacheStats {
        self.0.lock().expect("poisoned").0
    }

    /// A copy of the current executor totals.
    pub fn exec_snapshot(&self) -> ExecutorStats {
        self.0.lock().expect("poisoned").1.clone()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Telemetry")
            .field(&self.snapshot())
            .field(&self.exec_snapshot())
            .finish()
    }
}

impl ExpOptions {
    /// Full-fidelity defaults: all ten Table 2 mixes, two measured
    /// retention windows at the standard time scale.
    pub fn full() -> Self {
        ExpOptions {
            time_scale: crate::config::DEFAULT_TIME_SCALE,
            warm_windows: 1,
            measure_windows: 2,
            workloads: table2(),
            seed: 0x5EED,
            threads: crate::executor::default_threads(),
            cache: None,
            pool: None,
            telemetry: Telemetry::default(),
        }
    }

    /// Reduced-cost variant for smoke runs: four representative mixes
    /// (H, L, M, H+L), one measured window, coarser time scale.
    pub fn quick() -> Self {
        let keep = ["WL-1", "WL-4", "WL-5", "WL-8"];
        ExpOptions {
            time_scale: 128,
            warm_windows: 1,
            measure_windows: 1,
            workloads: table2()
                .into_iter()
                .filter(|m| keep.contains(&m.name.as_str()))
                .collect(),
            ..Self::full()
        }
    }

    /// The baseline configuration these options imply.
    pub fn base_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::table1().with_time_scale(self.time_scale);
        cfg.seed = self.seed;
        cfg.warmup = cfg.trefw() * u64::from(self.warm_windows);
        cfg.measure = cfg.trefw() * u64::from(self.measure_windows);
        cfg
    }
}

/// One simulation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Configuration to run.
    pub cfg: SystemConfig,
    /// Workload to run.
    pub mix: WorkloadMix,
}

/// Runs jobs on a thread pool, preserving order.
///
/// # Panics
///
/// Panics on the first failed job. Sweeps that must survive individual
/// failures use [`run_many_checked`] instead.
pub fn run_many(jobs: &[Job], threads: usize) -> Vec<RunMetrics> {
    run_many_checked(jobs, threads)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("job {i} failed: {e}")))
        .collect()
}

/// Error-tolerant [`run_many`]: every job produces a `Result`, in job
/// order. A bad configuration, a simulation fault, or even a panicking
/// worker yields an `Err` for *that job only* — the rest of the sweep
/// completes, and builders turn the error into an error row.
///
/// This is a thin front over [`crate::sweep::run_many_resilient`] with
/// no run cache: each unique job runs once, a failure (a panic
/// included) is that job's error row, and nothing touches disk. Sweeps
/// that must survive being killed pass a run cache
/// ([`ExpOptions::cache`]) and rerun over it.
pub fn run_many_checked(jobs: &[Job], threads: usize) -> Vec<Result<RunMetrics, RefsimError>> {
    run_many_resilient(jobs, threads, None).results
}

/// The execution front every builder routes through: runs `jobs` under
/// the options' cache and telemetry — or, when [`ExpOptions::pool`] is
/// set, defers to the pool's collect/serve protocol.
pub fn run_jobs(opts: &ExpOptions, jobs: &[Job]) -> Vec<Result<RunMetrics, RefsimError>> {
    if let Some(pool) = &opts.pool {
        return pool.run(opts, jobs);
    }
    let report = run_many_resilient(jobs, opts.threads, opts.cache.as_ref());
    opts.telemetry.add(&report.stats);
    opts.telemetry.add_exec(&report.executor);
    report.results
}

/// [`run_jobs`] for builders that treat a failed run as fatal
/// ([`run_many`] semantics).
///
/// # Panics
///
/// Panics on the first failed job.
fn run_jobs_unwrap(opts: &ExpOptions, jobs: &[Job]) -> Vec<RunMetrics> {
    run_jobs(opts, jobs)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("job {i} failed: {e}")))
        .collect()
}

/// Zero-valued placeholder metrics the pool hands out during its
/// collect pass. Every downstream aggregate is safe on them: harmonic /
/// arithmetic means of an empty task list are 0, `gmean_finite` filters
/// non-positive speedups, and latency averages come out 0 — and the
/// collect pass's rendered output is discarded anyway.
fn placeholder_metrics() -> RunMetrics {
    RunMetrics {
        tasks: Vec::new(),
        sim_time: Ps::ZERO,
        controller: Default::default(),
        sched: Default::default(),
        cpu_period: Ps(1),
        dram_period: Ps(1),
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Collect phase (true) registers jobs; serve phase (false) answers
    /// from `results`.
    collecting: bool,
    /// Unique jobs, in first-seen order.
    jobs: Vec<Job>,
    /// Canonical fingerprint → index into `jobs`.
    index: HashMap<u64, usize>,
    /// Fingerprint → executed outcome.
    results: HashMap<u64, Result<RunMetrics, RefsimError>>,
    /// Result cells requested during the collect phase (before dedup).
    requested: u64,
}

/// Cross-figure shared execution pool (the unified figure pipeline).
///
/// Protocol: build every figure once with the pool installed in
/// [`ExpOptions::pool`] (the *collect* pass — jobs are registered,
/// placeholder metrics returned, output discarded), call
/// [`RunPool::execute`] to run the deduplicated union of all jobs on
/// one thread pool, then build every figure again (the *render* pass —
/// cells are served from the shared result map).
#[derive(Debug)]
pub struct RunPool {
    inner: Mutex<PoolInner>,
}

impl Default for RunPool {
    fn default() -> Self {
        Self::new()
    }
}

impl RunPool {
    /// A fresh pool in its collect phase.
    pub fn new() -> Self {
        RunPool {
            inner: Mutex::new(PoolInner {
                collecting: true,
                ..PoolInner::default()
            }),
        }
    }

    /// Number of unique cells registered so far.
    pub fn unique_jobs(&self) -> usize {
        self.inner.lock().expect("poisoned").jobs.len()
    }

    /// Builder entry point (via [`run_jobs`]): registers `jobs` during
    /// the collect phase, serves their results during the render phase.
    fn run(&self, opts: &ExpOptions, jobs: &[Job]) -> Vec<Result<RunMetrics, RefsimError>> {
        let collecting = {
            let mut inner = self.inner.lock().expect("poisoned");
            if inner.collecting {
                inner.requested += jobs.len() as u64;
                for job in jobs {
                    let fp = job_fingerprint(&job.cfg, &job.mix);
                    if !inner.index.contains_key(&fp) {
                        let at = inner.jobs.len();
                        inner.jobs.push(job.clone());
                        inner.index.insert(fp, at);
                    }
                }
            }
            inner.collecting
        };
        if collecting {
            return jobs.iter().map(|_| Ok(placeholder_metrics())).collect();
        }
        jobs.iter()
            .map(|job| {
                let fp = job_fingerprint(&job.cfg, &job.mix);
                let served = self
                    .inner
                    .lock()
                    .expect("poisoned")
                    .results
                    .get(&fp)
                    .cloned();
                served.unwrap_or_else(|| {
                    // A cell the collect pass never saw (a builder whose
                    // job list is not a pure function of its options).
                    // Run it inline rather than failing the figure.
                    let report =
                        run_many_resilient(std::slice::from_ref(job), 1, opts.cache.as_ref());
                    opts.telemetry.add(&report.stats);
                    opts.telemetry.add_exec(&report.executor);
                    let r = report.results.into_iter().next().expect("one job in");
                    self.inner
                        .lock()
                        .expect("poisoned")
                        .results
                        .insert(fp, r.clone());
                    r
                })
            })
            .collect()
    }

    /// Ends the collect phase: executes the deduplicated union of every
    /// registered job on one thread pool (consulting `opts.cache`), and
    /// switches the pool to serving. Telemetry is credited with the
    /// *requested* cell count, so the dedup factor reflects cross-figure
    /// sharing, not just intra-sweep sharing.
    pub fn execute(&self, opts: &ExpOptions) {
        let (jobs, requested) = {
            let mut inner = self.inner.lock().expect("poisoned");
            inner.collecting = false;
            (std::mem::take(&mut inner.jobs), inner.requested)
        };
        let report = run_many_resilient(&jobs, opts.threads, opts.cache.as_ref());
        let mut stats = report.stats;
        stats.requested = requested;
        stats.deduped = requested.saturating_sub(jobs.len() as u64);
        opts.telemetry.add(&stats);
        opts.telemetry.add_exec(&report.executor);
        let mut inner = self.inner.lock().expect("poisoned");
        for (job, r) in jobs.iter().zip(report.results) {
            inner.results.insert(job_fingerprint(&job.cfg, &job.mix), r);
        }
    }
}

/// Runs `scheme × workload` and returns harmonic-mean-IPC speedups
/// normalized to `baseline`, as `speedups[scheme][workload]`, plus the
/// raw metrics in the same layout.
///
/// Failed runs become `None` metrics and `NaN` speedups (rendered as
/// `error` cells by [`Table::fmt_f`]); runs rejected by the invariant
/// sanitizer become `-inf` speedups (rendered as `violated` — the
/// simulation finished but its results cannot be trusted). One bad run
/// never aborts the sweep.
fn run_schemes(
    base: &SystemConfig,
    schemes: &[Scheme],
    baseline: Scheme,
    opts: &ExpOptions,
) -> (Vec<Vec<f64>>, Vec<Vec<Option<RunMetrics>>>) {
    let mut jobs = Vec::new();
    let mut all = schemes.to_vec();
    if !all.contains(&baseline) {
        all.push(baseline);
    }
    for s in &all {
        for m in &opts.workloads {
            jobs.push(Job {
                cfg: s.apply(base),
                mix: m.clone(),
            });
        }
    }
    let metrics = run_jobs(opts, &jobs);
    let w = opts.workloads.len();
    let base_idx = all.iter().position(|s| *s == baseline).expect("added");
    let speedups = metrics
        .chunks(w)
        .take(schemes.len())
        .map(|runs| {
            runs.iter()
                .zip(&metrics[base_idx * w..base_idx * w + w])
                .map(|(r, b)| speedup_cell(r, b))
                .collect()
        })
        .collect();
    let by_scheme: Vec<Vec<Option<RunMetrics>>> = metrics
        .chunks(w)
        .map(|c| c.iter().map(|r| r.as_ref().ok().cloned()).collect())
        .collect();
    (speedups, by_scheme)
}

/// Speedup of run `r` over baseline `b` as a table cell value: `NaN`
/// marks a crashed/errored run, `-inf` marks one the invariant
/// sanitizer rejected. Both are skipped by [`gmean_finite`], so means
/// stay meaningful either way.
fn speedup_cell(r: &Result<RunMetrics, RefsimError>, b: &Result<RunMetrics, RefsimError>) -> f64 {
    match (r, b) {
        (Ok(r), Ok(b)) => r.speedup_over(b),
        (Err(RefsimError::InvariantViolation(_)), _) => f64::NEG_INFINITY,
        _ => f64::NAN,
    }
}

/// Status cell for a chunk of per-workload results: `ok`, or the first
/// failure — `violated: ...` for sanitizer rejections (the run finished
/// but broke an invariant), `error: ...` for everything else (the run
/// crashed or could not start).
fn status_cell(chunk: &[Result<RunMetrics, RefsimError>]) -> String {
    match chunk.iter().find_map(|r| r.as_ref().err()) {
        None => "ok".to_owned(),
        Some(e @ RefsimError::InvariantViolation(_)) => format!("violated: {e}"),
        Some(e) => format!("error: {e}"),
    }
}

/// **Figure 10**: IPC improvement of per-bank refresh and the co-design
/// over all-bank refresh, per workload, for 16/24/32 Gb devices.
/// Headline (32 Gb averages): co-design ≈ +16.2% over all-bank and
/// ≈ +6.3% over per-bank.
pub fn figure10(opts: &ExpOptions) -> Vec<Table> {
    let schemes = [Scheme::PerBank, Scheme::CoDesign];
    Density::EVALUATED
        .iter()
        .map(|&d| {
            let base = opts.base_config().with_density(d);
            let (speedups, _) = run_schemes(&base, &schemes, Scheme::AllBank, opts);
            let mut t = Table::new(
                format!("Figure 10 ({d}): IPC normalized to all-bank refresh"),
                ["workload", "all-bank", "per-bank", "co-design"],
            );
            for (i, m) in opts.workloads.iter().enumerate() {
                t.push([
                    m.name.clone(),
                    Table::fmt_f(1.0),
                    Table::fmt_f(speedups[0][i]),
                    Table::fmt_f(speedups[1][i]),
                ]);
            }
            t.push([
                "gmean".to_owned(),
                Table::fmt_f(1.0),
                Table::fmt_opt_f(gmean_finite(speedups[0].iter().copied())),
                Table::fmt_opt_f(gmean_finite(speedups[1].iter().copied())),
            ]);
            t
        })
        .collect()
}

/// **Figure 11**: average memory access latency (in memory cycles) per
/// workload under all-bank, per-bank and the co-design (32 Gb).
pub fn figure11(opts: &ExpOptions) -> Table {
    let schemes = [Scheme::AllBank, Scheme::PerBank, Scheme::CoDesign];
    let base = opts.base_config();
    let (_, by_scheme) = run_schemes(&base, &schemes, Scheme::AllBank, opts);
    let mut t = Table::new(
        "Figure 11 (32Gb): average memory access latency (memory cycles)",
        ["workload", "all-bank", "per-bank", "co-design"],
    );
    let lat = |r: &Option<RunMetrics>| {
        r.as_ref()
            .map_or(f64::NAN, RunMetrics::avg_read_latency_cycles)
    };
    for (i, m) in opts.workloads.iter().enumerate() {
        t.push([
            m.name.clone(),
            Table::fmt_f(lat(&by_scheme[0][i])),
            Table::fmt_f(lat(&by_scheme[1][i])),
            Table::fmt_f(lat(&by_scheme[2][i])),
        ]);
    }
    let avg = |rows: &Vec<Option<RunMetrics>>| {
        let ok: Vec<f64> = rows
            .iter()
            .flatten()
            .map(RunMetrics::avg_read_latency_cycles)
            .collect();
        if ok.is_empty() {
            f64::NAN
        } else {
            ok.iter().sum::<f64>() / ok.len() as f64
        }
    };
    t.push([
        "mean".to_owned(),
        Table::fmt_f(avg(&by_scheme[0])),
        Table::fmt_f(avg(&by_scheme[1])),
        Table::fmt_f(avg(&by_scheme[2])),
    ]);
    t
}

/// **Figure 3**: average performance degradation caused by refresh
/// (all-bank and per-bank vs the ideal no-refresh system) across
/// densities, for 64 ms and 32 ms retention.
pub fn figure03(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Figure 3: performance degradation due to refresh (avg over workloads)",
        ["retention", "density", "all-bank", "per-bank"],
    );
    for retention in [Retention::Ms64, Retention::Ms32] {
        for density in Density::ALL {
            let base = opts
                .base_config()
                .with_density(density)
                .with_retention(retention);
            let (speedups, _) = run_schemes(
                &base,
                &[Scheme::AllBank, Scheme::PerBank],
                Scheme::NoRefresh,
                opts,
            );
            let deg = |v: &Vec<f64>| gmean_finite(v.iter().copied()).map(|g| (1.0 - g) * 100.0);
            t.push([
                retention.to_string(),
                density.to_string(),
                Table::fmt_opt_pct(deg(&speedups[0])),
                Table::fmt_opt_pct(deg(&speedups[1])),
            ]);
        }
    }
    t
}

/// **Figure 4**: IPC when confining each task to `k` banks per rank
/// *with all tRFC overheads removed*, normalized to the all-bank-refresh
/// 8-bank baseline, per density.
pub fn figure04(opts: &ExpOptions) -> Table {
    let confinements = [8u32, 6, 4, 2, 1];
    let mut t = Table::new(
        "Figure 4: IPC of k-banks-per-task with refresh removed, normalized to 8-bank all-bank",
        ["density", "8", "6", "4", "2", "1"],
    );
    for density in Density::ALL {
        let base = opts.base_config().with_density(density);
        let schemes: Vec<Scheme> = confinements
            .iter()
            .map(|&k| Scheme::ConfinedNoRefresh(k))
            .collect();
        let (speedups, _) = run_schemes(&base, &schemes, Scheme::AllBank, opts);
        let mut row = vec![density.to_string()];
        row.extend(
            speedups
                .iter()
                .map(|v| Table::fmt_opt_f(gmean_finite(v.iter().copied()))),
        );
        t.push(row);
    }
    t
}

/// **Figure 5**: percentage of each benchmark's footprint that fits on a
/// single bank, per density (allocation-only experiment through the
/// bank-aware buddy allocator, bank-0-first with fallback).
pub fn figure05() -> Table {
    let mut t = Table::new(
        "Figure 5: % of footprint allocatable on one bank",
        ["benchmark", "8Gb", "16Gb", "24Gb", "32Gb"],
    );
    let mut per_density_sum = [0.0f64; 4];
    for bench in Benchmark::FIGURE5 {
        let mut row = vec![bench.name().to_owned()];
        for (di, density) in Density::ALL.iter().enumerate() {
            let geometry =
                refsim_dram::geometry::Geometry::ddr3_2rank_8bank(density.rows_per_bank());
            let mapping = refsim_dram::mapping::AddressMapping::new(
                geometry,
                refsim_dram::mapping::MappingScheme::RowRankBankColumn,
            );
            let mut alloc = BankAwareAllocator::new(mapping);
            let pages = bench.profile().footprint / refsim_os::bank_alloc::PAGE_BYTES;
            let mut last = alloc.total_banks() - 1;
            let mut on_bank0 = 0u64;
            for _ in 0..pages {
                let p = alloc
                    .alloc_page(BankVector::single(0), &mut last)
                    .expect("machine cannot OOM before footprint");
                if p.bank == 0 {
                    on_bank0 += 1;
                }
            }
            let pct = on_bank0 as f64 * 100.0 / pages as f64;
            per_density_sum[di] += pct;
            row.push(Table::fmt_pct(pct));
        }
        t.push(row);
    }
    let n = Benchmark::FIGURE5.len() as f64;
    t.push([
        "average".to_owned(),
        Table::fmt_pct(per_density_sum[0] / n),
        Table::fmt_pct(per_density_sum[1] / n),
        Table::fmt_pct(per_density_sum[2] / n),
        Table::fmt_pct(per_density_sum[3] / n),
    ]);
    t
}

/// **Figure 12**: DDR4 fine-granularity refresh (1x/2x/4x) vs the
/// co-design, normalized to the 1x mode (32 Gb).
pub fn figure12(opts: &ExpOptions) -> Table {
    let schemes = [
        Scheme::Fgr(FgrMode::X1),
        Scheme::Fgr(FgrMode::X2),
        Scheme::Fgr(FgrMode::X4),
        Scheme::CoDesign,
    ];
    let base = opts.base_config();
    let (speedups, _) = run_schemes(&base, &schemes, Scheme::Fgr(FgrMode::X1), opts);
    let mut t = Table::new(
        "Figure 12 (32Gb): DDR4 FGR modes vs co-design, normalized to DDR4-1x",
        ["workload", "ddr4-1x", "ddr4-2x", "ddr4-4x", "co-design"],
    );
    for (i, m) in opts.workloads.iter().enumerate() {
        t.push([
            m.name.clone(),
            Table::fmt_f(speedups[0][i]),
            Table::fmt_f(speedups[1][i]),
            Table::fmt_f(speedups[2][i]),
            Table::fmt_f(speedups[3][i]),
        ]);
    }
    t.push([
        "gmean".to_owned(),
        Table::fmt_opt_f(gmean_finite(speedups[0].iter().copied())),
        Table::fmt_opt_f(gmean_finite(speedups[1].iter().copied())),
        Table::fmt_opt_f(gmean_finite(speedups[2].iter().copied())),
        Table::fmt_opt_f(gmean_finite(speedups[3].iter().copied())),
    ]);
    t
}

/// **Figure 13**: the 32 ms-retention (> 85 °C) study — all-bank,
/// per-bank and co-design per density, normalized to all-bank. Headline
/// (32 Gb): co-design ≈ +34.1% over all-bank, ≈ +6.7% over per-bank.
pub fn figure13(opts: &ExpOptions) -> Vec<Table> {
    let schemes = [Scheme::PerBank, Scheme::CoDesign];
    Density::EVALUATED
        .iter()
        .map(|&d| {
            let base = opts
                .base_config()
                .with_density(d)
                .with_retention(Retention::Ms32);
            let (speedups, _) = run_schemes(&base, &schemes, Scheme::AllBank, opts);
            let mut t = Table::new(
                format!("Figure 13 ({d}, 32ms retention): IPC normalized to all-bank"),
                ["workload", "all-bank", "per-bank", "co-design"],
            );
            for (i, m) in opts.workloads.iter().enumerate() {
                t.push([
                    m.name.clone(),
                    Table::fmt_f(1.0),
                    Table::fmt_f(speedups[0][i]),
                    Table::fmt_f(speedups[1][i]),
                ]);
            }
            t.push([
                "gmean".to_owned(),
                Table::fmt_f(1.0),
                Table::fmt_opt_f(gmean_finite(speedups[0].iter().copied())),
                Table::fmt_opt_f(gmean_finite(speedups[1].iter().copied())),
            ]);
            t
        })
        .collect()
}

/// **Figure 14**: comparison with prior hardware-only proposals at
/// 32 Gb: OOO per-bank refresh (Chang et al.) and Adaptive Refresh
/// (Mukundan et al.), normalized to all-bank.
pub fn figure14(opts: &ExpOptions) -> Table {
    let schemes = [
        Scheme::PerBank,
        Scheme::OooPerBank,
        Scheme::Adaptive,
        Scheme::CoDesign,
    ];
    let base = opts.base_config();
    let (speedups, _) = run_schemes(&base, &schemes, Scheme::AllBank, opts);
    let mut t = Table::new(
        "Figure 14 (32Gb): prior proposals vs co-design, normalized to all-bank",
        [
            "workload",
            "per-bank",
            "ooo-per-bank",
            "adaptive(AR)",
            "co-design",
        ],
    );
    for (i, m) in opts.workloads.iter().enumerate() {
        t.push([
            m.name.clone(),
            Table::fmt_f(speedups[0][i]),
            Table::fmt_f(speedups[1][i]),
            Table::fmt_f(speedups[2][i]),
            Table::fmt_f(speedups[3][i]),
        ]);
    }
    t.push([
        "gmean".to_owned(),
        Table::fmt_opt_f(gmean_finite(speedups[0].iter().copied())),
        Table::fmt_opt_f(gmean_finite(speedups[1].iter().copied())),
        Table::fmt_opt_f(gmean_finite(speedups[2].iter().copied())),
        Table::fmt_opt_f(gmean_finite(speedups[3].iter().copied())),
    ]);
    t
}

/// **Figure 15**: sensitivity to consolidation ratio, core count and
/// DIMMs per channel — average speedups over all-bank for per-bank and
/// co-design, per density.
pub fn figure15(opts: &ExpOptions) -> Table {
    struct Variant {
        label: &'static str,
        cores: u32,
        tasks: usize,
        ranks: u32,
    }
    let variants = [
        Variant {
            label: "2-core 1:2, 1 DIMM",
            cores: 2,
            tasks: 4,
            ranks: 2,
        },
        Variant {
            label: "2-core 1:4, 1 DIMM",
            cores: 2,
            tasks: 8,
            ranks: 2,
        },
        Variant {
            label: "2-core 1:4, 2 DIMMs",
            cores: 2,
            tasks: 8,
            ranks: 4,
        },
        Variant {
            label: "4-core 1:4, 1 DIMM",
            cores: 4,
            tasks: 16,
            ranks: 2,
        },
    ];
    let mut t = Table::new(
        "Figure 15: sensitivity (gmean speedup over all-bank)",
        ["configuration", "density", "per-bank", "co-design"],
    );
    for v in &variants {
        for &density in &Density::EVALUATED {
            let base = opts
                .base_config()
                .with_density(density)
                .with_cores(v.cores)
                .with_ranks(v.ranks);
            let mut o = opts.clone();
            o.workloads = opts.workloads.iter().map(|m| m.resized(v.tasks)).collect();
            let (speedups, _) = run_schemes(
                &base,
                &[Scheme::PerBank, Scheme::CoDesign],
                Scheme::AllBank,
                &o,
            );
            t.push([
                v.label.to_owned(),
                density.to_string(),
                Table::fmt_opt_f(gmean_finite(speedups[0].iter().copied())),
                Table::fmt_opt_f(gmean_finite(speedups[1].iter().copied())),
            ]);
        }
    }
    t
}

/// **Table 1**: prints the evaluated configuration (the preset itself).
pub fn table01(opts: &ExpOptions) -> Table {
    let cfg = opts.base_config();
    let rt = cfg.refresh_timing();
    let mut t = Table::new("Table 1: evaluated configuration", ["parameter", "value"]);
    let rows: Vec<(String, String)> = vec![
        ("cores".into(), format!("{} @ 3.2GHz OoO, 8-wide, ROB 128", cfg.n_cores)),
        ("L1".into(), "32KB 4-way, 2-cycle".into()),
        ("L2".into(), "1MB/core 16-way, 20-cycle, 64B lines".into()),
        (
            "memory".into(),
            format!(
                "DDR3-1600, {} channel, {} ranks, 8 banks/rank, FR-FCFS, open-row, RQ/WQ 64/64, watermarks 32/54",
                cfg.channels, cfg.ranks_per_channel
            ),
        ),
        ("density".into(), cfg.density.to_string()),
        ("tREFW".into(), format!("{} (time-scale 1/{})", rt.trefw, cfg.time_scale)),
        ("tREFIab".into(), rt.trefi_ab.to_string()),
        ("tRFCab".into(), rt.trfc_ab.to_string()),
        ("tRFCpb".into(), rt.trfc_pb.to_string()),
        ("timeslice".into(), cfg.effective_timeslice().to_string()),
        ("OS scheduler".into(), format!("{:?}", cfg.sched_policy)),
        ("allocator".into(), format!("{:?} partitioning", cfg.partition)),
    ];
    for (k, v) in rows {
        t.push([k, v]);
    }
    t
}

/// **Table 2**: the workload mixes with *measured* MPKI per benchmark
/// (each benchmark run solo to calibrate its class).
pub fn table02(opts: &ExpOptions) -> Table {
    let mut jobs = Vec::new();
    for b in Benchmark::FIGURE5 {
        jobs.push(Job {
            cfg: opts.base_config(),
            mix: WorkloadMix::from_groups(b.name(), &[(b, 2)], "solo"),
        });
    }
    let runs = run_jobs_unwrap(opts, &jobs);
    let mut t = Table::new(
        "Table 2: benchmark MPKI calibration and workload mixes",
        [
            "benchmark",
            "measured MPKI",
            "class (paper)",
            "class (measured)",
        ],
    );
    for (b, r) in Benchmark::FIGURE5.iter().zip(&runs) {
        let mpki = r.mpki();
        t.push([
            b.name().to_owned(),
            Table::fmt_f(mpki),
            b.profile().class.letter().to_string(),
            refsim_workloads::profiles::MpkiClass::of(mpki)
                .letter()
                .to_string(),
        ]);
    }
    for m in table2() {
        t.push([
            m.to_string(),
            String::new(),
            m.category.clone(),
            String::new(),
        ]);
    }
    t
}

/// Energy extension (beyond the paper's evaluation): DRAM energy per
/// scheme. All policies refresh the same rows per window, so refresh
/// energy is nearly constant — schemes differentiate through runtime
/// (background energy) and row-cycle counts, making energy-per-
/// instruction track the performance results.
pub fn energy_table(opts: &ExpOptions) -> Table {
    use refsim_dram::power::PowerParams;
    let schemes = [
        Scheme::AllBank,
        Scheme::PerBank,
        Scheme::Adaptive,
        Scheme::Elastic,
        Scheme::CoDesign,
    ];
    let base = opts.base_config();
    let params = PowerParams::ddr3_1600(base.density);
    let (_, by_scheme) = run_schemes(&base, &schemes, Scheme::AllBank, opts);
    let mut t = Table::new(
        "Energy (32Gb): per-scheme DRAM energy over the measured window",
        [
            "scheme",
            "refresh mJ",
            "act/pre mJ",
            "rd+wr mJ",
            "background mJ",
            "total mJ",
            "nJ/kilo-instr",
        ],
    );
    for (s, runs) in schemes.iter().zip(&by_scheme) {
        let ok: Vec<&RunMetrics> = runs.iter().flatten().collect();
        if ok.is_empty() {
            t.push([s.label()].into_iter().chain(vec!["error".into(); 6]));
            continue;
        }
        let mut sum = refsim_dram::power::EnergyBreakdown::default();
        let mut epki = 0.0;
        for r in &ok {
            let e = r.energy(&params);
            sum.refresh_nj += e.refresh_nj;
            sum.act_pre_nj += e.act_pre_nj;
            sum.rd_nj += e.rd_nj;
            sum.wr_nj += e.wr_nj;
            sum.background_nj += e.background_nj;
            epki += r.energy_per_kilo_instruction(&params);
        }
        let n = ok.len() as f64;
        let mj = |nj: f64| format!("{:.3}", nj / 1e6);
        t.push([
            s.label(),
            mj(sum.refresh_nj),
            mj(sum.act_pre_nj),
            mj(sum.rd_nj + sum.wr_nj),
            mj(sum.background_nj),
            mj(sum.total_nj()),
            format!("{:.1}", epki / n),
        ]);
    }
    t
}

/// Ablation: the two halves of the co-design in isolation (sequential
/// refresh alone; partition + refresh-aware scheduling over round-robin
/// per-bank refresh), η_thresh sweep, and soft-vs-hard partitioning.
pub fn ablation(opts: &ExpOptions) -> Table {
    let base = opts.base_config();
    let hw_only = base
        .clone()
        .with_refresh(RefreshPolicyKind::PerBankSequential);
    let sw_only = base
        .clone()
        .with_refresh(RefreshPolicyKind::PerBankRoundRobin)
        .with_partition(PartitionPlan::Soft)
        .with_sched(SchedPolicy::refresh_aware());
    let hard = base.clone().co_design().with_partition(PartitionPlan::Hard);
    let eta1 = base
        .clone()
        .co_design()
        .with_sched(SchedPolicy::RefreshAware {
            eta_thresh: 1,
            best_effort: false,
        });
    let eta8 = base
        .clone()
        .co_design()
        .with_sched(SchedPolicy::RefreshAware {
            eta_thresh: 8,
            best_effort: true,
        });
    let variants: Vec<(&str, SystemConfig)> = vec![
        ("all-bank (baseline)", base.clone()),
        (
            "elastic refresh (Stuecheli)",
            base.clone().with_refresh(RefreshPolicyKind::Elastic),
        ),
        ("seq-refresh only (HW half)", hw_only),
        ("partition+sched only (SW half)", sw_only),
        ("co-design (η=3)", base.clone().co_design()),
        ("co-design, η=1 (disabled sched)", eta1),
        ("co-design, η=8", eta8),
        ("co-design, hard partitioning", hard),
    ];
    let mut jobs = Vec::new();
    for (_, cfg) in &variants {
        for m in &opts.workloads {
            jobs.push(Job {
                cfg: cfg.clone(),
                mix: m.clone(),
            });
        }
    }
    let runs = run_jobs(opts, &jobs);
    let w = opts.workloads.len();
    let chunks: Vec<&[Result<RunMetrics, RefsimError>]> = runs.chunks(w).collect();
    let mut t = Table::new(
        "Ablation: co-design pieces in isolation (gmean speedup over all-bank)",
        ["variant", "speedup"],
    );
    for (i, (label, _)) in variants.iter().enumerate() {
        let s = gmean_finite(
            chunks[i]
                .iter()
                .zip(chunks[0])
                .map(|(r, b)| speedup_cell(r, b)),
        );
        t.push([(*label).to_owned(), Table::fmt_opt_f(s)]);
    }
    t
}

/// **Robustness report**: retention-integrity and fault-injection
/// counters per scheme, summed over the option's workloads. Every run
/// executes with the retention oracle enabled; `plan` (if any) is
/// installed into each controller. Columns surface the counters the
/// performance tables hide: oracle violations, injected skip/delay
/// faults that fired, the scheduler's `η` fairness fallbacks, and the
/// worst refresh postponement. A failed run degrades its scheme's row
/// to an `error` status — or `violated` when the invariant sanitizer
/// rejected it — and the remaining schemes still report.
pub fn robustness_table(opts: &ExpOptions, plan: Option<&FaultPlan>) -> Table {
    let schemes = [
        Scheme::AllBank,
        Scheme::PerBank,
        Scheme::Elastic,
        Scheme::CoDesign,
    ];
    let mut base = opts.base_config().with_retention_tracking();
    base.fault_plan = plan.cloned();
    let mut jobs = Vec::new();
    for s in &schemes {
        for m in &opts.workloads {
            jobs.push(Job {
                cfg: s.apply(&base),
                mix: m.clone(),
            });
        }
    }
    let runs = run_jobs(opts, &jobs);
    let w = opts.workloads.len();
    let mut t = Table::new(
        "Robustness: retention oracle & fault injection (sum over workloads)",
        [
            "scheme",
            "status",
            "retention viol.",
            "skipped refr.",
            "delayed refr.",
            "η fallbacks",
            "max postpone",
        ],
    );
    for (s, chunk) in schemes.iter().zip(runs.chunks(w)) {
        let ok: Vec<&RunMetrics> = chunk.iter().filter_map(|r| r.as_ref().ok()).collect();
        let status = status_cell(chunk);
        if ok.is_empty() {
            t.push([
                s.label(),
                status,
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let viol: u64 = ok.iter().map(|r| r.controller.retention_violations).sum();
        let skip: u64 = ok.iter().map(|r| r.controller.injected_skip_faults).sum();
        let delay: u64 = ok.iter().map(|r| r.controller.injected_delay_faults).sum();
        let eta: u64 = ok.iter().map(|r| r.sched.eta_fallbacks).sum();
        let postpone = ok
            .iter()
            .map(|r| r.controller.refresh_postpone_max)
            .max()
            .unwrap_or_default();
        t.push([
            s.label(),
            status,
            viol.to_string(),
            skip.to_string(),
            delay.to_string(),
            eta.to_string(),
            postpone.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        let mut o = ExpOptions::quick();
        o.time_scale = 512;
        o.workloads = vec![WorkloadMix::from_groups(
            "tiny",
            &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
            "M+L",
        )];
        o
    }

    #[test]
    fn status_and_speedup_cells_classify_failures() {
        use crate::sanitize::ViolationReport;
        let viol = || {
            RefsimError::InvariantViolation(Box::new(ViolationReport {
                violations: Vec::new(),
                total: 1,
                errors: 1,
            }))
        };
        let crash = || RefsimError::Panicked("boom".into());
        assert_eq!(
            status_cell(&[Err(viol())]).split(':').next(),
            Some("violated")
        );
        assert_eq!(
            status_cell(&[Err(crash())]).split(':').next(),
            Some("error")
        );
        let ok_run: Result<RunMetrics, RefsimError> = Err(crash());
        assert!(speedup_cell(&ok_run, &ok_run).is_nan());
        assert_eq!(speedup_cell(&Err(viol()), &ok_run), f64::NEG_INFINITY);
    }

    #[test]
    fn scheme_labels_and_apply() {
        assert_eq!(Scheme::CoDesign.label(), "co-design");
        assert_eq!(Scheme::Fgr(FgrMode::X2).label(), "ddr4-2x");
        assert_eq!(Scheme::ConfinedNoRefresh(4).label(), "4-banks+no-tRFC");
        let base = SystemConfig::table1();
        let c = Scheme::ConfinedNoRefresh(4).apply(&base);
        assert_eq!(c.refresh_policy, RefreshPolicyKind::NoRefresh);
        assert_eq!(c.partition, PartitionPlan::Confine { banks_per_task: 4 });
    }

    #[test]
    fn options_presets() {
        let full = ExpOptions::full();
        assert_eq!(full.workloads.len(), 10);
        let quick = ExpOptions::quick();
        assert_eq!(quick.workloads.len(), 4);
        assert!(quick.time_scale > full.time_scale);
        let cfg = quick.base_config();
        assert_eq!(cfg.measure, cfg.trefw());
    }

    #[test]
    fn run_many_preserves_order_and_parallelism() {
        let o = tiny_opts();
        let jobs: Vec<Job> = (0..3)
            .map(|i| Job {
                cfg: o.base_config().with_seed(i),
                mix: o.workloads[0].clone(),
            })
            .collect();
        let serial = run_many(&jobs, 1);
        let parallel = run_many(&jobs, 3);
        assert_eq!(serial.len(), 3);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.tasks, b.tasks, "parallel run must be deterministic");
        }
    }

    #[test]
    fn checked_sweep_records_errors_and_continues() {
        use refsim_dram::time::Ps;
        let o = tiny_opts();
        let mut bad = o.base_config();
        bad.measure = Ps::ZERO; // rejected by SystemConfig::validate
        let jobs: Vec<Job> = [o.base_config(), bad, o.base_config()]
            .into_iter()
            .map(|cfg| Job {
                cfg,
                mix: o.workloads[0].clone(),
            })
            .collect();
        let r = run_many_checked(&jobs, 3);
        assert!(r[0].is_ok(), "{:?}", r[0]);
        assert!(r[2].is_ok());
        match &r[1] {
            Err(RefsimError::InvalidConfig(why)) => assert!(why.contains("measure")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn robustness_table_surfaces_weak_row_violations() {
        let o = tiny_opts();
        // Weak rows with retention far below tREFW: every real schedule
        // refreshes them too slowly, so the oracle must flag them under
        // all schemes — deterministically, via the plan's fixed seed.
        let mut plan = FaultPlan::none(3);
        plan.weak_rows = 4;
        plan.weak_limit = o.base_config().trefw() / 8;
        let t = robustness_table(&o, Some(&plan));
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row[1], "ok", "{row:?}");
            let viol: u64 = row[2].parse().expect("violation count");
            assert!(viol > 0, "weak rows unreported for {}", row[0]);
            assert_eq!(row[3], "0", "no skip faults were planned");
        }
        // Clean configuration: no oracle violations anywhere.
        let t = robustness_table(&o, None);
        for row in &t.rows {
            assert_eq!(row[1], "ok");
            assert_eq!(row[2], "0", "clean run flagged for {}", row[0]);
        }
    }

    #[test]
    fn figure05_shape_is_monotone_in_density() {
        let t = figure05();
        assert_eq!(t.headers.len(), 5);
        // mcf row: percentage grows with density, reaching 100% at 32 Gb
        // (1.7 GB < 2 GB bank).
        let mcf = &t.rows[0];
        assert_eq!(mcf[0], "mcf");
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        assert!(parse(&mcf[1]) < parse(&mcf[4]));
        assert!((parse(&mcf[4]) - 100.0).abs() < 0.5);
        // povray fits everywhere.
        let povray = &t.rows[1];
        assert!((parse(&povray[1]) - 100.0).abs() < 0.5);
    }
}
