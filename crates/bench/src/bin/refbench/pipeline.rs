//! The figure pipeline: sections go through the collect →
//! `RunPool::execute` → render protocol against a run cache, first
//! cold (every cell simulated and stored), then warm (every cell served
//! from the cache).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use refsim_core::codec::fnv64;
use refsim_core::executor::ExecutorStats;
use refsim_core::experiment::{self as exp, ExpOptions, Job, RunPool, Scheme, Telemetry};
use refsim_core::metrics::RunMetrics;
use refsim_core::report::Table;
use refsim_core::runcache::{CacheEntry, CacheStats, RunCache};
use refsim_dram::timing::Density;
use refsim_workloads::mix::by_name;

use crate::sim::REFERENCE_SEED;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{secs, Metric};

/// Executor threads the pipeline runs on (no more than the 2 cores of
/// the recorded host).
pub const THREADS: usize = 2;

/// A figure builder, called once per pass phase.
pub type Builder = Box<dyn Fn(&ExpOptions) -> Vec<Table>>;

/// The twelve `all_figures` sections, in its order.
pub fn figure_sections() -> Vec<(&'static str, Builder)> {
    vec![
        ("Table 1", Box::new(|o| vec![exp::table01(o)])),
        ("Table 2", Box::new(|o| vec![exp::table02(o)])),
        ("Figure 3", Box::new(|o| vec![exp::figure03(o)])),
        ("Figure 4", Box::new(|o| vec![exp::figure04(o)])),
        ("Figure 5", Box::new(|_| vec![exp::figure05()])),
        ("Figure 10", Box::new(exp::figure10)),
        ("Figure 11", Box::new(|o| vec![exp::figure11(o)])),
        ("Figure 12", Box::new(|o| vec![exp::figure12(o)])),
        ("Figure 13", Box::new(exp::figure13)),
        ("Figure 14", Box::new(|o| vec![exp::figure14(o)])),
        ("Figure 15", Box::new(|o| vec![exp::figure15(o)])),
        ("Ablation", Box::new(|o| vec![exp::ablation(o)])),
    ]
}

/// A pipeline of one cell: a single design point run the way the figure
/// binaries run each of theirs. Its table carries a digest of the full
/// metrics so cold and warm passes are compared exactly.
pub fn cell_section(job: Job) -> Vec<(&'static str, Builder)> {
    let builder: Builder = Box::new(move |o| {
        let mut t = Table::new(
            "cell",
            ["workload", "hmean IPC", "read latency", "metrics fnv64"],
        );
        let name = job.mix.name.clone();
        let result = exp::run_jobs(o, std::slice::from_ref(&job)).pop();
        match result.expect("run_jobs answers every job") {
            Ok(m) => t.push([
                name,
                Table::fmt_f(m.hmean_ipc()),
                Table::fmt_f(m.avg_read_latency_cycles()),
                format!("{:016x}", fnv64(format!("{m:?}").as_bytes())),
            ]),
            Err(e) => t.push([name, format!("error: {e}"), String::new(), String::new()]),
        }
        vec![t]
    });
    vec![("cell", builder)]
}

/// One pass through the protocol.
#[derive(Debug)]
pub struct Pass {
    pub collect_ns: u64,
    pub execute_ns: u64,
    pub render_ns: u64,
    /// Time inside the Figure 5 builder, both phases.
    pub figure05_ns: u64,
    pub tables: Vec<Table>,
    pub markdown: String,
    pub cache: CacheStats,
    pub exec: ExecutorStats,
}

impl Pass {
    pub fn total_ns(&self) -> u64 {
        self.collect_ns + self.execute_ns + self.render_ns
    }

    /// Cells rendered as `error` or `violated`.
    pub fn bad_cells(&self) -> usize {
        self.tables
            .iter()
            .flat_map(|t| &t.rows)
            .flatten()
            .filter(|c| c.starts_with("error") || c.starts_with("violated"))
            .count()
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Runs every section once to collect jobs, executes the deduplicated
/// union, then runs every section again to render.
pub fn run_pass(sections: &[(&'static str, Builder)], base: &ExpOptions, tr: &mut Tracer) -> Pass {
    let pool = Arc::new(RunPool::new());
    let mut o = base.clone();
    o.pool = Some(Arc::clone(&pool));
    o.telemetry = Telemetry::default();
    let mut figure05_ns = 0;
    let mut phase = |o: &ExpOptions, tr: &mut Tracer, label: &str| {
        let mut tables = Vec::new();
        tr.begin(label);
        let start = Instant::now();
        for (name, build) in sections {
            let a = Instant::now();
            tables.extend(build(o));
            let b = Instant::now();
            tr.record(name, a, b, 1);
            if *name == "Figure 5" {
                figure05_ns += ns(a, b);
            }
        }
        let took = ns(start, Instant::now());
        tr.end(sections.len() as u64);
        (tables, took)
    };
    tr.begin("pass");
    let (_, collect_ns) = phase(&o, tr, "collect");
    let cells = pool.unique_jobs() as u64;
    let a = Instant::now();
    pool.execute(&o);
    let b = Instant::now();
    tr.record("RunPool::execute", a, b, cells);
    let (tables, render_ns) = phase(&o, tr, "render");
    tr.end(1);
    let markdown = tables.iter().map(Table::to_markdown).collect();
    Pass {
        collect_ns,
        execute_ns: ns(a, b),
        render_ns,
        figure05_ns,
        tables,
        markdown,
        cache: o.telemetry.snapshot(),
        exec: o.telemetry.exec_snapshot(),
    }
}

/// Rounds every pipeline run makes at least, whatever its budget.
pub const MIN_ROUNDS: usize = 2;

/// The passes of one run, made in rounds: a cold pass on an empty cache,
/// then a warm pass on the cache it filled.
#[derive(Debug)]
pub struct PassSet {
    pub cold: Vec<Pass>,
    pub warm: Vec<Pass>,
    /// Simulated picoseconds across the cells a cold pass executes.
    pub simulated_ps: f64,
    /// One line per pass that failed a check.
    pub failures: Vec<String>,
}

impl PassSet {
    pub fn attempted(&self) -> u64 {
        (self.cold.len() + self.warm.len()) as u64
    }
}

/// The cache directory of round `round` under `dir`.
pub fn round_dir(dir: &Path, round: usize) -> PathBuf {
    dir.join(format!("round-{round}"))
}

/// Runs rounds until `budget` has passed (at least `min_rounds`), each
/// on a fresh cache in [`round_dir`]. Every pass must render no failed
/// cell, no refuted cache entry, and the same markdown as the first.
pub fn measure(
    sections: &[(&'static str, Builder)],
    base: &ExpOptions,
    dir: &Path,
    budget: Duration,
    min_rounds: usize,
    tr: &mut Tracer,
) -> PassSet {
    let _ = std::fs::remove_dir_all(dir);
    let mut set = PassSet {
        cold: Vec::new(),
        warm: Vec::new(),
        simulated_ps: 0.0,
        failures: Vec::new(),
    };
    let mut first: Option<String> = None;
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed() < budget {
        let cache = round_dir(dir, round);
        let mut o = base.clone();
        o.cache = Some(RunCache::new(&cache));
        for warm in [false, true] {
            let pass = run_pass(sections, &o, tr);
            let label = format!("round {round} {} pass", if warm { "warm" } else { "cold" });
            let md = first.get_or_insert_with(|| pass.markdown.clone());
            set.failures.extend(check(&pass, &label, md));
            if warm {
                set.warm.push(pass);
            } else {
                set.cold.push(pass);
            }
        }
        if round == 0 {
            set.simulated_ps = simulated_ps(&cache_entries(&cache), base);
        }
        round += 1;
    }
    set
}

/// Why `pass` is wrong, if it is.
fn check(pass: &Pass, label: &str, first: &str) -> Option<String> {
    let mut why = Vec::new();
    if pass.bad_cells() > 0 {
        why.push(format!("{} error/violated cells", pass.bad_cells()));
    }
    if pass.cache.verify_failures > 0 {
        why.push(format!(
            "{} cache verifications failed",
            pass.cache.verify_failures
        ));
    }
    if first != pass.markdown {
        why.push("markdown differs from the first pass".to_owned());
    }
    (!why.is_empty()).then(|| format!("{label}: {}", why.join(", ")))
}

/// The timed end-to-end metrics of the pipeline: `sim_ps_per_s` over the
/// fastest cold `RunPool::execute`, `setup_s` the median collect phase of
/// every pass, and `pass_s` the fastest cold pass plus the fastest warm
/// pass (regenerating every figure from scratch, then again from the
/// cache).
pub fn end_to_end(set: &PassSet) -> [Metric; 3] {
    let fastest = |passes: &[Pass], f: fn(&Pass) -> u64| passes.iter().map(f).min().unwrap_or(0);
    let collects: Vec<f64> = set
        .cold
        .iter()
        .chain(&set.warm)
        .map(|p| secs(p.collect_ns))
        .collect();
    [
        Metric::new(
            "sim_ps_per_s",
            set.simulated_ps / secs(fastest(&set.cold, |p| p.execute_ns)),
            "ps/s",
        ),
        Metric::new("setup_s", median(&collects), "s"),
        Metric::new(
            "pass_s",
            secs(fastest(&set.cold, Pass::total_ns) + fastest(&set.warm, Pass::total_ns)),
            "s",
        ),
    ]
}

/// The quick options the pipeline runs under.
pub fn quick_options(seed: u64) -> ExpOptions {
    let mut o = ExpOptions::quick();
    o.seed = seed;
    o.threads = THREADS;
    o
}

/// Every valid entry in the cache directory, with its fingerprint.
pub fn cache_entries(dir: &Path) -> Vec<CacheEntry> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = rd
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| std::fs::read(p).ok())
        .filter_map(|b| CacheEntry::from_bytes(&b))
        .collect()
}

/// Simulated picoseconds across every executed cell: each entry stores
/// its measured window, and every cell runs the options' warm-up
/// windows before it.
pub fn simulated_ps(entries: &[CacheEntry], o: &ExpOptions) -> f64 {
    let windows = f64::from(o.warm_windows + o.measure_windows) / f64::from(o.measure_windows);
    entries
        .iter()
        .map(|e| e.metrics.sim_time.as_ps() as f64 * windows)
        .sum()
}

/// The paper's headline cell (Figure 10, 32 Gb, co-design on WL-5) at
/// the reference seed, run directly with no cache.
///
/// # Errors
///
/// The cell's `RefsimError`, as text.
pub fn headline_reference() -> Result<RunMetrics, String> {
    let o = quick_options(REFERENCE_SEED);
    let cfg = Scheme::CoDesign.apply(&o.base_config().with_density(Density::Gb32));
    let mix = by_name("WL-5").ok_or("WL-5 is a Table 2 mix")?;
    exp::run_jobs(&o, &[Job { cfg, mix }])
        .pop()
        .ok_or("run_jobs answers every job")?
        .map_err(|e| format!("headline cell: {e}"))
}

/// Figure 10's 32 Gb gmean speedup of the co-design over all-bank.
pub fn headline_speedup(tables: &[Table]) -> Option<f64> {
    let t = tables
        .iter()
        .find(|t| t.title.starts_with("Figure 10 (32Gb)"))?;
    let col = t.headers.iter().position(|h| h == "co-design")?;
    let row = t.rows.iter().find(|r| r[0] == "gmean")?;
    row[col].parse().ok()
}

/// Nanoseconds per warm cache hit: every entry loaded back through
/// `RunCache::load`, in fingerprint order.
pub fn warm_ns_per_hit(dir: &Path, tr: &mut Tracer) -> f64 {
    let cache = RunCache::new(dir);
    let fps: Vec<u64> = cache_entries(dir).iter().map(|e| e.fingerprint).collect();
    if fps.is_empty() {
        return 0.0;
    }
    let a = Instant::now();
    let hits = fps.iter().filter(|&&fp| cache.load(fp).is_some()).count();
    let b = Instant::now();
    tr.record("RunCache::load", a, b, fps.len() as u64);
    ns(a, b) as f64 / hits.max(1) as f64
}
