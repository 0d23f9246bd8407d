//! Layer drivers: each layer's public functions called directly with the
//! inputs a simulation run gives them, timed from outside.
//!
//! - `workloads`: `TaskWorkload::next_op`, with the seeds `System` uses.
//! - `os`: `BankAwareAllocator::alloc_page` on first touch under the
//!   partition plan's bank vectors, and `Scheduler::pick_next` +
//!   `requeue` with one busy bank per quantum.
//! - `cpu`: `CacheHierarchy::access` on the translated addresses, one
//!   hierarchy per core, tasks time-sliced through the scheduler.
//! - `dram`: the cpu driver's misses and writebacks, merged across cores
//!   by progress through each quantum, replayed open-loop through a
//!   fresh `MemoryController` at the simulation's request rate, advanced
//!   once per step that receives requests, rejected enqueues retried.
//!
//! Calls that run back to back are timed in batches of [`BATCH`]; calls
//! interleaved with other work (`alloc_page`, `enqueue`,
//! `try_advance_to`) are timed one by one, less the cost of an empty
//! timed interval.

use std::time::Instant;

use refsim_core::config::SystemConfig;
use refsim_core::metrics::RunMetrics;
use refsim_cpu::hierarchy::{CacheHierarchy, HierOutcome};
use refsim_dram::controller::MemoryController;
use refsim_dram::geometry::Geometry;
use refsim_dram::mapping::{AddressMapping, MappingScheme};
use refsim_dram::request::{MemRequest, ReqId, ReqKind};
use refsim_dram::stats::ControllerStats;
use refsim_dram::time::Ps;
use refsim_dram::timing::Density;
use refsim_os::bank_alloc::{BankAwareAllocator, BankVector, PAGE_BYTES};
use refsim_os::partition::{plan, PartitionInput};
use refsim_os::sched::{SchedPolicy, Scheduler};
use refsim_os::task::{Task, TaskId};
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::{Benchmark, Op, TaskWorkload};

use crate::sim::ratio;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metric;

/// Calls per timed batch (and per driver span).
pub const BATCH: usize = 4096;

/// Quanta the ops driver runs before it starts counting (caches and
/// page tables fill), as the simulation's one warm-up window does; it
/// then counts as many quanta as the simulation measured.
const WARM_QUANTA: u64 = 16;

/// Batches of scheduler pick/requeue pairs timed.
const SCHED_BATCHES: usize = 16;

/// What the drivers need from the simulation run they mirror.
#[derive(Debug)]
pub struct SimRun<'a> {
    pub cfg: &'a SystemConfig,
    pub mix: &'a WorkloadMix,
    /// Metrics of the measured windows.
    pub metrics: &'a RunMetrics,
    /// Host nanoseconds the measured windows took (fastest untraced
    /// repetition).
    pub wall_ns: f64,
    /// Quanta in the measured windows.
    pub quanta: u64,
}

/// A driver fidelity check: does the driver load the layer the way the
/// simulation run does?
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Driver results: per-layer metrics plus fidelity checks.
#[derive(Debug)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Host cost of an empty timed interval (`Instant::now` then
/// `elapsed`), subtracted from calls timed one by one.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..4096)
        .map(|_| {
            let a = Instant::now();
            a.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per call of `calls` calls timed one by one, net of the
/// timer's own cost.
fn net_per_call(raw_ns: u64, calls: u64, overhead: f64) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    (raw_ns as f64 - calls as f64 * overhead).max(0.0) / calls as f64
}

/// The bank under refresh in quantum `q` when the scheduler is told
/// (Algorithm 3 sees one busy bank per quantum), else none.
fn busy_bank(policy: SchedPolicy, q: u64, total_banks: u32) -> BankVector {
    match policy {
        SchedPolicy::RefreshAware { .. } => BankVector::single((q % u64::from(total_banks)) as u32),
        SchedPolicy::Cfs => BankVector::EMPTY,
    }
}

/// Totals the ops driver accumulates over the counted quanta.
#[derive(Debug, Default)]
struct OpsTotals {
    gen_ns: u64,
    gen_calls: u64,
    access_ns: u64,
    access_calls: u64,
    alloc_raw_ns: u64,
    alloc_calls: u64,
    spills: u64,
    instructions: u64,
    ops: u64,
    /// The counted quanta's DRAM requests: `(line address, is_write)`.
    requests: Vec<(u64, bool)>,
}

/// Runs every driver against `run` and derives the per-layer metrics
/// and layer shares.
///
/// # Errors
///
/// A description of the first layer call that failed.
pub fn run_drivers(run: &SimRun, tr: &mut Tracer) -> Result<Layers, String> {
    tr.begin("drivers");
    let layers = drive(run, tr);
    tr.end(1);
    layers
}

fn drive(run: &SimRun, tr: &mut Tracer) -> Result<Layers, String> {
    let overhead = timer_overhead_ns();
    let cfg = run.cfg;
    let geometry = cfg.geometry();
    let mapping = AddressMapping::new(geometry, cfg.mapping);
    let total_banks = geometry.total_banks();
    let n_cores = cfg.n_cores as usize;
    let part = plan(
        cfg.partition,
        PartitionInput {
            total_banks,
            banks_per_rank: geometry.banks_per_rank,
            n_cores: cfg.n_cores,
            n_tasks: run.mix.len() as u32,
        },
    );
    let mut tasks: Vec<Task> = run
        .mix
        .tasks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            Task::new(
                TaskId(i as u32),
                b.name(),
                part.cpus[i],
                part.banks[i],
                total_banks,
            )
        })
        .collect();
    let mut gens: Vec<TaskWorkload> = run
        .mix
        .tasks
        .iter()
        .enumerate()
        .map(|(i, &b)| TaskWorkload::new(b, cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let timeslice = cfg.effective_timeslice();
    let mut sched = Scheduler::new(cfg.sched_policy, timeslice, cfg.n_cores);
    for t in &mut tasks {
        sched.enqueue(t);
    }
    let mut alloc = BankAwareAllocator::new(mapping);
    let mut hier: Vec<CacheHierarchy> = (0..n_cores).map(|_| CacheHierarchy::table1()).collect();

    let instructions: u64 = run.metrics.tasks.iter().map(|t| t.instructions).sum();
    let budget = (instructions / (run.quanta * n_cores as u64)).max(1);
    let mut tot = OpsTotals::default();
    let mut ops: Vec<Op> = Vec::with_capacity(BATCH);
    let mut paddrs: Vec<u64> = Vec::with_capacity(BATCH);
    // The counted quanta's requests, `(share of the core's quantum done,
    // line address, is_write)`: merged across cores by that share, as the
    // simulation interleaves cores that run side by side.
    let mut quantum_reqs: Vec<(f64, u64, bool)> = Vec::new();
    for q in 0..WARM_QUANTA + run.quanta {
        let counted = q >= WARM_QUANTA;
        if q == WARM_QUANTA {
            for h in &mut hier {
                h.reset_stats();
            }
        }
        let busy = busy_bank(cfg.sched_policy, q, total_banks);
        for (c, caches) in hier.iter_mut().enumerate() {
            let Some(id) = sched.pick_next(c as u32, busy, &mut tasks) else {
                continue;
            };
            let i = id.0 as usize;
            let per_mille = u64::from(gens[i].profile().mem_per_mille);
            let mut done = 0u64;
            while done < budget {
                // workloads: the next ops, enough to fill the budget.
                let want = ((budget - done) * per_mille).div_ceil(1000);
                let n = (want as usize).clamp(1, BATCH);
                ops.clear();
                let a = Instant::now();
                for _ in 0..n {
                    ops.push(gens[i].next_op());
                }
                let b = Instant::now();
                tr.record("TaskWorkload::next_op", a, b, n as u64);
                // os: translate, faulting pages in on first touch.
                paddrs.clear();
                let task = &mut tasks[i];
                let mut batch_instructions = 0;
                for op in &ops {
                    batch_instructions += u64::from(op.non_mem) + u64::from(op.mem.is_some());
                    let Some(m) = op.mem else {
                        paddrs.push(0);
                        continue;
                    };
                    if let Some(p) = task.mm.translate(m.vaddr) {
                        paddrs.push(p);
                        continue;
                    }
                    let t0 = Instant::now();
                    let page = alloc.alloc_page(task.possible_banks, &mut task.last_alloced_bank);
                    tot.alloc_raw_ns += t0.elapsed().as_nanos() as u64;
                    tot.alloc_calls += 1;
                    let page =
                        page.map_err(|_| format!("os driver: out of memory at {:#x}", m.vaddr))?;
                    tot.spills += u64::from(page.fell_back);
                    task.mm.map(m.vaddr, page.frame);
                    task.note_page(page.bank, page.fell_back);
                    paddrs.push(
                        task.mm
                            .translate(m.vaddr)
                            .ok_or("os driver: page did not map")?,
                    );
                }
                // cpu: the accesses, through this core's hierarchy.
                let a2 = Instant::now();
                let mut accesses = 0u64;
                let mut at = done;
                for (op, &paddr) in ops.iter().zip(&paddrs) {
                    at += u64::from(op.non_mem) + u64::from(op.mem.is_some());
                    let Some(m) = op.mem else { continue };
                    accesses += 1;
                    if let HierOutcome::Miss {
                        line_addr,
                        writeback,
                    } = caches.access(paddr, m.write)
                    {
                        if counted {
                            let share = at as f64 / budget as f64;
                            quantum_reqs.push((share, line_addr, false));
                            if let Some(wb) = writeback {
                                quantum_reqs.push((share, wb, true));
                            }
                        }
                    }
                }
                let b2 = Instant::now();
                tr.record("CacheHierarchy::access", a2, b2, accesses);
                done += batch_instructions;
                if counted {
                    tot.gen_ns += ns(a, b);
                    tot.gen_calls += n as u64;
                    tot.access_ns += ns(a2, b2);
                    tot.access_calls += accesses;
                    tot.ops += n as u64;
                    tot.instructions += batch_instructions;
                }
            }
            sched.requeue(&mut tasks[i], timeslice);
        }
        quantum_reqs.sort_by(|x, y| x.0.total_cmp(&y.0));
        tot.requests
            .extend(quantum_reqs.drain(..).map(|(_, line, write)| (line, write)));
    }

    // os: scheduler picks against the footprints the ops phase built.
    let mut pick_ns = 0;
    let mut q = 0u64;
    for _ in 0..SCHED_BATCHES {
        let a = Instant::now();
        for k in 0..BATCH {
            let c = k % n_cores;
            if let Some(id) = sched.pick_next(
                c as u32,
                busy_bank(cfg.sched_policy, q, total_banks),
                &mut tasks,
            ) {
                sched.requeue(&mut tasks[id.0 as usize], timeslice);
            }
            if c + 1 == n_cores {
                q += 1;
            }
        }
        let b = Instant::now();
        tr.record("Scheduler::pick_next+requeue", a, b, BATCH as u64);
        pick_ns += ns(a, b);
    }
    let pick_next_ns = pick_ns as f64 / (SCHED_BATCHES * BATCH) as f64;

    let dram = replay_dram(run, mapping, &tot.requests, overhead, tr)?;

    let llc_misses: u64 = hier.iter().map(|h| h.stats().llc_misses).sum();
    let llc_accesses: u64 = hier.iter().map(|h| h.stats().accesses).sum();
    let next_op_ns = tot.gen_ns as f64 / tot.gen_calls.max(1) as f64;
    let access_ns = tot.access_ns as f64 / tot.access_calls.max(1) as f64;
    let alloc_page_ns = net_per_call(tot.alloc_raw_ns, tot.alloc_calls, overhead);

    // Layer shares: the simulation run's call counts times the driver's
    // cost per call, over the run's measured wall.
    let m = run.metrics;
    let c = &m.controller;
    let sim_ops = instructions as f64 * tot.ops as f64 / tot.instructions.max(1) as f64;
    let faults: u64 = m.tasks.iter().map(|t| t.faults).sum();
    let share = |ns_total: f64| ns_total / run.wall_ns;
    let workloads_share = share(sim_ops * next_op_ns);
    let cpu_share = share(sim_ops * access_ns);
    let os_share = share(faults as f64 * alloc_page_ns + m.sched.picks as f64 * pick_next_ns);
    let dram_share = share(
        c.commands_total() as f64 * dram.advance_ns_per_command
            + submitted(c) as f64 * dram.enqueue_ns,
    );

    let driver_mpki = llc_misses as f64 * 1000.0 / tot.instructions.max(1) as f64;
    let sim_mpki = m.mpki();
    let mpki_err = if sim_mpki > 0.0 {
        (driver_mpki - sim_mpki).abs() / sim_mpki
    } else {
        f64::INFINITY
    };
    let sim_requests = submitted(c);
    let write_share = |s: &ControllerStats| ratio(s.writes_enqueued, submitted(s));
    let (driver_writes, sim_writes) = (write_share(&dram.stats), write_share(c));
    let writes_err = (driver_writes - sim_writes).abs() / sim_writes.max(f64::MIN_POSITIVE);
    Ok(Layers {
        metrics: vec![
            Metric::new(
                "system.residual_share",
                1.0 - workloads_share - cpu_share - os_share - dram_share,
                "ratio",
            ),
            Metric::new("workloads.next_op_ns", next_op_ns, "ns"),
            Metric::new("workloads.est_share", workloads_share, "ratio"),
            Metric::new("cpu.access_ns", access_ns, "ns"),
            Metric::new("cpu.llc_miss_ratio", ratio(llc_misses, llc_accesses), "ratio"),
            Metric::new("cpu.est_share", cpu_share, "ratio"),
            Metric::new("os.alloc_page_ns", alloc_page_ns, "ns"),
            Metric::new("os.alloc_spill_ratio", ratio(tot.spills, tot.alloc_calls), "ratio"),
            Metric::new("os.pick_next_ns", pick_next_ns, "ns"),
            Metric::new("os.est_share", os_share, "ratio"),
            Metric::new("dram.enqueue_ns", dram.enqueue_ns, "ns"),
            Metric::new("dram.advance_ns_per_command", dram.advance_ns_per_command, "ns"),
            Metric::new("dram.enqueue_retry_ratio", ratio(dram.retries, sim_requests), "ratio"),
            Metric::new("dram.est_share", dram_share, "ratio"),
        ],
        checks: vec![
            Check {
                name: "cpu_driver_mpki",
                ok: mpki_err <= 0.15,
                detail: format!(
                    "driver {driver_mpki:.3} MPKI vs simulation {sim_mpki:.3} ({:.1}% off, limit 15%)",
                    mpki_err * 100.0
                ),
            },
            Check {
                name: "dram_driver_requests",
                ok: submitted(&dram.stats) == sim_requests,
                detail: format!(
                    "controller took {} requests, simulation submitted {sim_requests}",
                    submitted(&dram.stats)
                ),
            },
            Check {
                name: "dram_driver_writes",
                ok: writes_err <= 0.15,
                detail: format!(
                    "driver {:.2}% writes vs simulation {:.2}% ({:.1}% off, limit 15%)",
                    driver_writes * 100.0,
                    sim_writes * 100.0,
                    writes_err * 100.0
                ),
            },
        ],
    })
}

/// Requests a controller was handed: queued reads and writes, plus
/// reads served by forwarding from the write queue.
fn submitted(s: &ControllerStats) -> u64 {
    s.reads_enqueued + s.writes_enqueued + s.forwarded_reads
}

#[derive(Debug)]
struct DramReplay {
    enqueue_ns: f64,
    advance_ns_per_command: f64,
    retries: u64,
    /// The replay controller's own counters.
    stats: ControllerStats,
}

/// Replays as many requests as the simulation run submitted, cycling
/// through `requests`, spaced evenly over its measured span.
fn replay_dram(
    run: &SimRun,
    mapping: AddressMapping,
    requests: &[(u64, bool)],
    overhead: f64,
    tr: &mut Tracer,
) -> Result<DramReplay, String> {
    let cfg = run.cfg;
    let total = submitted(&run.metrics.controller);
    if requests.is_empty() || total == 0 {
        return Err("dram driver: no requests to replay".to_owned());
    }
    let span = run.metrics.sim_time.as_ps();
    let gap = span as f64 / total as f64;
    let step = cfg.step.as_ps();
    let mut mc = MemoryController::new(
        mapping,
        cfg.timing_params(),
        cfg.refresh_timing(),
        cfg.refresh_policy,
        cfg.controller,
    );
    let (mut enq_raw, mut enq_calls, mut adv_raw, mut adv_calls) = (0u64, 0u64, 0u64, 0u64);
    let mut retries = 0;
    let mut next = 0u64;
    let mut t = 0u64;
    let mut done = Vec::new();
    let mut batch_start = Instant::now();
    let mut in_batch = 0u64;
    let arrival = |i: u64| (i as f64 * gap) as u64;
    while next < total || t < span {
        // Advance to the end of the step holding the next arrival: steps
        // without arrivals merge into one advance, as the event-skip
        // engine merges idle steps.
        let due = if next < total { arrival(next) } else { span };
        let end = ((due / step + 1) * step).max(t + step);
        while next < total && arrival(next) < end {
            let (paddr, write) = requests[(next % requests.len() as u64) as usize];
            let req = MemRequest {
                id: ReqId(next + 1),
                kind: if write { ReqKind::Write } else { ReqKind::Read },
                paddr,
                loc: mapping.decode(paddr),
                arrival: Ps(arrival(next).max(t)),
                core: 0,
                task: 0,
            };
            let a = Instant::now();
            let r = mc.enqueue(req);
            enq_raw += a.elapsed().as_nanos() as u64;
            enq_calls += 1;
            if r.is_err() {
                retries += 1;
                break;
            }
            next += 1;
        }
        let a = Instant::now();
        let r = mc.try_advance_to(Ps(end));
        adv_raw += a.elapsed().as_nanos() as u64;
        adv_calls += 1;
        r.map_err(|e| format!("dram driver: {e}"))?;
        mc.drain_completions_into(&mut done);
        done.clear();
        t = end;
        in_batch += 1;
        if in_batch == BATCH as u64 {
            let now = Instant::now();
            tr.record("MemoryController replay", batch_start, now, BATCH as u64);
            batch_start = now;
            in_batch = 0;
        }
    }
    if in_batch > 0 {
        tr.record(
            "MemoryController replay",
            batch_start,
            Instant::now(),
            in_batch,
        );
    }
    let stats = mc.stats().clone();
    Ok(DramReplay {
        enqueue_ns: net_per_call(enq_raw, enq_calls, overhead),
        advance_ns_per_command: net_per_call(adv_raw, adv_calls, overhead) * adv_calls as f64
            / stats.commands_total().max(1) as f64,
        retries,
        stats,
    })
}

/// Figure 5's allocation loop — bank 0 first, falling back when it
/// fills — for mcf, the largest footprint, at every density: the
/// allocation pattern the figure pipeline spends its render time on.
/// Returns ns per `alloc_page` call and the share that fell back.
pub fn figure5_alloc(tr: &mut Tracer) -> [Metric; 2] {
    let pages = Benchmark::Mcf.profile().footprint / PAGE_BYTES;
    let (mut total_ns, mut calls, mut spills) = (0u64, 0u64, 0u64);
    tr.begin("figure5 allocation");
    for density in Density::ALL {
        let geometry = Geometry::ddr3_2rank_8bank(density.rows_per_bank());
        let mut alloc = BankAwareAllocator::new(AddressMapping::new(
            geometry,
            MappingScheme::RowRankBankColumn,
        ));
        let mut last = alloc.total_banks() - 1;
        let mut left = pages;
        while left > 0 {
            let n = left.min(BATCH as u64);
            let a = Instant::now();
            for _ in 0..n {
                let page = alloc
                    .alloc_page(BankVector::single(0), &mut last)
                    .expect("the machine holds every Figure 5 footprint");
                spills += u64::from(page.fell_back);
            }
            let b = Instant::now();
            tr.record("BankAwareAllocator::alloc_page", a, b, n);
            total_ns += ns(a, b);
            calls += n;
            left -= n;
        }
    }
    tr.end(calls);
    [
        Metric::new("os.alloc_page_ns", total_ns as f64 / calls as f64, "ns"),
        Metric::new("os.alloc_spill_ratio", ratio(spills, calls), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_rep, SimSpec, MEASURED_WINDOWS, QUANTA_PER_WINDOW};
    use refsim_dram::timing::Retention;

    #[test]
    fn drivers_load_the_layers_like_the_simulation() {
        // The co-design workload, shrunk in time so a debug build runs it.
        let spec = SimSpec {
            mix: "WL-5",
            co_design: true,
            retention: Retention::Ms64,
            step: Ps::from_ns(250),
            time_scale: 256,
        };
        let (cfg, mix) = (spec.config(24_301), spec.mix());
        let rep = run_rep(&cfg, &mix, &mut Tracer::off()).expect("the design point runs");
        let run = SimRun {
            cfg: &cfg,
            mix: &mix,
            metrics: &rep.metrics,
            wall_ns: rep.measured_ns() as f64,
            quanta: QUANTA_PER_WINDOW * MEASURED_WINDOWS,
        };
        let mut tr = Tracer::on();
        let layers = run_drivers(&run, &mut tr).expect("every driver runs");
        assert_eq!(layers.checks.len(), 3);
        for c in &layers.checks {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
        let batches = tr.spans().iter().filter(|s| s.parent.is_some());
        assert!(batches.clone().all(|s| s.count <= BATCH as u64));
        assert!(batches.clone().any(|s| s.name == "MemoryController replay"));
    }
}
