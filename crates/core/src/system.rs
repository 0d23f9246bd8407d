//! The co-simulation: cores ⇄ caches ⇄ memory controller ⇄ OS.
//!
//! [`System`] binds the four substrates into one discrete-event
//! simulation. Time advances in small steps ([`SystemConfig::step`],
//! 250 ns by default); within each step
//! every core processes its scheduled task's instruction stream (through
//! its private caches and into the memory controller), then the
//! controller replays DRAM command scheduling up to the step boundary
//! and completions unblock stalled cores. Context switches happen at
//! quantum boundaries, which — under the co-design — are aligned with
//! the hardware's per-bank refresh slices so the refresh-aware scheduler
//! (Algorithm 3) can dodge the bank being refreshed.

use std::hash::Hasher;

use refsim_cpu::core::ExecContext;
use refsim_cpu::hierarchy::{CacheHierarchy, HierOutcome};
use refsim_dram::backend::{build_backend, MemoryBackend};
use refsim_dram::controller::TraceEntry;
use refsim_dram::mapping::AddressMapping;
use refsim_dram::refresh::BusyForecast;
use refsim_dram::request::{Completion, MemRequest, ReqId, ReqKind};
use refsim_dram::time::Ps;
use refsim_os::bank_alloc::{BankAwareAllocator, BankVector, PAGE_BYTES};
use refsim_os::partition::{plan, PartitionInput, PartitionPlan};
use refsim_os::sched::{SchedPolicy, Scheduler};
use refsim_os::task::{Task as OsTask, TaskId, TaskState};
use refsim_workloads::mix::WorkloadMix;

use refsim_workloads::profiles::TaskWorkload;

use crate::config::{EngineKind, SystemConfig};
use crate::error::{RefsimError, SystemSnapshot};
use crate::fastmap::FnvMap;
use crate::metrics::{RunMetrics, TaskMetrics};
use crate::sanitize::{
    AuditLevel, AuditScope, ChannelSample, CoreSample, Event, QuantumSample, Sanitizer,
    SchedSample, TaskSample, ViolationReport,
};

/// Forward-progress budget for one `run_until` span of `span` ps: a
/// comfortable multiple of the maximum number of step boundaries
/// (`span / step`) plus quantum boundaries (`span / slice` per core)
/// the span can contain, so the watchdog trips only on genuine
/// livelock. All arithmetic saturates: extreme configurations — a
/// timeslice smaller than the step, a tREFW-scale span with a
/// picosecond slice — degrade to an effectively unlimited budget
/// instead of overflowing into a tiny one that trips spuriously.
pub fn watchdog_budget(span: u64, step: u64, slice: u64, cores: u64) -> u64 {
    let base_steps = (span / step.max(1)).saturating_add(1);
    let quantum_steps = (span / slice.max(1))
        .saturating_add(1)
        .saturating_mul(cores.max(1));
    base_steps
        .saturating_add(quantum_steps)
        .saturating_mul(2)
        .saturating_add(64)
}

/// A memory operation that could not be fully handed to the memory
/// system yet (queue-full back-pressure); retried on later steps.
#[derive(Debug, Clone, Copy)]
struct PendingMem {
    /// Dirty victim still to be enqueued as a writeback.
    writeback: Option<u64>,
    /// Fill (line address) still to be enqueued as a read.
    fill: Option<u64>,
    /// The faulting access was a store (fill does not block the ROB).
    write: bool,
    /// The faulting access was a serializing load.
    dependent: bool,
}

/// Per-task simulation state beyond the OS task block.
#[derive(Debug)]
struct TaskSim {
    wl: TaskWorkload,
    ctx: ExecContext,
    pending: Option<PendingMem>,
    tlb: Tlb,
}

impl TaskSim {
    /// Streams the workload generator, the execution context and the
    /// back-pressured memory operation (tag byte, then its writeback
    /// and fill options and its store and serializing flags). The TLB
    /// is an accelerator, not state.
    fn hash_state(&self, h: &mut dyn Hasher) {
        self.wl.hash_state(h);
        self.ctx.hash_state(h);
        h.write_u8(u8::from(self.pending.is_some()));
        if let Some(p) = self.pending {
            for line in [p.writeback, p.fill] {
                h.write_u8(u8::from(line.is_some()));
                if let Some(l) = line {
                    h.write_u64(l);
                }
            }
            h.write_u8(u8::from(p.write));
            h.write_u8(u8::from(p.dependent));
        }
    }
}

/// Sets in a [`Tlb`]; a power of two.
const TLB_SETS: usize = 64;

/// Per-task TLB for the core loop: direct-mapped on the low VPN
/// bits, one `(vpn, frame base)` pair per set, `u64::MAX` marking an
/// empty set (no VPN reaches it). Purely an accelerator — mappings only
/// grow and never move, so a cached pair cannot go stale within a run.
/// Runtime-only: never hashed.
#[derive(Debug)]
struct Tlb {
    sets: [(u64, u64); TLB_SETS],
}

impl Tlb {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Self {
        Tlb {
            sets: [(Self::EMPTY, 0); TLB_SETS],
        }
    }

    #[inline]
    fn lookup(&self, vpn: u64) -> Option<u64> {
        let (cached, frame_base) = self.sets[vpn as usize % TLB_SETS];
        (cached == vpn).then_some(frame_base)
    }

    #[inline]
    fn insert(&mut self, vpn: u64, frame_base: u64) {
        self.sets[vpn as usize % TLB_SETS] = (vpn, frame_base);
    }
}

/// Per-core state.
#[derive(Debug)]
struct CoreSlot {
    caches: CacheHierarchy,
    current: Option<u32>,
    /// `ctx.now()` at the instant the current task was scheduled.
    sched_base: Ps,
    quantum_end: Ps,
    /// Lines with an in-flight fill (MSHR coalescing).
    inflight_lines: FnvMap<ReqId>,
}

impl CoreSlot {
    /// Streams the core's caches, current task (tag byte, then the id),
    /// quantum anchors and in-flight fill lines sorted by `(line, id)`.
    fn hash_state(&self, h: &mut dyn Hasher) {
        self.caches.hash_state(h);
        h.write_u8(u8::from(self.current.is_some()));
        if let Some(task) = self.current {
            h.write_u32(task);
        }
        h.write_u64(self.sched_base.as_ps());
        h.write_u64(self.quantum_end.as_ps());
        let mut lines: Vec<(u64, u64)> = self
            .inflight_lines
            .iter()
            .map(|(line, id)| (line, id.0))
            .collect();
        lines.sort_unstable();
        h.write_u64(lines.len() as u64);
        for (line, id) in lines {
            h.write_u64(line);
            h.write_u64(id);
        }
    }
}

/// A task's counters at the measurement boundary.
#[derive(Debug, Clone, Copy, Default)]
struct TaskSnapshot {
    instructions: u64,
    stall: Ps,
    misses: u64,
    faults: u64,
    spilled: u64,
    cpu_time: Ps,
    schedules: u64,
}

impl TaskSnapshot {
    /// Streams the seven counters in declaration order.
    fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.instructions);
        h.write_u64(self.stall.as_ps());
        h.write_u64(self.misses);
        h.write_u64(self.faults);
        h.write_u64(self.spilled);
        h.write_u64(self.cpu_time.as_ps());
        h.write_u64(self.schedules);
    }
}

/// The complete simulated machine.
///
/// # Examples
///
/// ```no_run
/// use refsim_core::config::SystemConfig;
/// use refsim_core::system::System;
/// use refsim_workloads::mix::by_name;
///
/// let cfg = SystemConfig::table1().co_design();
/// let mut sys = System::new(cfg, &by_name("WL-5").unwrap());
/// let metrics = sys.run();
/// println!("hmean IPC = {:.3}", metrics.hmean_ipc());
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    clock: Ps,
    /// Per-channel memory backends, walked serially in channel order.
    mcs: Vec<Box<dyn MemoryBackend>>,
    /// The shared-address-mapping copy (identical in every channel
    /// backend), kept here so request routing never singles out a
    /// channel-0 backend.
    mapping: AddressMapping,
    cores: Vec<CoreSlot>,
    os_tasks: Vec<OsTask>,
    sims: Vec<TaskSim>,
    sched: Scheduler,
    alloc: BankAwareAllocator,
    next_req: u64,
    /// In-flight fills: request id → (task, core, line address). An
    /// FNV-hashed open-addressing table — one insert and one remove per
    /// LLC miss make this the hottest map in the simulator.
    inflight: FnvMap<(u32, u8, u64)>,
    base: Vec<TaskSnapshot>,
    sched_base_stats: refsim_os::sched::SchedStats,
    measure_start: Ps,
    /// Runtime invariant sanitizer (`simsan`); present only when
    /// `cfg.audit != Off`. Not part of the hashed state.
    san: Option<Box<Sanitizer>>,
    /// Scheduler preemptions observed so far (audit quantum ordinal).
    quanta: u64,
    /// Report from a completed audit (see [`System::finish_audit`]).
    last_report: Option<ViolationReport>,
    /// Reusable per-step buffer for drained read completions.
    comp_buf: Vec<Completion>,
    /// Reusable per-step buffer for the sanitizer's DRAM command trace.
    trace_buf: Vec<TraceEntry>,
    /// Reusable buffer for the skip horizon's per-channel completion
    /// bounds `(next action, channel)`.
    bounds_buf: Vec<(Ps, usize)>,
    /// Engine telemetry (not hashed): loop iterations and which
    /// horizon constraint bound each skip decision.
    engine_stats: EngineStats,
}

/// Telemetry for the step loop and the event-horizon skip decisions.
/// Diagnostic only — excluded from the replay hashes.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Step-loop iterations executed.
    pub iterations: u64,
    /// Skip decisions abandoned because a core was idle.
    pub no_skip_idle: u64,
    /// Skip decisions bound by a runnable (non-inert) core or an
    /// imminent quantum end — the horizon never cleared one step.
    pub no_skip_core: u64,
    /// Skips truncated by a controller's utilization-epoch cap.
    pub epoch_bound: u64,
    /// Skips truncated by an upcoming read completion.
    pub completion_bound: u64,
    /// Iterations that jumped past at least one elided step boundary.
    pub skipped: u64,
    /// Total step boundaries elided by those jumps.
    pub steps_elided: u64,
}

/// Builds the [`AuditScope`] describing `cfg` for the standard checker
/// catalog.
fn audit_scope(cfg: &SystemConfig, n_tasks: u32) -> AuditScope {
    let geometry = cfg.geometry();
    let rt = cfg.refresh_timing();
    let eta = match cfg.sched_policy {
        SchedPolicy::RefreshAware { eta_thresh, .. } => Some(eta_thresh),
        SchedPolicy::Cfs => None,
    };
    AuditScope {
        policy: cfg.refresh_policy,
        trefw: rt.trefw,
        trefi_ab: rt.trefi_ab,
        trfc_ab: rt.trfc_ab,
        trfc_pb: rt.trfc_pb,
        // The refresh schedule (and thus the slice the quantum checker
        // audits against) is per *channel* — must match
        // `SystemConfig::effective_timeslice`, which uses
        // `banks_per_channel`, not the cross-channel total.
        slice: rt.sequential_slice(geometry.banks_per_channel(), geometry.banks_per_rank),
        banks_per_channel: geometry.banks_per_channel(),
        banks_per_rank: geometry.banks_per_rank,
        channels: cfg.channels,
        rows_per_bank: u64::from(rt.rows_per_bank),
        hard_partition: matches!(cfg.partition, PartitionPlan::Hard),
        eta,
        n_cores: cfg.n_cores,
        n_tasks,
    }
}

impl System {
    /// Builds the machine for `cfg` running `mix`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`] or
    /// the mix is empty.
    pub fn new(cfg: SystemConfig, mix: &WorkloadMix) -> Self {
        Self::try_new(cfg, mix).unwrap_or_else(|e| panic!("invalid config: {e}"))
    }

    /// Fallible [`System::new`]: returns [`RefsimError::InvalidConfig`]
    /// or [`RefsimError::EmptyWorkload`] instead of panicking, so sweeps
    /// can record a bad configuration as an error row.
    pub fn try_new(cfg: SystemConfig, mix: &WorkloadMix) -> Result<Self, RefsimError> {
        cfg.validate()?;
        if mix.is_empty() {
            return Err(RefsimError::EmptyWorkload);
        }
        let geometry = cfg.geometry();
        let mapping = AddressMapping::new(geometry, cfg.mapping);
        let refresh_timing = cfg.refresh_timing();
        let faults = cfg
            .fault_plan
            .as_ref()
            .map(|p| p.expand(geometry.banks_per_channel(), geometry.rows_per_bank));
        let mcs: Vec<Box<dyn MemoryBackend>> = (0..cfg.channels)
            .map(|_| {
                let mut mc = build_backend(
                    cfg.backend,
                    mapping,
                    cfg.timing_params(),
                    refresh_timing,
                    cfg.refresh_policy,
                    cfg.controller,
                    cfg.shadow,
                );
                if let Some(f) = &faults {
                    mc.inject_faults(f.clone());
                }
                mc
            })
            .collect();
        // Geometry handshake: the backend must agree on the topology the
        // OS allocator and address mapping were derived from (the
        // misalignment pitfall this trait exists to close).
        for mc in &mcs {
            mc.descriptor()
                .validate_geometry(&geometry)
                .map_err(RefsimError::InvalidConfig)?;
        }
        let alloc = BankAwareAllocator::new(mapping);
        let total_banks = geometry.total_banks();
        let part = plan(
            cfg.partition,
            PartitionInput {
                total_banks,
                banks_per_rank: geometry.banks_per_rank,
                n_cores: cfg.n_cores,
                n_tasks: mix.len() as u32,
            },
        );
        let mut sched = Scheduler::new(cfg.sched_policy, cfg.effective_timeslice(), cfg.n_cores);
        let mut os_tasks = Vec::with_capacity(mix.len());
        let mut sims = Vec::with_capacity(mix.len());
        for (i, &bench) in mix.tasks.iter().enumerate() {
            let mut t = OsTask::new(
                TaskId(i as u32),
                bench.name(),
                part.cpus[i],
                part.banks[i],
                total_banks,
            );
            sched.enqueue(&mut t);
            os_tasks.push(t);
            sims.push(TaskSim {
                wl: TaskWorkload::new(bench, cfg.seed ^ (i as u64).wrapping_mul(0x9E3779B9)),
                ctx: ExecContext::new(),
                pending: None,
                tlb: Tlb::new(),
            });
        }
        let cores = (0..cfg.n_cores)
            .map(|_| CoreSlot {
                caches: CacheHierarchy::table1(),
                current: None,
                sched_base: Ps::ZERO,
                quantum_end: Ps::ZERO,
                inflight_lines: FnvMap::new(),
            })
            .collect();
        let n = mix.len();
        let san = if cfg.audit == AuditLevel::Off {
            None
        } else {
            Some(Box::new(Sanitizer::standard(
                cfg.audit,
                &audit_scope(&cfg, n as u32),
            )))
        };
        let mut sys = System {
            cfg,
            clock: Ps::ZERO,
            mcs,
            mapping,
            cores,
            os_tasks,
            sims,
            sched,
            alloc,
            next_req: 1,
            inflight: FnvMap::new(),
            base: vec![TaskSnapshot::default(); n],
            sched_base_stats: Default::default(),
            measure_start: Ps::ZERO,
            san,
            quanta: 0,
            last_report: None,
            comp_buf: Vec::new(),
            trace_buf: Vec::new(),
            bounds_buf: Vec::new(),
            engine_stats: EngineStats::default(),
        };
        if sys.san.is_some() {
            // Checkers consume the controller command trace as events.
            for mc in &mut sys.mcs {
                mc.enable_trace();
            }
        }
        Ok(sys)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Ps {
        self.clock
    }

    /// Channel-0 memory backend (read access for reports/examples).
    pub fn controller(&self) -> &dyn MemoryBackend {
        &*self.mcs[0]
    }

    /// Read access to every channel's memory backend, in channel order
    /// (the differential validator folds protocol digests across all
    /// channels, not just channel 0).
    pub fn backends(&self) -> impl Iterator<Item = &dyn MemoryBackend> + '_ {
        self.mcs.iter().map(|m| &**m)
    }

    /// The page allocator (for allocation statistics).
    pub fn allocator(&self) -> &BankAwareAllocator {
        &self.alloc
    }

    /// The OS task table.
    pub fn tasks(&self) -> &[OsTask] {
        &self.os_tasks
    }

    /// Runs warm-up then the measured phase and returns its metrics.
    ///
    /// # Panics
    ///
    /// Panics on any simulation fault — see [`System::try_run`] for the
    /// non-panicking variant experiment sweeps use.
    pub fn run(&mut self) -> RunMetrics {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Fallible [`System::run`]: any fault (memory-substrate error,
    /// exhausted memory, lost forward progress) surfaces as a typed
    /// [`RefsimError`] instead of a panic. When retention tracking is
    /// enabled the end-of-run audit executes before metrics are
    /// collected, so stale rows show up in
    /// [`refsim_dram::stats::ControllerStats::retention_violations`].
    ///
    /// # Errors
    ///
    /// Returns the first fault encountered; the system is left in its
    /// at-fault state for post-mortem inspection.
    pub fn try_run(&mut self) -> Result<RunMetrics, RefsimError> {
        let warm_end = self.cfg.warmup;
        let meas_end = self.cfg.warmup + self.cfg.measure;
        self.try_run_until(warm_end)?;
        self.begin_measure();
        self.try_run_until(meas_end)?;
        self.audit_retention();
        self.finish_audit()?;
        Ok(self.collect())
    }

    /// Completes the invariant audit: delivers a final quantum sample to
    /// every checker, stores the [`ViolationReport`] (see
    /// [`System::violation_report`]), and fails with
    /// [`RefsimError::InvariantViolation`] when any error-severity
    /// violation was found. A no-op when auditing is off or the audit
    /// already finished. Call after [`System::audit_retention`] so
    /// end-of-run oracle findings are mirrored into the report.
    pub fn finish_audit(&mut self) -> Result<(), RefsimError> {
        let Some(san) = self.san.take() else {
            return Ok(());
        };
        self.quanta += 1;
        let sample = self.quantum_sample();
        let report = san.finish(&sample);
        self.last_report = Some(report.clone());
        if report.is_clean() {
            Ok(())
        } else {
            Err(RefsimError::InvariantViolation(Box::new(report)))
        }
    }

    /// The completed audit report, if [`System::finish_audit`] has run
    /// (present for both clean and violating runs).
    pub fn violation_report(&self) -> Option<&ViolationReport> {
        self.last_report.as_ref()
    }

    /// Runs the end-of-run retention audit on every memory controller at
    /// the current clock (a no-op unless retention tracking is enabled).
    /// [`System::try_run`] calls this automatically; external drivers
    /// that advance the system with [`System::run_until`] spans call it
    /// before [`System::collect`].
    pub fn audit_retention(&mut self) {
        let now = self.clock;
        for mc in &mut self.mcs {
            mc.audit_retention(now);
        }
    }

    /// Advances simulation to `t_end` (idempotent if already there).
    ///
    /// # Panics
    ///
    /// Panics on any simulation fault — see [`System::try_run_until`].
    pub fn run_until(&mut self, t_end: Ps) {
        self.try_run_until(t_end)
            .unwrap_or_else(|e| panic!("simulation failed: {e}"));
    }

    /// Fallible [`System::run_until`], guarded by a forward-progress
    /// watchdog: the step loop gets a budget comfortably above the
    /// maximum number of step/quantum boundaries the span can contain,
    /// and exceeding it returns [`RefsimError::NoProgress`] with a
    /// [`SystemSnapshot`] instead of hanging the harness.
    ///
    /// # Errors
    ///
    /// Propagates controller faults ([`RefsimError::Dram`]), memory
    /// exhaustion, and watchdog trips.
    pub fn try_run_until(&mut self, t_end: Ps) -> Result<(), RefsimError> {
        let span = t_end.saturating_sub(self.clock).as_ps();
        let budget = watchdog_budget(
            span,
            self.cfg.step.as_ps(),
            self.sched.timeslice().as_ps(),
            self.cores.len() as u64,
        );
        let mut steps = 0u64;
        while self.clock < t_end {
            steps += 1;
            self.engine_stats.iterations += 1;
            if steps > budget {
                return Err(RefsimError::NoProgress {
                    at: self.clock,
                    steps,
                    snapshot: Box::new(self.snapshot()),
                });
            }
            // 1. Scheduling decisions at the current instant. Each real
            //    preemption closes an audit quantum.
            for c in 0..self.cores.len() {
                if self.maybe_switch(c) {
                    self.audit_quantum();
                }
            }
            // 2. Choose the step boundary: never skip past a quantum end.
            let mut step_end = (self.clock + self.cfg.step).min(t_end);
            for core in &self.cores {
                if core.current.is_some() && core.quantum_end > self.clock {
                    step_end = step_end.min(core.quantum_end);
                }
            }
            // 2b. Event-horizon engine: when the whole machine is
            //     provably inert past `step_end`, jump the boundary to
            //     the earliest instant anything can happen. `step_end`
            //     stays on the exact boundary chain the fixed-step
            //     engine would visit, so both engines are bit-identical.
            if self.cfg.engine == EngineKind::EventSkip {
                step_end = self.skip_horizon(step_end, t_end)?;
            }
            // 3. Cores execute.
            for c in 0..self.cores.len() {
                self.run_core(c, step_end)?;
            }
            // 4. Memory advances; completions unblock contexts.
            //    Completions are merged *after* every channel reached
            //    the boundary, in strict channel order. That order is
            //    identical to a per-channel advance-then-drain
            //    interleaving because a channel's advance never reads
            //    core, task, or sibling-channel state — only phase 3's
            //    enqueues feed it.
            let n_ch = self.cfg.channels as usize;
            for mc in &mut self.mcs {
                mc.try_advance_to(step_end)?;
            }
            for ch in 0..n_ch {
                let mut comp = std::mem::take(&mut self.comp_buf);
                comp.clear();
                self.mcs[ch].drain_completions_into(&mut comp);
                for done in &comp {
                    if let Some((task, core, line)) = self.inflight.remove(done.id.0) {
                        self.cores[core as usize].inflight_lines.remove(line);
                        self.sims[task as usize].ctx.on_completion(
                            &self.cfg.core,
                            done.id,
                            done.at,
                        );
                    }
                }
                self.comp_buf = comp;
            }
            // 5. The sanitizer consumes this step's DRAM command trace,
            //    likewise merged in channel order.
            if self.san.is_some() {
                let mut buf = std::mem::take(&mut self.trace_buf);
                for ch in 0..n_ch {
                    buf.clear();
                    self.mcs[ch].drain_trace_into(&mut buf);
                    if let Some(san) = self.san.as_mut() {
                        for e in &buf {
                            san.on_event(&Event::DramCmd {
                                channel: ch as u32,
                                at: e.at,
                                cmd: e.cmd,
                                rank: e.rank,
                                bank: e.bank,
                            });
                        }
                    }
                }
                self.trace_buf = buf;
            }
            self.clock = step_end;
        }
        Ok(())
    }

    /// The largest step-chain boundary at or before `t`: boundaries are
    /// `clock + k·step` — exactly the instants the fixed-step engine
    /// visits from the current clock (quantum ends and `t_end` truncate
    /// the chain; both are handled by `min`-composition in
    /// [`skip_horizon`](Self::skip_horizon)).
    fn chain_floor(&self, t: Ps) -> Ps {
        if t <= self.clock {
            return self.clock;
        }
        let step = self.cfg.step.as_ps();
        let k = (t - self.clock).as_ps() / step;
        Ps(self.clock.as_ps() + k * step)
    }

    /// The smallest step-chain boundary at or after `t` (see
    /// [`chain_floor`](Self::chain_floor)).
    fn chain_ceil(&self, t: Ps) -> Ps {
        if t <= self.clock {
            return self.clock;
        }
        let step = self.cfg.step.as_ps();
        let k = (t - self.clock).as_ps().div_ceil(step);
        Ps(self.clock.as_ps() + k * step)
    }

    /// Computes the furthest step boundary the event-horizon engine may
    /// jump to in this iteration, or `step_end` when any component can
    /// act before then (no skip — fall back to one fixed step).
    ///
    /// Soundness argument (see DESIGN.md "Engine" for the full
    /// derivation): a span may be skipped only if the fixed-step engine
    /// would perform *no state change* at any elided boundary, and the
    /// landing point is itself a fixed-step boundary. The binding events
    /// are:
    ///
    /// - **Quantum ends** — `maybe_switch` fires at the boundary ≥ each
    ///   core's `quantum_end`; the chain truncates there.
    /// - **Core activity** — a runnable core (or one with back-pressured
    ///   pending memory ops) acts in the step containing its context
    ///   clock, so the skip stops at `chain_floor(ctx.now())`. A stalled
    ///   core with no pending ops is inert until a completion arrives.
    /// - **Idle cores** — re-run their (stat-counting) scheduler pick at
    ///   every boundary; eliding boundaries would elide those picks, so
    ///   an idle machine crawls. The win targets busy, memory-stalled
    ///   machines.
    /// - **Utilization-epoch rolls** — a non-inert controller is never
    ///   leapt across [`MemoryController::advance_cap`], keeping the
    ///   epoch-roll ↔ command interleaving identical to stepwise
    ///   advancement (refresh-rate policies consume those rolls).
    /// - **Read completions** — delivering one can unblock a stalled
    ///   core, so the skip stops at the chain boundary that fixed-step
    ///   would deliver the earliest completion at. The controller
    ///   advances with an early stop
    ///   ([`MemoryController::try_advance_until_completion`]) to
    ///   *discover* that instant; with several channels the laggard
    ///   composition below finds the global minimum without letting any
    ///   channel cross the final boundary.
    fn skip_horizon(&mut self, step_end: Ps, t_end: Ps) -> Result<Ps, RefsimError> {
        let mut w = t_end;
        for core in &self.cores {
            let Some(cur) = core.current else {
                self.engine_stats.no_skip_idle += 1;
                return Ok(step_end);
            };
            if core.quantum_end <= self.clock {
                self.engine_stats.no_skip_core += 1;
                return Ok(step_end);
            }
            w = w.min(core.quantum_end);
            let sim = &self.sims[cur as usize];
            let inert = sim.pending.is_none() && sim.ctx.next_event_time(&self.cfg.core).is_none();
            if !inert {
                w = w.min(self.chain_floor(sim.ctx.now()));
            }
        }
        if w <= step_end {
            self.engine_stats.no_skip_core += 1;
            return Ok(step_end);
        }
        let n_ch = self.cfg.channels as usize;
        for ch in 0..n_ch {
            let cap = self.mcs[ch].advance_cap();
            if let Some(cap) = cap {
                if cap <= w {
                    w = w.min(self.chain_floor(Ps(cap.as_ps().saturating_sub(1))));
                    self.engine_stats.epoch_bound += 1;
                }
            }
        }
        if w <= step_end {
            return Ok(step_end);
        }
        debug_assert!(
            (0..n_ch).all(|ch| !self.mcs[ch].has_completions()),
            "completions must be drained before a skip decision"
        );
        // "Advance the laggard": discover the earliest read completion
        // across channels by early-stop discovery, composed as a min over
        // per-channel horizons. Each read-holding channel's next planned
        // action time is a lower bound on its earliest possible
        // completion, and that bound is nondecreasing as the channel
        // advances. Repeatedly advance the channel with the smallest
        // bound, but never past the second-smallest (or `w`): then every
        // sibling's earliest action — and therefore the final, possibly
        // smaller, chosen boundary — is at or after every instant any
        // channel has crossed, so no channel ever overshoots. With one
        // channel this is a single advance to `w`. Channels without
        // queued reads cannot produce completions and are advanced by
        // phase 4 as usual.
        let mut bounds = std::mem::take(&mut self.bounds_buf);
        bounds.clear();
        for ch in 0..n_ch {
            if self.mcs[ch].queue_depths().0 == 0 {
                continue;
            }
            if let Some(t) = self.mcs[ch].next_event_time() {
                bounds.push((t, ch));
            }
        }
        // Smallest bound first; the (Ps, channel) lexicographic order
        // breaks ties toward the lowest channel, keeping the walk
        // deterministic.
        while let Some(&(lb1, ch1)) = bounds.iter().min() {
            if lb1 > w {
                break; // no channel can act before the horizon
            }
            let lb2 = bounds
                .iter()
                .filter(|&&(_, c)| c != ch1)
                .map(|&(t, _)| t)
                .min()
                .unwrap_or(w);
            let target = lb2.min(w);
            let cas = self.mcs[ch1].try_advance_until_completion(target)?;
            if let Some(cas_at) = cas {
                // Every sibling's earliest action is ≥ lb2 ≥ cas_at, so
                // this is the global earliest completion (ties land on
                // the same chain boundary).
                w = w.min(self.chain_ceil(cas_at));
                self.engine_stats.completion_bound += 1;
                break;
            }
            // No completion up to `target`: the channel's cursor sits at
            // `target` and its bound strictly grew; re-derive it.
            bounds.retain(|&(_, c)| c != ch1);
            if self.mcs[ch1].queue_depths().0 > 0 {
                if let Some(t) = self.mcs[ch1].next_event_time() {
                    bounds.push((t, ch1));
                }
            }
        }
        self.bounds_buf = bounds;
        if self.cfg.debug_skip_overshoot > Ps::ZERO {
            w = (w + self.cfg.debug_skip_overshoot).min(t_end);
        }
        let w = w.max(step_end);
        if w > step_end {
            self.engine_stats.skipped += 1;
            self.engine_stats.steps_elided +=
                (w - step_end).as_ps().div_ceil(self.cfg.step.as_ps());
        }
        Ok(w)
    }

    /// Engine telemetry for the run so far: loop iterations and the
    /// skip-decision breakdown. Diagnostic only — never hashed, so
    /// reading it cannot perturb replay equivalence.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Test hook: capacities of the reusable hot-loop buffers
    /// `(trace, completions, skip bounds)` plus the inflight table's
    /// slot count. Steady-state stepping must not grow any of them — the
    /// allocation regression tests pin that by sampling before and after
    /// a window.
    #[doc(hidden)]
    pub fn debug_buffer_capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.trace_buf.capacity(),
            self.comp_buf.capacity(),
            self.bounds_buf.capacity(),
            self.inflight.slot_capacity(),
        )
    }

    /// A diagnostic digest of current system state, attached to
    /// [`RefsimError::NoProgress`] and available for logging.
    pub fn snapshot(&self) -> SystemSnapshot {
        let sched = self.sched.stats();
        SystemSnapshot {
            clock: self.clock,
            picks: sched.picks,
            eta_fallbacks: sched.eta_fallbacks,
            inflight_fills: self.inflight.len(),
            // Channel 0 stands for the machine in this diagnostic digest.
            controller: self.mcs[0].state_snapshot(),
        }
    }

    // ---- state hashing -------------------------------------------------

    /// Streams the complete dynamic state of the machine into one hasher
    /// per component, `[dram, cpu, os, workloads, system]`, for the
    /// replay auditor's hashes ([`crate::replay::StateHashes`]). Valid at
    /// any step boundary — in practice, whenever the caller is between
    /// `run_until` calls.
    ///
    /// Streamed is **dynamic state only**: the configuration and
    /// workload mix are inputs, not state. Not streamed either:
    /// controller command-trace buffers (diagnostic only), the fault
    /// plan, accelerators rebuilt from state (TLBs, lookup memos, plan
    /// caches), the sanitizer, and floating-point *derived* reporting
    /// values outside a controller's `last_utilization`. Everything that
    /// feeds future simulation decisions **is** streamed, so two runs
    /// whose streams hash alike at a step boundary continue identically
    /// through the same `run_until` boundaries.
    ///
    /// Every sequence is length-prefixed and every option is one tag
    /// byte. Hash-map contents are sorted first so the stream does not
    /// depend on slot layout: a core's in-flight lines by `(line, id)`,
    /// the in-flight fills by request id.
    pub(crate) fn hash_state(&self, [dram, cpu, os, workloads, system]: [&mut dyn Hasher; 5]) {
        dram.write_u64(self.mcs.len() as u64);
        for mc in &self.mcs {
            mc.hash_state(dram);
        }

        cpu.write_u64(self.cores.len() as u64);
        for core in &self.cores {
            core.hash_state(cpu);
        }

        os.write_u64(self.os_tasks.len() as u64);
        for t in &self.os_tasks {
            t.hash_state(os);
        }
        self.sched.hash_state(os);
        self.alloc.hash_state(os);

        workloads.write_u64(self.sims.len() as u64);
        for s in &self.sims {
            s.hash_state(workloads);
        }

        system.write_u64(self.clock.as_ps());
        system.write_u64(self.next_req);
        system.write_u64(self.measure_start.as_ps());
        let mut inflight: Vec<_> = self.inflight.iter().collect();
        inflight.sort_unstable_by_key(|&(id, _)| id);
        system.write_u64(inflight.len() as u64);
        for (id, &(task, core, line)) in inflight {
            system.write_u64(id);
            system.write_u32(task);
            system.write_u8(core);
            system.write_u64(line);
        }
        system.write_u64(self.base.len() as u64);
        for b in &self.base {
            b.hash_state(system);
        }
        self.sched_base_stats.hash_state(system);
    }

    /// Negative-control hook for the replay auditor: XORs `mask` into
    /// the workload RNG state word of task `task` (no-op past the last
    /// task), so that task's random stream departs from here on.
    pub(crate) fn perturb_workload_rng(&mut self, task: usize, mask: u64) {
        if let Some(sim) = self.sims.get_mut(task) {
            sim.wl.perturb_rng(mask);
        }
    }

    /// Marks the warm-up → measurement boundary: statistics reset while
    /// all architectural state (caches, row buffers, schedules) stays
    /// warm.
    pub fn begin_measure(&mut self) {
        // Account partially-run quanta so cpu_time deltas stay exact.
        for c in 0..self.cores.len() {
            self.account_running(c);
        }
        for (i, sim) in self.sims.iter().enumerate() {
            let t = &self.os_tasks[i];
            self.base[i] = TaskSnapshot {
                instructions: sim.ctx.instructions(),
                stall: sim.ctx.stall_time(),
                misses: sim.ctx.misses(),
                faults: t.mm.faults(),
                spilled: t.spilled_pages,
                cpu_time: t.cpu_time,
                schedules: t.schedules,
            };
        }
        for mc in &mut self.mcs {
            mc.reset_stats();
        }
        for core in &mut self.cores {
            core.caches.reset_stats();
        }
        // Counter-baseline checkers must re-base: a sampled audit may
        // never observe the reset as a counter regression.
        if let Some(san) = self.san.as_mut() {
            san.on_stats_reset();
        }
        self.sched_base_stats = *self.sched.stats();
        self.measure_start = self.clock;
    }

    /// Folds the running task's elapsed quantum into its `cpu_time`
    /// without descheduling it.
    fn account_running(&mut self, c: usize) {
        let core = &mut self.cores[c];
        if let Some(cur) = core.current {
            let t = &mut self.os_tasks[cur as usize];
            let now = self.sims[cur as usize].ctx.now().max(self.clock);
            let ran = now.saturating_sub(core.sched_base);
            t.cpu_time += ran;
            core.sched_base = now;
        }
    }

    /// Builds the measured-phase metrics.
    pub fn collect(&mut self) -> RunMetrics {
        for c in 0..self.cores.len() {
            self.account_running(c);
        }
        let tasks = (0..self.sims.len())
            .map(|i| {
                let sim = &self.sims[i];
                let t = &self.os_tasks[i];
                let b = &self.base[i];
                TaskMetrics {
                    task: i as u32,
                    label: t.label.clone(),
                    instructions: sim.ctx.instructions() - b.instructions,
                    cpu_time: t.cpu_time - b.cpu_time,
                    stall_time: sim.ctx.stall_time() - b.stall,
                    llc_misses: sim.ctx.misses() - b.misses,
                    faults: t.mm.faults() - b.faults,
                    spilled_pages: t.spilled_pages - b.spilled,
                    schedules: t.schedules - b.schedules,
                }
            })
            .collect();
        let mut sched = *self.sched.stats();
        sched.picks -= self.sched_base_stats.picks;
        sched.refresh_dodges -= self.sched_base_stats.refresh_dodges;
        sched.eta_fallbacks -= self.sched_base_stats.eta_fallbacks;
        sched.migrations -= self.sched_base_stats.migrations;
        // Controller counters aggregate across channels (sums for
        // counts/totals, max for maxima); at one channel this is exactly
        // channel 0's stats, bit-identical to prior releases.
        let mut controller = self.mcs[0].stats().clone();
        for mc in &self.mcs[1..] {
            controller.accumulate(mc.stats());
        }
        RunMetrics {
            tasks,
            sim_time: self.clock - self.measure_start,
            controller,
            sched,
            cpu_period: self.cfg.core.period,
            dram_period: self.cfg.timing_params().tck,
        }
    }

    // ---- scheduling ----------------------------------------------------

    /// The set of *global* banks forecast busy with refresh during a
    /// quantum `[start, end)` — at most one bank per channel, empty when
    /// the scheduler does not care or no channel's schedule is
    /// predictable. Each channel's within-channel forecast is lifted to
    /// the global index space (`channel × banksPerChannel + flat`), the
    /// same convention `BankAwareAllocator::bank_of` and the exclusion
    /// windows use.
    fn forecast_busy(&mut self, start: Ps, end: Ps) -> BankVector {
        if !matches!(self.sched.policy(), SchedPolicy::RefreshAware { .. }) {
            return BankVector::EMPTY;
        }
        let g = self.cfg.geometry();
        let (bpc, bpr) = (g.banks_per_channel(), g.banks_per_rank);
        let mut busy = BankVector::EMPTY;
        for ch in 0..self.cfg.channels as usize {
            let forecast = self.mcs[ch].refresh_forecast(start, end);
            if let BusyForecast::Bank(b) = forecast {
                busy.insert(ch as u32 * bpc + b.flat(bpr));
            }
        }
        busy
    }

    /// Runs a scheduling decision on core `c`; returns whether a running
    /// task was actually preempted (i.e. an audit quantum closed — idle
    /// cores "expire" every step and must not count).
    fn maybe_switch(&mut self, c: usize) -> bool {
        let t_now = self.clock;
        let expired = match self.cores[c].current {
            Some(_) => t_now >= self.cores[c].quantum_end,
            None => true,
        };
        if !expired {
            return false;
        }
        // Preempt the incumbent.
        let mut preempted = false;
        let switch_at = if let Some(cur) = self.cores[c].current.take() {
            let ctx_now = self.sims[cur as usize].ctx.now();
            let preempt_t = ctx_now.max(self.cores[c].quantum_end);
            let ran = preempt_t.saturating_sub(self.cores[c].sched_base);
            self.sched.requeue(&mut self.os_tasks[cur as usize], ran);
            preempted = true;
            preempt_t.max(t_now)
        } else {
            t_now
        };
        // The upcoming quantum runs to the next refresh-slice boundary
        // under the co-design (so the quantum always lies within one
        // slice — even if the switch itself overshot a boundary by a few
        // nanoseconds), or one fixed timeslice otherwise. Channel 0's
        // boundary is every channel's boundary: identically configured
        // channels build the same time-driven schedule (phase-aligned
        // from t = 0), and dynamic policies — whose per-channel state
        // could drift — report no boundary and fall back to the fixed
        // timeslice anyway.
        let refresh_aware = matches!(self.sched.policy(), SchedPolicy::RefreshAware { .. });
        let boundary = self.mcs[0].refresh_boundary_after(switch_at);
        let quantum_end = match boundary {
            Some(b) if refresh_aware => b,
            _ => switch_at + self.sched.timeslice(),
        };
        // Pick the successor (Algorithm 3 under the co-design, fed one
        // busy bank per channel).
        let busy = self.forecast_busy(switch_at, quantum_end);
        if let Some(id) = self.sched.pick_next(c as u32, busy, &mut self.os_tasks) {
            let sim = &mut self.sims[id.0 as usize];
            let start = switch_at + self.cfg.ctx_switch_cost;
            sim.ctx.set_now(sim.ctx.now().max(start));
            let core = &mut self.cores[c];
            core.current = Some(id.0);
            core.sched_base = sim.ctx.now();
            core.quantum_end = quantum_end;
        } else {
            let core = &mut self.cores[c];
            core.current = None;
            core.quantum_end = t_now; // retry next step
        }
        preempted
    }

    // ---- invariant audit ------------------------------------------------

    /// Closes one audit quantum: builds a cross-layer sample and feeds
    /// it through the sanitizer (a no-op when auditing is off or the
    /// sampling stride skips this quantum).
    fn audit_quantum(&mut self) {
        let Some(mut san) = self.san.take() else {
            return;
        };
        self.quanta += 1;
        if san.begin_quantum() {
            let sample = self.quantum_sample();
            san.on_quantum(&sample);
        }
        self.san = Some(san);
    }

    /// Snapshots scheduler, task, execution-context, and controller
    /// state into an owned [`QuantumSample`] for the checkers.
    fn quantum_sample(&self) -> QuantumSample {
        let st = self.sched.stats();
        let sched = SchedSample {
            picks: st.picks,
            refresh_dodges: st.refresh_dodges,
            eta_fallbacks: st.eta_fallbacks,
            migrations: st.migrations,
        };
        let tasks = self
            .os_tasks
            .iter()
            .map(|t| TaskSample {
                id: t.id.0,
                runnable: matches!(t.state, TaskState::Runnable | TaskState::Running),
                schedules: t.schedules,
                spilled_pages: t.spilled_pages,
                outside_bytes: t
                    .bytes_per_bank
                    .iter()
                    .enumerate()
                    .filter(|&(b, _)| !t.possible_banks.contains(b as u32))
                    .map(|(_, &bytes)| bytes)
                    .sum(),
            })
            .collect();
        let cores = self
            .sims
            .iter()
            .map(|s| {
                let p = s.ctx.probe();
                CoreSample {
                    now: p.now,
                    instructions: p.instructions,
                    stall_time: p.stall_time,
                    misses: p.misses,
                    outstanding: p.outstanding,
                }
            })
            .collect();
        let chans = (0..self.cfg.channels as usize)
            .map(|ch| {
                let mc = &self.mcs[ch];
                let cs = mc.stats();
                let (rq, wq) = mc.queue_depths();
                ChannelSample {
                    reads_enqueued: cs.reads_enqueued,
                    writes_enqueued: cs.writes_enqueued,
                    reads_completed: cs.reads_completed,
                    writes_completed: cs.writes_completed,
                    forwarded_reads: cs.forwarded_reads,
                    read_q: rq as u64,
                    write_q: wq as u64,
                    refreshes_ab: cs.refreshes_ab,
                    refreshes_pb: cs.refreshes_pb,
                    postpone_max: cs.refresh_postpone_max,
                    oracle_enabled: mc.integrity().is_some(),
                    oracle_violations: cs.retention_violations,
                    rows_refreshed: mc
                        .bank_report()
                        .iter()
                        .map(|&(_, _, rows, _)| rows)
                        .collect(),
                }
            })
            .collect();
        QuantumSample {
            now: self.clock,
            quantum: self.quanta,
            sched,
            tasks,
            cores,
            chans,
            inflight_fills: self.inflight.len() as u64,
            alloc_audit: self.alloc.audit(),
        }
    }

    // ---- core execution ------------------------------------------------

    /// Runs core `c`'s current task up to `step_end` (or its quantum
    /// end).
    ///
    /// The task, the limit and the stall state are loop invariants
    /// except across a miss, so they are hoisted and the loop runs
    /// stall-check-free bursts: `issue_headroom` is positive exactly
    /// when `stall()` is `None`, and between misses it falls by exactly
    /// the per-op instruction count, so a per-op stall probe would be
    /// redundant inside a burst.
    fn run_core(&mut self, c: usize, step_end: Ps) -> Result<(), RefsimError> {
        let Some(cur) = self.cores[c].current else {
            return Ok(());
        };
        let cur = cur as usize;
        // Invariant across the whole call: nothing below reschedules
        // this core or moves its quantum boundary.
        let limit = step_end.min(self.cores[c].quantum_end);
        loop {
            if self.sims[cur].ctx.now() >= limit {
                return Ok(());
            }
            // Retry back-pressured memory operations first.
            if self.sims[cur].pending.is_some() && !self.flush_pending(c, cur) {
                return Ok(()); // still full; wait for the controller to drain
            }
            let mut headroom = self.sims[cur].ctx.issue_headroom(&self.cfg.core);
            if headroom == 0 {
                return Ok(()); // blocked on a miss; completion will unblock
            }
            while headroom > 0 {
                if self.sims[cur].ctx.now() >= limit {
                    return Ok(());
                }
                let op = self.sims[cur].wl.next_op();
                self.sims[cur]
                    .ctx
                    .execute(&self.cfg.core, u64::from(op.non_mem));
                headroom = headroom.saturating_sub(u64::from(op.non_mem));
                let Some(m) = op.mem else {
                    continue;
                };
                headroom = headroom.saturating_sub(1);
                let paddr = self.translate(cur, m.vaddr)?;
                match self.cores[c].caches.access(paddr, m.write) {
                    HierOutcome::L1Hit => self.sims[cur].ctx.on_l1_hit(&self.cfg.core),
                    HierOutcome::L2Hit => self.sims[cur].ctx.on_l2_hit(&self.cfg.core),
                    HierOutcome::Miss {
                        line_addr,
                        writeback,
                    } => {
                        self.sims[cur].pending = Some(PendingMem {
                            writeback,
                            fill: Some(line_addr),
                            write: m.write,
                            dependent: m.dependent,
                        });
                        let _ = self.flush_pending(c, cur);
                        // A miss rewires the stall state (MSHR entry,
                        // maybe a dependent block); re-derive headroom.
                        break;
                    }
                }
            }
        }
    }

    /// Walks task `cur`'s page table for `vaddr`, demand-faulting a page
    /// in via the bank-aware allocator (Algorithm 2) if needed.
    fn walk_page_table(&mut self, cur: usize, vaddr: u64) -> Result<u64, RefsimError> {
        let t = &mut self.os_tasks[cur];
        if let Some(p) = t.mm.translate(vaddr) {
            return Ok(p);
        }
        let page = self
            .alloc
            .alloc_page(t.possible_banks, &mut t.last_alloced_bank)
            .map_err(|_| RefsimError::OutOfMemory {
                task: cur as u32,
                vaddr,
            })?;
        t.mm.map(vaddr, page.frame);
        t.note_page(page.bank, page.fell_back);
        let permitted = t.possible_banks.bits();
        if let Some(san) = self.san.as_mut() {
            san.on_event(&Event::PageAlloc {
                task: cur as u32,
                bank: page.bank,
                permitted,
                fell_back: page.fell_back,
                hard: matches!(self.cfg.partition, PartitionPlan::Hard),
                at: self.clock,
            });
        }
        let sim = &mut self.sims[cur];
        let now = sim.ctx.now();
        sim.ctx.set_now(now + self.cfg.fault_cost);
        Ok(page.frame * PAGE_BYTES + vaddr % PAGE_BYTES)
    }

    /// Translates `vaddr` for task `cur`: consults the task's [`Tlb`]
    /// before walking the page table. Mappings only grow and never move
    /// (`AddressSpace::map` rejects remaps), so a hit reproduces the
    /// page-table walk bit for bit.
    #[inline]
    fn translate(&mut self, cur: usize, vaddr: u64) -> Result<u64, RefsimError> {
        let vpn = vaddr / PAGE_BYTES;
        let offset = vaddr % PAGE_BYTES;
        if let Some(frame_base) = self.sims[cur].tlb.lookup(vpn) {
            return Ok(frame_base + offset);
        }
        let paddr = self.walk_page_table(cur, vaddr)?;
        self.sims[cur].tlb.insert(vpn, paddr - offset);
        Ok(paddr)
    }

    /// Attempts to hand the task's pending memory operations to the
    /// memory system; returns whether everything was accepted.
    fn flush_pending(&mut self, c: usize, cur: usize) -> bool {
        let Some(mut p) = self.sims[cur].pending.take() else {
            return true;
        };
        let now = self.sims[cur].ctx.now();
        if let Some(wb) = p.writeback {
            let loc = self.mapping.decode(wb);
            let ch = loc.channel as usize;
            if !self.mcs[ch].can_accept_write() {
                self.sims[cur].pending = Some(p);
                return false;
            }
            let req = MemRequest {
                id: ReqId(self.next_req),
                kind: ReqKind::Write,
                paddr: wb,
                loc,
                arrival: now,
                core: c as u8,
                task: cur as u32,
            };
            self.next_req += 1;
            self.mcs[ch].enqueue(req).expect("checked capacity");
            p.writeback = None;
        }
        if let Some(line) = p.fill {
            // MSHR coalescing: a fill for this line is already in
            // flight — treat as an L2 hit (data arrives with the
            // earlier fill).
            if self.cores[c].inflight_lines.contains_key(line) {
                self.sims[cur].ctx.on_l2_hit(&self.cfg.core);
                p.fill = None;
            } else {
                let loc = self.mapping.decode(line);
                let ch = loc.channel as usize;
                if !self.mcs[ch].can_accept_read() {
                    self.sims[cur].pending = Some(p);
                    return false;
                }
                let id = ReqId(self.next_req);
                self.next_req += 1;
                let req = MemRequest {
                    id,
                    kind: ReqKind::Read,
                    paddr: line,
                    loc,
                    arrival: now,
                    core: c as u8,
                    task: cur as u32,
                };
                self.mcs[ch].enqueue(req).expect("checked capacity");
                self.inflight.insert(id.0, (cur as u32, c as u8, line));
                self.cores[c].inflight_lines.insert(line, id);
                self.sims[cur]
                    .ctx
                    .on_miss(&self.cfg.core, id, !p.write, p.dependent);
                p.fill = None;
            }
        }
        debug_assert!(p.writeback.is_none() && p.fill.is_none());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use refsim_dram::refresh::RefreshPolicyKind;
    use refsim_workloads::mix::{by_name, WorkloadMix};
    use refsim_workloads::profiles::Benchmark;

    /// A fast config for unit tests: tiny windows, small scale.
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

    #[test]
    fn runs_and_produces_metrics() {
        let mut sys = System::new(quick(SystemConfig::table1()), &small_mix());
        let m = sys.run();
        assert_eq!(m.tasks.len(), 4);
        assert!(m.tasks.iter().all(|t| t.instructions > 0));
        assert!(m.hmean_ipc() > 0.0);
        assert!(m.controller.reads_completed > 0);
        assert_eq!(m.sim_time, sys.config().measure);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = System::new(quick(SystemConfig::table1()), &small_mix());
            let m = sys.run();
            format!("{:?} {:?}", m.tasks, m.controller)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tasks_share_cpu_roughly_fairly() {
        let mut sys = System::new(quick(SystemConfig::table1()), &small_mix());
        let m = sys.run();
        let total: Ps = m.tasks.iter().map(|t| t.cpu_time).sum();
        for t in &m.tasks {
            let share = t.cpu_time.as_ps() as f64 / total.as_ps() as f64;
            assert!(
                (0.15..=0.35).contains(&share),
                "task {} got share {share}",
                t.task
            );
        }
    }

    #[test]
    fn memory_intensity_classes_order_ipc() {
        let mut sys = System::new(quick(SystemConfig::table1()), &small_mix());
        let m = sys.run();
        // povray (L) must achieve higher IPC than stream (M).
        let stream_ipc = m.tasks[0].ipc(m.cpu_period);
        let povray_ipc = m.tasks[2].ipc(m.cpu_period);
        assert!(
            povray_ipc > stream_ipc,
            "povray {povray_ipc} !> stream {stream_ipc}"
        );
    }

    #[test]
    fn no_refresh_beats_all_bank() {
        let base = quick(SystemConfig::table1());
        let m_ab = System::new(base.clone(), &small_mix()).run();
        let m_nr = System::new(
            base.with_refresh(RefreshPolicyKind::NoRefresh),
            &small_mix(),
        )
        .run();
        assert!(
            m_nr.hmean_ipc() > m_ab.hmean_ipc(),
            "no-refresh {} !> all-bank {}",
            m_nr.hmean_ipc(),
            m_ab.hmean_ipc()
        );
    }

    #[test]
    fn co_design_dodges_refreshes() {
        let mut sys = System::new(quick(SystemConfig::table1().co_design()), &small_mix());
        let m = sys.run();
        // The scheduler must be making refresh-aware picks…
        assert!(m.sched.picks > 0);
        // …and the partition must have confined allocations: 4 tasks on
        // 2 cores is the paper's 1:2 consolidation ratio, where each
        // task gets 4 of 8 banks per rank (§6.6) = 8 global banks.
        assert!(sys.tasks().iter().all(|t| t.possible_banks.count() == 8));
    }

    #[test]
    fn co_design_quanta_align_to_slices() {
        let cfg = quick(SystemConfig::table1().co_design());
        let slice = cfg.effective_timeslice();
        let mut sys = System::new(cfg, &small_mix());
        sys.run_until(slice * 3 + slice / 2);
        for c in &sys.cores {
            assert_eq!(
                core_quantum_misalignment(c.quantum_end, slice),
                Ps::ZERO,
                "quantum end {} not slice-aligned",
                c.quantum_end
            );
        }
    }

    fn core_quantum_misalignment(q: Ps, slice: Ps) -> Ps {
        q % slice
    }

    #[test]
    fn single_task_keeps_running() {
        let mix = WorkloadMix::from_groups("solo", &[(Benchmark::Povray, 1)], "L");
        let mut sys = System::new(quick(SystemConfig::table1()), &mix);
        let m = sys.run();
        assert_eq!(m.tasks.len(), 1);
        assert!(m.tasks[0].instructions > 100_000);
        // One idle core is fine; the lone task owns its core apart from
        // context-switch costs at quantum boundaries.
        assert!(m.tasks[0].cpu_time >= sys.config().measure.scale(9, 10));
    }

    #[test]
    fn page_faults_confined_to_permitted_banks_without_pressure() {
        let cfg = quick(SystemConfig::table1().co_design());
        let mix = small_mix();
        let mut sys = System::new(cfg, &mix);
        sys.run();
        for t in sys.tasks() {
            assert_eq!(
                t.spilled_pages, 0,
                "task {} spilled although capacity was ample",
                t.id
            );
            // Data only on permitted banks.
            for b in 0..16u32 {
                if !t.possible_banks.contains(b) {
                    assert_eq!(t.bytes_on_bank(b), 0, "task {} bank {b}", t.id);
                }
            }
        }
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let mut bad = quick(SystemConfig::table1());
        bad.measure = Ps::ZERO;
        match System::try_new(bad, &small_mix()) {
            Err(RefsimError::InvalidConfig(why)) => assert!(why.contains("measure")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let empty = WorkloadMix::from_groups("none", &[], "");
        assert!(matches!(
            System::try_new(quick(SystemConfig::table1()), &empty),
            Err(RefsimError::EmptyWorkload)
        ));
    }

    #[test]
    fn try_run_matches_run() {
        let cfg = quick(SystemConfig::table1());
        let a = System::new(cfg.clone(), &small_mix()).run();
        let b = System::try_new(cfg, &small_mix())
            .expect("valid")
            .try_run()
            .expect("clean run");
        assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn retention_oracle_flags_no_refresh_through_config() {
        // NoRefresh long enough that the end-of-run audit sees rows
        // beyond tREFW plus the oracle's postponement slack.
        let mut cfg = quick(SystemConfig::table1())
            .with_refresh(RefreshPolicyKind::NoRefresh)
            .with_retention_tracking();
        cfg.measure = cfg.trefw() * 3;
        let m = System::new(cfg, &small_mix()).run();
        assert!(
            m.controller.retention_violations > 0,
            "audit must flag the never-refreshing system"
        );

        // The stock all-bank baseline stays clean under the same length.
        let mut cfg = quick(SystemConfig::table1()).with_retention_tracking();
        cfg.measure = cfg.trefw() * 3;
        let m = System::new(cfg, &small_mix()).run();
        assert_eq!(m.controller.retention_violations, 0);
    }

    #[test]
    fn config_fault_plan_reaches_the_controller() {
        let mut plan = FaultPlan::none(11);
        plan.delay_ppm = 300_000;
        plan.max_delay = Ps::from_us(2);
        plan.horizon = 10_000;
        let cfg = quick(SystemConfig::table1().co_design())
            .with_retention_tracking()
            .with_fault_plan(plan);
        let m = System::new(cfg, &small_mix()).run();
        assert!(
            m.controller.injected_delay_faults > 0,
            "delay plan never fired"
        );
        assert_eq!(
            m.controller.retention_violations, 0,
            "bounded delay must be absorbed by the sequential schedule"
        );
    }

    #[test]
    fn wl_mix_by_name_runs() {
        let mut cfg = quick(SystemConfig::table1());
        cfg.warmup = cfg.trefw() / 8;
        cfg.measure = cfg.trefw() / 2;
        let mut sys = System::new(cfg, &by_name("WL-4").unwrap());
        let m = sys.run();
        assert_eq!(m.tasks.len(), 8);
    }

    /// VPNs `v` and `v + 64` share a TLB set, so alternating them misses
    /// every time; each fall-through walk still returns the page table's
    /// translation, and the set holds only the latest of the two.
    #[test]
    fn tlb_set_conflicts_fall_through_to_the_page_table() {
        let mut sys = System::new(quick(SystemConfig::table1()), &small_mix());
        let v = 5 * PAGE_BYTES + 0x18;
        let w = v + TLB_SETS as u64 * PAGE_BYTES;
        for round in 0..4 {
            for (vaddr, other) in [(v, w), (w, v)] {
                let paddr = sys.translate(0, vaddr).expect("translate");
                let walked = sys.os_tasks[0].mm.translate(vaddr).expect("mapped");
                assert_eq!(paddr, walked, "round {round}, vaddr {vaddr:#x}");
                let tlb = &sys.sims[0].tlb;
                assert_eq!(
                    tlb.lookup(vaddr / PAGE_BYTES),
                    Some(walked - vaddr % PAGE_BYTES)
                );
                assert_eq!(tlb.lookup(other / PAGE_BYTES), None);
            }
        }
        let (pv, pw) = (
            sys.translate(0, v).expect("translate"),
            sys.translate(0, w).expect("translate"),
        );
        assert_ne!(pv / PAGE_BYTES, pw / PAGE_BYTES);
    }

    // ---- simsan: clean runs are quiet, injected faults are caught ----

    /// Acceptance: a clean default-config run of every refresh policy
    /// under full audit finishes `Ok` with zero violations.
    #[test]
    fn clean_full_audit_runs_are_quiet_for_every_policy() {
        use refsim_dram::timing::FgrMode;
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
        for policy in policies {
            let cfg = quick(SystemConfig::table1())
                .with_refresh(policy)
                .with_audit(AuditLevel::Full);
            let mut sys = System::new(cfg, &small_mix());
            let m = sys.try_run().unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            assert!(m.controller.reads_completed > 0, "{policy:?} did no work");
            let report = sys.violation_report().expect("audited run has a report");
            assert!(
                report.is_clean() && report.total == 0,
                "{policy:?} clean run flagged: {report}"
            );
        }
    }

    /// The shadow backend must satisfy the same full-audit contract as
    /// the primary on every refresh policy: the sanitizer's checkers
    /// (tRFC overlap, refresh completeness/debt, cross-layer
    /// conservation) are backend-agnostic oracles.
    #[test]
    fn clean_full_audit_shadow_runs_are_quiet_for_every_policy() {
        use refsim_dram::backend::BackendKind;
        use refsim_dram::timing::FgrMode;
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
        for policy in policies {
            let cfg = quick(SystemConfig::table1())
                .with_backend(BackendKind::Shadow)
                .with_refresh(policy)
                .with_audit(AuditLevel::Full);
            let mut sys = System::new(cfg, &small_mix());
            let m = sys
                .try_run()
                .unwrap_or_else(|e| panic!("shadow {policy:?}: {e}"));
            assert!(m.controller.reads_completed > 0, "{policy:?} did no work");
            let report = sys.violation_report().expect("audited run has a report");
            assert!(
                report.is_clean() && report.total == 0,
                "shadow {policy:?} clean run flagged: {report}"
            );
        }
    }

    /// The co-design config (partitioning + refresh-aware scheduling)
    /// must also audit clean — it exercises the OS checkers the
    /// baseline config leaves mostly idle.
    #[test]
    fn clean_co_design_full_audit_is_quiet() {
        let cfg = quick(SystemConfig::table1())
            .co_design()
            .with_audit(AuditLevel::Full);
        let mut sys = System::new(cfg, &small_mix());
        sys.try_run().expect("clean co-design run");
        let report = sys.violation_report().expect("report");
        assert!(report.total == 0, "co-design clean run flagged: {report}");
    }

    /// Negative control, skip class: silently dropped refresh commands
    /// must be caught (retention-oracle mirror and/or completeness).
    #[test]
    fn skip_faults_trip_the_sanitizer() {
        let mut cfg = quick(SystemConfig::table1())
            .with_retention_tracking()
            .with_audit(AuditLevel::Full);
        // The oracle threshold is tREFW + 9·tREFI; the run must outlive
        // it for spans starved by skipped refreshes to turn stale.
        cfg.measure = cfg.trefw() * 2;
        cfg.fault_plan = Some(FaultPlan {
            seed: 7,
            skip_ppm: 900_000,
            delay_ppm: 0,
            max_delay: Ps::ZERO,
            weak_rows: 0,
            weak_limit: Ps::ZERO,
            horizon: 1_000_000,
        });
        let mut sys = System::new(cfg, &small_mix());
        let err = sys.try_run().expect_err("skipped refreshes must be caught");
        let RefsimError::InvariantViolation(report) = err else {
            panic!("expected InvariantViolation, got {err}");
        };
        assert!(
            report.violations.iter().any(|v| {
                v.checker == "xlayer.retention_sync" || v.checker == "dram.refresh_completeness"
            }),
            "skip faults caught by the wrong checkers: {report}"
        );
    }

    /// Negative control, delay class: refreshes postponed far past the
    /// JEDEC debt bound must trip the debt ledger.
    #[test]
    fn delay_faults_trip_the_debt_checker() {
        let mut cfg = quick(SystemConfig::table1()).with_audit(AuditLevel::Full);
        cfg.fault_plan = Some(FaultPlan {
            seed: 11,
            skip_ppm: 0,
            delay_ppm: 1_000_000,
            max_delay: cfg.trefw(),
            weak_rows: 0,
            weak_limit: Ps::ZERO,
            horizon: 1_000_000,
        });
        let mut sys = System::new(cfg, &small_mix());
        let err = sys.try_run().expect_err("delayed refreshes must be caught");
        let RefsimError::InvariantViolation(report) = err else {
            panic!("expected InvariantViolation, got {err}");
        };
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.checker == "dram.refresh_debt"),
            "delay faults missed by the debt ledger: {report}"
        );
    }

    /// Negative control, weak-row class: planted weak rows violate the
    /// oracle, and the sanitizer mirrors those findings.
    #[test]
    fn weak_row_faults_trip_retention_sync() {
        let mut cfg = quick(SystemConfig::table1())
            .with_retention_tracking()
            .with_audit(AuditLevel::Full);
        cfg.fault_plan = Some(FaultPlan {
            seed: 13,
            skip_ppm: 0,
            delay_ppm: 0,
            max_delay: Ps::ZERO,
            weak_rows: 64,
            weak_limit: cfg.trefw() / 8,
            horizon: 0,
        });
        let mut sys = System::new(cfg, &small_mix());
        let err = sys.try_run().expect_err("weak rows must be caught");
        let RefsimError::InvariantViolation(report) = err else {
            panic!("expected InvariantViolation, got {err}");
        };
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.checker == "xlayer.retention_sync"),
            "weak rows missed by retention sync: {report}"
        );
    }

    /// `AuditLevel::Off` (the default) leaves metrics bit-identical to
    /// a fully audited run — the sanitizer observes, never perturbs.
    #[test]
    fn audit_level_does_not_perturb_the_simulation() {
        let run = |level: AuditLevel| {
            let cfg = quick(SystemConfig::table1()).with_audit(level);
            let mut sys = System::new(cfg, &small_mix());
            let m = sys.try_run().expect("clean run");
            format!("{:?} {:?}", m.tasks, m.controller)
        };
        let off = run(AuditLevel::Off);
        assert_eq!(off, run(AuditLevel::Sampled));
        assert_eq!(off, run(AuditLevel::Full));
    }
}
