//! The per-channel memory controller: FR-FCFS scheduling, open-row
//! policy, batched write draining, and refresh execution.
//!
//! The controller is a discrete-event machine: [`MemoryController::advance_to`]
//! replays all command issue up to a target instant, and
//! [`MemoryController::next_event_time`] tells the surrounding system
//! when the controller next wants to act. Commands are aligned to the
//! DRAM clock grid and one command may issue per clock (command-bus
//! constraint), which makes the event-driven schedule equal to the
//! cycle-by-cycle one.

use serde::{Deserialize, Serialize};

use crate::bank::{BankLanes, BankPhase, RankState, SavedBank, SavedRank};
use crate::error::{ControllerSnapshot, DramError};
use crate::geometry::BankId;
use crate::integrity::{IntegrityConfig, RefreshFaults, RetentionTracker, SavedTracker};
use crate::mapping::AddressMapping;
use crate::refresh::{BusyForecast, QueueSnapshot, RefreshOp, RefreshPolicy, RefreshPolicyKind};
use crate::request::{Completion, MemRequest, ReqId, ReqKind};
use crate::stats::ControllerStats;
use crate::time::Ps;
use crate::timing::{RefreshTiming, TimingParams};

/// Queue sizing and write-drain watermarks (Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Read queue capacity.
    pub read_queue: usize,
    /// Write queue capacity.
    pub write_queue: usize,
    /// Enter write-drain when the write queue reaches this depth.
    pub wq_high: usize,
    /// Leave write-drain when the write queue falls to this depth.
    pub wq_low: usize,
    /// Epoch for bandwidth-utilization reporting to the refresh policy.
    pub utilization_epoch: Ps,
    /// Enable the [`RetentionTracker`] oracle (per-row retention
    /// accounting; costs memory proportional to refresh granularity).
    pub track_retention: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            read_queue: 64,
            write_queue: 64,
            wq_high: 54,
            wq_low: 32,
            utilization_epoch: Ps::from_us(8),
            track_retention: false,
        }
    }
}

/// Error returned by [`MemoryController::enqueue`] when the target queue
/// is full; the caller must retry after draining completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory controller transaction queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// A DRAM command kind, as recorded in the command trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceCmd {
    /// Row activate.
    Act {
        /// Activated row.
        row: u32,
    },
    /// Column read.
    Rd,
    /// Column write.
    Wr,
    /// Precharge.
    Pre,
    /// Rank-level (all-bank) refresh.
    RefAb,
    /// Bank-level refresh.
    RefPb,
}

/// One issued command in the trace (see
/// [`MemoryController::enable_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Issue instant.
    pub at: Ps,
    /// The command.
    pub cmd: TraceCmd,
    /// Target rank.
    pub rank: u8,
    /// Target bank within the rank (`u8::MAX` for rank-wide commands).
    pub bank: u8,
}

/// Portable image of one queued transaction (see
/// [`MemoryController::save_state`]). The DRAM [`crate::mapping::Location`]
/// is not stored — it is re-derived from `paddr` through the rebuilt
/// controller's address mapping on restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedEntry {
    /// Requester-assigned id ([`crate::request::ReqId`] payload).
    pub id: u64,
    /// True for a write transaction.
    pub write: bool,
    /// Physical byte address.
    pub paddr: u64,
    /// Queue-entry arrival instant.
    pub arrival: Ps,
    /// Originating core.
    pub core: u8,
    /// Originating task.
    pub task: u32,
    /// The request has needed an ACT so far (row miss).
    pub needed_act: bool,
    /// The request has needed a PRE first (row conflict).
    pub needed_pre: bool,
    /// The request was delayed by refresh at some point.
    pub refresh_blocked: bool,
}

/// Portable image of a refresh that was due but not yet issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedPendingRefresh {
    /// The selected refresh command.
    pub op: RefreshOp,
    /// The policy's scheduled due instant.
    pub due: Ps,
    /// Extra issue delay injected by the active fault plan.
    pub injected_delay: Ps,
}

/// Portable image of the full dynamic state of a [`MemoryController`],
/// produced by [`MemoryController::save_state`].
///
/// Captures everything needed to resume to a bit-identical future:
/// bank/rank timing state, both transaction queues, bus bookkeeping,
/// the in-flight refresh, utilization-epoch accumulators, undrained
/// completions, statistics, the retention-oracle ledger, and the refresh
/// policy's internal schedule (as opaque words). Deliberately *not*
/// captured: the command trace buffer (diagnostic only) and the fault
/// plan / configuration (both are inputs re-supplied when the controller
/// is rebuilt).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedController {
    /// Per-bank state, flat-indexed.
    pub banks: Vec<SavedBank>,
    /// Per-rank state.
    pub ranks: Vec<SavedRank>,
    /// Read queue entries, in queue order.
    pub read_q: Vec<SavedEntry>,
    /// Write queue entries, in queue order.
    pub write_q: Vec<SavedEntry>,
    /// Whether the controller is in write-drain mode.
    pub draining: bool,
    /// The event cursor.
    pub cursor: Ps,
    /// Command bus free instant.
    pub cmd_bus_free: Ps,
    /// Data bus free instant.
    pub data_bus_free: Ps,
    /// Rank owning the last data-bus transfer.
    pub data_bus_owner: Option<u8>,
    /// Refresh awaiting its scope to go idle, if any.
    pub pending_refresh: Option<SavedPendingRefresh>,
    /// Start of the current utilization epoch.
    pub epoch_start: Ps,
    /// Bus-busy time accumulated in the current epoch.
    pub epoch_bus_busy: Ps,
    /// Utilization reported for the previous epoch.
    pub last_utilization: f64,
    /// Read completions produced but not yet drained.
    pub completions: Vec<Completion>,
    /// Statistics accumulated so far.
    pub stats: ControllerStats,
    /// Retention-oracle ledger (present iff tracking was enabled).
    pub integrity: Option<SavedTracker>,
    /// Global refresh command sequence number.
    pub refresh_seq: u64,
    /// Refresh policy internal schedule, in the policy's own word format.
    pub policy_words: Vec<u64>,
}

/// A queued transaction plus scheduling bookkeeping.
#[derive(Debug, Clone)]
struct Entry {
    req: MemRequest,
    /// This request has (so far) needed an ACT (row miss).
    needed_act: bool,
    /// This request has needed a PRE first (row conflict).
    needed_pre: bool,
    /// The request was delayed by refresh at some point.
    refresh_blocked: bool,
}

impl Entry {
    fn new(req: MemRequest) -> Self {
        Entry {
            req,
            needed_act: false,
            needed_pre: false,
            refresh_blocked: false,
        }
    }
}

/// A refresh that has become due and is waiting for its scope to go idle.
#[derive(Debug, Clone)]
struct PendingRefresh {
    op: RefreshOp,
    due: Ps,
    /// Extra issue delay injected by the active fault plan.
    injected_delay: Ps,
}

/// A memoized planning decision: the result of [`MemoryController::plan`]
/// at a given cursor, valid until the next state mutation.
#[derive(Debug, Clone, Copy)]
struct PlanCache {
    /// Cursor the plan was computed at.
    cursor: Ps,
    /// The cached decision.
    result: Option<(Ps, Action)>,
}

/// The next thing the controller will do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Fix the target of the refresh that became due (policy `select`).
    SelectRefresh,
    /// Precharge `bank` so a pending refresh can start.
    PreForRefresh { flat: usize },
    /// Start the pending refresh.
    IssueRefresh,
    /// Precharge for queue entry `idx` (row conflict).
    Pre { idx: usize, flat: usize },
    /// Activate the row for queue entry `idx`.
    Act { idx: usize, flat: usize },
    /// Column access for queue entry `idx`.
    Cas { idx: usize, flat: usize },
}

/// Per-channel DDR memory controller.
///
/// # Examples
///
/// ```
/// use refsim_dram::controller::MemoryController;
/// use refsim_dram::geometry::Geometry;
/// use refsim_dram::mapping::{AddressMapping, MappingScheme};
/// use refsim_dram::refresh::RefreshPolicyKind;
/// use refsim_dram::request::{MemRequest, ReqId, ReqKind};
/// use refsim_dram::time::Ps;
/// use refsim_dram::timing::{Density, RefreshTiming, Retention, TimingParams};
///
/// let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
/// let mut mc = MemoryController::new(
///     mapping,
///     TimingParams::ddr3_1600(),
///     RefreshTiming::new(Density::Gb32, Retention::Ms64),
///     RefreshPolicyKind::PerBankSequential,
///     Default::default(),
/// );
/// let req = MemRequest {
///     id: ReqId(1),
///     kind: ReqKind::Read,
///     paddr: 0x1000,
///     loc: mc.mapping().decode(0x1000),
///     arrival: Ps::ZERO,
///     core: 0,
///     task: 0,
/// };
/// mc.enqueue(req)?;
/// mc.advance_to(Ps::from_us(1));
/// assert_eq!(mc.drain_completions().len(), 1);
/// # Ok::<(), refsim_dram::controller::QueueFull>(())
/// ```
#[derive(Debug)]
pub struct MemoryController {
    mapping: AddressMapping,
    timing: TimingParams,
    refresh_timing: RefreshTiming,
    policy: Box<dyn RefreshPolicy>,
    cfg: ControllerConfig,

    lanes: BankLanes,
    ranks: Vec<RankState>,
    banks_per_rank: u32,

    /// Memoized plan, invalidated on any mutation or cursor change.
    plan_cache: Option<PlanCache>,

    read_q: Vec<Entry>,
    write_q: Vec<Entry>,
    draining: bool,

    cursor: Ps,
    cmd_bus_free: Ps,
    data_bus_free: Ps,
    data_bus_owner: Option<u8>,

    pending_refresh: Option<PendingRefresh>,

    epoch_start: Ps,
    epoch_bus_busy: Ps,
    last_utilization: f64,

    completions: Vec<Completion>,
    stats: ControllerStats,
    trace: Option<Vec<TraceEntry>>,

    /// Retention-integrity oracle (None unless enabled).
    integrity: Option<RetentionTracker>,
    /// Active refresh fault plan (empty by default).
    faults: RefreshFaults,
    /// Global refresh command sequence number (keys fault injection).
    refresh_seq: u64,
}

impl MemoryController {
    /// Creates a controller for the channel described by `mapping`.
    pub fn new(
        mapping: AddressMapping,
        timing: TimingParams,
        refresh_timing: RefreshTiming,
        policy: RefreshPolicyKind,
        cfg: ControllerConfig,
    ) -> Self {
        timing
            .validate()
            .unwrap_or_else(|e| panic!("invalid timing: {e}"));
        let g = *mapping.geometry();
        let policy = crate::refresh::build_policy(policy, &refresh_timing, &g);
        let n_banks = g.banks_per_channel() as usize;
        let integrity = cfg.track_retention.then(|| {
            RetentionTracker::new(
                n_banks as u32,
                g.rows_per_bank,
                Self::default_integrity_config(&refresh_timing),
            )
        });
        MemoryController {
            mapping,
            timing,
            refresh_timing,
            policy,
            cfg,
            lanes: BankLanes::new(n_banks),
            ranks: (0..g.ranks_per_channel).map(|_| RankState::new()).collect(),
            banks_per_rank: g.banks_per_rank,
            plan_cache: None,
            read_q: Vec::with_capacity(cfg.read_queue),
            write_q: Vec::with_capacity(cfg.write_queue),
            draining: false,
            cursor: Ps::ZERO,
            cmd_bus_free: Ps::ZERO,
            data_bus_free: Ps::ZERO,
            data_bus_owner: None,
            pending_refresh: None,
            epoch_start: Ps::ZERO,
            epoch_bus_busy: Ps::ZERO,
            last_utilization: 0.0,
            completions: Vec::new(),
            stats: ControllerStats::new(),
            trace: None,
            integrity,
            faults: RefreshFaults::default(),
            refresh_seq: 0,
        }
    }

    /// The oracle threshold used when retention tracking is enabled via
    /// [`ControllerConfig::track_retention`]: the scaled `tREFW` plus a
    /// slack of nine `tREFI` covering JEDEC's eight-interval postponement
    /// allowance (exploited in full by the elastic policy) plus one
    /// in-flight command.
    pub fn default_integrity_config(rt: &RefreshTiming) -> IntegrityConfig {
        IntegrityConfig {
            limit: rt.trefw,
            slack: rt.trefi_ab * 9,
        }
    }

    /// Starts recording every issued DRAM command. Used by the timing
    /// auditor in the test suite and for debugging; costs a small
    /// allocation per command while enabled.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the commands recorded since
    /// [`enable_trace`](Self::enable_trace) / the previous call.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Appends the commands recorded since the previous drain to `out`
    /// and clears the internal buffer, without allocating: the hot-path
    /// form of [`take_trace`](Self::take_trace) — the caller owns (and
    /// reuses) the destination buffer, so steady-state stepping performs
    /// zero per-step allocations once both buffers reach their high-water
    /// capacity.
    pub fn drain_trace_into(&mut self, out: &mut Vec<TraceEntry>) {
        if let Some(t) = &mut self.trace {
            out.append(t);
        }
    }

    fn record(&mut self, at: Ps, cmd: TraceCmd, rank: u8, bank: u8) {
        if let Some(t) = &mut self.trace {
            t.push(TraceEntry {
                at,
                cmd,
                rank,
                bank,
            });
        }
    }

    /// The address mapping of this channel (the hardware information the
    /// co-design exposes to the OS).
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The refresh timing in effect.
    pub fn refresh_timing(&self) -> &RefreshTiming {
        &self.refresh_timing
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Enables the retention-integrity oracle with an explicit
    /// configuration (replacing any existing tracker). Weak rows from a
    /// previously installed fault plan are re-registered.
    pub fn enable_integrity(&mut self, cfg: IntegrityConfig) {
        let g = self.mapping.geometry();
        let mut tracker = RetentionTracker::new(g.banks_per_channel(), g.rows_per_bank, cfg);
        tracker.set_weak_rows(&self.faults.weak_rows);
        self.integrity = Some(tracker);
    }

    /// The retention oracle, if enabled.
    pub fn integrity(&self) -> Option<&RetentionTracker> {
        self.integrity.as_ref()
    }

    /// Installs a deterministic refresh fault plan. Weak rows are
    /// registered with the oracle when one is enabled (enable integrity
    /// first — weak rows are invisible without the oracle).
    pub fn inject_faults(&mut self, faults: RefreshFaults) {
        if let Some(t) = &mut self.integrity {
            t.set_weak_rows(&faults.weak_rows);
        }
        self.faults = faults;
        self.plan_cache = None;
    }

    /// Runs the end-of-run retention audit at `now` and returns the
    /// total violation count (0 when tracking is disabled). Also folds
    /// the count into [`ControllerStats::retention_violations`].
    pub fn audit_retention(&mut self, now: Ps) -> u64 {
        match &mut self.integrity {
            Some(t) => {
                t.finalize(now);
                let total = t.total_violations();
                self.stats.retention_violations = total;
                total
            }
            None => 0,
        }
    }

    /// A diagnostic digest of current controller state (attached to
    /// [`DramError`]s; also useful for logging).
    pub fn state_snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            cursor: self.cursor,
            read_q: self.read_q.len(),
            write_q: self.write_q.len(),
            draining: self.draining,
            pending_refresh_due: self.pending_refresh.as_ref().map(|p| p.due),
            next_refresh_due: self.policy.next_due(),
            policy: self.policy.kind(),
            refreshes_issued: self.refresh_seq,
            retention_violations: self.integrity.as_ref().map_or(0, |t| t.total_violations()),
        }
    }

    /// Zeroes statistics (measurement-phase boundary). Bank state and
    /// schedules are left untouched.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The refresh-schedule forecast for `[start, end)` — the co-design's
    /// HW→SW interface (§5.1).
    pub fn refresh_forecast(&self, start: Ps, end: Ps) -> BusyForecast {
        self.policy.forecast(start, end)
    }

    /// Next refresh-schedule boundary after `t`, for quantum alignment.
    pub fn refresh_boundary_after(&self, t: Ps) -> Option<Ps> {
        self.policy.next_boundary(t)
    }

    /// Per-bank activity summary: `(bank, activations, rows refreshed,
    /// time spent refreshing)` for every bank of the channel — handy for
    /// visualizing how partitioning confines traffic and how the refresh
    /// schedule distributes bank lockout.
    pub fn bank_report(&self) -> Vec<(BankId, u64, u64, Ps)> {
        (0..self.lanes.len())
            .map(|f| {
                (
                    BankId::from_flat(f as u32, self.banks_per_rank),
                    self.lanes.activations(f),
                    self.lanes.rows_refreshed(f),
                    self.lanes.refresh_busy_total(f),
                )
            })
            .collect()
    }

    /// Whether a read can be accepted right now.
    pub fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.cfg.read_queue
    }

    /// Whether a write can be accepted right now.
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.cfg.write_queue
    }

    /// Current queue occupancy `(reads, writes)`.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// Submits a transaction.
    ///
    /// Reads that match a queued write are served by store-forwarding
    /// and complete after a fixed 4-clock turnaround without a DRAM
    /// access.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] if the target queue is at capacity; the caller
    /// should retry after the controller makes progress.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        match req.kind {
            ReqKind::Read => {
                if let Some(w) = self.write_q.iter().find(|e| e.req.paddr == req.paddr) {
                    debug_assert_eq!(w.req.kind, ReqKind::Write);
                    let at = req.arrival + self.timing.tck * 4;
                    self.completions.push(Completion {
                        id: req.id,
                        at,
                        latency: at - req.arrival,
                    });
                    self.stats.reads_completed += 1;
                    self.stats.forwarded_reads += 1;
                    return Ok(());
                }
                if !self.can_accept_read() {
                    self.stats.queue_reject_reads += 1;
                    return Err(QueueFull);
                }
                self.stats.reads_enqueued += 1;
                self.plan_cache = None;
                let mut e = Entry::new(req);
                e.refresh_blocked = self.arrives_into_refresh(&req);
                self.read_q.push(e);
            }
            ReqKind::Write => {
                if !self.can_accept_write() {
                    self.stats.queue_reject_writes += 1;
                    return Err(QueueFull);
                }
                self.stats.writes_enqueued += 1;
                self.plan_cache = None;
                let mut e = Entry::new(req);
                e.refresh_blocked = self.arrives_into_refresh(&req);
                self.write_q.push(e);
                if !self.draining && self.write_q.len() >= self.cfg.wq_high {
                    self.draining = true;
                    self.stats.write_drains += 1;
                }
            }
        }
        Ok(())
    }

    /// Takes all read completions produced since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Appends all read completions produced since the last drain to
    /// `out` and clears the internal buffer — the allocation-free form of
    /// [`drain_completions`](Self::drain_completions) for callers that
    /// reuse one buffer across steps.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Whether undrained read completions are buffered.
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// End of the current bandwidth-utilization epoch: the next instant
    /// at which an advance will roll the epoch accumulator and report
    /// utilization to the refresh policy. The event-skip engine never
    /// leaps a controller with queued transactions across this boundary,
    /// so the roll ↔ CAS interleaving matches fixed-step advancement.
    pub fn next_epoch_roll(&self) -> Ps {
        self.epoch_start + self.cfg.utilization_epoch
    }

    /// The furthest instant a single `try_advance_to` call may target
    /// while remaining interleaving-equivalent to a chain of smaller
    /// advances through the same instants, or `None` when the channel is
    /// completely inert (no queued transactions and no refresh schedule)
    /// and can be leapt arbitrarily far.
    ///
    /// The binding boundary is the utilization-epoch roll: an advance
    /// rolls every epoch ending at or before its target *before*
    /// executing the span's actions, so leaping a non-inert channel
    /// across a roll would let refresh-rate decisions (which consult
    /// per-epoch utilization) observe a different history than stepwise
    /// advancement — the event-skip engine stops short of it instead.
    pub fn advance_cap(&self) -> Option<Ps> {
        let inert = self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.pending_refresh.is_none()
            && self.policy.next_due().is_none();
        if inert {
            None
        } else {
            Some(self.next_epoch_roll())
        }
    }

    /// The instant of the controller's next internally scheduled action,
    /// or `None` when it is fully idle (no queued work and no refresh —
    /// only possible under [`RefreshPolicyKind::NoRefresh`]).
    pub fn next_event_time(&mut self) -> Option<Ps> {
        self.plan().map(|(t, _)| t)
    }

    /// Advances the controller, executing every command that issues at or
    /// before `target`. Read completions are buffered for
    /// [`drain_completions`](Self::drain_completions).
    ///
    /// Panics on the faults [`try_advance_to`](Self::try_advance_to)
    /// reports — callers that must degrade gracefully (the experiment
    /// harness) use the fallible form instead.
    pub fn advance_to(&mut self, target: Ps) {
        if let Err(e) = self.try_advance_to(target) {
            panic!("memory controller fault: {e}");
        }
    }

    /// Fallible form of [`advance_to`](Self::advance_to).
    ///
    /// # Errors
    ///
    /// - [`DramError::TimeRegression`] if `target` precedes the cursor
    ///   (previously a `debug_assert!` that release builds skipped).
    /// - [`DramError::Livelock`] if the command scheduler executes more
    ///   actions inside the window than the command bus could physically
    ///   issue — forward progress has stopped. Both errors carry a
    ///   [`ControllerSnapshot`] for post-hoc diagnosis.
    /// - [`DramError::BrokenInvariant`] if an internal consistency
    ///   condition fails while executing an action (refresh machinery or
    ///   retention-oracle bookkeeping).
    pub fn try_advance_to(&mut self, target: Ps) -> Result<(), DramError> {
        self.advance_loop(target, false).map(|_| ())
    }

    /// Advances like [`try_advance_to`](Self::try_advance_to), but stops
    /// immediately after the first action that produces a read
    /// completion, returning its issue instant; the cursor is left at
    /// that action and a later `try_advance_to` resumes seamlessly.
    /// Returns `None` after a full advance to `target` with no
    /// completion.
    ///
    /// The event-skip engine uses this to discover how far the machine
    /// can leap while every core is stalled: the first completion bounds
    /// the skip, because delivering it can unblock a core.
    ///
    /// # Errors
    ///
    /// Exactly those of [`try_advance_to`](Self::try_advance_to).
    pub fn try_advance_until_completion(&mut self, target: Ps) -> Result<Option<Ps>, DramError> {
        self.advance_loop(target, true)
    }

    fn advance_loop(
        &mut self,
        target: Ps,
        stop_on_completion: bool,
    ) -> Result<Option<Ps>, DramError> {
        if target < self.cursor {
            return Err(DramError::TimeRegression {
                cursor: self.cursor,
                target,
                snapshot: Box::new(self.state_snapshot()),
            });
        }
        // Forward-progress watchdog: per DRAM clock at most one command
        // issues, plus bounded non-issuing actions (refresh selection /
        // postponement). Anything past this budget is a planning loop.
        let ticks = (target - self.cursor).as_ps() / self.timing.tck.as_ps().max(1);
        let budget = 10_000 + ticks.saturating_mul(4);
        let from = self.cursor;
        let mut iterations = 0u64;
        loop {
            self.roll_epochs(target);
            match self.plan() {
                Some((at, action)) if at <= target => {
                    iterations += 1;
                    if iterations > budget {
                        return Err(DramError::Livelock {
                            from,
                            to: target,
                            iterations,
                            snapshot: Box::new(self.state_snapshot()),
                        });
                    }
                    self.cursor = at;
                    let had = self.completions.len();
                    self.execute(action, at)?;
                    if stop_on_completion && self.completions.len() > had {
                        return Ok(Some(at));
                    }
                }
                _ => break,
            }
        }
        self.cursor = target;
        self.roll_epochs(target);
        Ok(None)
    }

    /// Captures the controller's full dynamic state for checkpointing.
    ///
    /// The image pairs with a controller rebuilt from the *same*
    /// configuration (mapping, timing, policy kind, queue sizing):
    /// restore re-derives DRAM locations from physical addresses and
    /// hands the policy back its schedule words, so any structural
    /// mismatch is rejected by [`restore_state`](Self::restore_state).
    pub fn save_state(&self) -> SavedController {
        let save_entry = |e: &Entry| SavedEntry {
            id: e.req.id.0,
            write: !e.req.is_read(),
            paddr: e.req.paddr,
            arrival: e.req.arrival,
            core: e.req.core,
            task: e.req.task,
            needed_act: e.needed_act,
            needed_pre: e.needed_pre,
            refresh_blocked: e.refresh_blocked,
        };
        SavedController {
            banks: (0..self.lanes.len())
                .map(|f| self.lanes.save_lane(f))
                .collect(),
            ranks: self.ranks.iter().map(RankState::save_state).collect(),
            read_q: self.read_q.iter().map(save_entry).collect(),
            write_q: self.write_q.iter().map(save_entry).collect(),
            draining: self.draining,
            cursor: self.cursor,
            cmd_bus_free: self.cmd_bus_free,
            data_bus_free: self.data_bus_free,
            data_bus_owner: self.data_bus_owner,
            pending_refresh: self.pending_refresh.as_ref().map(|p| SavedPendingRefresh {
                op: p.op,
                due: p.due,
                injected_delay: p.injected_delay,
            }),
            epoch_start: self.epoch_start,
            epoch_bus_busy: self.epoch_bus_busy,
            last_utilization: self.last_utilization,
            completions: self.completions.clone(),
            stats: self.stats.clone(),
            integrity: self.integrity.as_ref().map(RetentionTracker::save_state),
            refresh_seq: self.refresh_seq,
            policy_words: self.policy.save_words(),
        }
    }

    /// Restores the dynamic state captured by
    /// [`save_state`](Self::save_state) into this controller, which must
    /// have been built with the same configuration.
    ///
    /// # Errors
    ///
    /// A description of the first structural mismatch (bank/rank counts,
    /// queue overflow, integrity-tracking presence, or policy words the
    /// active policy rejects). The controller may be partially updated
    /// when an error is returned; callers treat that as fatal and
    /// discard it.
    pub fn restore_state(&mut self, s: &SavedController) -> Result<(), String> {
        if s.banks.len() != self.lanes.len() {
            return Err(format!(
                "bank count mismatch: saved {}, controller {}",
                s.banks.len(),
                self.lanes.len()
            ));
        }
        if s.ranks.len() != self.ranks.len() {
            return Err(format!(
                "rank count mismatch: saved {}, controller {}",
                s.ranks.len(),
                self.ranks.len()
            ));
        }
        if s.read_q.len() > self.cfg.read_queue {
            return Err(format!(
                "saved read queue ({}) exceeds capacity {}",
                s.read_q.len(),
                self.cfg.read_queue
            ));
        }
        if s.write_q.len() > self.cfg.write_queue {
            return Err(format!(
                "saved write queue ({}) exceeds capacity {}",
                s.write_q.len(),
                self.cfg.write_queue
            ));
        }
        if !self.policy.load_words(&s.policy_words) {
            return Err(format!(
                "refresh policy {:?} rejected {} saved schedule words",
                self.policy.kind(),
                s.policy_words.len()
            ));
        }
        match (&mut self.integrity, &s.integrity) {
            (Some(t), Some(saved)) => t
                .restore_state(saved)
                .map_err(|e| format!("retention tracker: {e}"))?,
            (None, None) => {}
            (have, _) => {
                return Err(format!(
                    "integrity tracking mismatch: saved {}, controller {}",
                    if s.integrity.is_some() { "on" } else { "off" },
                    if have.is_some() { "on" } else { "off" },
                ));
            }
        }
        for (f, saved) in s.banks.iter().enumerate() {
            self.lanes.restore_lane(f, saved);
        }
        for (r, saved) in self.ranks.iter_mut().zip(&s.ranks) {
            r.restore_state(saved);
        }
        let load_entry = |e: &SavedEntry, mapping: &AddressMapping| Entry {
            req: MemRequest {
                id: ReqId(e.id),
                kind: if e.write {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                },
                paddr: e.paddr,
                loc: mapping.decode(e.paddr),
                arrival: e.arrival,
                core: e.core,
                task: e.task,
            },
            needed_act: e.needed_act,
            needed_pre: e.needed_pre,
            refresh_blocked: e.refresh_blocked,
        };
        self.read_q = s
            .read_q
            .iter()
            .map(|e| load_entry(e, &self.mapping))
            .collect();
        self.write_q = s
            .write_q
            .iter()
            .map(|e| load_entry(e, &self.mapping))
            .collect();
        self.draining = s.draining;
        self.cursor = s.cursor;
        self.cmd_bus_free = s.cmd_bus_free;
        self.data_bus_free = s.data_bus_free;
        self.data_bus_owner = s.data_bus_owner;
        self.pending_refresh = s.pending_refresh.map(|p| PendingRefresh {
            op: p.op,
            due: p.due,
            injected_delay: p.injected_delay,
        });
        self.epoch_start = s.epoch_start;
        self.epoch_bus_busy = s.epoch_bus_busy;
        self.last_utilization = s.last_utilization;
        self.completions = s.completions.clone();
        self.stats = s.stats.clone();
        self.refresh_seq = s.refresh_seq;
        self.plan_cache = None;
        Ok(())
    }

    // ---- internals ----------------------------------------------------

    /// Whether `req` arrives while its bank (or rank) is mid-refresh.
    fn arrives_into_refresh(&self, req: &MemRequest) -> bool {
        let flat = self.flat(req.loc.bank_id());
        self.lanes.refresh_end(flat) > req.arrival
            || self.ranks[req.loc.rank as usize].is_refreshing(req.arrival)
    }

    fn flat(&self, b: BankId) -> usize {
        b.flat(self.banks_per_rank) as usize
    }

    fn unflat(&self, flat: usize) -> (u8, u8) {
        let id = BankId::from_flat(flat as u32, self.banks_per_rank);
        (id.rank, id.bank)
    }

    /// Banks covered by a refresh op, as flat indices.
    fn refresh_scope(&self, op: &RefreshOp) -> (usize, usize) {
        match *op {
            RefreshOp::AllBank { rank, .. } => {
                let b = self.banks_per_rank as usize;
                (usize::from(rank) * b, usize::from(rank) * b + b)
            }
            RefreshOp::PerBank { bank, .. } => {
                let f = self.flat(bank);
                (f, f + 1)
            }
        }
    }

    fn in_refresh_scope(&self, flat: usize) -> bool {
        match &self.pending_refresh {
            Some(p) => {
                let (lo, hi) = self.refresh_scope(&p.op);
                flat >= lo && flat < hi
            }
            None => false,
        }
    }

    fn snapshot(&self) -> QueueSnapshot {
        let mut per_bank_queued = vec![0u32; self.lanes.len()];
        for e in self.read_q.iter().chain(self.write_q.iter()) {
            per_bank_queued[self.flat(e.req.loc.bank_id())] += 1;
        }
        QueueSnapshot {
            per_bank_queued,
            utilization: self.last_utilization,
        }
    }

    fn roll_epochs(&mut self, now: Ps) {
        let epoch = self.cfg.utilization_epoch;
        if self.epoch_start + epoch > now {
            return; // nothing to roll — the overwhelmingly common case
        }
        // Rolling can change last_utilization and (for adaptive-style
        // policies) the refresh schedule itself.
        self.plan_cache = None;
        while self.epoch_start + epoch <= now {
            let busy = self.epoch_bus_busy.min(epoch);
            self.last_utilization = busy.as_ps() as f64 / epoch.as_ps() as f64;
            self.epoch_bus_busy = self.epoch_bus_busy.saturating_sub(busy);
            self.epoch_start += epoch;
            self.policy
                .observe_utilization(self.last_utilization, self.epoch_start);
        }
    }

    /// Aligns `t` to the command clock grid, no earlier than the command
    /// bus becoming free or the controller cursor.
    fn align(&self, t: Ps) -> Ps {
        t.max(self.cmd_bus_free)
            .max(self.cursor)
            .round_up(self.timing.tck)
    }

    /// [`align`](Self::align)s a priority-`prio` candidate at `raw`, or
    /// returns `None` when it would lose to `best` anyway: alignment
    /// never moves a time earlier, so a candidate whose unaligned lower
    /// bound does not beat `best` cannot beat it aligned. Skipping those
    /// saves the division by `tCK` for most queue entries.
    fn align_unless_beaten(
        &self,
        raw: Ps,
        prio: u8,
        best: &Option<(Ps, u8, Action)>,
    ) -> Option<Ps> {
        let lo = raw.max(self.cmd_bus_free).max(self.cursor);
        if let Some((bt, bp, _)) = best {
            if lo > *bt || (lo == *bt && prio >= *bp) {
                return None;
            }
        }
        Some(lo.round_up(self.timing.tck))
    }

    /// Earliest instant the data bus allows a column command at `t_cas`,
    /// whose data occupies `[t_cas + lat, t_cas + lat + tBURST)`.
    fn bus_ready_cas(&self, rank: u8, lat: Ps) -> Ps {
        let mut free = self.data_bus_free;
        if let Some(owner) = self.data_bus_owner {
            if owner != rank {
                free += self.timing.trtrs;
            }
        }
        free.saturating_sub(lat)
    }

    /// Computes the controller's next action and its issue time.
    ///
    /// The decision is memoized: planning is pure in everything but the
    /// idempotent in-scope settles, so the result stays valid until the
    /// cursor moves or state mutates (enqueue, execute, epoch roll,
    /// restore — each clears the memo). This removes the double planning
    /// pass the engines otherwise pay per step (`next_event_time`
    /// followed by the advance itself).
    fn plan(&mut self) -> Option<(Ps, Action)> {
        if let Some(c) = &self.plan_cache {
            if c.cursor == self.cursor {
                return c.result;
            }
        }
        let result = self.plan_uncached();
        self.plan_cache = Some(PlanCache {
            cursor: self.cursor,
            result,
        });
        result
    }

    /// Considers refresh machinery (priority 0): settles in-scope banks
    /// at the cursor, proposes PREs for open in-scope banks, and proposes
    /// the refresh itself once the scope is idle.
    fn plan_refresh_candidates(&mut self, best: &mut Option<(Ps, u8, Action)>) {
        let consider = Self::consider;
        if let Some(p) = &self.pending_refresh {
            let op = p.op;
            // Injected delay shifts the issue instant; the schedule and
            // lateness stats still reference the policy's `due`.
            let earliest = p.due + p.injected_delay;
            let (lo, hi) = self.refresh_scope(&op);
            // Settle any finished refreshes in scope before inspecting.
            for f in lo..hi {
                self.lanes.settle(f, self.cursor);
            }
            // Precharge open banks in scope first.
            let mut all_idle = true;
            let mut ready = earliest;
            for f in lo..hi {
                match self.lanes.phase(f) {
                    BankPhase::Active => {
                        all_idle = false;
                        // Active banks always report an earliest-PRE
                        // instant; a None here would mean the phase
                        // machine desynchronized — skip the bank and let
                        // the livelock watchdog surface the stall.
                        if let Some(pre) = self.lanes.earliest_pre(f) {
                            let t = self.align(pre);
                            consider(
                                Some((t.max(earliest), 0, Action::PreForRefresh { flat: f })),
                                best,
                            );
                        }
                        // Only plan one PRE at a time (command bus serializes
                        // anyway); the earliest is picked by `consider`.
                    }
                    BankPhase::Refreshing => {
                        all_idle = false;
                        ready = ready.max(self.lanes.refresh_end(f));
                    }
                    BankPhase::Idle => {
                        if let Some(r) = self.lanes.earliest_refresh(f) {
                            ready = ready.max(r);
                        }
                    }
                }
            }
            if all_idle {
                let t = self.align(ready);
                consider(Some((t, 0, Action::IssueRefresh)), best);
            }
        } else if let Some(due) = self.policy.next_due() {
            consider(Some((due.max(self.cursor), 0, Action::SelectRefresh)), best);
        }
    }

    /// FR-FCFS tie-breaking: earliest time wins, then lowest priority
    /// class, then first-considered (queue order).
    fn consider(cand: Option<(Ps, u8, Action)>, best: &mut Option<(Ps, u8, Action)>) {
        if let Some((t, p, a)) = cand {
            let better = match best {
                None => true,
                Some((bt, bp, _)) => t < *bt || (t == *bt && p < *bp),
            };
            if better {
                *best = Some((t, p, a));
            }
        }
    }

    /// The FR-FCFS planner behind [`plan`](Self::plan)'s memo: proposes
    /// the refresh machinery's candidates, then walks the serving queue
    /// in order, reading each entry's bank through the per-lane
    /// accessors, and keeps the earliest candidate.
    fn plan_uncached(&mut self) -> Option<(Ps, Action)> {
        let mut best: Option<(Ps, u8, Action)> = None; // (time, priority, action)

        // Refresh machinery (priority 0).
        self.plan_refresh_candidates(&mut best);

        // Transaction scheduling: FR-FCFS over the active queue.
        let serving_writes = self.draining || self.read_q.is_empty();
        let queue: &[Entry] = if serving_writes {
            &self.write_q
        } else {
            &self.read_q
        };
        for (idx, e) in queue.iter().enumerate() {
            let flat = self.flat(e.req.loc.bank_id());
            if self.in_refresh_scope(flat) {
                continue; // scope frozen until the refresh issues
            }
            let rank = e.req.loc.rank;
            let rk = &self.ranks[rank as usize];
            let is_write = !e.req.is_read();
            // A request cannot be serviced before it arrives (cores may
            // run slightly ahead of the controller cursor).
            let arr = e.req.arrival;
            // Row hit → CAS (priority 1: first-ready-FCFS).
            if self.lanes.phase(flat) == BankPhase::Active
                && self.lanes.is_row_hit(flat, e.req.loc.row)
            {
                let Some(cas0) = self.lanes.earliest_cas(flat, e.req.loc.row) else {
                    continue; // phase/row-hit disagree: skip, don't abort
                };
                let rank_ready = if is_write {
                    rk.earliest_wr()
                } else {
                    rk.earliest_rd()
                };
                let lat = if is_write {
                    self.timing.tcwl
                } else {
                    self.timing.tcl
                };
                let raw = cas0
                    .max(rank_ready)
                    .max(self.bus_ready_cas(rank, lat))
                    .max(arr);
                if let Some(t) = self.align_unless_beaten(raw, 1, &best) {
                    Self::consider(Some((t, 1, Action::Cas { idx, flat })), &mut best);
                }
            } else if self.lanes.phase(flat) == BankPhase::Active {
                // Row conflict → PRE (priority 2, FCFS order by queue pos).
                let Some(pre) = self.lanes.earliest_pre(flat) else {
                    continue;
                };
                if let Some(t) = self.align_unless_beaten(pre.max(arr), 2, &best) {
                    Self::consider(Some((t, 2, Action::Pre { idx, flat })), &mut best);
                }
            } else {
                // Idle or refreshing → ACT when possible.
                let act0 = match self.lanes.earliest_act(flat) {
                    Some(t) => t,
                    None => continue,
                };
                let raw = act0.max(rk.earliest_act(&self.timing)).max(arr);
                if let Some(t) = self.align_unless_beaten(raw, 2, &best) {
                    Self::consider(Some((t, 2, Action::Act { idx, flat })), &mut best);
                }
            }
        }

        best.map(|(t, _, a)| (t, a))
    }

    fn execute(&mut self, action: Action, at: Ps) -> Result<(), DramError> {
        // Every action mutates scheduling state; the memoized plan dies.
        self.plan_cache = None;
        match action {
            Action::SelectRefresh => {
                let snap = self.snapshot();
                // Elastic-style policies may defer the refresh into a
                // quieter moment (bounded internally); re-plan if so.
                if self.policy.try_postpone(&snap, at) {
                    return Ok(());
                }
                let op = self.policy.select(&snap);
                let Some(due) = self.policy.next_due() else {
                    return Err(DramError::BrokenInvariant {
                        what: format!(
                            "SelectRefresh executed at {at} but the policy \
                             reports no due refresh"
                        ),
                    });
                };
                let injected_delay = self.faults.delay_for(self.refresh_seq);
                if injected_delay > Ps::ZERO {
                    self.stats.injected_delay_faults += 1;
                }
                self.pending_refresh = Some(PendingRefresh {
                    op,
                    due,
                    injected_delay,
                });
            }
            Action::PreForRefresh { flat } => {
                self.lanes.do_pre(flat, at, &self.timing);
                let (r, b) = self.unflat(flat);
                self.record(at, TraceCmd::Pre, r, b);
                self.bump_cmd_bus(at);
            }
            Action::IssueRefresh => {
                let Some(p) = self.pending_refresh.take() else {
                    return Err(DramError::BrokenInvariant {
                        what: format!("IssueRefresh executed at {at} with no pending refresh"),
                    });
                };
                let seq = self.refresh_seq;
                self.refresh_seq += 1;
                if self.faults.skips(seq) {
                    // Injected skip: the command is dropped on the floor.
                    // The policy believes it issued (its schedule moves
                    // on) but no rows are refreshed and the oracle's
                    // sweep cursor stays put — exactly the silent
                    // data-loss scenario the tracker must expose.
                    self.stats.injected_skip_faults += 1;
                    self.policy.issued(&p.op, at);
                    return Ok(());
                }
                let dur = self.policy.duration(&p.op);
                let (lo, hi) = self.refresh_scope(&p.op);
                let rows = match p.op {
                    RefreshOp::AllBank { rows, .. } | RefreshOp::PerBank { rows, .. } => rows,
                };
                for f in lo..hi {
                    self.lanes.settle(f, at);
                    self.lanes.do_refresh(f, at, dur, rows);
                }
                if let Some(t) = &mut self.integrity {
                    for f in lo..hi {
                        t.on_refresh(f as u32, rows, at)?;
                    }
                    self.stats.retention_violations = t.total_violations();
                }
                match p.op {
                    RefreshOp::AllBank { rank, .. } => {
                        self.ranks[rank as usize].on_all_bank_refresh(at, dur);
                        self.stats.refreshes_ab += 1;
                        self.record(at, TraceCmd::RefAb, rank, u8::MAX);
                    }
                    RefreshOp::PerBank { bank, .. } => {
                        self.stats.refreshes_pb += 1;
                        self.record(at, TraceCmd::RefPb, bank.rank, bank.bank);
                    }
                }
                let late = at.saturating_sub(p.due);
                self.stats.refresh_postpone_total += late;
                self.stats.refresh_postpone_max = self.stats.refresh_postpone_max.max(late);
                self.policy.issued(&p.op, at);
                self.bump_cmd_bus(at);
                // Mark queued requests to the refreshed banks as blocked.
                for e in self.read_q.iter_mut().chain(self.write_q.iter_mut()) {
                    let f = e.req.loc.bank_id().flat(self.banks_per_rank) as usize;
                    if f >= lo && f < hi {
                        e.refresh_blocked = true;
                    }
                }
            }
            Action::Pre { idx, flat } => {
                let serving_writes = self.draining || self.read_q.is_empty();
                {
                    let q = if serving_writes {
                        &mut self.write_q
                    } else {
                        &mut self.read_q
                    };
                    q[idx].needed_pre = true;
                }
                self.lanes.do_pre(flat, at, &self.timing);
                let (r, b) = self.unflat(flat);
                self.record(at, TraceCmd::Pre, r, b);
                self.bump_cmd_bus(at);
            }
            Action::Act { idx, flat } => {
                self.lanes.settle(flat, at);
                let serving_writes = self.draining || self.read_q.is_empty();
                let (row, rank) = {
                    let q = if serving_writes {
                        &mut self.write_q
                    } else {
                        &mut self.read_q
                    };
                    q[idx].needed_act = true;
                    (q[idx].req.loc.row, q[idx].req.loc.rank)
                };
                self.lanes.do_act(flat, at, row, &self.timing);
                self.ranks[rank as usize].on_act(at, &self.timing);
                let (r, b) = self.unflat(flat);
                self.record(at, TraceCmd::Act { row }, r, b);
                self.bump_cmd_bus(at);
            }
            Action::Cas { idx, flat } => {
                let serving_writes = self.draining || self.read_q.is_empty();
                let entry = if serving_writes {
                    self.write_q.remove(idx)
                } else {
                    self.read_q.remove(idx)
                };
                let rank = entry.req.loc.rank;
                // Row-locality classification.
                if entry.needed_pre {
                    self.stats.row_conflicts += 1;
                } else if entry.needed_act {
                    self.stats.row_misses += 1;
                } else {
                    self.stats.row_hits += 1;
                }
                if entry.refresh_blocked && entry.req.is_read() {
                    self.stats.refresh_blocked_reads += 1;
                }
                {
                    let (r, b) = self.unflat(flat);
                    let cmd = if entry.req.is_read() {
                        TraceCmd::Rd
                    } else {
                        TraceCmd::Wr
                    };
                    self.record(at, cmd, r, b);
                }
                let data_end = if entry.req.is_read() {
                    let end = self.lanes.do_read(flat, at, &self.timing);
                    self.stats.reads_completed += 1;
                    let latency = end - entry.req.arrival;
                    self.stats.read_latency_total += latency;
                    self.stats.read_latency_max = self.stats.read_latency_max.max(latency);
                    self.completions.push(Completion {
                        id: entry.req.id,
                        at: end,
                        latency,
                    });
                    end
                } else {
                    let end = self.lanes.do_write(flat, at, &self.timing);
                    self.ranks[rank as usize].on_write(end, &self.timing);
                    self.stats.writes_completed += 1;
                    end
                };
                self.data_bus_free = data_end;
                self.data_bus_owner = Some(rank);
                self.stats.data_bus_busy += self.timing.tburst;
                self.epoch_bus_busy += self.timing.tburst;
                if serving_writes && self.draining && self.write_q.len() <= self.cfg.wq_low {
                    self.draining = false;
                }
                self.bump_cmd_bus(at);
            }
        }
        Ok(())
    }

    fn bump_cmd_bus(&mut self, at: Ps) {
        self.cmd_bus_free = at + self.timing.tck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::mapping::MappingScheme;
    use crate::request::ReqId;
    use crate::timing::{Density, Retention};

    fn mc(policy: RefreshPolicyKind) -> MemoryController {
        let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
        MemoryController::new(
            mapping,
            TimingParams::ddr3_1600(),
            RefreshTiming::new(Density::Gb32, Retention::Ms64),
            policy,
            ControllerConfig::default(),
        )
    }

    fn read_req(mc: &MemoryController, id: u64, paddr: u64, at: Ps) -> MemRequest {
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Read,
            paddr,
            loc: mc.mapping().decode(paddr),
            arrival: at,
            core: 0,
            task: 0,
        }
    }

    fn write_req(mc: &MemoryController, id: u64, paddr: u64, at: Ps) -> MemRequest {
        MemRequest {
            kind: ReqKind::Write,
            ..read_req(mc, id, paddr, at)
        }
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        let r = read_req(&c, 1, 0x10_0000, Ps::ZERO);
        c.enqueue(r).unwrap();
        c.advance_to(Ps::from_us(1));
        let done = c.drain_completions();
        assert_eq!(done.len(), 1);
        let t = TimingParams::ddr3_1600();
        // ACT at tCK-aligned 0, RD at tRCD (aligned), data done CL+tBURST later.
        let rd_at = t.trcd.round_up(t.tck);
        assert_eq!(done[0].at, rd_at + t.tcl + t.tburst);
        assert_eq!(c.stats().row_misses, 1);
        assert_eq!(c.stats().reads_completed, 1);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        c.enqueue(read_req(&c, 1, 0x10_0000, Ps::ZERO)).unwrap();
        c.advance_to(Ps::from_us(1));
        let first = c.drain_completions()[0];
        // Same row, next line.
        c.enqueue(read_req(&c, 2, 0x10_0040, Ps::from_us(1)))
            .unwrap();
        c.advance_to(Ps::from_us(2));
        let second = c.drain_completions()[0];
        assert!(second.latency < first.latency);
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_needs_pre_act() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        c.enqueue(read_req(&c, 1, 0x10_0000, Ps::ZERO)).unwrap();
        c.advance_to(Ps::from_us(1));
        c.drain_completions();
        // Same bank, different row: row stride for default mapping is
        // 4 KiB × banks × ranks × channels = 64 KiB.
        c.enqueue(read_req(&c, 2, 0x11_0000, Ps::from_us(1)))
            .unwrap();
        c.advance_to(Ps::from_us(2));
        let done = c.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    #[test]
    fn store_forwarding_serves_read_from_write_queue() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        c.enqueue(write_req(&c, 1, 0x20_0000, Ps::ZERO)).unwrap();
        c.enqueue(read_req(&c, 2, 0x20_0000, Ps::ZERO)).unwrap();
        let done = c.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, ReqId(2));
        assert_eq!(c.stats().forwarded_reads, 1);
    }

    #[test]
    fn queue_full_rejects() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        for i in 0..64 {
            c.enqueue(read_req(&c, i, 0x100_0000 + i * 0x10_0000, Ps::ZERO))
                .unwrap();
        }
        let err = c.enqueue(read_req(&c, 99, 0x0, Ps::ZERO));
        assert_eq!(err, Err(QueueFull));
        assert_eq!(c.stats().queue_reject_reads, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_until_high_watermark() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        // A read and a write to different banks: the read is served first
        // because writes are not drained below the watermark.
        c.enqueue(write_req(&c, 1, 0x30_0000, Ps::ZERO)).unwrap();
        c.enqueue(read_req(&c, 2, 0x40_0000, Ps::ZERO)).unwrap();
        c.advance_to(Ps::from_ns(60));
        assert_eq!(c.stats().reads_completed, 1);
        assert_eq!(c.stats().writes_completed, 0);
        // With no reads left, the write drains opportunistically.
        c.advance_to(Ps::from_us(1));
        assert_eq!(c.stats().writes_completed, 1);
    }

    #[test]
    fn write_drain_enters_at_high_watermark() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        // Keep a steady read stream while filling the write queue.
        for i in 0..54u64 {
            c.enqueue(write_req(
                &c,
                1000 + i,
                0x800_0000 + i * 0x10_0000,
                Ps::ZERO,
            ))
            .unwrap();
        }
        assert_eq!(c.stats().write_drains, 1);
        c.advance_to(Ps::from_us(5));
        // Drained down to the low watermark, then stopped (no reads).
        // Opportunistic service continues since the read queue is empty,
        // so eventually all writes complete.
        assert!(c.stats().writes_completed >= (54 - 32));
    }

    #[test]
    fn all_bank_refresh_blocks_rank_and_is_counted() {
        let mut c = mc(RefreshPolicyKind::AllBank);
        c.advance_to(Ps::from_us(80)); // > 10 tREFI
                                       // 2 ranks × one refresh per tREFI each... staggered halves: about
                                       // 80us / 7.8us ≈ 10 per rank... total ≈ 20.
        let n = c.stats().refreshes_ab;
        assert!((18..=22).contains(&n), "got {n} all-bank refreshes");
        assert_eq!(c.stats().refreshes_pb, 0);
    }

    #[test]
    fn per_bank_refresh_counts() {
        let mut c = mc(RefreshPolicyKind::PerBankRoundRobin);
        c.advance_to(Ps::from_us(78));
        // tREFIpb = 487.5 ns → ~160 per-bank refreshes in 78 µs.
        let n = c.stats().refreshes_pb;
        assert!((155..=165).contains(&n), "got {n} per-bank refreshes");
    }

    #[test]
    fn read_to_refreshing_bank_waits_for_trfc() {
        let mut c = mc(RefreshPolicyKind::PerBankSequential);
        // Sequential schedule refreshes r0b0 first. Let one refresh start,
        // then issue a read to r0b0: it must wait ~tRFCpb.
        c.advance_to(Ps::from_ns(200)); // first refresh issued at ~0
        assert_eq!(c.stats().refreshes_pb, 1);
        let r = read_req(&c, 1, 0, Ps::from_ns(200)); // paddr 0 → r0b0
        assert_eq!(r.loc.bank_id(), BankId::new(0, 0));
        c.enqueue(r).unwrap();
        c.advance_to(Ps::from_us(2));
        let done = c.drain_completions();
        assert_eq!(done.len(), 1);
        // tRFCpb = 890/2.3 ≈ 387 ns: the read could not start before that.
        assert!(
            done[0].latency > Ps::from_ns(150),
            "latency {} too small to have been refresh-blocked",
            done[0].latency
        );
        assert_eq!(c.stats().refresh_blocked_reads, 1);
    }

    #[test]
    fn read_to_other_bank_proceeds_during_per_bank_refresh() {
        let mut c = mc(RefreshPolicyKind::PerBankSequential);
        c.advance_to(Ps::from_ns(100));
        // r0b1 is free while r0b0 refreshes.
        let paddr = 0x1000; // bank bits follow column: 0x1000 >> 12 & 7 = 1
        let r = read_req(&c, 1, paddr, Ps::from_ns(100));
        assert_eq!(r.loc.bank_id(), BankId::new(0, 1));
        c.enqueue(r).unwrap();
        c.advance_to(Ps::from_us(1));
        let done = c.drain_completions();
        assert_eq!(done.len(), 1);
        let t = TimingParams::ddr3_1600();
        let unloaded = t.trcd + t.tcl + t.tburst + t.tck * 2;
        assert!(
            done[0].latency <= unloaded,
            "latency {} should be unloaded (≤ {unloaded})",
            done[0].latency
        );
    }

    #[test]
    fn next_event_time_tracks_refresh_when_idle() {
        let mut c = mc(RefreshPolicyKind::AllBank);
        assert_eq!(c.next_event_time(), Some(Ps::ZERO)); // first refresh select
        let mut n = mc(RefreshPolicyKind::NoRefresh);
        assert_eq!(n.next_event_time(), None);
    }

    #[test]
    fn bank_report_reflects_traffic_and_refresh() {
        let mut c = mc(RefreshPolicyKind::PerBankSequential);
        // One read to bank r0b1 plus the sequential schedule hitting r0b0.
        c.enqueue(read_req(&c, 1, 0x1000, Ps::ZERO)).unwrap();
        c.advance_to(Ps::from_us(2));
        let report = c.bank_report();
        assert_eq!(report.len(), 16);
        let b0 = &report[0];
        let b1 = &report[1];
        assert_eq!(b0.0, BankId::new(0, 0));
        assert!(b0.2 > 0, "bank 0 refreshed rows");
        assert!(b0.3 > Ps::ZERO, "bank 0 spent time refreshing");
        assert_eq!(b1.1, 1, "bank 1 activated once for the read");
        assert_eq!(b1.2, 0, "bank 1 not refreshed yet");
    }

    #[test]
    fn determinism_same_inputs_same_stats() {
        let run = || {
            let mut c = mc(RefreshPolicyKind::PerBankRoundRobin);
            for i in 0..200u64 {
                let paddr = (i * 0x9E37_79B9) & ((1 << 30) - 1) & !0x3f;
                let at = Ps::from_ns(i * 37);
                c.advance_to(at);
                let req = if i % 4 == 0 {
                    write_req(&c, i, paddr, at)
                } else {
                    read_req(&c, i, paddr, at)
                };
                let _ = c.enqueue(req);
            }
            c.advance_to(Ps::from_us(100));
            format!("{:?}", c.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn time_regression_is_a_typed_error() {
        let mut c = mc(RefreshPolicyKind::AllBank);
        c.advance_to(Ps::from_us(10));
        match c.try_advance_to(Ps::from_us(5)) {
            Err(DramError::TimeRegression {
                cursor,
                target,
                snapshot,
            }) => {
                assert_eq!(cursor, Ps::from_us(10));
                assert_eq!(target, Ps::from_us(5));
                assert_eq!(snapshot.policy, RefreshPolicyKind::AllBank);
                assert!(snapshot.refreshes_issued > 0);
            }
            other => panic!("expected TimeRegression, got {other:?}"),
        }
        // The error is recoverable: the controller still advances forward.
        c.try_advance_to(Ps::from_us(20)).unwrap();
    }

    #[test]
    #[should_panic(expected = "memory controller fault: time went backwards")]
    fn advance_to_rewind_fails_loudly_even_in_release() {
        let mut c = mc(RefreshPolicyKind::NoRefresh);
        c.advance_to(Ps::from_us(10));
        c.advance_to(Ps::from_us(5));
    }

    #[test]
    fn refresh_coverage_under_load() {
        // Even with a saturating request stream, every bank must receive
        // its refresh coverage within one (scaled) retention window.
        let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
        let timing = RefreshTiming::scaled(Density::Gb32, Retention::Ms64, 512);
        let trefw = timing.trefw;
        let mut c = MemoryController::new(
            mapping,
            TimingParams::ddr3_1600(),
            timing,
            RefreshPolicyKind::PerBankSequential,
            ControllerConfig::default(),
        );
        let mut t = Ps::ZERO;
        let mut id = 0u64;
        while t < trefw {
            c.advance_to(t);
            let paddr = id.wrapping_mul(0x5851_F42D_4C95_7F2D) & ((32u64 << 30) - 1) & !0x3f;
            let _ = c.enqueue(read_req(&c, id, paddr, t));
            id += 1;
            t += Ps::from_ns(50);
        }
        c.advance_to(trefw + Ps::from_us(10));
        // All 16 banks × full row coverage: commands = 16 × ceil-ish; at
        // scale 512 the window is 125 µs, tREFIpb = 487.5 ns → 256 cmds.
        assert!(c.stats().refreshes_pb >= 250, "{}", c.stats().refreshes_pb);
    }

    /// Runs `c` to `target` exactly like `advance_loop`, but at every
    /// plan point requires the memoized [`MemoryController::plan`] to
    /// equal an uncached plan. Leaves the memo filled at `target`, as
    /// `next_event_time` does between engine steps, so a later mutation
    /// that forgot to clear it is caught at the next plan point.
    fn advance_checking_memo(c: &mut MemoryController, target: Ps) {
        loop {
            c.roll_epochs(target);
            let memoized = c.plan();
            assert_eq!(memoized, c.plan_uncached(), "stale plan at {:?}", c.cursor);
            match memoized {
                Some((at, action)) if at <= target => {
                    c.cursor = at;
                    c.execute(action, at).expect("execute");
                }
                _ => break,
            }
        }
        c.cursor = target;
        c.roll_epochs(target);
        let _ = c.plan();
    }

    /// The planner's skip drops only candidates that `consider` would
    /// reject once aligned, ties at the best time included, and hands
    /// every other candidate its aligned time.
    #[test]
    fn align_unless_beaten_skips_only_losing_candidates() {
        let mut c = mc(RefreshPolicyKind::AllBank);
        // Quarter cycles, so some candidates and bests sit on a cycle edge.
        let tck = c.timing.tck.as_ps();
        let grid: Vec<Ps> = (0..16u64).map(|k| Ps(tck * k / 4)).collect();
        let mut skipped = 0;
        for (&bus, &cursor) in grid.iter().zip(grid.iter().rev()).step_by(3) {
            c.cmd_bus_free = bus;
            c.cursor = cursor;
            let bests = std::iter::once(None)
                .chain(grid.iter().flat_map(|&bt| {
                    (0..=2u8).map(move |bp| Some((bt, bp, Action::SelectRefresh)))
                }));
            for best in bests {
                for &raw in &grid {
                    for prio in 1..=2u8 {
                        let t = c.align(raw);
                        let beats = match best {
                            None => true,
                            Some((bt, bp, _)) => t < bt || (t == bt && prio < bp),
                        };
                        let got = c.align_unless_beaten(raw, prio, &best);
                        if beats || got.is_some() {
                            assert_eq!(got, Some(t), "raw {raw} prio {prio} best {best:?}");
                        } else {
                            skipped += 1;
                        }
                    }
                }
            }
        }
        assert!(skipped > 0);
    }

    #[test]
    fn memoized_plan_matches_an_uncached_plan_for_every_policy() {
        use crate::timing::FgrMode;
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
            for seed in 0..3u64 {
                let mapping =
                    AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
                let mut c = MemoryController::new(
                    mapping,
                    TimingParams::ddr3_1600(),
                    RefreshTiming::scaled(Density::Gb32, Retention::Ms64, 1024),
                    policy,
                    ControllerConfig::default(),
                );
                let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
                let mut next = || {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x >> 16
                };
                let (mut t, mut id) = (Ps::ZERO, 0u64);
                while t < Ps::from_us(150) {
                    advance_checking_memo(&mut c, t);
                    // Bursts of 0-11 requests over a few hot rows mix
                    // row hits, conflicts and write drains.
                    for _ in 0..next() % 12 {
                        let r = next();
                        let paddr = (r % 64) * 0x2_0000 + (r >> 8) % 32 * 64;
                        let req = if r % 5 == 0 {
                            write_req(&c, id, paddr, t)
                        } else {
                            read_req(&c, id, paddr, t)
                        };
                        let _ = c.enqueue(req);
                        id += 1;
                    }
                    let _ = c.drain_completions();
                    t += Ps::from_ns(400);
                }
            }
        }
    }
}
