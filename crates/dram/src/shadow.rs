//! The shadow DRAM timing model: an independently written DDR timing
//! simulator used as a differential cross-validation anchor for the
//! primary [`crate::controller::MemoryController`].
//!
//! # Design
//!
//! The shadow is deliberately structured *differently* from the primary
//! model so the two do not share bugs:
//!
//! * **Flat per-bank ready-time records** instead of phase state
//!   machines: each bank carries the earliest instants at which it can
//!   accept an ACT, a CAS to its open row, or a PRE, plus the end of its
//!   current refresh window. Legality is pure max-algebra over those
//!   instants.
//! * **Table-driven constraints**: every inter-command gap is
//!   precomputed once from [`TimingParams`] into a [`ShadowTables`]
//!   record; the scheduler never consults raw JEDEC fields.
//! * **Transaction-chained execution**: a transaction is serviced as one
//!   atomic PRE→ACT→CAS chain whose command instants are computed up
//!   front, rather than interleaving individual commands. There is no
//!   command-bus model; chains serialize through bank, rank, and
//!   data-bus ready times only.
//!
//! What the shadow *shares* with the primary is exactly the interface
//! layer, never the timing logic: the [`crate::refresh::RefreshPolicy`]
//! objects (the schedules under test), the
//! [`crate::integrity::RetentionTracker`] oracle, the fault plan, and
//! the statistics structure. Both models drive the policies through the
//! same documented protocol (`next_due` → `try_postpone` → `select`
//! once → issue when timing allows → `issued`).
//!
//! # Divergence knob
//!
//! [`ShadowConfig::drop_refresh_every`] deliberately drops every Nth
//! refresh command (the schedule still advances, no rows are refreshed).
//! It exists to prove the differential harness catches a buggy model;
//! runs with the knob set are never cached.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::backend::{BackendDescriptor, BackendKind, MemoryBackend};
use crate::controller::{
    hash_completions, hash_entry, hash_words, ControllerConfig, QueueFull, TraceCmd, TraceEntry,
};
use crate::error::{ControllerSnapshot, DramError};
use crate::geometry::BankId;
use crate::integrity::{IntegrityConfig, RefreshFaults, RetentionTracker};
use crate::mapping::AddressMapping;
use crate::refresh::{BusyForecast, QueueSnapshot, RefreshOp, RefreshPolicy, RefreshPolicyKind};
use crate::request::{Completion, MemRequest, ReqKind};
use crate::stats::ControllerStats;
use crate::time::Ps;
use crate::timing::{RefreshTiming, TimingParams};

/// Shadow-model-specific knobs (ignored by the primary backend).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShadowConfig {
    /// Debug fault: drop every Nth refresh command (1-based; 0 = off).
    /// The policy schedule advances as if the command issued, but no
    /// rows are refreshed and no command reaches the trace — a seeded
    /// model bug for validating the differential harness.
    pub drop_refresh_every: u64,
}

impl ShadowConfig {
    /// Whether any deliberate perturbation is active.
    pub fn is_perturbed(&self) -> bool {
        self.drop_refresh_every != 0
    }
}

/// Precomputed inter-command constraint table (all durations).
#[derive(Debug, Clone, Copy)]
pub struct ShadowTables {
    /// Scheduling grid (one DRAM clock).
    clock: Ps,
    /// ACT → CAS, same bank (`tRCD`).
    act_to_cas: Ps,
    /// ACT → PRE, same bank (`tRAS`).
    act_to_pre: Ps,
    /// ACT → ACT, same bank (`tRC`).
    act_to_act_bank: Ps,
    /// ACT → ACT, same rank (`tRRD`).
    act_to_act_rank: Ps,
    /// Four-activate window per rank (`tFAW`).
    four_act_window: Ps,
    /// Read CAS → first data beat (`tCL`).
    read_latency: Ps,
    /// Write CAS → first data beat (`tCWL`).
    write_latency: Ps,
    /// Data burst duration (`tBURST`).
    burst: Ps,
    /// Read CAS → PRE (`tRTP`).
    read_to_pre: Ps,
    /// End of write data → PRE (`tWR`).
    write_recovery: Ps,
    /// End of write data → read CAS, same rank (`tWTR`).
    write_to_read: Ps,
    /// PRE → ACT (`tRP`).
    pre_to_act: Ps,
    /// Rank-to-rank data-bus switch penalty (`tRTRS`).
    rank_switch: Ps,
    /// Store-forwarding turnaround (4 clocks, matching the primary).
    forward: Ps,
}

impl ShadowTables {
    /// Derives the constraint table from raw JEDEC parameters.
    pub fn new(t: &TimingParams) -> Self {
        ShadowTables {
            clock: t.tck,
            act_to_cas: t.trcd,
            act_to_pre: t.tras,
            act_to_act_bank: t.trc,
            act_to_act_rank: t.trrd,
            four_act_window: t.tfaw,
            read_latency: t.tcl,
            write_latency: t.tcwl,
            burst: t.tburst,
            read_to_pre: t.trtp,
            write_recovery: t.twr,
            write_to_read: t.twtr,
            pre_to_act: t.trp,
            rank_switch: t.trtrs,
            forward: t.tck * 4,
        }
    }
}

/// Per-bank ready-time record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShadowBank {
    /// Currently open row, if any.
    open_row: Option<u32>,
    /// Instant of the last ACT (anchors `tRAS`/`tRC`).
    last_act: Ps,
    /// Earliest instant the bank can accept an ACT (or a refresh).
    ready_act: Ps,
    /// Earliest instant the bank can accept a CAS to its open row.
    ready_cas: Ps,
    /// Earliest instant the bank can accept a PRE.
    ready_pre: Ps,
    /// End of the bank's current refresh window.
    refresh_until: Ps,
    /// Instant of the bank's last issued command (refresh serialization).
    last_cmd: Ps,
    /// Rows refreshed so far (monotone).
    rows_refreshed: u64,
    /// ACT commands so far.
    activations: u64,
    /// Cumulative time spent inside refresh windows.
    refresh_busy: Ps,
}

impl ShadowBank {
    fn new() -> Self {
        ShadowBank {
            open_row: None,
            last_act: Ps::ZERO,
            ready_act: Ps::ZERO,
            ready_cas: Ps::ZERO,
            ready_pre: Ps::ZERO,
            refresh_until: Ps::ZERO,
            last_cmd: Ps::ZERO,
            rows_refreshed: 0,
            activations: 0,
            refresh_busy: Ps::ZERO,
        }
    }
}

/// Per-rank ready-time record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShadowRank {
    /// Ring of the last four ACT instants (for `tFAW`).
    acts: [Ps; 4],
    /// Next slot in `acts` to overwrite.
    act_pos: u8,
    /// Earliest instant a read CAS may issue (write→read turnaround).
    read_ready: Ps,
    /// End of the rank's current all-bank refresh window.
    refresh_until: Ps,
}

impl ShadowRank {
    fn new() -> Self {
        ShadowRank {
            acts: [Ps::ZERO; 4],
            act_pos: 0,
            read_ready: Ps::ZERO,
            refresh_until: Ps::ZERO,
        }
    }

    /// Earliest instant this rank can accept another ACT.
    fn act_ready(&self, t: &ShadowTables) -> Ps {
        let newest = self.acts[(self.act_pos.wrapping_sub(1) & 3) as usize];
        let oldest = self.acts[self.act_pos as usize];
        let rrd = if newest == Ps::ZERO {
            Ps::ZERO
        } else {
            newest + t.act_to_act_rank
        };
        let faw = if oldest == Ps::ZERO {
            Ps::ZERO
        } else {
            oldest + t.four_act_window
        };
        rrd.max(faw)
    }

    fn note_act(&mut self, at: Ps) {
        self.acts[self.act_pos as usize] = at;
        self.act_pos = (self.act_pos + 1) & 3;
    }
}

/// A queued transaction.
#[derive(Debug, Clone)]
struct ShadowEntry {
    req: MemRequest,
    /// The request was delayed by refresh at some point.
    refresh_blocked: bool,
}

/// A refresh that became due and is waiting for its scope to clear.
#[derive(Debug, Clone, Copy)]
struct ShadowPending {
    op: RefreshOp,
    due: Ps,
    injected_delay: Ps,
}

/// Row-locality class of a planned service chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowClass {
    Hit,
    Miss,
    Conflict,
}

/// Fully resolved command instants for one transaction chain.
#[derive(Debug, Clone, Copy)]
struct ServiceTimes {
    class: RowClass,
    pre_at: Option<Ps>,
    act_at: Option<Ps>,
    cas_at: Ps,
    /// First command instant (the chain's issue slot).
    first: Ps,
}

/// The next thing the shadow will do.
#[derive(Debug, Clone, Copy)]
enum ShadowAction {
    /// Fix the target of a refresh that became due.
    SelectRefresh,
    /// Close an open row so the pending refresh can start.
    PreForRefresh { flat: usize },
    /// Start the pending refresh.
    IssueRefresh,
    /// Service one queued transaction as an atomic chain.
    Service { write_queue: bool, idx: usize },
}

/// The shadow per-channel DRAM model (see the module docs).
#[derive(Debug)]
pub struct ShadowController {
    mapping: AddressMapping,
    tables: ShadowTables,
    refresh_timing: RefreshTiming,
    policy: Box<dyn RefreshPolicy>,
    cfg: ControllerConfig,
    shadow_cfg: ShadowConfig,

    banks: Vec<ShadowBank>,
    ranks: Vec<ShadowRank>,
    banks_per_rank: u32,

    read_q: Vec<ShadowEntry>,
    write_q: Vec<ShadowEntry>,
    draining: bool,

    cursor: Ps,
    data_bus_free: Ps,
    data_bus_owner: Option<u8>,

    pending_refresh: Option<ShadowPending>,

    epoch_start: Ps,
    epoch_bus_busy: Ps,
    last_utilization: f64,

    completions: Vec<Completion>,
    stats: ControllerStats,
    trace: Option<Vec<TraceEntry>>,

    integrity: Option<RetentionTracker>,
    faults: RefreshFaults,
    refresh_seq: u64,
}

impl ShadowController {
    /// Creates a shadow model for the channel described by `mapping`.
    pub fn new(
        mapping: AddressMapping,
        timing: TimingParams,
        refresh_timing: RefreshTiming,
        policy: RefreshPolicyKind,
        cfg: ControllerConfig,
        shadow_cfg: ShadowConfig,
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
                crate::controller::MemoryController::default_integrity_config(&refresh_timing),
            )
        });
        ShadowController {
            mapping,
            tables: ShadowTables::new(&timing),
            refresh_timing,
            policy,
            cfg,
            shadow_cfg,
            banks: (0..n_banks).map(|_| ShadowBank::new()).collect(),
            ranks: (0..g.ranks_per_channel)
                .map(|_| ShadowRank::new())
                .collect(),
            banks_per_rank: g.banks_per_rank,
            read_q: Vec::with_capacity(cfg.read_queue),
            write_q: Vec::with_capacity(cfg.write_queue),
            draining: false,
            cursor: Ps::ZERO,
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

    // ---- small helpers ------------------------------------------------

    fn flat(&self, b: BankId) -> usize {
        b.flat(self.banks_per_rank) as usize
    }

    fn unflat(&self, flat: usize) -> (u8, u8) {
        let id = BankId::from_flat(flat as u32, self.banks_per_rank);
        (id.rank, id.bank)
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

    /// Snaps `t` to the clock grid, no earlier than the cursor.
    fn grid(&self, t: Ps) -> Ps {
        t.max(self.cursor).round_up(self.tables.clock)
    }

    /// Earliest CAS instant the data bus allows for a transfer of
    /// command-to-data latency `lat` from `rank`.
    fn bus_ready(&self, rank: u8, lat: Ps) -> Ps {
        let mut free = self.data_bus_free;
        if let Some(owner) = self.data_bus_owner {
            if owner != rank {
                free += self.tables.rank_switch;
            }
        }
        free.saturating_sub(lat)
    }

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

    fn queue_snapshot(&self) -> QueueSnapshot {
        let mut per_bank_queued = vec![0u32; self.banks.len()];
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
        while self.epoch_start + epoch <= now {
            let busy = self.epoch_bus_busy.min(epoch);
            self.last_utilization = busy.as_ps() as f64 / epoch.as_ps() as f64;
            self.epoch_bus_busy = self.epoch_bus_busy.saturating_sub(busy);
            self.epoch_start += epoch;
            let u = self.last_utilization;
            let t = self.epoch_start;
            self.policy.observe_utilization(u, t);
        }
    }

    fn arrives_into_refresh(&self, req: &MemRequest) -> bool {
        let flat = self.flat(req.loc.bank_id());
        self.banks[flat].refresh_until > req.arrival
            || self.ranks[req.loc.rank as usize].refresh_until > req.arrival
    }

    /// Resolves the full command chain for servicing `e` right now.
    fn service_times(&self, e: &ShadowEntry) -> ServiceTimes {
        let flat = self.flat(e.req.loc.bank_id());
        let bank = &self.banks[flat];
        let rank_id = e.req.loc.rank;
        let rank = &self.ranks[rank_id as usize];
        let t = &self.tables;
        let is_read = e.req.is_read();
        let lat = if is_read {
            t.read_latency
        } else {
            t.write_latency
        };
        let base = e.req.arrival;
        let cas_floor = |cas0: Ps| {
            let mut c = cas0.max(self.bus_ready(rank_id, lat));
            if is_read {
                c = c.max(rank.read_ready);
            }
            c
        };
        match bank.open_row {
            Some(row) if row == e.req.loc.row => {
                let cas_at = self.grid(cas_floor(bank.ready_cas.max(base)));
                ServiceTimes {
                    class: RowClass::Hit,
                    pre_at: None,
                    act_at: None,
                    cas_at,
                    first: cas_at,
                }
            }
            Some(_) => {
                let pre_at = self.grid(bank.ready_pre.max(base));
                let act_at = self.grid(
                    (pre_at + t.pre_to_act)
                        .max(bank.ready_act)
                        .max(rank.act_ready(t)),
                );
                let cas_at = self.grid(cas_floor(act_at + t.act_to_cas));
                ServiceTimes {
                    class: RowClass::Conflict,
                    pre_at: Some(pre_at),
                    act_at: Some(act_at),
                    cas_at,
                    first: pre_at,
                }
            }
            None => {
                let act_at = self.grid(bank.ready_act.max(rank.act_ready(t)).max(base));
                let cas_at = self.grid(cas_floor(act_at + t.act_to_cas));
                ServiceTimes {
                    class: RowClass::Miss,
                    pre_at: None,
                    act_at: Some(act_at),
                    cas_at,
                    first: act_at,
                }
            }
        }
    }

    /// Computes the next action and its instant.
    fn plan(&self) -> Option<(Ps, ShadowAction)> {
        let mut best: Option<(Ps, u8, ShadowAction)> = None;
        let consider = |cand: Option<(Ps, u8, ShadowAction)>,
                        best: &mut Option<(Ps, u8, ShadowAction)>| {
            if let Some((t, p, a)) = cand {
                let better = match best {
                    None => true,
                    Some((bt, bp, _)) => t < *bt || (t == *bt && p < *bp),
                };
                if better {
                    *best = Some((t, p, a));
                }
            }
        };

        // Refresh machinery (priority 0).
        if let Some(p) = &self.pending_refresh {
            let (lo, hi) = self.refresh_scope(&p.op);
            let earliest = p.due + p.injected_delay;
            // Close open rows in scope first; pick the earliest PRE.
            let mut open: Option<(Ps, usize)> = None;
            for f in lo..hi {
                if self.banks[f].open_row.is_some() {
                    let at = self.grid(self.banks[f].ready_pre);
                    if open.is_none_or(|(t, _)| at < t) {
                        open = Some((at, f));
                    }
                }
            }
            if let Some((at, flat)) = open {
                consider(
                    Some((at.max(earliest), 0, ShadowAction::PreForRefresh { flat })),
                    &mut best,
                );
            } else {
                let mut ready = earliest;
                for f in lo..hi {
                    let b = &self.banks[f];
                    ready = ready
                        .max(b.ready_act)
                        .max(b.refresh_until)
                        .max(b.last_cmd + self.tables.clock);
                }
                ready = ready.max(self.ranks[p.op.rank() as usize].refresh_until);
                consider(
                    Some((self.grid(ready), 0, ShadowAction::IssueRefresh)),
                    &mut best,
                );
            }
        } else if let Some(due) = self.policy.next_due() {
            consider(
                Some((due.max(self.cursor), 0, ShadowAction::SelectRefresh)),
                &mut best,
            );
        }

        // Transaction service — the shadow's analogue of FR-FCFS at
        // transaction granularity. Within one bank a row hit outranks a
        // conflict (a conflict's PRE must not close a row that queued
        // hits still want: the primary's per-read tRTP pushback protects
        // those chains the same way); across banks the earliest-issuable
        // chain wins, mirroring the primary's command interleaving.
        let write_queue = self.draining || self.read_q.is_empty();
        let queue: &[ShadowEntry] = if write_queue {
            &self.write_q
        } else {
            &self.read_q
        };
        for (idx, e) in queue.iter().enumerate() {
            let flat = self.flat(e.req.loc.bank_id());
            if self.in_refresh_scope(flat) {
                continue; // scope frozen until the refresh issues
            }
            let st = self.service_times(e);
            let prio = if st.class == RowClass::Hit { 1 } else { 2 };
            consider(
                Some((st.first, prio, ShadowAction::Service { write_queue, idx })),
                &mut best,
            );
        }

        best.map(|(t, _, a)| (t, a))
    }

    fn execute(&mut self, action: ShadowAction, at: Ps) -> Result<(), DramError> {
        match action {
            ShadowAction::SelectRefresh => {
                let snap = self.queue_snapshot();
                if self.policy.try_postpone(&snap, at) {
                    return Ok(());
                }
                let op = self.policy.select(&snap);
                let Some(due) = self.policy.next_due() else {
                    return Err(DramError::BrokenInvariant {
                        what: format!(
                            "shadow SelectRefresh at {at} but the policy reports no due refresh"
                        ),
                    });
                };
                let injected_delay = self.faults.delay_for(self.refresh_seq);
                if injected_delay > Ps::ZERO {
                    self.stats.injected_delay_faults += 1;
                }
                self.pending_refresh = Some(ShadowPending {
                    op,
                    due,
                    injected_delay,
                });
            }
            ShadowAction::PreForRefresh { flat } => {
                let t = self.tables;
                let b = &mut self.banks[flat];
                b.open_row = None;
                b.ready_act = b.ready_act.max(at + t.pre_to_act);
                b.last_cmd = at;
                let (r, bk) = self.unflat(flat);
                self.record(at, TraceCmd::Pre, r, bk);
            }
            ShadowAction::IssueRefresh => {
                let Some(p) = self.pending_refresh.take() else {
                    return Err(DramError::BrokenInvariant {
                        what: format!("shadow IssueRefresh at {at} with no pending refresh"),
                    });
                };
                let seq = self.refresh_seq;
                self.refresh_seq += 1;
                if self.faults.skips(seq) {
                    self.stats.injected_skip_faults += 1;
                    self.policy.issued(&p.op, at);
                    return Ok(());
                }
                let n = self.shadow_cfg.drop_refresh_every;
                if n != 0 && seq % n == n - 1 {
                    // The seeded model bug: the command evaporates while
                    // the schedule believes it issued.
                    self.policy.issued(&p.op, at);
                    return Ok(());
                }
                let dur = self.policy.duration(&p.op);
                let (lo, hi) = self.refresh_scope(&p.op);
                let rows = match p.op {
                    RefreshOp::AllBank { rows, .. } | RefreshOp::PerBank { rows, .. } => rows,
                };
                for f in lo..hi {
                    let b = &mut self.banks[f];
                    let end = at + dur;
                    b.refresh_until = end;
                    b.ready_act = b.ready_act.max(end);
                    b.ready_pre = b.ready_pre.max(end);
                    b.ready_cas = b.ready_cas.max(end);
                    b.last_cmd = at;
                    b.rows_refreshed += u64::from(rows);
                    b.refresh_busy += dur;
                }
                if let Some(t) = &mut self.integrity {
                    for f in lo..hi {
                        t.on_refresh(f as u32, rows, at)?;
                    }
                    self.stats.retention_violations = t.total_violations();
                }
                match p.op {
                    RefreshOp::AllBank { rank, .. } => {
                        self.ranks[rank as usize].refresh_until = at + dur;
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
                for e in self.read_q.iter_mut().chain(self.write_q.iter_mut()) {
                    let f = e.req.loc.bank_id().flat(self.banks_per_rank) as usize;
                    if f >= lo && f < hi {
                        e.refresh_blocked = true;
                    }
                }
            }
            ShadowAction::Service { write_queue, idx } => {
                let st = {
                    let q = if write_queue {
                        &self.write_q
                    } else {
                        &self.read_q
                    };
                    self.service_times(&q[idx])
                };
                let entry = if write_queue {
                    self.write_q.remove(idx)
                } else {
                    self.read_q.remove(idx)
                };
                let t = self.tables;
                let flat = self.flat(entry.req.loc.bank_id());
                let rank_id = entry.req.loc.rank;
                let (tr_r, tr_b) = self.unflat(flat);
                let is_read = entry.req.is_read();
                match st.class {
                    RowClass::Hit => self.stats.row_hits += 1,
                    RowClass::Miss => self.stats.row_misses += 1,
                    RowClass::Conflict => self.stats.row_conflicts += 1,
                }
                if entry.refresh_blocked && is_read {
                    self.stats.refresh_blocked_reads += 1;
                }
                if let Some(pre_at) = st.pre_at {
                    self.banks[flat].open_row = None;
                    self.record(pre_at, TraceCmd::Pre, tr_r, tr_b);
                }
                if let Some(act_at) = st.act_at {
                    let row = entry.req.loc.row;
                    {
                        let b = &mut self.banks[flat];
                        b.open_row = Some(row);
                        b.last_act = act_at;
                        b.ready_cas = act_at + t.act_to_cas;
                        b.activations += 1;
                    }
                    self.ranks[rank_id as usize].note_act(act_at);
                    self.record(act_at, TraceCmd::Act { row }, tr_r, tr_b);
                }
                let cas_at = st.cas_at;
                self.record(
                    cas_at,
                    if is_read { TraceCmd::Rd } else { TraceCmd::Wr },
                    tr_r,
                    tr_b,
                );
                let lat = if is_read {
                    t.read_latency
                } else {
                    t.write_latency
                };
                let data_end = cas_at + lat + t.burst;
                {
                    let b = &mut self.banks[flat];
                    b.last_cmd = cas_at;
                    b.ready_act = b.ready_act.max(b.last_act + t.act_to_act_bank);
                    if is_read {
                        b.ready_pre = b
                            .ready_pre
                            .max(b.last_act + t.act_to_pre)
                            .max(cas_at + t.read_to_pre);
                    } else {
                        b.ready_pre = b
                            .ready_pre
                            .max(b.last_act + t.act_to_pre)
                            .max(data_end + t.write_recovery);
                    }
                }
                if is_read {
                    self.stats.reads_completed += 1;
                    let latency = data_end - entry.req.arrival;
                    self.stats.read_latency_total += latency;
                    self.stats.read_latency_max = self.stats.read_latency_max.max(latency);
                    self.completions.push(Completion {
                        id: entry.req.id,
                        at: data_end,
                        latency,
                    });
                } else {
                    self.stats.writes_completed += 1;
                    let r = &mut self.ranks[rank_id as usize];
                    r.read_ready = r.read_ready.max(data_end + t.write_to_read);
                }
                self.data_bus_free = data_end;
                self.data_bus_owner = Some(rank_id);
                self.stats.data_bus_busy += t.burst;
                self.epoch_bus_busy += t.burst;
                if write_queue && self.draining && self.write_q.len() <= self.cfg.wq_low {
                    self.draining = false;
                }
            }
        }
        Ok(())
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
                snapshot: Box::new(self.snapshot_inner()),
            });
        }
        let ticks = (target - self.cursor).as_ps() / self.tables.clock.as_ps().max(1);
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
                            snapshot: Box::new(self.snapshot_inner()),
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

    fn snapshot_inner(&self) -> ControllerSnapshot {
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

    /// Streams the shadow's full dynamic state into `h`, for the replay
    /// auditor's state hashes. The stream opens with the backend tag 1,
    /// so it never hashes like the primary controller's; it then follows
    /// [`MemoryController::hash_state`]'s order with the shadow's own
    /// bank and rank records, queue entries whose row-miss and
    /// row-conflict flags are always false, and no command-bus instant.
    ///
    /// [`MemoryController::hash_state`]: crate::controller::MemoryController::hash_state
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u8(1);
        h.write_u64(self.banks.len() as u64);
        for b in &self.banks {
            h.write_u8(u8::from(b.open_row.is_some()));
            if let Some(row) = b.open_row {
                h.write_u32(row);
            }
            for t in [
                b.last_act,
                b.ready_act,
                b.ready_cas,
                b.ready_pre,
                b.refresh_until,
                b.last_cmd,
            ] {
                h.write_u64(t.as_ps());
            }
            h.write_u64(b.rows_refreshed);
            h.write_u64(b.activations);
            h.write_u64(b.refresh_busy.as_ps());
        }
        h.write_u64(self.ranks.len() as u64);
        for r in &self.ranks {
            for t in r.acts {
                h.write_u64(t.as_ps());
            }
            h.write_u8(r.act_pos);
            h.write_u64(r.read_ready.as_ps());
            h.write_u64(r.refresh_until.as_ps());
        }
        for q in [&self.read_q, &self.write_q] {
            h.write_u64(q.len() as u64);
            for e in q {
                hash_entry(h, &e.req, false, false, e.refresh_blocked);
            }
        }
        h.write_u8(u8::from(self.draining));
        h.write_u64(self.cursor.as_ps());
        h.write_u64(self.data_bus_free.as_ps());
        h.write_u8(u8::from(self.data_bus_owner.is_some()));
        if let Some(rank) = self.data_bus_owner {
            h.write_u8(rank);
        }
        h.write_u8(u8::from(self.pending_refresh.is_some()));
        if let Some(p) = &self.pending_refresh {
            p.op.hash_state(h);
            h.write_u64(p.due.as_ps());
            h.write_u64(p.injected_delay.as_ps());
        }
        h.write_u64(self.epoch_start.as_ps());
        h.write_u64(self.epoch_bus_busy.as_ps());
        h.write_u64(self.last_utilization.to_bits());
        hash_completions(h, &self.completions);
        self.stats.hash_state(h);
        h.write_u8(u8::from(self.integrity.is_some()));
        if let Some(t) = &self.integrity {
            t.hash_state(h);
        }
        h.write_u64(self.refresh_seq);
        hash_words(h, &self.policy.save_words());
    }
}

impl MemoryBackend for ShadowController {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            kind: BackendKind::Shadow,
            model: "table-driven transaction-level shadow",
            geometry: *self.mapping.geometry(),
        }
    }

    fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    fn refresh_timing(&self) -> &RefreshTiming {
        &self.refresh_timing
    }

    fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.cfg.read_queue
    }

    fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.cfg.write_queue
    }

    fn queue_depths(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        match req.kind {
            ReqKind::Read => {
                if self.write_q.iter().any(|e| e.req.paddr == req.paddr) {
                    let at = req.arrival + self.tables.forward;
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
                let refresh_blocked = self.arrives_into_refresh(&req);
                self.read_q.push(ShadowEntry {
                    req,
                    refresh_blocked,
                });
            }
            ReqKind::Write => {
                if !self.can_accept_write() {
                    self.stats.queue_reject_writes += 1;
                    return Err(QueueFull);
                }
                self.stats.writes_enqueued += 1;
                let refresh_blocked = self.arrives_into_refresh(&req);
                self.write_q.push(ShadowEntry {
                    req,
                    refresh_blocked,
                });
                if !self.draining && self.write_q.len() >= self.cfg.wq_high {
                    self.draining = true;
                    self.stats.write_drains += 1;
                }
            }
        }
        Ok(())
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    fn try_advance_to(&mut self, target: Ps) -> Result<(), DramError> {
        self.advance_loop(target, false).map(|_| ())
    }

    fn try_advance_until_completion(&mut self, target: Ps) -> Result<Option<Ps>, DramError> {
        self.advance_loop(target, true)
    }

    fn next_event_time(&mut self) -> Option<Ps> {
        self.plan().map(|(t, _)| t)
    }

    fn advance_cap(&self) -> Option<Ps> {
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

    fn next_epoch_roll(&self) -> Ps {
        self.epoch_start + self.cfg.utilization_epoch
    }

    fn refresh_forecast(&self, start: Ps, end: Ps) -> BusyForecast {
        self.policy.forecast(start, end)
    }

    fn refresh_boundary_after(&self, t: Ps) -> Option<Ps> {
        self.policy.next_boundary(t)
    }

    fn bank_report(&self) -> Vec<(BankId, u64, u64, Ps)> {
        self.banks
            .iter()
            .enumerate()
            .map(|(f, b)| {
                (
                    BankId::from_flat(f as u32, self.banks_per_rank),
                    b.activations,
                    b.rows_refreshed,
                    b.refresh_busy,
                )
            })
            .collect()
    }

    fn state_snapshot(&self) -> ControllerSnapshot {
        self.snapshot_inner()
    }

    fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    fn drain_trace_into(&mut self, out: &mut Vec<TraceEntry>) {
        if let Some(t) = &mut self.trace {
            out.append(t);
        }
    }

    fn enable_integrity(&mut self, cfg: IntegrityConfig) {
        let g = self.mapping.geometry();
        let mut tracker = RetentionTracker::new(g.banks_per_channel(), g.rows_per_bank, cfg);
        tracker.set_weak_rows(&self.faults.weak_rows);
        self.integrity = Some(tracker);
    }

    fn integrity(&self) -> Option<&RetentionTracker> {
        self.integrity.as_ref()
    }

    fn inject_faults(&mut self, faults: RefreshFaults) {
        if let Some(t) = &mut self.integrity {
            t.set_weak_rows(&faults.weak_rows);
        }
        self.faults = faults;
    }

    fn audit_retention(&mut self, now: Ps) -> u64 {
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

    fn hash_state(&self, h: &mut dyn Hasher) {
        ShadowController::hash_state(self, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::mapping::MappingScheme;
    use crate::request::ReqId;
    use crate::timing::{Density, Retention};

    fn shadow(policy: RefreshPolicyKind) -> ShadowController {
        shadow_cfg(policy, ShadowConfig::default())
    }

    fn shadow_cfg(policy: RefreshPolicyKind, scfg: ShadowConfig) -> ShadowController {
        let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
        ShadowController::new(
            mapping,
            TimingParams::ddr3_1600(),
            RefreshTiming::new(Density::Gb32, Retention::Ms64),
            policy,
            ControllerConfig::default(),
            scfg,
        )
    }

    fn read_req(sc: &ShadowController, id: u64, paddr: u64, at: Ps) -> MemRequest {
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Read,
            paddr,
            loc: sc.mapping.decode(paddr),
            arrival: at,
            core: 0,
            task: 0,
        }
    }

    fn write_req(sc: &ShadowController, id: u64, paddr: u64, at: Ps) -> MemRequest {
        MemRequest {
            kind: ReqKind::Write,
            ..read_req(sc, id, paddr, at)
        }
    }

    #[test]
    fn single_read_latency_matches_jedec_chain() {
        let mut c = shadow(RefreshPolicyKind::NoRefresh);
        c.enqueue(read_req(&c, 1, 0x10_0000, Ps::ZERO)).unwrap();
        c.try_advance_to(Ps::from_us(1)).unwrap();
        let mut done = Vec::new();
        c.drain_completions_into(&mut done);
        assert_eq!(done.len(), 1);
        let t = TimingParams::ddr3_1600();
        let rd_at = t.trcd.round_up(t.tck);
        assert_eq!(done[0].at, rd_at + t.tcl + t.tburst);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut c = shadow(RefreshPolicyKind::NoRefresh);
        c.enqueue(read_req(&c, 1, 0x10_0000, Ps::ZERO)).unwrap();
        c.try_advance_to(Ps::from_us(1)).unwrap();
        let mut done = Vec::new();
        c.drain_completions_into(&mut done);
        let first = done[0];
        c.enqueue(read_req(&c, 2, 0x10_0040, Ps::from_us(1)))
            .unwrap();
        c.try_advance_to(Ps::from_us(2)).unwrap();
        done.clear();
        c.drain_completions_into(&mut done);
        assert!(done[0].latency < first.latency);
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn store_forwarding_matches_primary_semantics() {
        let mut c = shadow(RefreshPolicyKind::NoRefresh);
        c.enqueue(write_req(&c, 1, 0x20_0000, Ps::ZERO)).unwrap();
        c.enqueue(read_req(&c, 2, 0x20_0000, Ps::ZERO)).unwrap();
        let mut done = Vec::new();
        c.drain_completions_into(&mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, ReqId(2));
        assert_eq!(c.stats().forwarded_reads, 1);
        assert_eq!(c.stats().reads_completed, 1);
        assert_eq!(c.stats().reads_enqueued, 0);
    }

    #[test]
    fn refresh_counts_track_the_schedule() {
        let mut c = shadow(RefreshPolicyKind::AllBank);
        c.try_advance_to(Ps::from_us(80)).unwrap();
        let n = c.stats().refreshes_ab;
        assert!((18..=22).contains(&n), "got {n} all-bank refreshes");
        let mut pb = shadow(RefreshPolicyKind::PerBankRoundRobin);
        pb.try_advance_to(Ps::from_us(78)).unwrap();
        let n = pb.stats().refreshes_pb;
        assert!((155..=165).contains(&n), "got {n} per-bank refreshes");
    }

    #[test]
    fn read_to_refreshing_bank_waits_out_the_window() {
        let mut c = shadow(RefreshPolicyKind::PerBankSequential);
        c.try_advance_to(Ps::from_ns(200)).unwrap();
        assert_eq!(c.stats().refreshes_pb, 1);
        let r = read_req(&c, 1, 0, Ps::from_ns(200));
        assert_eq!(r.loc.bank_id(), BankId::new(0, 0));
        c.enqueue(r).unwrap();
        c.try_advance_to(Ps::from_us(2)).unwrap();
        let mut done = Vec::new();
        c.drain_completions_into(&mut done);
        assert_eq!(done.len(), 1);
        assert!(
            done[0].latency > Ps::from_ns(150),
            "latency {} too small to have been refresh-blocked",
            done[0].latency
        );
        assert_eq!(c.stats().refresh_blocked_reads, 1);
    }

    #[test]
    fn trace_commands_never_overlap_refresh_windows() {
        // The tRFC-overlap guarantee, checked directly on the trace.
        let mut c = shadow(RefreshPolicyKind::PerBankRoundRobin);
        c.enable_trace();
        let mut t = Ps::ZERO;
        let mut id = 0u64;
        while t < Ps::from_us(100) {
            c.try_advance_to(t).unwrap();
            let paddr = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((32u64 << 30) - 1) & !0x3f;
            let _ = c.enqueue(read_req(&c, id, paddr, t));
            id += 1;
            t += Ps::from_ns(40);
        }
        c.try_advance_to(Ps::from_us(110)).unwrap();
        let mut trace = Vec::new();
        c.drain_trace_into(&mut trace);
        assert!(trace.iter().any(|e| e.cmd == TraceCmd::RefPb));
        let trfc_pb = c.refresh_timing().trfc_pb;
        let mut windows: Vec<(u8, u8, Ps, Ps)> = Vec::new();
        for e in &trace {
            if e.cmd == TraceCmd::RefPb {
                windows.push((e.rank, e.bank, e.at, e.at + trfc_pb));
            }
        }
        for e in &trace {
            if e.cmd == TraceCmd::RefPb {
                continue;
            }
            for &(r, b, lo, hi) in &windows {
                assert!(
                    !(e.rank == r && e.bank == b && e.at >= lo && e.at < hi),
                    "{:?} at {} inside refresh window [{lo}, {hi}) of r{r}b{b}",
                    e.cmd,
                    e.at
                );
            }
        }
    }

    #[test]
    fn determinism_same_inputs_same_stats() {
        let run = || {
            let mut c = shadow(RefreshPolicyKind::PerBankRoundRobin);
            for i in 0..200u64 {
                let paddr = (i * 0x9E37_79B9) & ((1 << 30) - 1) & !0x3f;
                let at = Ps::from_ns(i * 37);
                c.try_advance_to(at).unwrap();
                let req = if i % 4 == 0 {
                    write_req(&c, i, paddr, at)
                } else {
                    read_req(&c, i, paddr, at)
                };
                let _ = c.enqueue(req);
            }
            c.try_advance_to(Ps::from_us(100)).unwrap();
            format!("{:?}", c.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_granularity_does_not_change_results() {
        let run = |step_ns: u64| {
            let mut c = shadow(RefreshPolicyKind::Elastic);
            for i in 0..100u64 {
                let paddr = (i * 0x5851_F42D) & ((1 << 30) - 1) & !0x3f;
                let at = Ps::from_ns(i * 53);
                c.try_advance_to(at).unwrap();
                let _ = c.enqueue(read_req(&c, i, paddr, at));
            }
            let mut t = Ps::from_ns(100 * 53);
            while t < Ps::from_us(60) {
                c.try_advance_to(t).unwrap();
                t += Ps::from_ns(step_ns);
            }
            c.try_advance_to(Ps::from_us(60)).unwrap();
            format!("{:?}", c.stats())
        };
        assert_eq!(run(100), run(7_919));
    }

    #[test]
    fn drop_refresh_knob_loses_refreshes() {
        let clean = {
            let mut c = shadow(RefreshPolicyKind::PerBankRoundRobin);
            c.try_advance_to(Ps::from_us(100)).unwrap();
            c.stats().refreshes_pb
        };
        let perturbed = {
            let mut c = shadow_cfg(
                RefreshPolicyKind::PerBankRoundRobin,
                ShadowConfig {
                    drop_refresh_every: 4,
                },
            );
            c.try_advance_to(Ps::from_us(100)).unwrap();
            c.stats().refreshes_pb
        };
        assert!(
            perturbed < clean,
            "perturbed {perturbed} should lose refreshes vs clean {clean}"
        );
        // Roughly every 4th command evaporates.
        let lost = clean - perturbed;
        assert!(
            lost >= clean / 6,
            "expected ~25% loss, got {lost} of {clean}"
        );
        assert!(ShadowConfig {
            drop_refresh_every: 4
        }
        .is_perturbed());
        assert!(!ShadowConfig::default().is_perturbed());
    }

    #[test]
    fn refresh_coverage_under_load() {
        let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
        let timing = RefreshTiming::scaled(Density::Gb32, Retention::Ms64, 512);
        let trefw = timing.trefw;
        let mut c = ShadowController::new(
            mapping,
            TimingParams::ddr3_1600(),
            timing,
            RefreshPolicyKind::PerBankSequential,
            ControllerConfig::default(),
            ShadowConfig::default(),
        );
        let mut t = Ps::ZERO;
        let mut id = 0u64;
        while t < trefw {
            c.try_advance_to(t).unwrap();
            let paddr = id.wrapping_mul(0x5851_F42D_4C95_7F2D) & ((32u64 << 30) - 1) & !0x3f;
            let _ = c.enqueue(read_req(&c, id, paddr, t));
            id += 1;
            t += Ps::from_ns(50);
        }
        c.try_advance_to(trefw + Ps::from_us(10)).unwrap();
        assert!(c.stats().refreshes_pb >= 250, "{}", c.stats().refreshes_pb);
        // Every bank got its full row coverage.
        let rows = c.refresh_timing().rows_per_bank;
        for (bank, _, refreshed, _) in c.bank_report() {
            assert!(
                refreshed >= u64::from(rows),
                "bank {bank} refreshed only {refreshed} of {rows} rows"
            );
        }
    }
}
