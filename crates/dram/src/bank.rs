//! Per-bank and per-rank timing state machines.
//!
//! Each [`BankLanes`] lane tracks one bank's open row and the earliest
//! instants at which the next ACT / RD / WR / PRE / REF command may
//! legally be issued to it, updated as commands issue. Each
//! [`RankState`] tracks rank-wide constraints: tRRD spacing, the tFAW
//! four-activate window, and write→read turnaround (tWTR).
//!
//! These structs implement *mechanism* only; the memory-controller policy
//! (FR-FCFS, refresh priority) lives in [`crate::controller`].

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::time::Ps;
use crate::timing::TimingParams;

/// What a bank is currently doing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankPhase {
    /// All rows closed; ACT or REF may be scheduled.
    #[default]
    Idle,
    /// A row is latched in the row buffer.
    Active,
    /// Busy executing a refresh until the lane's `busy_until`.
    Refreshing,
}

impl BankPhase {
    /// The phase's one-byte tag in the state stream.
    fn tag(self) -> u8 {
        match self {
            BankPhase::Idle => 0,
            BankPhase::Active => 1,
            BankPhase::Refreshing => 2,
        }
    }
}

/// Sentinel in [`BankLanes`]' open-row lane meaning "no row open" (real
/// row indices are bounded by the geometry's rows-per-bank, far below
/// `u32::MAX`).
const NO_ROW: u32 = u32::MAX;

/// Struct-of-arrays timing state for every bank of one channel.
///
/// Each per-bank timing field is one contiguous lane indexed by flat
/// bank id, so the controller's planner, which reads the hot lanes
/// (`phase`, `open_row`, `next_cas`, `next_pre`, `next_act`,
/// `busy_until`) once per queue entry, touches no cold counter fields.
/// The per-lane methods mirror a one-struct-per-bank reference kept in the
/// unit tests operation for operation (pinned by the
/// `lanes_mirror_bank_exactly` test).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BankLanes {
    phase: Vec<BankPhase>,
    /// Open row per lane, [`NO_ROW`] when closed.
    open_row: Vec<u32>,
    next_act: Vec<Ps>,
    next_pre: Vec<Ps>,
    next_cas: Vec<Ps>,
    busy_until: Vec<Ps>,
    rows_refreshed: Vec<u64>,
    refresh_busy_total: Vec<Ps>,
    activations: Vec<u64>,
}

impl BankLanes {
    /// `n` idle banks at time zero.
    pub fn new(n: usize) -> Self {
        BankLanes {
            phase: vec![BankPhase::Idle; n],
            open_row: vec![NO_ROW; n],
            next_act: vec![Ps::ZERO; n],
            next_pre: vec![Ps::ZERO; n],
            next_cas: vec![Ps::ZERO; n],
            busy_until: vec![Ps::ZERO; n],
            rows_refreshed: vec![0; n],
            refresh_busy_total: vec![Ps::ZERO; n],
            activations: vec![0; n],
        }
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// Whether the channel has no banks (never true for real geometries).
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// Current phase of lane `i`.
    #[inline]
    pub fn phase(&self, i: usize) -> BankPhase {
        self.phase[i]
    }

    /// The row currently latched in lane `i`'s row buffer, if any.
    #[inline]
    pub fn open_row(&self, i: usize) -> Option<u32> {
        (self.open_row[i] != NO_ROW).then_some(self.open_row[i])
    }

    /// Whether `row` is a row-buffer hit on lane `i`.
    #[inline]
    pub fn is_row_hit(&self, i: usize, row: u32) -> bool {
        self.phase[i] == BankPhase::Active && self.open_row[i] == row
    }

    /// End of lane `i`'s in-progress refresh ([`Ps::ZERO`] when none).
    #[inline]
    pub fn refresh_end(&self, i: usize) -> Ps {
        if self.phase[i] == BankPhase::Refreshing {
            self.busy_until[i]
        } else {
            Ps::ZERO
        }
    }

    /// Total time lane `i` has spent refreshing.
    #[inline]
    pub fn refresh_busy_total(&self, i: usize) -> Ps {
        self.refresh_busy_total[i]
    }

    /// Rows lane `i` refreshed in the current retention window.
    #[inline]
    pub fn rows_refreshed(&self, i: usize) -> u64 {
        self.rows_refreshed[i]
    }

    /// ACT commands issued to lane `i`.
    #[inline]
    pub fn activations(&self, i: usize) -> u64 {
        self.activations[i]
    }

    /// Finishes lane `i`'s refresh once its end time has passed
    /// (idempotent, mirrors `Bank::settle`).
    #[inline]
    pub fn settle(&mut self, i: usize, now: Ps) {
        if self.phase[i] == BankPhase::Refreshing && now >= self.busy_until[i] {
            self.phase[i] = BankPhase::Idle;
        }
    }

    /// Earliest ACT on lane `i` (mirrors `Bank::earliest_act`).
    #[inline]
    pub fn earliest_act(&self, i: usize) -> Option<Ps> {
        match self.phase[i] {
            BankPhase::Active => None,
            BankPhase::Refreshing => Some(self.busy_until[i].max(self.next_act[i])),
            BankPhase::Idle => Some(self.next_act[i]),
        }
    }

    /// Earliest column command for `row` on lane `i` (mirrors
    /// `Bank::earliest_cas`).
    #[inline]
    pub fn earliest_cas(&self, i: usize, row: u32) -> Option<Ps> {
        if self.phase[i] == BankPhase::Active && self.open_row[i] == row {
            Some(self.next_cas[i])
        } else {
            None
        }
    }

    /// Earliest PRE on lane `i` (mirrors `Bank::earliest_pre`).
    #[inline]
    pub fn earliest_pre(&self, i: usize) -> Option<Ps> {
        if self.phase[i] == BankPhase::Active {
            Some(self.next_pre[i])
        } else {
            None
        }
    }

    /// Earliest refresh start on lane `i` (mirrors
    /// `Bank::earliest_refresh`).
    #[inline]
    pub fn earliest_refresh(&self, i: usize) -> Option<Ps> {
        match self.phase[i] {
            BankPhase::Active => None,
            BankPhase::Refreshing => Some(self.busy_until[i]),
            BankPhase::Idle => Some(self.next_act[i]),
        }
    }

    /// Issues an ACT on lane `i` (mirrors `Bank::do_act`).
    #[inline]
    pub fn do_act(&mut self, i: usize, at: Ps, row: u32, t: &TimingParams) {
        debug_assert_eq!(self.phase[i], BankPhase::Idle, "ACT to non-idle bank");
        debug_assert!(
            at >= self.next_act[i],
            "ACT at {at} before {}",
            self.next_act[i]
        );
        self.phase[i] = BankPhase::Active;
        self.open_row[i] = row;
        self.next_cas[i] = at + t.trcd;
        self.next_pre[i] = at + t.tras;
        self.next_act[i] = at + t.trc;
        self.activations[i] += 1;
    }

    /// Issues a RD on lane `i`; returns the last-data-beat instant
    /// (mirrors `Bank::do_read`).
    #[inline]
    pub fn do_read(&mut self, i: usize, at: Ps, t: &TimingParams) -> Ps {
        debug_assert_eq!(self.phase[i], BankPhase::Active, "RD to non-active bank");
        debug_assert!(at >= self.next_cas[i]);
        self.next_pre[i] = self.next_pre[i].max(at + t.trtp);
        self.next_cas[i] = self.next_cas[i].max(at + t.tccd);
        at + t.tcl + t.tburst
    }

    /// Issues a WR on lane `i`; returns the last-data-beat instant
    /// (mirrors `Bank::do_write`).
    #[inline]
    pub fn do_write(&mut self, i: usize, at: Ps, t: &TimingParams) -> Ps {
        debug_assert_eq!(self.phase[i], BankPhase::Active, "WR to non-active bank");
        debug_assert!(at >= self.next_cas[i]);
        let data_end = at + t.tcwl + t.tburst;
        self.next_pre[i] = self.next_pre[i].max(data_end + t.twr);
        self.next_cas[i] = self.next_cas[i].max(at + t.tccd);
        data_end
    }

    /// Issues a PRE on lane `i` (mirrors `Bank::do_pre`).
    #[inline]
    pub fn do_pre(&mut self, i: usize, at: Ps, t: &TimingParams) {
        debug_assert_eq!(self.phase[i], BankPhase::Active, "PRE to non-active bank");
        debug_assert!(
            at >= self.next_pre[i],
            "PRE at {at} before {}",
            self.next_pre[i]
        );
        self.phase[i] = BankPhase::Idle;
        self.open_row[i] = NO_ROW;
        self.next_act[i] = self.next_act[i].max(at + t.trp);
    }

    /// Starts a refresh on lane `i` (mirrors `Bank::do_refresh`).
    #[inline]
    pub fn do_refresh(&mut self, i: usize, at: Ps, trfc: Ps, rows: u32) {
        debug_assert_eq!(self.phase[i], BankPhase::Idle, "REF to non-idle bank");
        debug_assert!(at >= self.next_act[i]);
        self.phase[i] = BankPhase::Refreshing;
        self.busy_until[i] = at + trfc;
        self.next_act[i] = at + trfc;
        self.rows_refreshed[i] += u64::from(rows);
        self.refresh_busy_total[i] += trfc;
    }

    /// Streams lane `i` into `h` for state hashing: phase tag, open row
    /// (one tag byte, then the row), the four timing instants, rows
    /// refreshed, refresh busy time and activations.
    pub fn hash_lane(&self, i: usize, h: &mut dyn Hasher) {
        h.write_u8(self.phase[i].tag());
        let open = self.open_row(i);
        h.write_u8(u8::from(open.is_some()));
        if let Some(row) = open {
            h.write_u32(row);
        }
        h.write_u64(self.next_act[i].as_ps());
        h.write_u64(self.next_pre[i].as_ps());
        h.write_u64(self.next_cas[i].as_ps());
        h.write_u64(self.busy_until[i].as_ps());
        h.write_u64(self.rows_refreshed[i]);
        h.write_u64(self.refresh_busy_total[i].as_ps());
        h.write_u64(self.activations[i]);
    }
}

/// Rank-wide timing constraints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankState {
    /// Times of the most recent ACTs, for the tFAW window (up to 4).
    recent_acts: [Ps; 4],
    /// Total ACTs recorded; the tFAW window only binds once 4 exist.
    act_count: u64,
    /// Earliest next ACT anywhere in the rank (tRRD).
    next_act_rank: Ps,
    /// Earliest next RD in the rank (tWTR after a write's data end).
    next_rd_rank: Ps,
    /// End of an in-progress all-bank refresh (rank lockout).
    refresh_until: Ps,
    /// Total time the whole rank has been locked by all-bank refreshes.
    refresh_busy_total: Ps,
}

impl RankState {
    /// A rank with no history.
    pub fn new() -> Self {
        RankState {
            recent_acts: [Ps::ZERO; 4],
            act_count: 0,
            next_act_rank: Ps::ZERO,
            next_rd_rank: Ps::ZERO,
            refresh_until: Ps::ZERO,
            refresh_busy_total: Ps::ZERO,
        }
    }

    /// End of the in-progress all-bank refresh ([`Ps::ZERO`] if none or
    /// already over).
    pub fn refresh_until(&self) -> Ps {
        self.refresh_until
    }

    /// Whether the rank is locked by an all-bank refresh at `now`.
    pub fn is_refreshing(&self, now: Ps) -> bool {
        now < self.refresh_until
    }

    /// Total time spent in all-bank refresh lockout.
    pub fn refresh_busy_total(&self) -> Ps {
        self.refresh_busy_total
    }

    /// Earliest time a new ACT may issue in this rank considering tRRD,
    /// tFAW and any rank-level refresh lockout.
    pub fn earliest_act(&self, t: &TimingParams) -> Ps {
        // tFAW: the 4th-most-recent ACT + tFAW, once 4 ACTs exist.
        let faw_ready = if self.act_count >= 4 {
            self.recent_acts[0] + t.tfaw
        } else {
            Ps::ZERO
        };
        self.next_act_rank.max(faw_ready).max(self.refresh_until)
    }

    /// Earliest time a RD may issue in this rank (tWTR, refresh lockout).
    pub fn earliest_rd(&self) -> Ps {
        self.next_rd_rank.max(self.refresh_until)
    }

    /// Earliest time a WR may issue (refresh lockout only at rank level).
    pub fn earliest_wr(&self) -> Ps {
        self.refresh_until
    }

    /// Records an ACT at `at`.
    pub fn on_act(&mut self, at: Ps, t: &TimingParams) {
        // Written out rather than `rotate_left(1)`, which is not always
        // inlined into the controller's hot loop.
        let [_, a, b, c] = self.recent_acts;
        self.recent_acts = [a, b, c, at];
        self.act_count += 1;
        self.next_act_rank = self.next_act_rank.max(at + t.trrd);
    }

    /// Records a WR whose data finishes at `data_end`.
    pub fn on_write(&mut self, data_end: Ps, t: &TimingParams) {
        self.next_rd_rank = self.next_rd_rank.max(data_end + t.twtr);
    }

    /// Starts an all-bank refresh at `at` lasting `trfc`.
    pub fn on_all_bank_refresh(&mut self, at: Ps, trfc: Ps) {
        self.refresh_until = at + trfc;
        self.refresh_busy_total += trfc;
    }

    /// Streams the full rank timing state into `h` for state hashing:
    /// the four tFAW-window ACT times (no length prefix), the ACT count,
    /// then the rank's next-ACT, next-RD, refresh-end and refresh-busy
    /// instants.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        for t in self.recent_acts {
            h.write_u64(t.as_ps());
        }
        h.write_u64(self.act_count);
        h.write_u64(self.next_act_rank.as_ps());
        h.write_u64(self.next_rd_rank.as_ps());
        h.write_u64(self.refresh_until.as_ps());
        h.write_u64(self.refresh_busy_total.as_ps());
    }
}

impl Default for RankState {
    fn default() -> Self {
        RankState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a state stream as raw bytes, so two states compare byte
    /// for byte.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Hasher for Bytes {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn lane_bytes(l: &BankLanes, i: usize) -> Vec<u8> {
        let mut b = Bytes::default();
        l.hash_lane(i, &mut b);
        b.0
    }

    /// The array-of-structs reference for [`BankLanes`]: the timing state
    /// of one DRAM bank, one struct per bank. Each lane method must mirror
    /// the method of the same name here (pinned by
    /// `lanes_mirror_bank_exactly`).
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct Bank {
        phase: BankPhase,
        open_row: Option<u32>,
        /// Earliest next ACT (tRC from last ACT, tRP from PRE, tRFC from REF).
        next_act: Ps,
        /// Earliest next PRE (tRAS from ACT, tRTP from RD, tWR from WR data).
        next_pre: Ps,
        /// Earliest next column command (tRCD from ACT).
        next_cas: Ps,
        /// End of the current refresh, if `phase == Refreshing`.
        busy_until: Ps,
        /// Rows refreshed in the current retention window (bookkeeping).
        rows_refreshed: u64,
        /// Total time this bank has spent refreshing.
        refresh_busy_total: Ps,
        /// Number of ACTs issued (row openings).
        activations: u64,
    }

    impl Bank {
        /// A bank in the idle state at time zero.
        pub fn new() -> Self {
            Bank {
                phase: BankPhase::Idle,
                open_row: None,
                next_act: Ps::ZERO,
                next_pre: Ps::ZERO,
                next_cas: Ps::ZERO,
                busy_until: Ps::ZERO,
                rows_refreshed: 0,
                refresh_busy_total: Ps::ZERO,
                activations: 0,
            }
        }

        /// Current phase.
        pub fn phase(&self) -> BankPhase {
            self.phase
        }

        /// The row currently latched in the row buffer, if any.
        pub fn open_row(&self) -> Option<u32> {
            self.open_row
        }

        /// Whether `row` is a row-buffer hit.
        pub fn is_row_hit(&self, row: u32) -> bool {
            self.open_row == Some(row)
        }

        /// End of the in-progress refresh ([`Ps::ZERO`] when none).
        pub fn refresh_end(&self) -> Ps {
            if self.phase == BankPhase::Refreshing {
                self.busy_until
            } else {
                Ps::ZERO
            }
        }

        /// Total time spent refreshing so far.
        pub fn refresh_busy_total(&self) -> Ps {
            self.refresh_busy_total
        }

        /// Rows refreshed since the last `Bank::reset_refresh_window`.
        pub fn rows_refreshed(&self) -> u64 {
            self.rows_refreshed
        }

        /// Clears the per-window refreshed-row counter (called by policies at
        /// retention-window boundaries).
        pub fn reset_refresh_window(&mut self) {
            self.rows_refreshed = 0;
        }

        /// Finishes a refresh whose end time has passed (`now >=
        /// busy_until`). Idempotent; called lazily by the controller before
        /// querying constraints.
        pub fn settle(&mut self, now: Ps) {
            if self.phase == BankPhase::Refreshing && now >= self.busy_until {
                self.phase = BankPhase::Idle;
            }
        }

        /// Earliest time an ACT to `_row` may issue, assuming the bank is (or
        /// will be) idle. Returns `None` while a row is open (a PRE is needed
        /// first).
        pub fn earliest_act(&self) -> Option<Ps> {
            match self.phase {
                BankPhase::Active => None,
                BankPhase::Refreshing => Some(self.busy_until.max(self.next_act)),
                BankPhase::Idle => Some(self.next_act),
            }
        }

        /// Earliest time a column command (RD/WR) may issue for `row`.
        /// Returns `None` unless `row` is the open row.
        pub fn earliest_cas(&self, row: u32) -> Option<Ps> {
            if self.phase == BankPhase::Active && self.open_row == Some(row) {
                Some(self.next_cas)
            } else {
                None
            }
        }

        /// Earliest time a PRE may issue. Returns `None` if the bank has no
        /// open row (nothing to precharge).
        pub fn earliest_pre(&self) -> Option<Ps> {
            if self.phase == BankPhase::Active {
                Some(self.next_pre)
            } else {
                None
            }
        }

        /// Earliest time a refresh may start: the bank must be idle (row
        /// closed, tRP elapsed — both folded into `next_act`).
        pub fn earliest_refresh(&self) -> Option<Ps> {
            match self.phase {
                BankPhase::Active => None,
                BankPhase::Refreshing => Some(self.busy_until),
                BankPhase::Idle => Some(self.next_act),
            }
        }

        /// Issues an ACT at `at`.
        ///
        /// # Panics
        ///
        /// Panics (debug) if the bank is not idle or `at` violates timing.
        pub fn do_act(&mut self, at: Ps, row: u32, t: &TimingParams) {
            debug_assert_eq!(self.phase, BankPhase::Idle, "ACT to non-idle bank");
            debug_assert!(at >= self.next_act, "ACT at {at} before {}", self.next_act);
            self.phase = BankPhase::Active;
            self.open_row = Some(row);
            self.next_cas = at + t.trcd;
            self.next_pre = at + t.tras;
            self.next_act = at + t.trc;
            self.activations += 1;
        }

        /// Issues a RD at `at`; returns the time the last data beat leaves.
        pub fn do_read(&mut self, at: Ps, t: &TimingParams) -> Ps {
            debug_assert_eq!(self.phase, BankPhase::Active, "RD to non-active bank");
            debug_assert!(at >= self.next_cas);
            self.next_pre = self.next_pre.max(at + t.trtp);
            self.next_cas = self.next_cas.max(at + t.tccd);
            at + t.tcl + t.tburst
        }

        /// Issues a WR at `at`; returns the time the last data beat is
        /// written (start of tWR).
        pub fn do_write(&mut self, at: Ps, t: &TimingParams) -> Ps {
            debug_assert_eq!(self.phase, BankPhase::Active, "WR to non-active bank");
            debug_assert!(at >= self.next_cas);
            let data_end = at + t.tcwl + t.tburst;
            self.next_pre = self.next_pre.max(data_end + t.twr);
            self.next_cas = self.next_cas.max(at + t.tccd);
            data_end
        }

        /// Issues a PRE at `at`, closing the open row.
        pub fn do_pre(&mut self, at: Ps, t: &TimingParams) {
            debug_assert_eq!(self.phase, BankPhase::Active, "PRE to non-active bank");
            debug_assert!(at >= self.next_pre, "PRE at {at} before {}", self.next_pre);
            self.phase = BankPhase::Idle;
            self.open_row = None;
            self.next_act = self.next_act.max(at + t.trp);
        }

        /// Starts a refresh at `at` lasting `trfc`, covering `rows` rows.
        pub fn do_refresh(&mut self, at: Ps, trfc: Ps, rows: u32) {
            debug_assert_eq!(self.phase, BankPhase::Idle, "REF to non-idle bank");
            debug_assert!(at >= self.next_act);
            self.phase = BankPhase::Refreshing;
            self.busy_until = at + trfc;
            self.next_act = at + trfc;
            self.rows_refreshed += u64::from(rows);
            self.refresh_busy_total += trfc;
        }

        /// The lane stream of [`BankLanes::hash_lane`], written from
        /// this struct, as raw bytes.
        pub fn state_bytes(&self) -> Vec<u8> {
            let mut h = Bytes::default();
            h.write_u8(self.phase.tag());
            h.write_u8(u8::from(self.open_row.is_some()));
            if let Some(row) = self.open_row {
                h.write_u32(row);
            }
            h.write_u64(self.next_act.as_ps());
            h.write_u64(self.next_pre.as_ps());
            h.write_u64(self.next_cas.as_ps());
            h.write_u64(self.busy_until.as_ps());
            h.write_u64(self.rows_refreshed);
            h.write_u64(self.refresh_busy_total.as_ps());
            h.write_u64(self.activations);
            h.0
        }
    }

    fn t() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    #[test]
    fn act_then_cas_respects_trcd() {
        let mut b = Bank::new();
        let tp = t();
        b.do_act(Ps::ZERO, 7, &tp);
        assert_eq!(b.phase(), BankPhase::Active);
        assert!(b.is_row_hit(7));
        assert!(!b.is_row_hit(8));
        assert_eq!(b.earliest_cas(7), Some(tp.trcd));
        assert_eq!(b.earliest_cas(8), None);
        assert_eq!(b.earliest_act(), None, "must precharge first");
    }

    #[test]
    fn read_sets_data_timing_and_pre_window() {
        let mut b = Bank::new();
        let tp = t();
        b.do_act(Ps::ZERO, 0, &tp);
        let data_end = b.do_read(tp.trcd, &tp);
        assert_eq!(data_end, tp.trcd + tp.tcl + tp.tburst);
        // PRE cannot occur before tRAS (35 ns > tRCD + tRTP here).
        assert_eq!(b.earliest_pre(), Some(tp.tras));
    }

    #[test]
    fn write_extends_pre_by_twr() {
        let mut b = Bank::new();
        let tp = t();
        b.do_act(Ps::ZERO, 0, &tp);
        let data_end = b.do_write(tp.trcd, &tp);
        assert_eq!(data_end, tp.trcd + tp.tcwl + tp.tburst);
        assert_eq!(b.earliest_pre(), Some((data_end + tp.twr).max(tp.tras)));
    }

    #[test]
    fn pre_closes_row_and_sets_trp() {
        let mut b = Bank::new();
        let tp = t();
        b.do_act(Ps::ZERO, 3, &tp);
        let pre_at = tp.tras;
        b.do_pre(pre_at, &tp);
        assert_eq!(b.phase(), BankPhase::Idle);
        assert_eq!(b.open_row(), None);
        // next ACT limited by both tRC from ACT and tRP from PRE.
        let expect = (pre_at + tp.trp).max(tp.trc);
        assert_eq!(b.earliest_act(), Some(expect));
    }

    #[test]
    fn refresh_blocks_bank_until_trfc() {
        let mut b = Bank::new();
        let trfc = Ps::from_ns(890);
        b.do_refresh(Ps::from_us(1), trfc, 64);
        assert_eq!(b.phase(), BankPhase::Refreshing);
        assert_eq!(b.refresh_end(), Ps::from_us(1) + trfc);
        assert_eq!(b.earliest_act(), Some(Ps::from_us(1) + trfc));
        assert_eq!(b.rows_refreshed(), 64);
        assert_eq!(b.refresh_busy_total(), trfc);
        // settle before end keeps refreshing; after end goes idle.
        b.settle(Ps::from_us(1));
        assert_eq!(b.phase(), BankPhase::Refreshing);
        b.settle(Ps::from_us(2));
        assert_eq!(b.phase(), BankPhase::Idle);
    }

    #[test]
    fn refresh_window_reset() {
        let mut b = Bank::new();
        b.do_refresh(Ps::ZERO, Ps::from_ns(100), 32);
        b.settle(Ps::from_ns(100));
        b.reset_refresh_window();
        assert_eq!(b.rows_refreshed(), 0);
        assert_eq!(b.refresh_busy_total(), Ps::from_ns(100));
    }

    #[test]
    fn lanes_mirror_bank_exactly() {
        // Drive a scalar Bank and one BankLanes lane through the same
        // pseudo-random legal command stream; every observable (queries,
        // returned data-end instants, state streams) must agree at
        // every step.
        let tp = t();
        let trfc = Ps::from_ns(387);
        let mut b = Bank::new();
        let mut l = BankLanes::new(4); // exercise a non-zero lane
        let lane = 2;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = Ps::ZERO;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            now += Ps::from_ns((x >> 58) + 1);
            b.settle(now);
            l.settle(lane, now);
            let row = ((x >> 32) % 64) as u32;
            assert_eq!(b.phase(), l.phase(lane), "step {step}");
            assert_eq!(b.open_row(), l.open_row(lane));
            assert_eq!(b.is_row_hit(row), l.is_row_hit(lane, row));
            assert_eq!(b.refresh_end(), l.refresh_end(lane));
            assert_eq!(b.earliest_act(), l.earliest_act(lane));
            assert_eq!(b.earliest_cas(row), l.earliest_cas(lane, row));
            assert_eq!(b.earliest_pre(), l.earliest_pre(lane));
            assert_eq!(b.earliest_refresh(), l.earliest_refresh(lane));
            match b.phase() {
                BankPhase::Active => match x % 4 {
                    0 => {
                        let at = b.earliest_pre().unwrap().max(now);
                        b.do_pre(at, &tp);
                        l.do_pre(lane, at, &tp);
                    }
                    1 => {
                        let open = b.open_row().unwrap();
                        let at = b.earliest_cas(open).unwrap().max(now);
                        assert_eq!(b.do_read(at, &tp), l.do_read(lane, at, &tp));
                    }
                    _ => {
                        let open = b.open_row().unwrap();
                        let at = b.earliest_cas(open).unwrap().max(now);
                        assert_eq!(b.do_write(at, &tp), l.do_write(lane, at, &tp));
                    }
                },
                BankPhase::Idle => {
                    let at = b.earliest_act().unwrap().max(now);
                    if x.is_multiple_of(3) {
                        b.do_refresh(at, trfc, 8);
                        l.do_refresh(lane, at, trfc, 8);
                    } else {
                        b.do_act(at, row, &tp);
                        l.do_act(lane, at, row, &tp);
                    }
                }
                BankPhase::Refreshing => {}
            }
            assert_eq!(b.state_bytes(), lane_bytes(&l, lane), "step {step}");
        }
        // Untouched lanes stayed pristine.
        assert_eq!(lane_bytes(&l, 0), Bank::new().state_bytes());
    }

    #[test]
    fn rank_trrd_spacing() {
        let mut r = RankState::new();
        let tp = t();
        r.on_act(Ps::ZERO, &tp);
        assert_eq!(r.earliest_act(&tp), tp.trrd);
    }

    #[test]
    fn rank_tfaw_limits_fifth_act() {
        let mut r = RankState::new();
        let tp = t();
        // Four ACTs spaced at exactly tRRD.
        for i in 0..4u64 {
            let at = tp.trrd * i;
            assert!(r.earliest_act(&tp) <= at, "act {i}");
            r.on_act(at, &tp);
        }
        // Fifth ACT must wait until first + tFAW (40 ns > 4×6 ns).
        assert_eq!(r.earliest_act(&tp), tp.tfaw);
    }

    #[test]
    fn rank_wtr_turnaround() {
        let mut r = RankState::new();
        let tp = t();
        let data_end = Ps::from_ns(30);
        r.on_write(data_end, &tp);
        assert_eq!(r.earliest_rd(), data_end + tp.twtr);
        assert_eq!(r.earliest_wr(), Ps::ZERO);
    }

    #[test]
    fn rank_all_bank_refresh_locks_everything() {
        let mut r = RankState::new();
        let tp = t();
        r.on_all_bank_refresh(Ps::from_us(2), Ps::from_ns(890));
        let end = Ps::from_us(2) + Ps::from_ns(890);
        assert!(r.is_refreshing(Ps::from_us(2)));
        assert!(!r.is_refreshing(end));
        assert_eq!(r.earliest_act(&tp), end);
        assert_eq!(r.earliest_rd(), end);
        assert_eq!(r.earliest_wr(), end);
        assert_eq!(r.refresh_busy_total(), Ps::from_ns(890));
    }
}
