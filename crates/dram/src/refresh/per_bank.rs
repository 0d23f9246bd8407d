//! Per-bank refresh schedules: the LPDDR3 round-robin baseline and the
//! paper's proposed sequential schedule (Algorithm 1).
//!
//! Both policies are built from *per-rank refresh engines*, as in real
//! LPDDR3: each rank issues one `REFpb` every `tREFIab / banksPerRank`,
//! and engines of different ranks run concurrently (two banks of two
//! different ranks may refresh at the same instant). This matters at
//! 32 ms retention, where a strictly serial system-wide schedule (one
//! `REFpb` every `tREFIab / totalBanks` = 243.75 ns) could not even fit
//! `tRFCpb` ≈ 387 ns commands back to back.

use crate::geometry::{BankId, Geometry};
use crate::time::Ps;
use crate::timing::RefreshTiming;

use super::{BusyForecast, QueueSnapshot, RefreshOp, RefreshPolicy, RefreshPolicyKind};

/// Shared mechanics: one refresh engine per rank, each issuing a `REFpb`
/// every `tREFIab / banksPerRank`, staggered across ranks so commands
/// interleave on the command bus.
#[derive(Debug, Clone)]
struct RankEngines {
    trefi_rank: Ps,
    trfc_pb: Ps,
    rows_per_cmd: u32,
    rows_per_bank: u32,
    banks_per_rank: u32,
    ranks: u32,
    /// Next due instant per rank.
    due: Vec<Ps>,
}

impl RankEngines {
    fn new(timing: &RefreshTiming, geometry: &Geometry) -> Self {
        let ranks = geometry.ranks_per_channel;
        let banks_per_rank = geometry.banks_per_rank;
        let trefi_rank = timing.trefi_pb_rank(banks_per_rank);
        let cmds_per_bank_window = (timing.trefw / timing.trefi_ab).max(1);
        let stagger = trefi_rank / u64::from(ranks);
        RankEngines {
            trefi_rank,
            trfc_pb: timing.trfc_pb,
            rows_per_cmd: u64::from(timing.rows_per_bank).div_ceil(cmds_per_bank_window) as u32,
            rows_per_bank: timing.rows_per_bank,
            banks_per_rank,
            ranks,
            due: (0..ranks).map(|r| stagger * u64::from(r)).collect(),
        }
    }

    fn earliest_rank(&self) -> usize {
        let mut best = 0;
        for r in 1..self.due.len() {
            if self.due[r] < self.due[best] {
                best = r;
            }
        }
        best
    }
}

/// LPDDR3 per-bank refresh with the default round-robin bank order
/// (§2.2.2, Figure 2b): each rank's engine cycles through its banks,
/// refreshing one row bundle per visit; a bank's next bundle comes a
/// full cycle (one `tREFIab`) later.
#[derive(Debug, Clone)]
pub struct PerBankRoundRobin {
    base: RankEngines,
    /// Per-rank bank cursor.
    cursor: Vec<u32>,
}

impl PerBankRoundRobin {
    /// Round-robin per-bank refresh for one channel.
    pub fn new(timing: &RefreshTiming, geometry: &Geometry) -> Self {
        let base = RankEngines::new(timing, geometry);
        let ranks = base.ranks as usize;
        PerBankRoundRobin {
            base,
            cursor: vec![0; ranks],
        }
    }
}

impl RefreshPolicy for PerBankRoundRobin {
    fn kind(&self) -> RefreshPolicyKind {
        RefreshPolicyKind::PerBankRoundRobin
    }

    fn next_due(&self) -> Option<Ps> {
        Some(self.base.due[self.base.earliest_rank()])
    }

    fn select(&mut self, _snap: &QueueSnapshot) -> RefreshOp {
        let r = self.base.earliest_rank();
        RefreshOp::PerBank {
            bank: BankId::new(r as u8, self.cursor[r] as u8),
            rows: self.base.rows_per_cmd,
        }
    }

    fn issued(&mut self, op: &RefreshOp, _at: Ps) {
        let r = op.rank() as usize;
        self.cursor[r] = (self.cursor[r] + 1) % self.base.banks_per_rank;
        self.base.due[r] += self.base.trefi_rank;
    }

    fn duration(&self, _op: &RefreshOp) -> Ps {
        self.base.trfc_pb
    }

    fn forecast(&self, _start: Ps, _end: Ps) -> BusyForecast {
        // Round-robin touches every bank within one tREFIab; the OS
        // cannot plan a quantum around it.
        BusyForecast::Unpredictable
    }

    fn save_words(&self) -> Vec<u64> {
        let mut w: Vec<u64> = self.base.due.iter().map(|d| d.as_ps()).collect();
        w.extend(self.cursor.iter().map(|&c| u64::from(c)));
        w
    }

    fn load_words(&mut self, words: &[u64]) -> bool {
        let ranks = self.base.due.len();
        if words.len() != ranks + self.cursor.len() {
            return false;
        }
        let (due, cursor) = words.split_at(ranks);
        if cursor
            .iter()
            .any(|&c| c >= u64::from(self.base.banks_per_rank))
        {
            return false;
        }
        for (d, &w) in self.base.due.iter_mut().zip(due) {
            *d = Ps(w);
        }
        for (c, &w) in self.cursor.iter_mut().zip(cursor) {
            *c = w as u32;
        }
        true
    }
}

/// **The proposed per-bank refresh schedule** (Algorithm 1, Figure 7):
/// keep issuing `REFpb` to the *same* bank in successive intervals until
/// all of its rows are refreshed, then move to the next bank.
///
/// Two operating modes, chosen by timing feasibility
/// ([`RefreshTiming::serial_sequential_feasible`]):
///
/// * **Serial** (the paper's §5.1 description, used at 64 ms retention):
///   exactly one bank refreshes system-wide at a time; bank *k*
///   (rank-major) is busy only during slice `[k·tREFW/B, (k+1)·tREFW/B)`
///   — 4 ms slices for 16 banks at 64 ms.
/// * **Parallel ranks** (32 ms retention): every rank walks its own
///   banks concurrently and in phase, so within-rank bank *w* (of every
///   rank) is busy during slice `[w·tREFW/Bpr, (w+1)·tREFW/Bpr)`. This
///   keeps the command rate per engine at a feasible
///   `tREFIab/banksPerRank` while preserving the property the OS needs:
///   the set of refreshing banks in any quantum is one *predictable*
///   within-rank index (which the soft partition excludes across all
///   ranks at once).
#[derive(Debug, Clone)]
pub struct PerBankSequential {
    base: RankEngines,
    serial: bool,
    /// Algorithm 1's `nextRefreshBank`, per rank (in serial mode only
    /// the rank pointed to by `serial_rank` advances).
    next_refresh_bank: Vec<u32>,
    /// Serial mode: Algorithm 1's `nextRefreshRank`.
    serial_rank: u32,
    /// Rows refreshed in the current bank, per rank.
    rows_done: Vec<u64>,
    /// Completed bank-slices (for grid re-synchronization), per rank in
    /// parallel mode; global in serial mode (index 0).
    slices_done: Vec<u64>,
    /// Slice length of the active mode.
    slice_len: Ps,
}

impl PerBankSequential {
    /// The proposed schedule for one channel.
    pub fn new(timing: &RefreshTiming, geometry: &Geometry) -> Self {
        let total_banks = geometry.banks_per_channel();
        let serial = timing.serial_sequential_feasible(total_banks);
        let mut base = RankEngines::new(timing, geometry);
        let slice_len = timing.sequential_slice(total_banks, geometry.banks_per_rank);
        if serial {
            // One global engine: commands spaced tREFIab / totalBanks.
            base.trefi_rank = timing.trefi_pb(total_banks);
            base.due = vec![Ps::ZERO];
        }
        let ranks = geometry.ranks_per_channel as usize;
        PerBankSequential {
            base,
            serial,
            next_refresh_bank: vec![0; ranks],
            serial_rank: 0,
            rows_done: vec![0; ranks],
            slices_done: vec![0; ranks],
            slice_len,
        }
    }

    /// Whether the serial (one-bank-at-a-time) mode is active.
    pub fn is_serial(&self) -> bool {
        self.serial
    }

    /// Length of one bank's contiguous refresh slice.
    pub fn slice_len(&self) -> Ps {
        self.slice_len
    }

    /// The bank the schedule is refreshing at instant `t`. In parallel
    /// mode the returned id has rank 0 and stands for that within-rank
    /// index *in every rank*.
    pub fn bank_at(&self, t: Ps) -> BankId {
        let slice = t / self.slice_len;
        if self.serial {
            let total = u64::from(self.base.ranks * self.base.banks_per_rank);
            BankId::from_flat((slice % total) as u32, self.base.banks_per_rank)
        } else {
            BankId::new(0, (slice % u64::from(self.base.banks_per_rank)) as u8)
        }
    }
}

impl RefreshPolicy for PerBankSequential {
    fn kind(&self) -> RefreshPolicyKind {
        RefreshPolicyKind::PerBankSequential
    }

    fn next_due(&self) -> Option<Ps> {
        Some(self.base.due[self.base.earliest_rank()])
    }

    fn select(&mut self, _snap: &QueueSnapshot) -> RefreshOp {
        let (rank, bank) = if self.serial {
            (self.serial_rank, self.next_refresh_bank[0])
        } else {
            let r = self.base.earliest_rank() as u32;
            (r, self.next_refresh_bank[r as usize])
        };
        RefreshOp::PerBank {
            bank: BankId::new(rank as u8, bank as u8),
            rows: self.base.rows_per_cmd,
        }
    }

    fn issued(&mut self, op: &RefreshOp, _at: Ps) {
        // Algorithm 1, lines 4–15, kept per engine.
        let engine = if self.serial { 0 } else { op.rank() as usize };
        self.rows_done[engine] += u64::from(self.base.rows_per_cmd);
        if self.rows_done[engine] >= u64::from(self.base.rows_per_bank) {
            // Done refreshing the entire bank; move to the next bank and
            // re-synchronize to the slice grid: the next bank's
            // refreshes never start before its own slice (a bank is
            // refreshed "again only after the 64 msec", §5.1).
            self.rows_done[engine] = 0;
            self.next_refresh_bank[engine] += 1;
            if self.next_refresh_bank[engine] >= self.base.banks_per_rank {
                self.next_refresh_bank[engine] = 0;
                if self.serial {
                    self.serial_rank = (self.serial_rank + 1) % self.base.ranks;
                }
            }
            self.slices_done[engine] += 1;
            self.base.due[engine] =
                self.base.due[engine].max(Ps(self.slice_len.as_ps() * self.slices_done[engine]));
        } else {
            self.base.due[engine] += self.base.trefi_rank;
        }
    }

    fn duration(&self, _op: &RefreshOp) -> Ps {
        self.base.trfc_pb
    }

    fn forecast(&self, start: Ps, end: Ps) -> BusyForecast {
        let first = self.bank_at(start);
        // `end` is exclusive; a window ending exactly on a boundary
        // still belongs entirely to `first`'s slice.
        let last = self.bank_at(end.saturating_sub(Ps(1)).max(start));
        if first == last {
            BusyForecast::Bank(first)
        } else {
            BusyForecast::Unpredictable
        }
    }

    fn next_boundary(&self, t: Ps) -> Option<Ps> {
        let next = (t / self.slice_len + 1) * self.slice_len.as_ps();
        Some(Ps(next))
    }

    fn save_words(&self) -> Vec<u64> {
        let mut w: Vec<u64> = self.base.due.iter().map(|d| d.as_ps()).collect();
        w.extend(self.next_refresh_bank.iter().map(|&b| u64::from(b)));
        w.push(u64::from(self.serial_rank));
        w.extend(&self.rows_done);
        w.extend(&self.slices_done);
        w
    }

    fn load_words(&mut self, words: &[u64]) -> bool {
        let engines = self.base.due.len();
        let ranks = self.next_refresh_bank.len();
        if words.len() != engines + 3 * ranks + 1 {
            return false;
        }
        let (due, rest) = words.split_at(engines);
        let (next_bank, rest) = rest.split_at(ranks);
        let Some((serial_rank, rest)) = rest.split_first() else {
            return false; // unreachable given the length check above
        };
        let (rows_done, slices_done) = rest.split_at(ranks);
        if next_bank
            .iter()
            .any(|&b| b >= u64::from(self.base.banks_per_rank))
            || *serial_rank >= u64::from(self.base.ranks)
        {
            return false;
        }
        for (d, &w) in self.base.due.iter_mut().zip(due) {
            *d = Ps(w);
        }
        for (b, &w) in self.next_refresh_bank.iter_mut().zip(next_bank) {
            *b = w as u32;
        }
        self.serial_rank = *serial_rank as u32;
        self.rows_done.copy_from_slice(rows_done);
        self.slices_done.copy_from_slice(slices_done);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Density, Retention};

    fn timing() -> RefreshTiming {
        RefreshTiming::new(Density::Gb32, Retention::Ms64)
    }

    fn drive(policy: &mut dyn RefreshPolicy, n: usize) -> Vec<(Ps, BankId)> {
        let snap = QueueSnapshot::default();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let due = policy.next_due().unwrap();
            let op = policy.select(&snap);
            policy.issued(&op, due);
            out.push((due, op.bank().expect("per-bank op")));
        }
        out
    }

    #[test]
    fn round_robin_interleaves_ranks_and_cycles_banks() {
        let mut p = PerBankRoundRobin::new(&timing(), &Geometry::default());
        let seq = drive(&mut p, 32);
        // Commands alternate ranks every tREFIab/16 = 487.5 ns thanks to
        // the stagger, and each rank cycles its own banks.
        assert_eq!(seq[0], (Ps::ZERO, BankId::new(0, 0)));
        assert_eq!(seq[1], (Ps::from_ps(487_500), BankId::new(1, 0)));
        assert_eq!(seq[2], (Ps::from_ps(975_000), BankId::new(0, 1)));
        assert_eq!(seq[3].1, BankId::new(1, 1));
        // 32 commands = each of the 16 banks exactly twice.
        let mut counts = std::collections::HashMap::new();
        for &(_, b) in &seq {
            *counts.entry(b).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 16);
        assert!(counts.values().all(|&c| c == 2));
    }

    #[test]
    fn round_robin_rate_is_feasible_at_32ms() {
        let t32 = RefreshTiming::new(Density::Gb32, Retention::Ms32);
        let p = PerBankRoundRobin::new(&t32, &Geometry::default());
        // Per-rank command spacing must fit tRFCpb.
        assert!(p.base.trefi_rank >= t32.trfc_pb);
    }

    #[test]
    fn sequential_serial_at_64ms() {
        let t = timing();
        assert!(t.serial_sequential_feasible(16));
        let p = PerBankSequential::new(&t, &Geometry::default());
        assert!(p.is_serial());
        assert_eq!(p.slice_len(), Ps::from_ms(4));
    }

    #[test]
    fn sequential_parallel_at_32ms() {
        let t = RefreshTiming::new(Density::Gb32, Retention::Ms32);
        assert!(!t.serial_sequential_feasible(16));
        let p = PerBankSequential::new(&t, &Geometry::default());
        assert!(!p.is_serial());
        // 32 ms / 8 banks per rank = 4 ms slices.
        assert_eq!(p.slice_len(), Ps::from_ms(4));
    }

    #[test]
    fn sequential_stays_on_bank_until_done() {
        let mut p = PerBankSequential::new(&timing(), &Geometry::default());
        // 512 Ki rows / 64 rows-per-cmd = 8192 commands on bank r0b0.
        let seq = drive(&mut p, 8192 + 4);
        assert!(seq[..8192].iter().all(|&(_, b)| b == BankId::new(0, 0)));
        assert!(seq[8192..].iter().all(|&(_, b)| b == BankId::new(0, 1)));
    }

    #[test]
    fn sequential_bank_finishes_within_slice() {
        // §5.1: bank 0 fully refreshed by the end of the first 4 ms.
        let t = timing();
        let mut p = PerBankSequential::new(&t, &Geometry::default());
        let seq = drive(&mut p, 8192);
        let last_cmd_time = seq.last().unwrap().0;
        assert!(
            last_cmd_time + t.trfc_pb <= Ps::from_ms(4),
            "bank 0 must be done within its 4 ms slice, got {last_cmd_time}"
        );
    }

    #[test]
    fn sequential_serial_walks_ranks_rank_major() {
        let t = timing();
        let mut p = PerBankSequential::new(&t, &Geometry::default());
        let per_bank = 8192;
        let seq = drive(&mut p, per_bank * 16);
        // Bank 8 (rank 1, bank 0) occupies commands [8·8192, 9·8192).
        assert_eq!(seq[per_bank * 8].1, BankId::new(1, 0));
        assert_eq!(seq[per_bank * 16 - 1].1, BankId::new(1, 7));
    }

    #[test]
    fn sequential_forecast_matches_slices() {
        let t = timing();
        let p = PerBankSequential::new(&t, &Geometry::default());
        let slice = Ps::from_ms(4);
        for k in 0..16u64 {
            let start = slice * k;
            let end = start + slice;
            assert_eq!(
                p.forecast(start, end),
                BusyForecast::Bank(BankId::from_flat(k as u32, 8)),
                "slice {k}"
            );
        }
        // Window spanning a boundary is unpredictable.
        assert_eq!(
            p.forecast(Ps::from_ms(3), Ps::from_ms(5)),
            BusyForecast::Unpredictable
        );
        // Second retention window wraps around to bank 0.
        assert_eq!(
            p.forecast(Ps::from_ms(64), Ps::from_ms(68)),
            BusyForecast::Bank(BankId::new(0, 0))
        );
    }

    #[test]
    fn sequential_parallel_forecast_gives_within_rank_index() {
        let t = RefreshTiming::new(Density::Gb32, Retention::Ms32);
        let p = PerBankSequential::new(&t, &Geometry::default());
        let slice = Ps::from_ms(4);
        for w in 0..8u64 {
            assert_eq!(
                p.forecast(slice * w, slice * (w + 1)),
                BusyForecast::Bank(BankId::new(0, w as u8)),
                "slice {w}"
            );
        }
        // Second window wraps.
        assert_eq!(
            p.forecast(Ps::from_ms(32), Ps::from_ms(36)),
            BusyForecast::Bank(BankId::new(0, 0))
        );
    }

    #[test]
    fn sequential_parallel_both_ranks_walk_same_index() {
        let t = RefreshTiming::new(Density::Gb32, Retention::Ms32);
        let mut p = PerBankSequential::new(&t, &Geometry::default());
        // Drive half a slice worth of commands: all targets must be
        // bank 0 of either rank.
        let seq = drive(&mut p, 4096);
        assert!(seq.iter().all(|&(_, b)| b.bank == 0));
        let ranks: std::collections::HashSet<u8> = seq.iter().map(|&(_, b)| b.rank).collect();
        assert_eq!(ranks.len(), 2, "both rank engines must run");
    }

    #[test]
    fn sequential_resyncs_to_slice_grid_without_drift() {
        let t = timing();
        let mut p = PerBankSequential::new(&t, &Geometry::default());
        // Drive two full retention windows (16 banks × 8192 cmds each).
        let _ = drive(&mut p, 8192 * 32);
        // The 33rd slice (bank 0, third window) must start exactly at
        // 2 × tREFW — no drift accumulated.
        assert_eq!(p.next_due(), Some(Ps::from_ms(128)));
        assert_eq!(p.bank_at(Ps::from_ms(128)), BankId::new(0, 0));
    }

    #[test]
    fn sequential_boundaries_are_slice_aligned() {
        let p = PerBankSequential::new(&timing(), &Geometry::default());
        assert_eq!(p.next_boundary(Ps::ZERO), Some(Ps::from_ms(4)));
        assert_eq!(p.next_boundary(Ps::from_ms(4)), Some(Ps::from_ms(8)));
        assert_eq!(
            p.next_boundary(Ps::from_ms(4) + Ps(1)),
            Some(Ps::from_ms(8))
        );
    }

    #[test]
    fn round_robin_forecast_unpredictable() {
        let p = PerBankRoundRobin::new(&timing(), &Geometry::default());
        assert_eq!(
            p.forecast(Ps::ZERO, Ps::from_ms(4)),
            BusyForecast::Unpredictable
        );
    }

    #[test]
    fn both_schedules_cover_all_rows_in_a_window_both_retentions() {
        for retention in [Retention::Ms64, Retention::Ms32] {
            let t = RefreshTiming::new(Density::Gb32, retention);
            for policy_is_seq in [false, true] {
                let mut rr;
                let mut sq;
                let p: &mut dyn RefreshPolicy = if policy_is_seq {
                    sq = PerBankSequential::new(&t, &Geometry::default());
                    &mut sq
                } else {
                    rr = PerBankRoundRobin::new(&t, &Geometry::default());
                    &mut rr
                };
                let mut covered = [0u64; 16];
                let snap = QueueSnapshot::default();
                loop {
                    let due = p.next_due().unwrap();
                    if due >= t.trefw {
                        break;
                    }
                    let op = p.select(&snap);
                    if let RefreshOp::PerBank { bank, rows } = op {
                        covered[bank.flat(8) as usize] += u64::from(rows);
                    }
                    p.issued(&op, due);
                }
                for (i, &c) in covered.iter().enumerate() {
                    assert!(
                        c >= u64::from(t.rows_per_bank),
                        "{retention} seq={policy_is_seq} bank {i}: covered {c} < {}",
                        t.rows_per_bank
                    );
                }
            }
        }
    }

    #[test]
    fn command_spacing_always_fits_trfc() {
        // No two commands of the same *rank* may be closer than tRFCpb.
        for retention in [Retention::Ms64, Retention::Ms32] {
            let t = RefreshTiming::new(Density::Gb32, retention);
            let mut p = PerBankSequential::new(&t, &Geometry::default());
            let seq = drive(&mut p, 20_000);
            let mut last_per_rank = [Ps::MAX; 2];
            for &(at, b) in &seq {
                let r = b.rank as usize;
                if last_per_rank[r] != Ps::MAX {
                    assert!(
                        at - last_per_rank[r] >= t.trfc_pb,
                        "{retention}: rank {r} commands {} apart < tRFCpb {}",
                        at - last_per_rank[r],
                        t.trfc_pb
                    );
                }
                last_per_rank[r] = at;
            }
        }
    }
}
