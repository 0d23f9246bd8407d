//! Rank-level (all-bank) refresh, with optional DDR4 FGR scaling.

use crate::geometry::Geometry;
use crate::time::Ps;
use crate::timing::{FgrMode, RefreshTiming};

use super::{BusyForecast, QueueSnapshot, RefreshOp, RefreshPolicy, RefreshPolicyKind};

/// DDR3-style all-bank refresh (§2.2.1, Figure 2a).
///
/// Each rank receives a `REF` every `tREFIab`, staggered so that at most
/// one rank is refreshing at a time (rank *r* is offset by
/// `r × tREFIab / numRanks`). During `tRFCab` the whole rank is locked.
///
/// With [`AllBankPolicy::fgr`] the same machinery models DDR4
/// fine-granularity refresh: `tREFI` and `tRFC` are rescaled per §6.3 and
/// each command covers proportionally fewer rows.
#[derive(Debug, Clone)]
pub struct AllBankPolicy {
    kind: RefreshPolicyKind,
    trefi: Ps,
    trfc: Ps,
    rows_per_cmd: u32,
    ranks: u32,
    /// Next due instant per rank.
    due: Vec<Ps>,
}

impl AllBankPolicy {
    /// Baseline all-bank refresh for one channel.
    pub fn new(timing: &RefreshTiming, geometry: &Geometry) -> Self {
        Self::with_kind(timing, geometry, RefreshPolicyKind::AllBank)
    }

    /// DDR4 FGR variant at `mode` (1x is identical to [`AllBankPolicy::new`]
    /// apart from the reported kind).
    pub fn fgr(timing: &RefreshTiming, geometry: &Geometry, mode: FgrMode) -> Self {
        let scaled = timing.with_fgr(mode);
        Self::with_kind(&scaled, geometry, RefreshPolicyKind::Fgr(mode))
    }

    fn with_kind(timing: &RefreshTiming, geometry: &Geometry, kind: RefreshPolicyKind) -> Self {
        let ranks = geometry.ranks_per_channel;
        let cmds_per_window = (timing.trefw / timing.trefi_ab).max(1);
        let rows_per_cmd = u64::from(timing.rows_per_bank).div_ceil(cmds_per_window) as u32;
        let stagger = timing.trefi_ab / u64::from(ranks);
        AllBankPolicy {
            kind,
            trefi: timing.trefi_ab,
            trfc: timing.trfc_ab,
            rows_per_cmd,
            ranks,
            due: (0..ranks).map(|r| stagger * u64::from(r)).collect(),
        }
    }

    /// Rows covered per command per bank.
    pub fn rows_per_cmd(&self) -> u32 {
        self.rows_per_cmd
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

impl RefreshPolicy for AllBankPolicy {
    fn kind(&self) -> RefreshPolicyKind {
        self.kind
    }

    fn next_due(&self) -> Option<Ps> {
        Some(self.due[self.earliest_rank()])
    }

    fn select(&mut self, _snap: &QueueSnapshot) -> RefreshOp {
        RefreshOp::AllBank {
            rank: self.earliest_rank() as u8,
            rows: self.rows_per_cmd,
        }
    }

    fn issued(&mut self, op: &RefreshOp, _at: Ps) {
        // Drift-free periodic schedule: advance from the *scheduled* due
        // time, not the actual issue time, so delays do not accumulate.
        let rank = op.rank() as usize;
        debug_assert!(rank < self.ranks as usize);
        self.due[rank] += self.trefi;
    }

    fn duration(&self, _op: &RefreshOp) -> Ps {
        self.trfc
    }

    fn forecast(&self, start: Ps, end: Ps) -> BusyForecast {
        // Any window longer than the stagger spacing necessarily overlaps
        // a rank-level refresh; the OS cannot dodge a whole rank by task
        // choice, so the forecast is unpredictable whenever a refresh
        // falls inside the window.
        let overlaps = self
            .due
            .iter()
            .any(|&d| d < end && d + self.trfc > start || (end - start) >= self.trefi);
        if overlaps {
            BusyForecast::Unpredictable
        } else {
            BusyForecast::Idle
        }
    }

    fn save_words(&self) -> Vec<u64> {
        self.due.iter().map(|d| d.as_ps()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Density, Retention};

    fn policy() -> AllBankPolicy {
        AllBankPolicy::new(
            &RefreshTiming::new(Density::Gb32, Retention::Ms64),
            &Geometry::default(),
        )
    }

    #[test]
    fn ranks_are_staggered() {
        let p = policy();
        assert_eq!(p.due[0], Ps::ZERO);
        assert_eq!(p.due[1], Ps::from_ns(3_900));
    }

    #[test]
    fn issue_sequence_alternates_ranks_every_half_trefi() {
        let mut p = policy();
        let snap = QueueSnapshot::default();
        let mut issued = Vec::new();
        for _ in 0..6 {
            let due = p.next_due().unwrap();
            let op = p.select(&snap);
            p.issued(&op, due);
            issued.push((due, op.rank()));
        }
        let half = Ps::from_ns(3_900);
        for (i, &(t, rank)) in issued.iter().enumerate() {
            assert_eq!(t, half * i as u64);
            assert_eq!(u32::from(rank), (i as u32) % 2);
        }
    }

    #[test]
    fn duration_is_trfc_ab() {
        let p = policy();
        let op = RefreshOp::AllBank { rank: 0, rows: 64 };
        assert_eq!(p.duration(&op), Ps::from_ns(890));
    }

    #[test]
    fn rows_covered_per_window_spans_bank() {
        let p = policy();
        // 8205 commands × rows_per_cmd ≥ 512 Ki rows.
        assert!(u64::from(p.rows_per_cmd()) * 8205 >= 512 * 1024);
    }

    #[test]
    fn forecast_is_unpredictable_for_quantum_windows() {
        let p = policy();
        // A 4 ms quantum always overlaps many rank refreshes.
        assert_eq!(
            p.forecast(Ps::ZERO, Ps::from_ms(4)),
            BusyForecast::Unpredictable
        );
    }

    #[test]
    fn forecast_idle_for_tiny_gap_between_refreshes() {
        let p = policy();
        // Just after rank 0's refresh completes and before rank 1 is due.
        let start = Ps::from_ns(890) + Ps::from_ns(1);
        let end = Ps::from_ns(3_800);
        assert_eq!(p.forecast(start, end), BusyForecast::Idle);
    }

    #[test]
    fn fgr_4x_has_quarter_interval_and_scaled_trfc() {
        let timing = RefreshTiming::new(Density::Gb32, Retention::Ms64);
        let p = AllBankPolicy::fgr(&timing, &Geometry::default(), FgrMode::X4);
        assert_eq!(p.kind(), RefreshPolicyKind::Fgr(FgrMode::X4));
        assert_eq!(p.trefi, Ps::from_ns(1_950));
        assert_eq!(p.trfc, Ps::from_ns(890).scale(163, 400));
        // 4× the commands, each covering ~1/4 of the rows.
        let base = policy();
        assert!(p.rows_per_cmd() <= base.rows_per_cmd() / 4 + 1);
    }
}
