//! Adaptive Refresh (Mukundan et al., ISCA'13): dynamic switching
//! between DDR4 1x and 4x fine-granularity modes based on observed
//! channel bandwidth utilization (§6.5).

use crate::geometry::Geometry;
use crate::time::Ps;
use crate::timing::{FgrMode, RefreshTiming};

use super::{BusyForecast, QueueSnapshot, RefreshOp, RefreshPolicy, RefreshPolicyKind};

/// Default utilization above which AR prefers the 4x mode (shorter
/// `tRFC` stalls help when the channel is busy; below it the cheaper-in-
/// total 1x mode wins). Latency-bound DDR3 workloads rarely exceed
/// ~30% *data-bus* utilization even when saturated (banks are busy with
/// ACT/PRE), so the switch point sits at 15%.
pub const DEFAULT_UTILIZATION_THRESHOLD: f64 = 0.15;

/// Adaptive Refresh: all-bank refresh that monitors channel utilization
/// and switches between 1x and 4x FGR modes at refresh-command
/// granularity.
///
/// Refresh *work* is tracked in row-bundles so that a window mixing modes
/// still covers every row: a 1x command retires 4 bundle-quarters, a 4x
/// command 1.
#[derive(Debug, Clone)]
pub struct AdaptiveRefresh {
    /// 1x timing (base).
    trefi_1x: Ps,
    trfc_1x: Ps,
    /// Rows per 1x command.
    rows_per_cmd_1x: u32,
    mode: FgrMode,
    threshold: f64,
    /// Next due instant per rank.
    due: Vec<Ps>,
    /// Mode-switch count (reported in stats/ablations).
    switches: u64,
}

impl AdaptiveRefresh {
    /// AR with the default utilization threshold.
    pub fn new(timing: &RefreshTiming, geometry: &Geometry) -> Self {
        Self::with_threshold(timing, geometry, DEFAULT_UTILIZATION_THRESHOLD)
    }

    /// AR with a custom switch threshold (for ablations).
    pub fn with_threshold(timing: &RefreshTiming, geometry: &Geometry, threshold: f64) -> Self {
        let ranks = geometry.ranks_per_channel;
        let cmds_per_window = (timing.trefw / timing.trefi_ab).max(1);
        let rows_per_cmd_1x = u64::from(timing.rows_per_bank).div_ceil(cmds_per_window) as u32;
        let stagger = timing.trefi_ab / u64::from(ranks);
        AdaptiveRefresh {
            trefi_1x: timing.trefi_ab,
            trfc_1x: timing.trfc_ab,
            rows_per_cmd_1x,
            mode: FgrMode::X1,
            threshold,
            due: (0..ranks).map(|r| stagger * u64::from(r)).collect(),
            switches: 0,
        }
    }

    /// The FGR mode currently selected.
    pub fn mode(&self) -> FgrMode {
        self.mode
    }

    /// Number of 1x↔4x transitions so far.
    pub fn switches(&self) -> u64 {
        self.switches
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

    fn rows_per_cmd(&self) -> u32 {
        match self.mode {
            FgrMode::X1 => self.rows_per_cmd_1x,
            FgrMode::X2 => self.rows_per_cmd_1x.div_ceil(2),
            FgrMode::X4 => self.rows_per_cmd_1x.div_ceil(4),
        }
    }
}

impl RefreshPolicy for AdaptiveRefresh {
    fn kind(&self) -> RefreshPolicyKind {
        RefreshPolicyKind::Adaptive
    }

    fn next_due(&self) -> Option<Ps> {
        Some(self.due[self.earliest_rank()])
    }

    fn select(&mut self, _snap: &QueueSnapshot) -> RefreshOp {
        RefreshOp::AllBank {
            rank: self.earliest_rank() as u8,
            rows: self.rows_per_cmd(),
        }
    }

    fn issued(&mut self, op: &RefreshOp, _at: Ps) {
        let rank = op.rank() as usize;
        self.due[rank] += self.mode.scale_trefi(self.trefi_1x);
    }

    fn duration(&self, _op: &RefreshOp) -> Ps {
        self.mode.scale_trfc(self.trfc_1x)
    }

    fn observe_utilization(&mut self, utilization: f64, _now: Ps) {
        let want = if utilization > self.threshold {
            FgrMode::X4
        } else {
            FgrMode::X1
        };
        if want != self.mode {
            self.mode = want;
            self.switches += 1;
        }
    }

    fn forecast(&self, _start: Ps, _end: Ps) -> BusyForecast {
        BusyForecast::Unpredictable
    }

    fn save_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.due.len() + 2);
        words.push(match self.mode {
            FgrMode::X1 => 0,
            FgrMode::X2 => 1,
            FgrMode::X4 => 2,
        });
        words.extend(self.due.iter().map(|d| d.as_ps()));
        words.push(self.switches);
        words
    }

    fn load_words(&mut self, words: &[u64]) -> bool {
        if words.len() != self.due.len() + 2 {
            return false;
        }
        let mode = match words[0] {
            0 => FgrMode::X1,
            1 => FgrMode::X2,
            2 => FgrMode::X4,
            _ => return false,
        };
        self.mode = mode;
        for (d, &w) in self.due.iter_mut().zip(&words[1..]) {
            *d = Ps(w);
        }
        self.switches = words[words.len() - 1];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Density, Retention};

    fn policy() -> AdaptiveRefresh {
        AdaptiveRefresh::new(
            &RefreshTiming::new(Density::Gb32, Retention::Ms64),
            &Geometry::default(),
        )
    }

    #[test]
    fn starts_in_1x() {
        let p = policy();
        assert_eq!(p.mode(), FgrMode::X1);
        assert_eq!(
            p.duration(&RefreshOp::AllBank { rank: 0, rows: 64 }),
            Ps::from_ns(890)
        );
    }

    #[test]
    fn switches_to_4x_under_load_and_back() {
        let mut p = policy();
        p.observe_utilization(0.8, Ps::from_us(10));
        assert_eq!(p.mode(), FgrMode::X4);
        assert_eq!(p.switches(), 1);
        assert_eq!(
            p.duration(&RefreshOp::AllBank { rank: 0, rows: 16 }),
            Ps::from_ns(890).scale(163, 400)
        );
        p.observe_utilization(0.05, Ps::from_us(20));
        assert_eq!(p.mode(), FgrMode::X1);
        assert_eq!(p.switches(), 2);
        // Repeated same-side observations do not count as switches.
        p.observe_utilization(0.04, Ps::from_us(30));
        assert_eq!(p.switches(), 2);
    }

    #[test]
    fn interval_tracks_mode() {
        let mut p = policy();
        let snap = QueueSnapshot::default();
        let d0 = p.next_due().unwrap();
        let op = p.select(&snap);
        p.issued(&op, d0);
        // rank 0 advanced by full tREFI in 1x.
        assert_eq!(p.due[0], Ps::from_ns(7_800));
        p.observe_utilization(0.9, d0);
        let op = RefreshOp::AllBank { rank: 0, rows: 16 };
        p.issued(&op, p.due[0]);
        assert_eq!(p.due[0], Ps::from_ns(7_800) + Ps::from_ns(1_950));
    }

    #[test]
    fn rows_per_cmd_scales_with_mode() {
        let mut p = policy();
        let snap = QueueSnapshot::default();
        let r1 = match p.select(&snap) {
            RefreshOp::AllBank { rows, .. } => rows,
            _ => unreachable!(),
        };
        p.observe_utilization(0.9, Ps::ZERO);
        let r4 = match p.select(&snap) {
            RefreshOp::AllBank { rows, .. } => rows,
            _ => unreachable!(),
        };
        assert_eq!(r4, r1.div_ceil(4));
    }

    #[test]
    fn coverage_maintained_across_mode_mix() {
        // Half the window in 1x, half in 4x — total rows covered per rank
        // must still reach rows_per_bank.
        let t = RefreshTiming::new(Density::Gb32, Retention::Ms64);
        let mut p = policy();
        let snap = QueueSnapshot::default();
        let mut covered = [0u64; 2];
        loop {
            let due = p.next_due().unwrap();
            if due >= t.trefw {
                break;
            }
            // Flip mode at the half-window point.
            p.observe_utilization(if due < t.trefw / 2 { 0.0 } else { 0.9 }, due);
            let op = p.select(&snap);
            if let RefreshOp::AllBank { rank, rows } = op {
                covered[rank as usize] += u64::from(rows);
            }
            p.issued(&op, due);
        }
        for (r, &c) in covered.iter().enumerate() {
            assert!(
                c >= u64::from(t.rows_per_bank),
                "rank {r} covered {c} rows < {}",
                t.rows_per_bank
            );
        }
    }
}
