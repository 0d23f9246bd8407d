//! Elastic Refresh (Stuecheli et al., MICRO'10): all-bank refresh whose
//! commands are postponed into idle memory periods, bounded by JEDEC's
//! 8-outstanding-refresh allowance (§7 of the reproduced paper discusses
//! it among the prior "schedule refreshes around activity" techniques).

use crate::geometry::Geometry;
use crate::time::Ps;
use crate::timing::RefreshTiming;

use super::{BusyForecast, QueueSnapshot, RefreshOp, RefreshPolicy, RefreshPolicyKind};

/// Maximum refresh commands a rank may owe before one is forced
/// (JEDEC's postponement allowance).
pub const MAX_POSTPONED: u64 = 8;

/// All-bank refresh with elastic postponement: when a refresh becomes
/// due while the transaction queues are non-empty, it is deferred in
/// small steps until either the controller drains or the rank has
/// accumulated [`MAX_POSTPONED`] overdue refreshes, at which point it is
/// forced on schedule.
#[derive(Debug, Clone)]
pub struct ElasticRefresh {
    trefi: Ps,
    trfc: Ps,
    rows_per_cmd: u32,
    /// Nominal instant of the oldest *unissued* refresh, per rank.
    owed_from: Vec<Ps>,
    /// Next attempt instant, per rank (≥ `owed_from`).
    due: Vec<Ps>,
    /// Postponement granularity.
    step: Ps,
    /// Total postponements performed (diagnostics).
    postponements: u64,
}

impl ElasticRefresh {
    /// Elastic refresh for one channel.
    pub fn new(timing: &RefreshTiming, geometry: &Geometry) -> Self {
        let ranks = geometry.ranks_per_channel;
        let cmds_per_window = (timing.trefw / timing.trefi_ab).max(1);
        let stagger = timing.trefi_ab / u64::from(ranks);
        ElasticRefresh {
            trefi: timing.trefi_ab,
            trfc: timing.trfc_ab,
            rows_per_cmd: u64::from(timing.rows_per_bank).div_ceil(cmds_per_window) as u32,
            owed_from: (0..ranks).map(|r| stagger * u64::from(r)).collect(),
            due: (0..ranks).map(|r| stagger * u64::from(r)).collect(),
            step: timing.trefi_ab / 8,
            postponements: 0,
        }
    }

    /// Number of postponement decisions taken so far.
    pub fn postponements(&self) -> u64 {
        self.postponements
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

    /// Refreshes rank `r` owes at instant `now` (its backlog).
    fn backlog(&self, r: usize, now: Ps) -> u64 {
        if now < self.owed_from[r] {
            0
        } else {
            (now - self.owed_from[r]) / self.trefi + 1
        }
    }
}

impl RefreshPolicy for ElasticRefresh {
    fn kind(&self) -> RefreshPolicyKind {
        RefreshPolicyKind::Elastic
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
        let r = op.rank() as usize;
        // One owed refresh retired; the next attempt targets the next
        // nominal slot (which may already be in the past if a backlog
        // built up — it then issues as soon as timing allows).
        self.owed_from[r] += self.trefi;
        self.due[r] = self.owed_from[r];
    }

    fn duration(&self, _op: &RefreshOp) -> Ps {
        self.trfc
    }

    fn try_postpone(&mut self, snap: &QueueSnapshot, now: Ps) -> bool {
        let r = self.earliest_rank();
        let busy = snap.per_bank_queued.iter().any(|&q| q > 0);
        if busy && self.backlog(r, now) < MAX_POSTPONED {
            self.due[r] = now + self.step;
            self.postponements += 1;
            true
        } else {
            false
        }
    }

    fn forecast(&self, _start: Ps, _end: Ps) -> BusyForecast {
        BusyForecast::Unpredictable
    }

    fn save_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(2 * self.due.len() + 1);
        words.extend(self.owed_from.iter().map(|d| d.as_ps()));
        words.extend(self.due.iter().map(|d| d.as_ps()));
        words.push(self.postponements);
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Density, Retention};

    fn policy() -> ElasticRefresh {
        ElasticRefresh::new(
            &RefreshTiming::new(Density::Gb32, Retention::Ms64),
            &Geometry::default(),
        )
    }

    fn busy_snap() -> QueueSnapshot {
        QueueSnapshot {
            per_bank_queued: vec![3; 16],
            utilization: 0.5,
        }
    }

    #[test]
    fn idle_never_postpones() {
        let mut p = policy();
        let snap = QueueSnapshot {
            per_bank_queued: vec![0; 16],
            utilization: 0.0,
        };
        assert!(!p.try_postpone(&snap, Ps::ZERO));
        assert_eq!(p.postponements(), 0);
    }

    #[test]
    fn busy_postpones_in_steps() {
        let mut p = policy();
        let due0 = p.next_due().unwrap();
        assert!(p.try_postpone(&busy_snap(), due0));
        let due1 = p.next_due().unwrap();
        assert_eq!(due1, due0 + Ps::from_ns(975));
        assert_eq!(p.postponements(), 1);
    }

    #[test]
    fn backlog_of_eight_forces_issue() {
        let mut p = policy();
        // Keep the queues busy and keep postponing; after the backlog
        // reaches MAX_POSTPONED the policy must refuse to postpone.
        let mut now = p.next_due().unwrap();
        let mut refused = false;
        for _ in 0..200 {
            if p.try_postpone(&busy_snap(), now) {
                now = p.next_due().unwrap();
            } else {
                refused = true;
                break;
            }
        }
        assert!(refused, "postponement must be bounded");
        assert!(p.backlog(0, now) >= MAX_POSTPONED);
    }

    #[test]
    fn issue_retires_oldest_owed() {
        let mut p = policy();
        let snap = busy_snap();
        // Build a backlog of ~3 on rank 0.
        let now = Ps::from_ns(7_800 * 2 + 100);
        assert!(p.backlog(0, now) >= 3);
        let op = RefreshOp::AllBank { rank: 0, rows: 64 };
        let before = p.backlog(0, now);
        p.issued(&op, now);
        assert_eq!(p.backlog(0, now), before - 1);
        // Forced catch-up: next due is immediately in the past.
        assert!(p.next_due().unwrap() <= now);
        let _ = snap;
    }

    #[test]
    fn coverage_holds_despite_postponement() {
        // Adversarial driver: always claims busy. All refreshes must
        // still be issued within ~8 tREFI of nominal.
        let t = RefreshTiming::new(Density::Gb32, Retention::Ms64);
        let mut p = ElasticRefresh::new(&t, &Geometry::default());
        let snap = busy_snap();
        let mut covered = [0u64; 2];
        let mut now = Ps::ZERO;
        let mut worst_late = Ps::ZERO;
        loop {
            let due = p.next_due().unwrap();
            if due >= t.trefw {
                break;
            }
            now = now.max(due);
            if p.try_postpone(&snap, now) {
                continue;
            }
            let op = p.select(&snap);
            if let RefreshOp::AllBank { rank, rows } = op {
                covered[rank as usize] += u64::from(rows);
                worst_late = worst_late.max(now.saturating_sub(p.owed_from[rank as usize]));
            }
            p.issued(&op, now);
        }
        for (r, &c) in covered.iter().enumerate() {
            // Allow the ≤ 8-interval tail to slip past the window edge.
            let slack = 9 * 64;
            assert!(
                c + slack >= u64::from(t.rows_per_bank),
                "rank {r} covered {c}"
            );
        }
        assert!(
            worst_late <= Ps::from_ns(7_800) * 9,
            "lateness bounded by ~8 tREFI, got {worst_late}"
        );
    }
}
