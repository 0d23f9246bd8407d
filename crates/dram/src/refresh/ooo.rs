//! Out-of-order per-bank refresh (Chang et al., HPCA'14), the paper's
//! strongest hardware-only comparison point (§6.5).

use crate::geometry::{BankId, Geometry};
use crate::time::Ps;
use crate::timing::RefreshTiming;

use super::{BusyForecast, QueueSnapshot, RefreshOp, RefreshPolicy, RefreshPolicyKind};

/// Per-bank refresh where the controller refreshes the *pending* bank
/// with the fewest outstanding requests (§6.5: "while deciding which
/// bank to be refreshed, they look at the transaction queue and decide
/// the target bank as the one with the lowest number of outstanding
/// requests").
///
/// Like [`super::PerBankRoundRobin`], one refresh engine runs per rank
/// (one `REFpb` every `tREFIab / banksPerRank`, ranks staggered). To
/// preserve retention guarantees the selection is round-based per rank:
/// within each round every bank of the rank is refreshed exactly once,
/// out of order; a new round then begins. The paper observes the benefit
/// is marginal because requests keep arriving for the chosen bank during
/// the several-hundred-nanosecond `tRFCpb` — this implementation
/// reproduces exactly that timing race.
#[derive(Debug, Clone)]
pub struct OooPerBank {
    trefi_rank: Ps,
    trfc_pb: Ps,
    rows_per_cmd: u32,
    banks_per_rank: u32,
    /// Next due instant per rank.
    due: Vec<Ps>,
    /// Banks not yet refreshed in the current round, per rank.
    pending: Vec<Vec<bool>>,
    pending_left: Vec<u32>,
}

impl OooPerBank {
    /// OOO per-bank refresh for one channel.
    pub fn new(timing: &RefreshTiming, geometry: &Geometry) -> Self {
        let ranks = geometry.ranks_per_channel;
        let banks_per_rank = geometry.banks_per_rank;
        let trefi_rank = timing.trefi_pb_rank(banks_per_rank);
        let cmds_per_bank_window = (timing.trefw / timing.trefi_ab).max(1);
        let stagger = trefi_rank / u64::from(ranks);
        OooPerBank {
            trefi_rank,
            trfc_pb: timing.trfc_pb,
            rows_per_cmd: u64::from(timing.rows_per_bank).div_ceil(cmds_per_bank_window) as u32,
            banks_per_rank,
            due: (0..ranks).map(|r| stagger * u64::from(r)).collect(),
            pending: (0..ranks)
                .map(|_| vec![true; banks_per_rank as usize])
                .collect(),
            pending_left: vec![banks_per_rank; ranks as usize],
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

impl RefreshPolicy for OooPerBank {
    fn kind(&self) -> RefreshPolicyKind {
        RefreshPolicyKind::OooPerBank
    }

    fn next_due(&self) -> Option<Ps> {
        Some(self.due[self.earliest_rank()])
    }

    fn select(&mut self, snap: &QueueSnapshot) -> RefreshOp {
        // Among this rank's banks not yet refreshed this round, pick the
        // one with the fewest queued requests (ties: lowest index).
        let r = self.earliest_rank();
        let mut best: Option<(u32, u32)> = None; // (queued, bank)
        for b in 0..self.banks_per_rank {
            if !self.pending[r][b as usize] {
                continue;
            }
            let flat = (r as u32) * self.banks_per_rank + b;
            let queued = snap
                .per_bank_queued
                .get(flat as usize)
                .copied()
                .unwrap_or(0);
            if best.is_none_or(|(bq, _)| queued < bq) {
                best = Some((queued, b));
            }
        }
        let (_, bank) = match best {
            Some(hit) => hit,
            None => {
                // Self-heal: an empty round means the pending
                // bookkeeping desynchronized. Restart the round and
                // refresh bank 0 rather than abort the whole run.
                debug_assert!(false, "round always has a pending bank");
                self.pending[r].iter_mut().for_each(|p| *p = true);
                self.pending_left[r] = self.banks_per_rank;
                (0, 0)
            }
        };
        RefreshOp::PerBank {
            bank: BankId::new(r as u8, bank as u8),
            rows: self.rows_per_cmd,
        }
    }

    fn issued(&mut self, op: &RefreshOp, _at: Ps) {
        let Some(bank) = op.bank() else {
            debug_assert!(false, "OOO issues per-bank ops only");
            return;
        };
        let r = bank.rank as usize;
        let b = bank.bank as usize;
        debug_assert!(self.pending[r][b], "bank refreshed twice in a round");
        self.pending[r][b] = false;
        self.pending_left[r] -= 1;
        if self.pending_left[r] == 0 {
            self.pending[r].iter_mut().for_each(|p| *p = true);
            self.pending_left[r] = self.banks_per_rank;
        }
        self.due[r] += self.trefi_rank;
    }

    fn duration(&self, _op: &RefreshOp) -> Ps {
        self.trfc_pb
    }

    fn forecast(&self, _start: Ps, _end: Ps) -> BusyForecast {
        // Targets are chosen dynamically from queue state; the OS cannot
        // predict them a quantum ahead.
        BusyForecast::Unpredictable
    }

    fn save_words(&self) -> Vec<u64> {
        let ranks = self.due.len();
        let bpr = self.banks_per_rank as usize;
        let mut words = Vec::with_capacity(ranks * (2 + bpr));
        words.extend(self.due.iter().map(|d| d.as_ps()));
        for rank in &self.pending {
            words.extend(rank.iter().map(|&p| u64::from(p)));
        }
        words.extend(self.pending_left.iter().map(|&n| u64::from(n)));
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Density, Retention};

    fn policy() -> OooPerBank {
        OooPerBank::new(
            &RefreshTiming::new(Density::Gb32, Retention::Ms64),
            &Geometry::default(),
        )
    }

    fn snap_with(queues: &[(u32, u32)]) -> QueueSnapshot {
        let mut s = QueueSnapshot {
            per_bank_queued: vec![0; 16],
            utilization: 0.0,
        };
        for &(flat, n) in queues {
            s.per_bank_queued[flat as usize] = n;
        }
        s
    }

    #[test]
    fn picks_emptiest_bank_of_the_due_rank() {
        let mut p = policy();
        let mut snap = snap_with(&[]);
        snap.per_bank_queued.iter_mut().for_each(|q| *q = 10);
        snap.per_bank_queued[3] = 1; // rank 0, bank 3
        snap.per_bank_queued[9] = 0; // rank 1, bank 1 — but rank 0 is due
        let op = p.select(&snap);
        assert_eq!(op.bank(), Some(BankId::new(0, 3)));
    }

    #[test]
    fn ties_break_deterministically_low_index() {
        let mut p = policy();
        let snap = snap_with(&[]);
        assert_eq!(p.select(&snap).bank(), Some(BankId::new(0, 0)));
    }

    #[test]
    fn ranks_alternate_via_stagger() {
        let mut p = policy();
        let snap = snap_with(&[]);
        let mut ranks = Vec::new();
        for _ in 0..4 {
            let due = p.next_due().unwrap();
            let op = p.select(&snap);
            p.issued(&op, due);
            ranks.push(op.rank());
        }
        assert_eq!(ranks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn each_round_refreshes_every_bank_of_a_rank_once() {
        let mut p = policy();
        // Rank 0's bank 5 always looks empty; a round must still touch
        // all 8 of rank 0's banks exactly once.
        let snap = {
            let mut s = snap_with(&[]);
            for i in 0..16 {
                s.per_bank_queued[i] = if i == 5 { 0 } else { 10 };
            }
            s
        };
        let mut seen_rank0 = std::collections::HashSet::new();
        for _ in 0..16 {
            let due = p.next_due().unwrap();
            let op = p.select(&snap);
            p.issued(&op, due);
            let b = op.bank().unwrap();
            if b.rank == 0 {
                assert!(seen_rank0.insert(b), "duplicate in rank-0 round");
            }
        }
        assert_eq!(seen_rank0.len(), 8);
        assert!(seen_rank0.contains(&BankId::new(0, 5)));
    }

    #[test]
    fn rounds_cover_retention_window_both_retentions() {
        for retention in [Retention::Ms64, Retention::Ms32] {
            let t = RefreshTiming::new(Density::Gb32, retention);
            let mut p = OooPerBank::new(&t, &Geometry::default());
            let snap = snap_with(&[]);
            let mut covered = [0u64; 16];
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
                    "{retention}: bank {i} covered only {c} rows"
                );
            }
        }
    }

    #[test]
    fn per_rank_interval_is_trefi_over_banks_per_rank() {
        let mut p = policy();
        let snap = snap_with(&[]);
        let d0 = p.next_due().unwrap();
        let op = p.select(&snap);
        p.issued(&op, d0);
        // Rank 0's next turn is one per-rank interval later.
        assert_eq!(p.due[0] - d0, Ps::from_ps(975_000));
    }
}
