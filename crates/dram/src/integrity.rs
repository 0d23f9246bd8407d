//! Retention-integrity oracle and refresh fault injection.
//!
//! The whole point of the co-design is that every DRAM row is refreshed
//! within `tREFW` while the OS hides the cost — but nothing in the
//! simulator *checked* that invariant: a buggy policy could silently
//! drop rows and still report great IPC. The [`RetentionTracker`] is
//! that check. It mirrors the device's internal refresh-counter
//! semantics: every refresh command covers the next `rows` rows of the
//! bank's cyclic sweep, so the tracker keeps, per bank, a ring of
//! [row-span → last-refresh-instant] records and flags any span whose
//! re-refresh interval exceeds the (scaled) retention limit plus a
//! bounded postponement slack as a [`RetentionViolation`].
//!
//! [`RefreshFaults`] complements the oracle with deterministic fault
//! injection at the controller: *skipped* refresh commands (the policy's
//! schedule advances but no rows are refreshed — the classic silent
//! data-loss fault the oracle must catch), *delayed* commands (issue
//! slack the schedule must tolerate), and *weak rows* whose retention is
//! shorter than `tREFW` (the RAIDR failure model — undetectable by any
//! stock policy, so the oracle must report them).
//!
//! The slack term exists because refresh is not isochronous: commands
//! legally issue late while their scope drains (JEDEC allows up to eight
//! postponed intervals, which the elastic policy exploits in full), so
//! the oracle's default threshold is `tREFW + 9·tREFI`. Tests that want
//! a sharper oracle pass an explicit [`IntegrityConfig::slack`].

use std::collections::VecDeque;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::error::DramError;
use crate::time::Ps;

/// How many violations keep their full detail; beyond this only the
/// counters advance (a broken policy can violate per-command).
const DETAIL_CAP: usize = 64;

/// Configuration for a [`RetentionTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrityConfig {
    /// Retention limit: the scaled `tREFW`.
    pub limit: Ps,
    /// Allowed lateness past `limit` before an interval is a violation
    /// (covers legal postponement; see module docs).
    pub slack: Ps,
}

impl IntegrityConfig {
    /// Oracle threshold: `limit + slack`.
    pub fn threshold(&self) -> Ps {
        self.limit + self.slack
    }
}

/// A row with retention shorter than the device-wide `tREFW`
/// (the RAIDR / retention-variation failure model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeakRow {
    /// Flat bank index within the channel.
    pub flat_bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// This row's (shortened) retention limit.
    pub limit: Ps,
}

/// What kind of retention failure was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A span was re-refreshed later than the oracle threshold.
    LateRefresh,
    /// A span was still unrefreshed past the threshold at end of run.
    StaleAtEnd,
    /// A weak row exceeded its shortened retention limit.
    WeakRow,
}

/// One detected retention failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionViolation {
    /// Failure class.
    pub kind: ViolationKind,
    /// Flat bank index within the channel.
    pub flat_bank: u32,
    /// First row of the violating span.
    pub row_start: u32,
    /// One past the last row of the violating span.
    pub row_end: u32,
    /// Observed refresh interval for the span.
    pub interval: Ps,
    /// The limit the span was held to (`tREFW` or the weak-row limit).
    pub limit: Ps,
    /// Instant of detection.
    pub at: Ps,
}

/// A contiguous run of rows last refreshed at the same instant.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
    at: Ps,
}

/// Per-bank sweep state: a cursor mirroring the device's internal
/// refresh counter plus the ring of last-refresh spans, front-aligned
/// with the cursor.
#[derive(Debug)]
struct BankTrack {
    cursor: u32,
    spans: VecDeque<Span>,
}

/// Deterministic refresh fault plan applied by the controller.
///
/// `skip` and `delay` are keyed by the controller's global refresh
/// sequence number (the N-th refresh command it would issue), making
/// injection reproducible irrespective of request traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefreshFaults {
    /// Sorted refresh sequence numbers to drop entirely: the schedule
    /// advances as if issued, no rows are refreshed. Must be detected.
    pub skip: Vec<u64>,
    /// Per-sequence extra issue delay: `(seq, delay)`, sorted by `seq`.
    /// The sequential schedule must tolerate bounded delay silently.
    pub delay: Vec<(u64, Ps)>,
    /// Rows with shortened retention, checked by the tracker.
    pub weak_rows: Vec<WeakRow>,
}

impl RefreshFaults {
    /// Whether this plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.skip.is_empty() && self.delay.is_empty() && self.weak_rows.is_empty()
    }

    /// Whether refresh command `seq` should be dropped.
    pub fn skips(&self, seq: u64) -> bool {
        self.skip.binary_search(&seq).is_ok()
    }

    /// Extra issue delay for refresh command `seq`.
    pub fn delay_for(&self, seq: u64) -> Ps {
        match self.delay.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(i) => self.delay[i].1,
            Err(_) => Ps::ZERO,
        }
    }
}

/// The retention-integrity oracle for one channel.
///
/// # Examples
///
/// ```
/// use refsim_dram::integrity::{IntegrityConfig, RetentionTracker};
/// use refsim_dram::time::Ps;
///
/// let cfg = IntegrityConfig { limit: Ps::from_us(64), slack: Ps::from_us(1) };
/// let mut t = RetentionTracker::new(2, 128, cfg);
/// // Bank 0 fully swept at 10us, and again within the window at 70us.
/// t.on_refresh(0, 128, Ps::from_us(10)).unwrap();
/// t.on_refresh(0, 128, Ps::from_us(70)).unwrap();
/// assert_eq!(t.total_violations(), 0);
/// // Bank 1 never refreshed: stale at end of a 80us run.
/// t.finalize(Ps::from_us(80));
/// assert!(t.total_violations() > 0);
/// ```
#[derive(Debug)]
pub struct RetentionTracker {
    cfg: IntegrityConfig,
    rows_per_bank: u32,
    banks: Vec<BankTrack>,
    /// Weak rows with their own last-refresh instant.
    weak: Vec<(WeakRow, Ps)>,
    violations: Vec<RetentionViolation>,
    total: u64,
}

impl RetentionTracker {
    /// A tracker for `n_banks` banks of `rows_per_bank` rows, with every
    /// cell treated as written at the simulation epoch.
    pub fn new(n_banks: u32, rows_per_bank: u32, cfg: IntegrityConfig) -> Self {
        assert!(rows_per_bank > 0, "rows_per_bank must be positive");
        let banks = (0..n_banks)
            .map(|_| BankTrack {
                cursor: 0,
                spans: VecDeque::from([Span {
                    start: 0,
                    end: rows_per_bank,
                    at: Ps::ZERO,
                }]),
            })
            .collect();
        RetentionTracker {
            cfg,
            rows_per_bank,
            banks,
            weak: Vec::new(),
            violations: Vec::new(),
            total: 0,
        }
    }

    /// The oracle configuration in effect.
    pub fn config(&self) -> &IntegrityConfig {
        &self.cfg
    }

    /// Registers weak rows to hold to their own limits.
    pub fn set_weak_rows(&mut self, rows: &[WeakRow]) {
        self.weak = rows.iter().map(|&w| (w, Ps::ZERO)).collect();
    }

    /// Records a refresh command covering the next `rows` rows of
    /// `flat_bank`'s sweep, checking the re-refresh interval of every
    /// span it covers.
    ///
    /// # Errors
    ///
    /// [`DramError::BrokenInvariant`] if the oracle's span ring runs
    /// dry mid-sweep — its spans always tile the bank exactly, so an
    /// empty ring means the bookkeeping itself is corrupt and every
    /// subsequent verdict would be meaningless.
    pub fn on_refresh(&mut self, flat_bank: u32, rows: u32, at: Ps) -> Result<(), DramError> {
        let threshold = self.cfg.threshold();
        let limit = self.cfg.limit;
        let bank = &mut self.banks[flat_bank as usize];
        let n = rows.min(self.rows_per_bank);
        if n == 0 {
            return Ok(());
        }
        let start = bank.cursor;
        let mut remaining = n;
        let mut late: Option<(u32, u32, Ps)> = None; // coalesced per command
        while remaining > 0 {
            let Some(span) = bank.spans.front_mut() else {
                return Err(DramError::BrokenInvariant {
                    what: format!(
                        "retention oracle span ring for bank {flat_bank} ran dry with \
                         {remaining} rows uncovered at {at}"
                    ),
                });
            };
            let covered = (span.end - span.start).min(remaining);
            let interval = at.saturating_sub(span.at);
            if interval > threshold {
                late = Some(match late {
                    None => (span.start, span.start + covered, interval),
                    Some((s, _, worst)) => (s, span.start + covered, worst.max(interval)),
                });
            }
            if covered == span.end - span.start {
                bank.spans.pop_front();
            } else {
                span.start += covered;
            }
            remaining -= covered;
        }
        if let Some((row_start, row_end, interval)) = late {
            self.record(RetentionViolation {
                kind: ViolationKind::LateRefresh,
                flat_bank,
                row_start,
                row_end,
                interval,
                limit,
                at,
            });
        }
        // Re-borrow after recording (record needs &mut self).
        let bank = &mut self.banks[flat_bank as usize];
        let end = start + n;
        if end <= self.rows_per_bank {
            bank.spans.push_back(Span { start, end, at });
            bank.cursor = end % self.rows_per_bank;
        } else {
            bank.spans.push_back(Span {
                start,
                end: self.rows_per_bank,
                at,
            });
            bank.spans.push_back(Span {
                start: 0,
                end: end - self.rows_per_bank,
                at,
            });
            bank.cursor = end - self.rows_per_bank;
        }
        // Weak rows covered by this command restart their own clocks.
        let mut weak_hits = Vec::new();
        for (w, last) in &mut self.weak {
            if w.flat_bank != flat_bank {
                continue;
            }
            let in_cover = if end <= self.rows_per_bank {
                (start..end).contains(&w.row)
            } else {
                w.row >= start || w.row < end - self.rows_per_bank
            };
            if in_cover {
                let interval = at.saturating_sub(*last);
                if interval > w.limit + self.cfg.slack {
                    weak_hits.push(RetentionViolation {
                        kind: ViolationKind::WeakRow,
                        flat_bank,
                        row_start: w.row,
                        row_end: w.row + 1,
                        interval,
                        limit: w.limit,
                        at,
                    });
                }
                *last = at;
            }
        }
        for v in weak_hits {
            self.record(v);
        }
        Ok(())
    }

    /// End-of-run audit: any span (or weak row) older than its threshold
    /// at `now` is a violation — this is what catches rows whose refresh
    /// never came at all (e.g. a policy that stops early, or `NoRefresh`
    /// on an un-confined workload).
    pub fn finalize(&mut self, now: Ps) {
        let threshold = self.cfg.threshold();
        let limit = self.cfg.limit;
        let mut stale = Vec::new();
        for (b, bank) in self.banks.iter().enumerate() {
            for span in &bank.spans {
                let interval = now.saturating_sub(span.at);
                if interval > threshold {
                    stale.push(RetentionViolation {
                        kind: ViolationKind::StaleAtEnd,
                        flat_bank: b as u32,
                        row_start: span.start,
                        row_end: span.end,
                        interval,
                        limit,
                        at: now,
                    });
                }
            }
        }
        for (w, last) in &self.weak {
            let interval = now.saturating_sub(*last);
            if interval > w.limit + self.cfg.slack {
                stale.push(RetentionViolation {
                    kind: ViolationKind::WeakRow,
                    flat_bank: w.flat_bank,
                    row_start: w.row,
                    row_end: w.row + 1,
                    interval,
                    limit: w.limit,
                    at: now,
                });
            }
        }
        for v in stale {
            self.record(v);
        }
    }

    fn record(&mut self, v: RetentionViolation) {
        self.total += 1;
        if self.violations.len() < DETAIL_CAP {
            self.violations.push(v);
        }
    }

    /// Detailed violations (capped at the first 64).
    pub fn violations(&self) -> &[RetentionViolation] {
        &self.violations
    }

    /// Total violations observed, including beyond the detail cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Whether the run is clean so far.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Streams the sweep ledger, weak-row clocks and violation record
    /// into `h` for state hashing, each sequence length-prefixed: per
    /// bank the sweep cursor and the span ring front-to-back as
    /// `(row_start, row_end, last_refresh)`; the last-refresh instant of
    /// each weak row in registration order; the detailed violations;
    /// the total count. The config and weak-row definitions are
    /// configuration.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.banks.len() as u64);
        for b in &self.banks {
            h.write_u32(b.cursor);
            h.write_u64(b.spans.len() as u64);
            for s in &b.spans {
                h.write_u32(s.start);
                h.write_u32(s.end);
                h.write_u64(s.at.as_ps());
            }
        }
        h.write_u64(self.weak.len() as u64);
        for &(_, last) in &self.weak {
            h.write_u64(last.as_ps());
        }
        h.write_u64(self.violations.len() as u64);
        for v in &self.violations {
            h.write_u8(match v.kind {
                ViolationKind::LateRefresh => 0,
                ViolationKind::StaleAtEnd => 1,
                ViolationKind::WeakRow => 2,
            });
            h.write_u32(v.flat_bank);
            h.write_u32(v.row_start);
            h.write_u32(v.row_end);
            h.write_u64(v.interval.as_ps());
            h.write_u64(v.limit.as_ps());
            h.write_u64(v.at.as_ps());
        }
        h.write_u64(self.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(limit_us: u64, slack_us: u64) -> IntegrityConfig {
        IntegrityConfig {
            limit: Ps::from_us(limit_us),
            slack: Ps::from_us(slack_us),
        }
    }

    /// Sweeps bank 0 fully in `cmds` commands ending near `end`.
    fn sweep(t: &mut RetentionTracker, rows_per_bank: u32, cmds: u32, start: Ps, period: Ps) {
        let per = rows_per_bank / cmds;
        for i in 0..cmds {
            t.on_refresh(0, per, start + period * i as u64).unwrap();
        }
    }

    #[test]
    fn clean_periodic_sweeps_have_no_violations() {
        let mut t = RetentionTracker::new(1, 64, cfg(64, 1));
        // 8 commands of 8 rows per window, window = 64us.
        for w in 0..4u64 {
            sweep(&mut t, 64, 8, Ps::from_us(64 * w), Ps::from_us(8));
        }
        t.finalize(Ps::from_us(256));
        assert!(t.is_clean(), "{:?}", t.violations());
    }

    #[test]
    fn late_re_refresh_is_flagged_with_interval() {
        let mut t = RetentionTracker::new(1, 64, cfg(64, 1));
        sweep(&mut t, 64, 8, Ps::ZERO, Ps::from_us(8));
        // Second sweep 10us late: every span interval = 74us > 65us.
        sweep(&mut t, 64, 8, Ps::from_us(74), Ps::from_us(8));
        assert!(!t.is_clean());
        let v = t.violations()[0];
        assert_eq!(v.kind, ViolationKind::LateRefresh);
        assert_eq!(v.interval, Ps::from_us(74));
        assert_eq!(v.limit, Ps::from_us(64));
    }

    #[test]
    fn slack_absorbs_bounded_lateness() {
        let mut t = RetentionTracker::new(1, 64, cfg(64, 12));
        sweep(&mut t, 64, 8, Ps::ZERO, Ps::from_us(8));
        sweep(&mut t, 64, 8, Ps::from_us(74), Ps::from_us(8));
        assert!(t.is_clean(), "{:?}", t.violations());
    }

    #[test]
    fn skipped_command_shifts_coverage_and_is_caught() {
        let mut t = RetentionTracker::new(1, 64, cfg(64, 1));
        // Sweep 1 complete; sweep 2 misses one command (only 7 of 8), so
        // the sweep cursor lags 8 rows: sweep 3's commands re-cover every
        // span 72us after its last refresh — past the 65us threshold.
        sweep(&mut t, 64, 8, Ps::ZERO, Ps::from_us(8));
        for i in 0..7u64 {
            t.on_refresh(0, 8, Ps::from_us(64) + Ps::from_us(8) * i)
                .unwrap();
        }
        sweep(&mut t, 64, 8, Ps::from_us(128), Ps::from_us(8));
        assert!(!t.is_clean());
        assert_eq!(t.violations()[0].kind, ViolationKind::LateRefresh);
        assert_eq!(t.violations()[0].interval, Ps::from_us(72));
        assert_eq!(
            t.violations()[0].row_start,
            56,
            "the lagged tail rows violate first"
        );
    }

    #[test]
    fn never_refreshed_rows_are_stale_at_end() {
        let mut t = RetentionTracker::new(2, 64, cfg(64, 1));
        // Bank 0 swept every window; bank 1 never touched.
        sweep(&mut t, 64, 8, Ps::ZERO, Ps::from_us(8));
        sweep(&mut t, 64, 8, Ps::from_us(64), Ps::from_us(8));
        t.finalize(Ps::from_us(125));
        let stale: Vec<_> = t
            .violations()
            .iter()
            .filter(|v| v.kind == ViolationKind::StaleAtEnd)
            .collect();
        assert!(!stale.is_empty());
        assert!(stale.iter().all(|v| v.flat_bank == 1));
    }

    #[test]
    fn weak_row_violates_under_normal_schedule() {
        let mut t = RetentionTracker::new(1, 64, cfg(64, 1));
        t.set_weak_rows(&[WeakRow {
            flat_bank: 0,
            row: 17,
            limit: Ps::from_us(20),
        }]);
        sweep(&mut t, 64, 8, Ps::ZERO, Ps::from_us(8));
        sweep(&mut t, 64, 8, Ps::from_us(64), Ps::from_us(8));
        let weak: Vec<_> = t
            .violations()
            .iter()
            .filter(|v| v.kind == ViolationKind::WeakRow)
            .collect();
        assert!(
            !weak.is_empty(),
            "weak row must violate under a tREFW-period schedule"
        );
        assert_eq!(weak[0].row_start, 17);
        assert_eq!(weak[0].limit, Ps::from_us(20));
    }

    #[test]
    fn wrap_around_coverage_is_exact() {
        let mut t = RetentionTracker::new(1, 10, cfg(64, 1));
        // Commands of 4 rows over a 10-row bank force wrap splits.
        for i in 0..25u64 {
            t.on_refresh(0, 4, Ps::from_us(6 * i)).unwrap();
        }
        t.finalize(Ps::from_us(150));
        assert!(t.is_clean(), "{:?}", t.violations());
    }

    #[test]
    fn refresh_faults_lookup() {
        let f = RefreshFaults {
            skip: vec![3, 10, 11],
            delay: vec![(5, Ps::from_us(2))],
            weak_rows: vec![],
        };
        assert!(f.skips(10) && !f.skips(4));
        assert_eq!(f.delay_for(5), Ps::from_us(2));
        assert_eq!(f.delay_for(6), Ps::ZERO);
        assert!(!f.is_empty());
        assert!(RefreshFaults::default().is_empty());
    }

    #[test]
    fn detail_cap_keeps_counting() {
        let mut t = RetentionTracker::new(1, 4, cfg(1, 0));
        for i in 0..200u64 {
            // Every command violates (period 10us >> 1us limit).
            t.on_refresh(0, 4, Ps::from_us(10 * (i + 1))).unwrap();
        }
        assert_eq!(t.violations().len(), DETAIL_CAP);
        assert_eq!(t.total_violations(), 200);
    }
}
