//! Refresh scheduling policies.
//!
//! A [`RefreshPolicy`] decides *when* refresh commands are due, *what*
//! they target (a whole rank or a single bank), and exposes a
//! [`BusyForecast`] — the co-design's hardware→software interface telling
//! the OS which bank will be refreshing during an upcoming scheduling
//! quantum (§5.1).
//!
//! Provided policies:
//!
//! | Policy | Paper role |
//! |---|---|
//! | [`NoRefresh`] | ideal reference (Figure 4's "entire tRFC removed") |
//! | [`AllBankPolicy`] | DDR3 rank-level refresh baseline (§2.2.1) |
//! | [`PerBankRoundRobin`] | LPDDR3 per-bank refresh (§2.2.2, Figure 2b) |
//! | [`PerBankSequential`] | **the proposed schedule** (Algorithm 1, Figure 7) |
//! | [`OooPerBank`] | out-of-order per-bank refresh, Chang et al. (§6.5) |
//! | [`AllBankPolicy::fgr`] | DDR4 fine-granularity refresh 1x/2x/4x (§6.3) |
//! | [`AdaptiveRefresh`] | Adaptive Refresh, Mukundan et al. (§6.5) |
//! | [`ElasticRefresh`] | Elastic Refresh, Stuecheli et al. (§7) |

mod adaptive;
mod all_bank;
mod elastic;
mod ooo;
mod per_bank;

pub use adaptive::AdaptiveRefresh;
pub use all_bank::AllBankPolicy;
pub use elastic::{ElasticRefresh, MAX_POSTPONED};
pub use ooo::OooPerBank;
pub use per_bank::{PerBankRoundRobin, PerBankSequential};

use std::fmt;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::geometry::{BankId, Geometry};
use crate::time::Ps;
use crate::timing::{FgrMode, RefreshTiming};

/// A refresh command the controller must execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefreshOp {
    /// Rank-level refresh: every bank in `rank` is locked for `tRFCab`,
    /// covering `rows` rows in each bank.
    AllBank {
        /// Target rank.
        rank: u8,
        /// Rows covered per bank.
        rows: u32,
    },
    /// Bank-level refresh: only `bank` is locked for `tRFCpb`.
    PerBank {
        /// Target bank.
        bank: BankId,
        /// Rows covered.
        rows: u32,
    },
}

impl RefreshOp {
    /// Streams the op into `h` for state hashing: a tag byte (0
    /// all-bank, 1 per-bank), the target rank (and bank), then the rows
    /// covered.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        match *self {
            RefreshOp::AllBank { rank, rows } => {
                h.write_u8(0);
                h.write_u8(rank);
                h.write_u32(rows);
            }
            RefreshOp::PerBank { bank, rows } => {
                h.write_u8(1);
                h.write_u8(bank.rank);
                h.write_u8(bank.bank);
                h.write_u32(rows);
            }
        }
    }

    /// The rank this op targets.
    pub fn rank(&self) -> u8 {
        match *self {
            RefreshOp::AllBank { rank, .. } => rank,
            RefreshOp::PerBank { bank, .. } => bank.rank,
        }
    }

    /// The single bank targeted, or `None` for rank-level ops.
    pub fn bank(&self) -> Option<BankId> {
        match *self {
            RefreshOp::AllBank { .. } => None,
            RefreshOp::PerBank { bank, .. } => Some(bank),
        }
    }
}

/// What the refresh schedule predicts for a future time window — the
/// hardware information exposed to the OS scheduler (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusyForecast {
    /// No refresh activity in the window.
    Idle,
    /// Exactly one, predictable bank refreshes during the window.
    Bank(BankId),
    /// Refresh touches several banks / a whole rank, or the target is
    /// chosen dynamically — the OS cannot dodge it by task choice.
    Unpredictable,
}

/// Snapshot of controller state a policy may consult when selecting a
/// target or deciding to postpone (used by [`OooPerBank`] and
/// [`ElasticRefresh`]).
#[derive(Debug, Clone, Default)]
pub struct QueueSnapshot {
    /// Outstanding requests per bank, indexed by
    /// [`BankId::flat`] (rank-major).
    pub per_bank_queued: Vec<u32>,
    /// Data-bus utilization over the recent epoch, `0.0..=1.0`.
    pub utilization: f64,
}

/// Identifies a refresh policy; used to build one and in reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RefreshPolicyKind {
    /// No refresh at all (ideal bound).
    NoRefresh,
    /// Rank-level (all-bank) refresh — the paper's baseline.
    #[default]
    AllBank,
    /// LPDDR per-bank refresh with round-robin bank order.
    PerBankRoundRobin,
    /// The proposed sequential per-bank schedule (Algorithm 1).
    PerBankSequential,
    /// Out-of-order per-bank refresh (Chang et al.).
    OooPerBank,
    /// DDR4 fine-granularity refresh at the given mode.
    Fgr(FgrMode),
    /// Adaptive Refresh (Mukundan et al.): dynamic 1x↔4x switching.
    Adaptive,
    /// Elastic Refresh (Stuecheli et al.): all-bank refresh postponed
    /// (up to 8 intervals) into idle periods.
    Elastic,
}

impl fmt::Display for RefreshPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefreshPolicyKind::NoRefresh => write!(f, "no-refresh"),
            RefreshPolicyKind::AllBank => write!(f, "all-bank"),
            RefreshPolicyKind::PerBankRoundRobin => write!(f, "per-bank"),
            RefreshPolicyKind::PerBankSequential => write!(f, "co-design(seq-pb)"),
            RefreshPolicyKind::OooPerBank => write!(f, "ooo-per-bank"),
            RefreshPolicyKind::Fgr(m) => write!(f, "ddr4-{m}"),
            RefreshPolicyKind::Adaptive => write!(f, "adaptive-refresh"),
            RefreshPolicyKind::Elastic => write!(f, "elastic-refresh"),
        }
    }
}

/// A refresh scheduling policy driven by the memory controller.
///
/// The controller calls [`next_due`](RefreshPolicy::next_due); once the
/// due instant passes it calls [`select`](RefreshPolicy::select) exactly
/// once to fix the target, issues the command as soon as timing allows,
/// then reports back via [`issued`](RefreshPolicy::issued).
pub trait RefreshPolicy: fmt::Debug + Send {
    /// Which policy this is.
    fn kind(&self) -> RefreshPolicyKind;

    /// Instant the next refresh command becomes due, or `None` if the
    /// policy never refreshes.
    fn next_due(&self) -> Option<Ps>;

    /// Chooses the target of the due refresh. Called once per due event.
    fn select(&mut self, snap: &QueueSnapshot) -> RefreshOp;

    /// Records that `op` was issued at `at` and advances the schedule.
    fn issued(&mut self, op: &RefreshOp, at: Ps);

    /// Duration (`tRFC`) of `op` under this policy's current mode.
    fn duration(&self, op: &RefreshOp) -> Ps;

    /// Periodic bandwidth-utilization feedback (Adaptive Refresh hooks
    /// this; others ignore it).
    fn observe_utilization(&mut self, _utilization: f64, _now: Ps) {}

    /// Predicts refresh activity during `[start, end)` — the co-design's
    /// HW→SW exposure. Only [`PerBankSequential`] returns
    /// [`BusyForecast::Bank`].
    fn forecast(&self, start: Ps, end: Ps) -> BusyForecast;

    /// The next schedule boundary after `t` at which the forecast
    /// changes (the OS aligns its quanta to these; `None` when the
    /// schedule has no meaningful boundaries).
    fn next_boundary(&self, _t: Ps) -> Option<Ps> {
        None
    }

    /// Offers the policy a chance to postpone a refresh that has just
    /// become due (Elastic Refresh hooks this). If the policy pushes its
    /// due time back it returns `true` and the controller re-plans;
    /// policies must bound their postponement internally so refreshes
    /// are eventually forced. The default never postpones.
    fn try_postpone(&mut self, _snap: &QueueSnapshot, _now: Ps) -> bool {
        false
    }

    /// Serializes the policy's dynamic schedule state as raw words for
    /// state hashing (times via [`Ps::as_ps`], floats via `to_bits`).
    /// Stateless policies return an empty vector.
    fn save_words(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// The ideal no-refresh policy (upper bound; Figure 4 reference).
#[derive(Debug, Clone, Default)]
pub struct NoRefresh;

impl RefreshPolicy for NoRefresh {
    fn kind(&self) -> RefreshPolicyKind {
        RefreshPolicyKind::NoRefresh
    }
    fn next_due(&self) -> Option<Ps> {
        None
    }
    fn select(&mut self, _snap: &QueueSnapshot) -> RefreshOp {
        unreachable!("NoRefresh never becomes due")
    }
    fn issued(&mut self, _op: &RefreshOp, _at: Ps) {}
    fn duration(&self, _op: &RefreshOp) -> Ps {
        Ps::ZERO
    }
    fn forecast(&self, _start: Ps, _end: Ps) -> BusyForecast {
        BusyForecast::Idle
    }
}

/// Builds a boxed policy of `kind` for one channel of `geometry` under
/// `timing`.
///
/// FGR kinds internally rescale `timing` per §6.3; callers pass the 1x
/// timing unchanged.
pub fn build_policy(
    kind: RefreshPolicyKind,
    timing: &RefreshTiming,
    geometry: &Geometry,
) -> Box<dyn RefreshPolicy> {
    match kind {
        RefreshPolicyKind::NoRefresh => Box::new(NoRefresh),
        RefreshPolicyKind::AllBank => Box::new(AllBankPolicy::new(timing, geometry)),
        RefreshPolicyKind::PerBankRoundRobin => Box::new(PerBankRoundRobin::new(timing, geometry)),
        RefreshPolicyKind::PerBankSequential => Box::new(PerBankSequential::new(timing, geometry)),
        RefreshPolicyKind::OooPerBank => Box::new(OooPerBank::new(timing, geometry)),
        RefreshPolicyKind::Fgr(mode) => Box::new(AllBankPolicy::fgr(timing, geometry, mode)),
        RefreshPolicyKind::Adaptive => Box::new(AdaptiveRefresh::new(timing, geometry)),
        RefreshPolicyKind::Elastic => Box::new(ElasticRefresh::new(timing, geometry)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Density, Retention};

    #[test]
    fn no_refresh_is_never_due() {
        let p = NoRefresh;
        assert_eq!(p.next_due(), None);
        assert_eq!(p.kind(), RefreshPolicyKind::NoRefresh);
        assert_eq!(p.forecast(Ps::ZERO, Ps::from_ms(1)), BusyForecast::Idle);
        assert_eq!(p.next_boundary(Ps::ZERO), None);
    }

    #[test]
    fn refresh_op_accessors() {
        let ab = RefreshOp::AllBank { rank: 1, rows: 64 };
        assert_eq!(ab.rank(), 1);
        assert_eq!(ab.bank(), None);
        let pb = RefreshOp::PerBank {
            bank: BankId::new(1, 3),
            rows: 64,
        };
        assert_eq!(pb.rank(), 1);
        assert_eq!(pb.bank(), Some(BankId::new(1, 3)));
    }

    #[test]
    fn build_policy_covers_all_kinds() {
        let timing = RefreshTiming::new(Density::Gb32, Retention::Ms64);
        let g = Geometry::default();
        for kind in [
            RefreshPolicyKind::NoRefresh,
            RefreshPolicyKind::AllBank,
            RefreshPolicyKind::PerBankRoundRobin,
            RefreshPolicyKind::PerBankSequential,
            RefreshPolicyKind::OooPerBank,
            RefreshPolicyKind::Fgr(FgrMode::X2),
            RefreshPolicyKind::Adaptive,
            RefreshPolicyKind::Elastic,
        ] {
            let p = build_policy(kind, &timing, &g);
            assert_eq!(p.kind(), kind, "factory must preserve kind");
        }
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(RefreshPolicyKind::AllBank.to_string(), "all-bank");
        assert_eq!(
            RefreshPolicyKind::PerBankSequential.to_string(),
            "co-design(seq-pb)"
        );
        assert_eq!(RefreshPolicyKind::Fgr(FgrMode::X4).to_string(), "ddr4-4x");
    }
}
