//! Analytical out-of-order core timing model.
//!
//! Instead of simulating a pipeline cycle-by-cycle, the model applies the
//! standard *interval analysis* of out-of-order processors: the core
//! issues instructions at a base rate; long-latency loads overlap with
//! execution (memory-level parallelism) until either the reorder buffer
//! fills behind the oldest outstanding load or the MSHRs are exhausted,
//! at which point the core stalls until that miss returns. Dependent
//! (pointer-chase) loads serialize immediately.
//!
//! Time is core-local [`Ps`]; the surrounding system fast-forwards a
//! stalled context to the completion instant reported by the memory
//! controller.

use std::collections::VecDeque;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use refsim_dram::request::ReqId;
use refsim_dram::time::Ps;

/// Core shape and latency parameters (Table 1 defaults via
/// [`CoreConfig::table1`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Core clock period.
    pub period: Ps,
    /// Average picoseconds per instruction in the absence of memory
    /// stalls (base CPI × period).
    pub base_ppi: Ps,
    /// Reorder-buffer capacity in instructions.
    pub rob: u64,
    /// Maximum outstanding LLC misses (MSHRs).
    pub mshrs: usize,
    /// Effective exposed penalty of an L2 hit (partially hidden by OoO).
    pub l2_hit_penalty: Ps,
}

impl CoreConfig {
    /// The paper's core: 3.2 GHz, 8-wide issue, 128-entry ROB. Base CPI
    /// of 0.5 reflects typical SPEC issue-limited throughput; 16 MSHRs;
    /// 5-cycle exposed L2-hit penalty.
    pub fn table1() -> Self {
        let period = Ps::from_ps(312); // 3.2 GHz, rounded to whole ps
        CoreConfig {
            period,
            base_ppi: Ps::from_ps(156), // CPI 0.5
            rob: 128,
            mshrs: 16,
            l2_hit_penalty: Ps::from_ps(312 * 5),
        }
    }

    /// Cycles represented by a duration under this core's clock.
    pub fn cycles(&self, d: Ps) -> u64 {
        d.as_ps() / self.period.as_ps()
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if any field is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.period == Ps::ZERO || self.base_ppi == Ps::ZERO {
            return Err("period and base_ppi must be non-zero".to_owned());
        }
        if self.rob == 0 || self.mshrs == 0 {
            return Err("rob and mshrs must be non-zero".to_owned());
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::table1()
    }
}

/// An in-flight LLC miss tracked by the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Outstanding {
    id: ReqId,
    /// Instruction position of the access.
    pos: u64,
    /// Loads block retirement at the ROB head; store fills do not.
    is_load: bool,
}

/// A consistent point-in-time snapshot of an [`ExecContext`]'s
/// observable counters (see [`ExecContext::probe`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreProbe {
    /// Core-local current time.
    pub now: Ps,
    /// Instructions issued so far.
    pub instructions: u64,
    /// Total time spent stalled on memory.
    pub stall_time: Ps,
    /// LLC misses issued.
    pub misses: u64,
    /// In-flight misses right now.
    pub outstanding: u64,
}

/// Why the context cannot issue further instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The ROB filled behind this outstanding load.
    RobFull(ReqId),
    /// All MSHRs are occupied; waiting for the oldest miss.
    MshrFull(ReqId),
    /// A dependent (serializing) load must return before anything else.
    Dependent(ReqId),
}

impl StallReason {
    /// The request whose completion unblocks the context.
    pub fn blocking_request(&self) -> ReqId {
        match *self {
            StallReason::RobFull(id) | StallReason::MshrFull(id) | StallReason::Dependent(id) => id,
        }
    }
}

/// Per-task execution timing state (saved/restored across context
/// switches; the hardware core itself is stateless between quanta apart
/// from caches).
///
/// # Examples
///
/// ```
/// use refsim_cpu::core::{CoreConfig, ExecContext};
/// use refsim_dram::time::Ps;
///
/// let cfg = CoreConfig::table1();
/// let mut ctx = ExecContext::new();
/// ctx.execute(&cfg, 1000); // a thousand ALU instructions
/// assert_eq!(ctx.now(), cfg.base_ppi * 1000);
/// assert_eq!(ctx.instructions(), 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    now: Ps,
    issued: u64,
    outstanding: VecDeque<Outstanding>,
    dependent_block: Option<ReqId>,
    /// Cumulative time spent stalled on memory.
    stall_time: Ps,
    /// Number of LLC misses issued.
    misses: u64,
}

impl ExecContext {
    /// A fresh context at local time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams the full context state into `h` for state hashing: local
    /// time, instructions issued, the in-flight misses as `(request id,
    /// instruction position, is_load)` (length-prefixed), the blocking
    /// serializing load (one tag byte, then its id), stall time and LLC
    /// misses.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.now.as_ps());
        h.write_u64(self.issued);
        h.write_u64(self.outstanding.len() as u64);
        for o in &self.outstanding {
            h.write_u64(o.id.0);
            h.write_u64(o.pos);
            h.write_u8(u8::from(o.is_load));
        }
        h.write_u8(u8::from(self.dependent_block.is_some()));
        if let Some(id) = self.dependent_block {
            h.write_u64(id.0);
        }
        h.write_u64(self.stall_time.as_ps());
        h.write_u64(self.misses);
    }

    /// Core-local current time.
    #[inline]
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Sets the local clock (context-switch restore).
    pub fn set_now(&mut self, t: Ps) {
        debug_assert!(t >= self.now, "context time went backwards");
        self.now = t;
    }

    /// Instructions issued so far.
    pub fn instructions(&self) -> u64 {
        self.issued
    }

    /// Total time this context has spent stalled on memory.
    pub fn stall_time(&self) -> Ps {
        self.stall_time
    }

    /// LLC misses issued by this context.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of in-flight misses.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// One-call snapshot of the context's observable counters, for
    /// auditors that sample every core each quantum and need a
    /// consistent view without four separate accessor calls.
    pub fn probe(&self) -> CoreProbe {
        CoreProbe {
            now: self.now,
            instructions: self.issued,
            stall_time: self.stall_time,
            misses: self.misses,
            outstanding: self.outstanding.len() as u64,
        }
    }

    /// Advances through `n` non-memory instructions.
    #[inline]
    pub fn execute(&mut self, cfg: &CoreConfig, n: u64) {
        self.issued += n;
        self.now += cfg.base_ppi * n;
    }

    /// Accounts one memory instruction that hit the L1 (fully pipelined —
    /// cost is part of the base CPI).
    #[inline]
    pub fn on_l1_hit(&mut self, _cfg: &CoreConfig) {
        self.issued += 1;
    }

    /// Accounts one memory instruction that hit the L2.
    #[inline]
    pub fn on_l2_hit(&mut self, cfg: &CoreConfig) {
        self.issued += 1;
        self.now += cfg.l2_hit_penalty;
    }

    /// Registers an LLC miss issued to the memory system as request `id`.
    ///
    /// `is_load` marks demand loads (block retirement); store fills only
    /// occupy an MSHR. `dependent` marks serializing loads.
    ///
    /// Returns the stall that now binds, if any; the caller must wait for
    /// the blocking request to complete (via
    /// [`ExecContext::on_completion`]) before issuing more work.
    pub fn on_miss(
        &mut self,
        cfg: &CoreConfig,
        id: ReqId,
        is_load: bool,
        dependent: bool,
    ) -> Option<StallReason> {
        self.issued += 1;
        self.misses += 1;
        self.outstanding.push_back(Outstanding {
            id,
            pos: self.issued,
            is_load,
        });
        if dependent && is_load {
            self.dependent_block = Some(id);
        }
        self.stall(cfg)
    }

    /// The stall currently binding, if any.
    #[inline]
    pub fn stall(&self, cfg: &CoreConfig) -> Option<StallReason> {
        if let Some(id) = self.dependent_block {
            return Some(StallReason::Dependent(id));
        }
        if self.outstanding.len() >= cfg.mshrs {
            return Some(StallReason::MshrFull(
                self.outstanding.front().expect("mshrs > 0").id,
            ));
        }
        // ROB: the oldest un-returned *load* pins the ROB tail.
        if let Some(oldest_load) = self.outstanding.iter().find(|o| o.is_load) {
            if self.issued - oldest_load.pos >= cfg.rob {
                return Some(StallReason::RobFull(oldest_load.id));
            }
        }
        None
    }

    /// How many further instructions (memory or not) can issue before any
    /// stall could possibly bind, assuming no new miss is registered. The
    /// batched core loop uses this to run stall-check-free bursts: while
    /// the headroom covers the next op's instruction count, `stall()` is
    /// guaranteed `None` at every intermediate decision point the
    /// reference per-op loop would have checked.
    ///
    /// Zero means a stall binds right now (dependent block or MSHRs
    /// full); `u64::MAX` means nothing outstanding can ever bind.
    #[inline]
    pub fn issue_headroom(&self, cfg: &CoreConfig) -> u64 {
        if self.dependent_block.is_some() || self.outstanding.len() >= cfg.mshrs {
            return 0;
        }
        match self.outstanding.iter().find(|o| o.is_load) {
            // ROB fills when `issued - pos >= rob`: exactly
            // `pos + rob - issued` more instructions may issue first.
            Some(oldest_load) => (oldest_load.pos + cfg.rob).saturating_sub(self.issued),
            None => u64::MAX,
        }
    }

    /// Records the completion of request `id` at absolute instant `at`.
    ///
    /// If the context was stalled on `id`, its clock jumps to `at` and
    /// the stall time is accounted.
    pub fn on_completion(&mut self, cfg: &CoreConfig, id: ReqId, at: Ps) {
        let was_blocking = self.stall(cfg).map(|s| s.blocking_request()) == Some(id);
        self.outstanding.retain(|o| o.id != id);
        if self.dependent_block == Some(id) {
            self.dependent_block = None;
        }
        if was_blocking && at > self.now {
            self.stall_time += at - self.now;
            self.now = at;
        }
    }

    /// The next instant this context can execute work on its own, or
    /// `None` while a stall binds (only a completion can wake it — the
    /// context has no timer-like events of its own).
    ///
    /// The event-horizon engine uses this to bound clock skips: an
    /// unstalled context is inert until the simulation step containing
    /// `now`, a stalled one until its blocking request completes.
    pub fn next_event_time(&self, cfg: &CoreConfig) -> Option<Ps> {
        if self.stall(cfg).is_some() {
            None
        } else {
            Some(self.now)
        }
    }

    /// Requests still in flight (drained by the system when a task exits).
    pub fn in_flight(&self) -> impl Iterator<Item = ReqId> + '_ {
        self.outstanding.iter().map(|o| o.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CoreConfig {
        CoreConfig::table1()
    }

    #[test]
    fn table1_validates() {
        assert!(cfg().validate().is_ok());
        let mut c = cfg();
        c.rob = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn execute_advances_at_base_cpi() {
        let mut ctx = ExecContext::new();
        ctx.execute(&cfg(), 2000);
        assert_eq!(ctx.now(), cfg().base_ppi * 2000);
        assert_eq!(ctx.instructions(), 2000);
        assert_eq!(ctx.stall_time(), Ps::ZERO);
    }

    #[test]
    fn l2_hit_costs_penalty() {
        let mut ctx = ExecContext::new();
        ctx.on_l2_hit(&cfg());
        assert_eq!(ctx.now(), cfg().l2_hit_penalty);
        ctx.on_l1_hit(&cfg());
        assert_eq!(ctx.instructions(), 2);
    }

    #[test]
    fn independent_misses_overlap_up_to_rob() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        // First miss: no stall (ROB has room, MSHRs free).
        assert_eq!(ctx.on_miss(&c, ReqId(1), true, false), None);
        // Execute fewer than ROB instructions: still no stall.
        ctx.execute(&c, c.rob - 1);
        assert_eq!(ctx.stall(&c), None);
        // One more instruction fills the ROB behind the load.
        ctx.execute(&c, 1);
        assert_eq!(ctx.stall(&c), Some(StallReason::RobFull(ReqId(1))));
    }

    #[test]
    fn completion_unblocks_and_accounts_stall() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        ctx.on_miss(&c, ReqId(7), true, false);
        ctx.execute(&c, c.rob);
        let stall_at = ctx.now();
        assert!(matches!(ctx.stall(&c), Some(StallReason::RobFull(_))));
        let done = stall_at + Ps::from_ns(100);
        ctx.on_completion(&c, ReqId(7), done);
        assert_eq!(ctx.now(), done);
        assert_eq!(ctx.stall_time(), Ps::from_ns(100));
        assert_eq!(ctx.stall(&c), None);
    }

    #[test]
    fn early_completion_does_not_rewind_clock() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        ctx.on_miss(&c, ReqId(7), true, false);
        ctx.execute(&c, 10);
        let t = ctx.now();
        // Completion in the past (already absorbed): no jump, no stall.
        ctx.on_completion(&c, ReqId(7), Ps::ZERO);
        assert_eq!(ctx.now(), t);
        assert_eq!(ctx.stall_time(), Ps::ZERO);
    }

    #[test]
    fn mshr_exhaustion_blocks_on_oldest() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        for i in 0..c.mshrs as u64 {
            // Stores: no ROB blocking, so only MSHRs bind.
            let stall = ctx.on_miss(&c, ReqId(i), false, false);
            if i < c.mshrs as u64 - 1 {
                assert_eq!(stall, None, "miss {i}");
            } else {
                assert_eq!(stall, Some(StallReason::MshrFull(ReqId(0))));
            }
        }
        assert_eq!(ctx.outstanding_count(), c.mshrs);
        ctx.on_completion(&c, ReqId(0), Ps::from_ns(50));
        assert_eq!(ctx.stall(&c), None);
    }

    #[test]
    fn store_fills_do_not_block_rob() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        ctx.on_miss(&c, ReqId(1), false, false);
        ctx.execute(&c, c.rob * 4);
        assert_eq!(ctx.stall(&c), None, "stores retire early");
    }

    #[test]
    fn dependent_load_serializes() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        let stall = ctx.on_miss(&c, ReqId(9), true, true);
        assert_eq!(stall, Some(StallReason::Dependent(ReqId(9))));
        ctx.on_completion(&c, ReqId(9), Ps::from_ns(80));
        assert_eq!(ctx.stall(&c), None);
        assert_eq!(ctx.stall_time(), Ps::from_ns(80));
    }

    #[test]
    fn completions_can_arrive_out_of_order() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        ctx.on_miss(&c, ReqId(1), true, false);
        ctx.on_miss(&c, ReqId(2), true, false);
        ctx.on_completion(&c, ReqId(2), Ps::from_ns(10));
        assert_eq!(ctx.outstanding_count(), 1);
        ctx.on_completion(&c, ReqId(1), Ps::from_ns(20));
        assert_eq!(ctx.outstanding_count(), 0);
    }

    #[test]
    fn issue_headroom_matches_stall_boundary() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        assert_eq!(ctx.issue_headroom(&c), u64::MAX, "nothing outstanding");
        ctx.on_miss(&c, ReqId(1), true, false);
        // Walk instruction by instruction: headroom must hit zero on
        // exactly the instruction where stall() starts binding.
        loop {
            let headroom = ctx.issue_headroom(&c);
            match ctx.stall(&c) {
                None => assert!(headroom > 0, "stall-free ⇒ headroom > 0"),
                Some(_) => {
                    assert_eq!(headroom, 0);
                    break;
                }
            }
            ctx.execute(&c, 1);
        }
        ctx.on_completion(&c, ReqId(1), ctx.now());
        assert_eq!(ctx.issue_headroom(&c), u64::MAX);
        // MSHR exhaustion and dependent blocks zero the headroom.
        let mut ctx = ExecContext::new();
        for i in 0..c.mshrs as u64 {
            ctx.on_miss(&c, ReqId(i), false, false);
        }
        assert_eq!(ctx.issue_headroom(&c), 0);
        let mut ctx = ExecContext::new();
        ctx.on_miss(&c, ReqId(1), true, true);
        assert_eq!(ctx.issue_headroom(&c), 0);
    }

    #[test]
    fn in_flight_lists_ids() {
        let c = cfg();
        let mut ctx = ExecContext::new();
        ctx.on_miss(&c, ReqId(3), true, false);
        ctx.on_miss(&c, ReqId(4), false, false);
        let ids: Vec<_> = ctx.in_flight().collect();
        assert_eq!(ids, vec![ReqId(3), ReqId(4)]);
    }
}
