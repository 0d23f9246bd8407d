//! The process scheduler: baseline CFS and the paper's refresh-aware
//! `pick_next_task` (Algorithm 3).

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use refsim_dram::time::Ps;

use crate::bank_alloc::BankVector;
use crate::cfs::CfsRunqueue;
use crate::task::{Task, TaskId, TaskState};

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Baseline CFS: always pick the leftmost task (with equal weights
    /// and equal time slices this degenerates to round-robin, matching
    /// the paper's baseline, footnote 10).
    Cfs,
    /// Algorithm 3: skip runnable tasks that would touch the bank being
    /// refreshed in the upcoming quantum.
    RefreshAware {
        /// Fairness threshold `η_thresh` (§5.4): after examining this
        /// many candidates the scheduler falls back to the leftmost task.
        /// `1` disables refresh awareness entirely.
        eta_thresh: u32,
        /// §5.4.1's best-effort variant for high-footprint tasks: when no
        /// task fully avoids the bank, pick the examined candidate with
        /// the least data on it (instead of simply the leftmost).
        best_effort: bool,
    },
}

impl SchedPolicy {
    /// The co-design default: η = 4, best-effort enabled. η must be at
    /// least the consolidation ratio (tasks per core) for the scheduler
    /// to always reach the one task group whose exclusion window covers
    /// the bank being refreshed; with the paper's 1:4 ratio that is 4.
    pub fn refresh_aware() -> Self {
        SchedPolicy::RefreshAware {
            eta_thresh: 4,
            best_effort: true,
        }
    }
}

/// Scheduler counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// `pick_next` invocations.
    pub picks: u64,
    /// Picks where a refresh-colliding task was skipped over.
    pub refresh_dodges: u64,
    /// Picks where η forced the fairness fallback.
    pub eta_fallbacks: u64,
    /// Tasks migrated by the load balancer.
    pub migrations: u64,
}

impl SchedStats {
    /// Streams the four counters, in declaration order, into `h` for
    /// state hashing.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.picks);
        h.write_u64(self.refresh_dodges);
        h.write_u64(self.eta_fallbacks);
        h.write_u64(self.migrations);
    }
}

/// Per-CPU-runqueue process scheduler.
///
/// # Examples
///
/// ```
/// use refsim_os::bank_alloc::BankVector;
/// use refsim_os::sched::{SchedPolicy, Scheduler};
/// use refsim_os::task::{Task, TaskId};
/// use refsim_dram::time::Ps;
///
/// let mut sched = Scheduler::new(SchedPolicy::Cfs, Ps::from_ms(4), 2);
/// let mut t = Task::new(TaskId(0), "mcf", 0, BankVector::all(16), 16);
/// sched.enqueue(&mut t);
/// let picked = sched.pick_next(0, BankVector::EMPTY, &mut [t]);
/// assert_eq!(picked, Some(TaskId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedPolicy,
    timeslice: Ps,
    queues: Vec<CfsRunqueue>,
    stats: SchedStats,
}

impl Scheduler {
    /// Creates a scheduler for `cpus` CPUs with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or the timeslice is zero.
    pub fn new(policy: SchedPolicy, timeslice: Ps, cpus: u32) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        assert!(timeslice > Ps::ZERO, "timeslice must be positive");
        Scheduler {
            policy,
            timeslice,
            queues: (0..cpus).map(|_| CfsRunqueue::new()).collect(),
            stats: SchedStats::default(),
        }
    }

    /// The scheduling quantum.
    pub fn timeslice(&self) -> Ps {
        self.timeslice
    }

    /// The policy in effect.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Counters.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> u32 {
        self.queues.len() as u32
    }

    /// Runnable tasks on `cpu`.
    pub fn queue_len(&self, cpu: u32) -> usize {
        self.queues[cpu as usize].len()
    }

    /// Makes `task` runnable on its CPU. New/woken tasks are floored to
    /// the queue's `min_vruntime` so they cannot starve incumbents.
    pub fn enqueue(&mut self, task: &mut Task) {
        let rq = &mut self.queues[task.cpu as usize];
        task.vruntime = task.vruntime.max(rq.min_vruntime());
        task.state = TaskState::Runnable;
        rq.insert(task.vruntime, task.id);
    }

    /// Picks the next task for `cpu` (Algorithm 3 when refresh-aware).
    ///
    /// `refresh_banks` is the set of global banks the hardware will
    /// refresh during the upcoming quantum — at most one bank per
    /// channel, populated only when the refresh schedule makes the bank
    /// predictable (the co-design exposure; empty under conventional
    /// schedules). At one channel this degenerates to the paper's
    /// single-bank Algorithm 3 exactly. The picked task is removed from
    /// the queue and marked [`TaskState::Running`].
    pub fn pick_next(
        &mut self,
        cpu: u32,
        refresh_banks: BankVector,
        tasks: &mut [Task],
    ) -> Option<TaskId> {
        self.stats.picks += 1;
        let rq = &mut self.queues[cpu as usize];
        if rq.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            SchedPolicy::Cfs => {
                // Emptiness was checked above; treat a desynchronized
                // queue as "nothing runnable" instead of aborting.
                rq.leftmost()?
            }
            SchedPolicy::RefreshAware { .. } if refresh_banks.is_empty() => rq.leftmost()?,
            SchedPolicy::RefreshAware {
                eta_thresh,
                best_effort,
            } => {
                // Algorithm 3: walk candidates left-to-right; take the
                // first whose possible_banks_vector excludes every bank
                // being refreshed; after η candidates, fall back.
                let mut first_entity = None;
                let mut found = None;
                let mut best: Option<(u64, TaskId)> = None; // (bytes on busy banks, id)
                let mut examined = 0;
                for (_, id) in rq.iter() {
                    let t = &tasks[id.0 as usize];
                    examined += 1;
                    if first_entity.is_none() {
                        first_entity = Some(id);
                    }
                    if t.avoids_banks(refresh_banks) {
                        found = Some(id);
                        break;
                    }
                    let bytes = t.bytes_on_banks(refresh_banks);
                    if best.is_none_or(|(bb, _)| bytes < bb) {
                        best = Some((bytes, id));
                    }
                    if examined >= eta_thresh {
                        break;
                    }
                }
                match found {
                    Some(id) => {
                        if examined > 1 {
                            self.stats.refresh_dodges += 1;
                        }
                        id
                    }
                    None => {
                        self.stats.eta_fallbacks += 1;
                        // The walk examined >= 1 entity (queue is
                        // non-empty), so both fallbacks are Some; bail
                        // out gracefully if that ever stops holding.
                        if best_effort {
                            best?.1
                        } else {
                            first_entity?
                        }
                    }
                }
            }
        };
        let t = &mut tasks[chosen.0 as usize];
        let removed = rq.remove(t.vruntime, chosen);
        debug_assert!(removed, "picked task must be queued");
        t.state = TaskState::Running;
        t.schedules += 1;
        Some(chosen)
    }

    /// Returns a preempted task to its queue after running for `ran`.
    pub fn requeue(&mut self, task: &mut Task, ran: Ps) {
        task.vruntime += ran;
        task.cpu_time += ran;
        self.enqueue(task);
    }

    /// Removes a task from scheduling (exit/sleep) after running for
    /// `ran`.
    pub fn block(&mut self, task: &mut Task, ran: Ps) {
        task.vruntime += ran;
        task.cpu_time += ran;
        task.state = TaskState::Blocked;
    }

    /// CFS-style load balancing: move tasks from the longest queue to
    /// the shortest until counts differ by at most one. Returns the
    /// number of migrations performed.
    pub fn balance(&mut self, tasks: &mut [Task]) -> u64 {
        let mut moved = 0;
        loop {
            let lens = (0..self.queues.len()).map(|c| (c, self.queues[c].len()));
            let Some((max_cpu, max_len)) = lens.clone().max_by_key(|&(_, l)| l) else {
                break; // no CPUs: nothing to balance
            };
            let Some((min_cpu, min_len)) = lens.clone().min_by_key(|&(_, l)| l) else {
                break;
            };
            if max_len <= min_len + 1 {
                break;
            }
            let Some((v, id)) = self.queues[max_cpu].pop_rightmost() else {
                break; // max_len >= 2 implies non-empty; stop if not
            };
            let t = &mut tasks[id.0 as usize];
            t.cpu = min_cpu as u32;
            // Re-floor into the destination queue.
            t.vruntime = v.max(self.queues[min_cpu].min_vruntime());
            self.queues[min_cpu].insert(t.vruntime, id);
            moved += 1;
            self.stats.migrations += 1;
        }
        moved
    }

    /// Streams the per-CPU runqueues (length-prefixed) and the counters
    /// into `h` for state hashing. The policy and timeslice are
    /// configuration.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.queues.len() as u64);
        for q in &self.queues {
            q.hash_state(h);
        }
        self.stats.hash_state(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank_alloc::BankVector;

    fn mk_tasks(n: u32, cpu: u32, banks: &[BankVector]) -> Vec<Task> {
        (0..n)
            .map(|i| {
                Task::new(
                    TaskId(i),
                    format!("t{i}"),
                    cpu,
                    banks[i as usize % banks.len()],
                    16,
                )
            })
            .collect()
    }

    #[test]
    fn cfs_round_robins_under_equal_slices() {
        let mut s = Scheduler::new(SchedPolicy::Cfs, Ps::from_ms(4), 1);
        let mut tasks = mk_tasks(3, 0, &[BankVector::all(16)]);
        for t in &mut tasks {
            s.enqueue(t);
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let id = s.pick_next(0, BankVector::EMPTY, &mut tasks).unwrap();
            order.push(id.0);
            let slice = s.timeslice();
            s.requeue(&mut tasks[id.0 as usize], slice);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        // Equal CPU time so far.
        assert!(tasks.iter().all(|t| t.cpu_time == Ps::from_ms(8)));
    }

    #[test]
    fn refresh_aware_skips_colliding_task() {
        // Task 0 may touch bank 0; task 1 is confined away from bank 0.
        let banks = [
            BankVector::all(8),                // task 0: uses bank 0
            (1u32..8).collect::<BankVector>(), // task 1: avoids bank 0
        ];
        let mut s = Scheduler::new(SchedPolicy::refresh_aware(), Ps::from_ms(4), 1);
        let mut tasks = mk_tasks(2, 0, &banks);
        for t in &mut tasks {
            s.enqueue(t);
        }
        // Bank 0 will refresh: task 1 must be chosen although task 0 is
        // leftmost.
        let id = s.pick_next(0, BankVector::single(0), &mut tasks).unwrap();
        assert_eq!(id, TaskId(1));
        assert_eq!(s.stats().refresh_dodges, 1);
        // Without a predictable refresh bank, leftmost wins.
        s.requeue(&mut tasks[1], Ps::from_ms(4));
        let id = s.pick_next(0, BankVector::EMPTY, &mut tasks).unwrap();
        assert_eq!(id, TaskId(0));
    }

    #[test]
    fn eta_threshold_forces_fallback() {
        // All tasks collide with bank 0; η = 2 examines two then falls
        // back to the leftmost.
        let mut s = Scheduler::new(
            SchedPolicy::RefreshAware {
                eta_thresh: 2,
                best_effort: false,
            },
            Ps::from_ms(4),
            1,
        );
        let mut tasks = mk_tasks(3, 0, &[BankVector::all(16)]);
        for t in &mut tasks {
            s.enqueue(t);
        }
        let id = s.pick_next(0, BankVector::single(0), &mut tasks).unwrap();
        assert_eq!(id, TaskId(0), "fairness fallback to leftmost");
        assert_eq!(s.stats().eta_fallbacks, 1);
    }

    #[test]
    fn best_effort_picks_least_data_on_bank() {
        let mut s = Scheduler::new(SchedPolicy::refresh_aware(), Ps::from_ms(4), 1);
        let mut tasks = mk_tasks(3, 0, &[BankVector::all(16)]);
        // All collide (bank 0 permitted); task 2 has the least data there.
        tasks[0].note_page(0, false);
        tasks[0].note_page(0, false);
        tasks[1].note_page(0, false);
        tasks[1].note_page(0, false);
        tasks[1].note_page(0, false);
        tasks[2].note_page(0, false);
        for t in &mut tasks {
            s.enqueue(t);
        }
        let id = s.pick_next(0, BankVector::single(0), &mut tasks).unwrap();
        assert_eq!(id, TaskId(2), "least bytes on the refreshing bank");
    }

    #[test]
    fn eta_of_one_disables_refresh_awareness() {
        let banks = [BankVector::all(8), (1u32..8).collect::<BankVector>()];
        let mut s = Scheduler::new(
            SchedPolicy::RefreshAware {
                eta_thresh: 1,
                best_effort: false,
            },
            Ps::from_ms(4),
            1,
        );
        let mut tasks = mk_tasks(2, 0, &banks);
        for t in &mut tasks {
            s.enqueue(t);
        }
        // η = 1: examine one candidate (the leftmost, which collides) and
        // immediately fall back to it.
        let id = s.pick_next(0, BankVector::single(0), &mut tasks).unwrap();
        assert_eq!(id, TaskId(0));
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut s = Scheduler::new(SchedPolicy::Cfs, Ps::from_ms(4), 2);
        assert_eq!(s.pick_next(1, BankVector::EMPTY, &mut []), None);
    }

    #[test]
    fn vruntime_floor_prevents_starvation_by_new_task() {
        let mut s = Scheduler::new(SchedPolicy::Cfs, Ps::from_ms(4), 1);
        let mut tasks = mk_tasks(2, 0, &[BankVector::all(16)]);
        s.enqueue(&mut tasks[0]);
        // Task 0 runs for a long time.
        let id = s.pick_next(0, BankVector::EMPTY, &mut tasks).unwrap();
        s.requeue(&mut tasks[id.0 as usize], Ps::from_ms(400));
        // A newly woken task starts at the queue floor (task 0's new
        // vruntime), not at zero — so it cannot monopolize the CPU; the
        // two tasks tie and then alternate.
        s.enqueue(&mut tasks[1]);
        assert_eq!(tasks[1].vruntime, Ps::from_ms(400));
        let first = s.pick_next(0, BankVector::EMPTY, &mut tasks).unwrap();
        assert_eq!(first, TaskId(0), "tie broken by id");
        s.requeue(&mut tasks[0], Ps::from_ms(4));
        let second = s.pick_next(0, BankVector::EMPTY, &mut tasks).unwrap();
        assert_eq!(second, TaskId(1));
    }

    #[test]
    fn balance_equalizes_queues() {
        let mut s = Scheduler::new(SchedPolicy::Cfs, Ps::from_ms(4), 2);
        let mut tasks = mk_tasks(4, 0, &[BankVector::all(16)]);
        for t in &mut tasks {
            s.enqueue(t); // all on CPU 0
        }
        assert_eq!(s.queue_len(0), 4);
        assert_eq!(s.queue_len(1), 0);
        let moved = s.balance(&mut tasks);
        assert_eq!(moved, 2);
        assert_eq!(s.queue_len(0), 2);
        assert_eq!(s.queue_len(1), 2);
        // Migrated tasks know their new CPU.
        let on1 = tasks.iter().filter(|t| t.cpu == 1).count();
        assert_eq!(on1, 2);
    }

    #[test]
    fn eta_fallback_counter_is_monotone_and_bounded_by_picks() {
        // Multiprogrammed mix: unconfined tasks (collide with every
        // refresh bank) interleaved with partially confined ones, under
        // a rotating refresh bank with occasional unpredictable quanta.
        let banks = [
            BankVector::all(8),                // collides with everything
            (1u32..8).collect::<BankVector>(), // avoids bank 0
            BankVector::all(8),
            (4u32..8).collect::<BankVector>(), // avoids banks 0–3
        ];
        let mut s = Scheduler::new(SchedPolicy::refresh_aware(), Ps::from_ms(4), 1);
        let mut tasks = mk_tasks(4, 0, &banks);
        for t in &mut tasks {
            s.enqueue(t);
        }
        let mut prev = 0;
        for q in 0..64u32 {
            let bank = if q % 5 == 0 {
                BankVector::EMPTY
            } else {
                BankVector::single(q % 8)
            };
            let id = s.pick_next(0, bank, &mut tasks).unwrap();
            let st = s.stats();
            assert!(st.eta_fallbacks >= prev, "counter must be monotone");
            assert!(
                st.eta_fallbacks <= st.picks,
                "at most one fallback per pick ({} > {})",
                st.eta_fallbacks,
                st.picks
            );
            prev = st.eta_fallbacks;
            let slice = s.timeslice();
            s.requeue(&mut tasks[id.0 as usize], slice);
        }
        let st = s.stats();
        assert_eq!(st.picks, 64);
        // Banks 4–7 collide with every task in the mix, so fallbacks
        // must actually have fired — but dodges fire too, so the counter
        // stays strictly below the pick count.
        assert!(st.eta_fallbacks > 0, "colliding quanta must fall back");
        assert!(st.refresh_dodges > 0, "avoidable quanta must dodge");
        assert!(st.eta_fallbacks < st.picks);
    }

    #[test]
    fn fairness_fallback_bounds_starvation_to_eta_quanta() {
        // Worst case for Algorithm 3: as many runnable tasks as η, all
        // colliding with every refresh bank, so *every* pick is an η
        // fallback. The fairness fallback (leftmost vruntime) must then
        // degrade to plain CFS: no task waits longer than η quanta
        // between schedules.
        let eta = 4u32;
        let mut s = Scheduler::new(
            SchedPolicy::RefreshAware {
                eta_thresh: eta,
                best_effort: false,
            },
            Ps::from_ms(4),
            1,
        );
        let mut tasks = mk_tasks(eta, 0, &[BankVector::all(16)]);
        for t in &mut tasks {
            s.enqueue(t);
        }
        let mut last = vec![0u32; eta as usize];
        for q in 1..=256u32 {
            let id = s
                .pick_next(0, BankVector::single(q % 16), &mut tasks)
                .unwrap();
            let gap = q - last[id.0 as usize];
            assert!(
                gap <= eta,
                "task {} waited {gap} quanta (> η = {eta})",
                id.0
            );
            last[id.0 as usize] = q;
            let slice = s.timeslice();
            s.requeue(&mut tasks[id.0 as usize], slice);
        }
        assert_eq!(s.stats().eta_fallbacks, 256, "every pick must fall back");
        for (i, l) in last.iter().enumerate() {
            assert!(256 - l <= eta, "task {i} starved at the tail");
        }
    }

    #[test]
    fn block_removes_from_scheduling() {
        let mut s = Scheduler::new(SchedPolicy::Cfs, Ps::from_ms(4), 1);
        let mut tasks = mk_tasks(1, 0, &[BankVector::all(16)]);
        s.enqueue(&mut tasks[0]);
        let id = s.pick_next(0, BankVector::EMPTY, &mut tasks).unwrap();
        s.block(&mut tasks[id.0 as usize], Ps::from_ms(1));
        assert_eq!(tasks[0].state, TaskState::Blocked);
        assert_eq!(s.pick_next(0, BankVector::EMPTY, &mut tasks), None);
    }
}
