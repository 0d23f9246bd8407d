//! CFS runqueue: tasks ordered by virtual runtime.
//!
//! Linux CFS uses a red-black tree keyed by `vruntime`; a `BTreeSet`
//! gives the same ordered-map behavior (O(log n) insert/remove, ordered
//! iteration from the leftmost task).

use std::collections::BTreeSet;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use refsim_dram::time::Ps;

use crate::task::TaskId;

/// A per-CPU run queue ordered by `(vruntime, task)`.
///
/// # Examples
///
/// ```
/// use refsim_os::cfs::CfsRunqueue;
/// use refsim_os::task::TaskId;
/// use refsim_dram::time::Ps;
///
/// let mut rq = CfsRunqueue::new();
/// rq.insert(Ps::from_us(5), TaskId(1));
/// rq.insert(Ps::from_us(2), TaskId(2));
/// assert_eq!(rq.leftmost(), Some(TaskId(2)));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CfsRunqueue {
    tree: BTreeSet<(Ps, TaskId)>,
    /// Monotonic floor for newly woken tasks, mirroring CFS's
    /// `min_vruntime`.
    min_vruntime: Ps,
}

impl CfsRunqueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of runnable tasks.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether no task is runnable.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The queue's `min_vruntime` — the floor assigned to newly arriving
    /// tasks so they cannot starve existing ones.
    pub fn min_vruntime(&self) -> Ps {
        self.min_vruntime
    }

    /// Inserts a task with the given vruntime.
    ///
    /// # Panics
    ///
    /// Panics if the task is already queued with the same key.
    pub fn insert(&mut self, vruntime: Ps, id: TaskId) {
        let fresh = self.tree.insert((vruntime, id));
        assert!(fresh, "{id} already enqueued at {vruntime}");
        if let Some(&(v, _)) = self.tree.iter().next() {
            self.min_vruntime = self.min_vruntime.max(v);
        }
    }

    /// Removes a specific task (by its exact key). Returns whether it
    /// was present.
    pub fn remove(&mut self, vruntime: Ps, id: TaskId) -> bool {
        self.tree.remove(&(vruntime, id))
    }

    /// The leftmost (least-vruntime) task, without removing it.
    pub fn leftmost(&self) -> Option<TaskId> {
        self.tree.iter().next().map(|&(_, id)| id)
    }

    /// Removes and returns the leftmost task.
    pub fn pop_leftmost(&mut self) -> Option<(Ps, TaskId)> {
        let first = *self.tree.iter().next()?;
        self.tree.remove(&first);
        self.min_vruntime = self.min_vruntime.max(first.0);
        Some(first)
    }

    /// Removes and returns the *rightmost* (largest-vruntime) task —
    /// used by the load balancer, which migrates the task that has run
    /// the most.
    pub fn pop_rightmost(&mut self) -> Option<(Ps, TaskId)> {
        let last = *self.tree.iter().next_back()?;
        self.tree.remove(&last);
        Some(last)
    }

    /// Iterates `(vruntime, task)` in vruntime order (leftmost first) —
    /// what Algorithm 3's candidate walk traverses.
    pub fn iter(&self) -> impl Iterator<Item = (Ps, TaskId)> + '_ {
        self.tree.iter().copied()
    }

    /// Streams the queued `(vruntime, task)` pairs in tree order
    /// (length-prefixed) and the `min_vruntime` floor into `h` for state
    /// hashing.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.tree.len() as u64);
        for &(v, id) in &self.tree {
            h.write_u64(v.as_ps());
            h.write_u32(id.0);
        }
        h.write_u64(self.min_vruntime.as_ps());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_vruntime_then_id() {
        let mut rq = CfsRunqueue::new();
        rq.insert(Ps::from_us(3), TaskId(9));
        rq.insert(Ps::from_us(1), TaskId(5));
        rq.insert(Ps::from_us(1), TaskId(2));
        let order: Vec<_> = rq.iter().map(|(_, id)| id).collect();
        assert_eq!(order, vec![TaskId(2), TaskId(5), TaskId(9)]);
        assert_eq!(rq.leftmost(), Some(TaskId(2)));
        assert_eq!(rq.len(), 3);
    }

    #[test]
    fn pop_both_ends() {
        let mut rq = CfsRunqueue::new();
        for i in 0..4u32 {
            rq.insert(Ps::from_us(u64::from(i)), TaskId(i));
        }
        assert_eq!(rq.pop_leftmost(), Some((Ps::ZERO, TaskId(0))));
        assert_eq!(rq.pop_rightmost(), Some((Ps::from_us(3), TaskId(3))));
        assert_eq!(rq.len(), 2);
    }

    #[test]
    fn min_vruntime_is_monotonic() {
        let mut rq = CfsRunqueue::new();
        rq.insert(Ps::from_us(10), TaskId(1));
        rq.pop_leftmost();
        assert_eq!(rq.min_vruntime(), Ps::from_us(10));
        rq.insert(Ps::from_us(2), TaskId(2));
        // Floor does not go backwards.
        assert_eq!(rq.min_vruntime(), Ps::from_us(10));
    }

    #[test]
    fn remove_specific() {
        let mut rq = CfsRunqueue::new();
        rq.insert(Ps::from_us(1), TaskId(1));
        assert!(rq.remove(Ps::from_us(1), TaskId(1)));
        assert!(!rq.remove(Ps::from_us(1), TaskId(1)));
        assert!(rq.is_empty());
    }

    #[test]
    #[should_panic(expected = "already enqueued")]
    fn duplicate_insert_panics() {
        let mut rq = CfsRunqueue::new();
        rq.insert(Ps::from_us(1), TaskId(1));
        rq.insert(Ps::from_us(1), TaskId(1));
    }
}
