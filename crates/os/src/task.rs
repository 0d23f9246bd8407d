//! Task control blocks.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use refsim_dram::time::Ps;

use crate::bank_alloc::{BankVector, PAGE_BYTES};
use crate::vm::AddressSpace;

/// Task identifier (index into the kernel's task table).
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TaskId(pub u32);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Scheduling state of a task.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// Waiting in a runqueue.
    #[default]
    Runnable,
    /// Currently on a CPU.
    Running,
    /// Not schedulable (finished or sleeping).
    Blocked,
}

/// A task as the simulated kernel sees it: CFS accounting, the
/// co-design's `possible_banks_vector`, and its memory state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Task {
    /// Identifier.
    pub id: TaskId,
    /// Human-readable label (benchmark name).
    pub label: String,
    /// CFS virtual runtime.
    pub vruntime: Ps,
    /// Scheduling state.
    pub state: TaskState,
    /// CPU this task is enqueued on.
    pub cpu: u32,
    /// Banks this task's pages may occupy (Algorithm 2's
    /// `possible_banks_vector`).
    pub possible_banks: BankVector,
    /// Round-robin allocation cursor (Algorithm 2's `lastAllocedBank`).
    pub last_alloced_bank: u32,
    /// The task's address space.
    pub mm: AddressSpace,
    /// Bytes allocated on each global bank (for §5.4.1's best-effort
    /// scheduling of high-footprint tasks).
    pub bytes_per_bank: Vec<u64>,
    /// Pages that had to be placed outside `possible_banks`.
    pub spilled_pages: u64,
    /// Total time this task has run on a CPU.
    pub cpu_time: Ps,
    /// Times the task was scheduled onto a CPU.
    pub schedules: u64,
}

impl Task {
    /// Creates a runnable task pinned to `cpu` with the given permitted
    /// banks over `total_banks` global banks.
    pub fn new(
        id: TaskId,
        label: impl Into<String>,
        cpu: u32,
        possible_banks: BankVector,
        total_banks: u32,
    ) -> Self {
        Task {
            id,
            label: label.into(),
            vruntime: Ps::ZERO,
            state: TaskState::Runnable,
            cpu,
            possible_banks,
            last_alloced_bank: total_banks.saturating_sub(1),
            mm: AddressSpace::new(),
            bytes_per_bank: vec![0; total_banks as usize],
            spilled_pages: 0,
            cpu_time: Ps::ZERO,
            schedules: 0,
        }
    }

    /// Records a page allocated on `bank` (possibly outside the
    /// permitted set).
    pub fn note_page(&mut self, bank: u32, fell_back: bool) {
        self.bytes_per_bank[bank as usize] += PAGE_BYTES;
        if fell_back {
            self.spilled_pages += 1;
        }
    }

    /// Bytes this task has allocated on `bank`.
    pub fn bytes_on_bank(&self, bank: u32) -> u64 {
        self.bytes_per_bank.get(bank as usize).copied().unwrap_or(0)
    }

    /// Whether scheduling this task during a quantum refreshing `bank`
    /// would stall none of its requests (it owns no data there and the
    /// bank is outside its permitted set).
    pub fn avoids_bank(&self, bank: u32) -> bool {
        !self.possible_banks.contains(bank) && self.bytes_on_bank(bank) == 0
    }

    /// Bytes this task has allocated across every bank in `banks`.
    pub fn bytes_on_banks(&self, banks: BankVector) -> u64 {
        banks.iter().map(|b| self.bytes_on_bank(b)).sum()
    }

    /// [`Task::avoids_bank`] lifted to a busy-bank *set* — one global
    /// bank per channel under a multi-channel refresh schedule. The
    /// task dodges the quantum only if it dodges every busy bank.
    pub fn avoids_banks(&self, banks: BankVector) -> bool {
        self.possible_banks.bits() & banks.bits() == 0 && self.bytes_on_banks(banks) == 0
    }

    /// Streams the task's dynamic state into `h` for state hashing:
    /// vruntime, scheduling state (0 runnable, 1 running, 2 blocked),
    /// CPU, permitted banks as bits, allocation cursor, address space,
    /// bytes per bank (length-prefixed), spilled pages, CPU time and
    /// schedules. The id and label come from the mix, not state.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.vruntime.as_ps());
        h.write_u8(match self.state {
            TaskState::Runnable => 0,
            TaskState::Running => 1,
            TaskState::Blocked => 2,
        });
        h.write_u32(self.cpu);
        h.write_u64(self.possible_banks.bits());
        h.write_u32(self.last_alloced_bank);
        self.mm.hash_state(h);
        h.write_u64(self.bytes_per_bank.len() as u64);
        for &b in &self.bytes_per_bank {
            h.write_u64(b);
        }
        h.write_u64(self.spilled_pages);
        h.write_u64(self.cpu_time.as_ps());
        h.write_u64(self.schedules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_task_defaults() {
        let t = Task::new(TaskId(3), "mcf", 1, BankVector::all(16), 16);
        assert_eq!(t.id, TaskId(3));
        assert_eq!(t.state, TaskState::Runnable);
        assert_eq!(t.vruntime, Ps::ZERO);
        assert_eq!(t.cpu, 1);
        assert_eq!(t.last_alloced_bank, 15);
        assert_eq!(t.bytes_per_bank.len(), 16);
        assert_eq!(t.id.to_string(), "T3");
    }

    #[test]
    fn note_page_accumulates_and_tracks_spills() {
        let mut t = Task::new(TaskId(0), "x", 0, BankVector::single(2), 16);
        t.note_page(2, false);
        t.note_page(2, false);
        t.note_page(9, true);
        assert_eq!(t.bytes_on_bank(2), 8192);
        assert_eq!(t.bytes_on_bank(9), 4096);
        assert_eq!(t.spilled_pages, 1);
        assert_eq!(t.bytes_on_bank(63), 0);
    }

    #[test]
    fn avoids_bank_requires_no_permission_and_no_data() {
        let mut t = Task::new(TaskId(0), "x", 0, BankVector::single(2), 16);
        assert!(t.avoids_bank(5));
        assert!(!t.avoids_bank(2), "bank in permitted set");
        t.note_page(5, true); // spilled data on bank 5
        assert!(!t.avoids_bank(5), "task now owns data there");
    }
}
