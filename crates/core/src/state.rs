//! The dynamic state of a whole [`crate::system::System`], as plain data.
//!
//! [`crate::system::System::export_state`] captures a [`SavedSystem`];
//! the replay auditor hashes it per component ([`crate::replay`]), and
//! the behaviour digest and the sweep's sampled re-verification fold
//! those hashes. Nothing reads a `SavedSystem` back: the types only
//! encode ([`crate::codec::Encode`]).
//!
//! Captured is **dynamic state only**: the configuration and workload
//! mix are inputs, not state. Not captured either: controller
//! command-trace buffers (diagnostic only), the fault plan, and
//! floating-point *derived* reporting values outside
//! `last_utilization`. Everything that feeds future simulation decisions
//! **is** captured, so two runs whose exported states hash alike at a
//! step boundary continue identically.

use refsim_dram::backend::SavedBackend;
use refsim_dram::time::Ps;
use refsim_os::bank_alloc::SavedBankAlloc;
use refsim_os::sched::{SavedScheduler, SchedStats};
use refsim_os::vm::SavedAddressSpace;
use refsim_workloads::profiles::SavedWorkload;

use refsim_cpu::core::SavedExecContext;
use refsim_cpu::hierarchy::SavedHierarchy;

use crate::codec::{Enc, Encode};

/// A memory operation awaiting queue space, as saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedPendingMem {
    /// Dirty victim still to be enqueued as a writeback.
    pub writeback: Option<u64>,
    /// Fill (line address) still to be enqueued as a read.
    pub fill: Option<u64>,
    /// The faulting access was a store.
    pub write: bool,
    /// The faulting access was a serializing load.
    pub dependent: bool,
}

/// Per-task simulation state (workload position + execution context), as
/// saved.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSim {
    /// Workload generator state.
    pub wl: SavedWorkload,
    /// Core execution context.
    pub ctx: SavedExecContext,
    /// Back-pressured memory operation, if any.
    pub pending: Option<SavedPendingMem>,
}

/// Per-core state, as saved.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedCore {
    /// Private L1+L2 stack.
    pub caches: SavedHierarchy,
    /// Task currently scheduled on the core.
    pub current: Option<u32>,
    /// Context-clock instant the current task was scheduled.
    pub sched_base: Ps,
    /// End of the current quantum.
    pub quantum_end: Ps,
    /// In-flight fill lines `(line address, request id)`, sorted by line
    /// address for byte-deterministic encoding.
    pub inflight_lines: Vec<(u64, u64)>,
}

/// OS task-control-block state, as saved. The id and label are
/// configuration (they come from the mix) and not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedTask {
    /// CFS virtual runtime.
    pub vruntime: Ps,
    /// Scheduling state (0 runnable, 1 running, 2 blocked).
    pub state: u8,
    /// CPU the task is enqueued on.
    pub cpu: u32,
    /// Permitted-banks vector, as bits.
    pub possible_banks: u64,
    /// Round-robin allocation cursor.
    pub last_alloced_bank: u32,
    /// Address space (page table + fault count).
    pub mm: SavedAddressSpace,
    /// Bytes allocated per global bank.
    pub bytes_per_bank: Vec<u64>,
    /// Pages placed outside the permitted banks.
    pub spilled_pages: u64,
    /// Total CPU time consumed.
    pub cpu_time: Ps,
    /// Times scheduled onto a CPU.
    pub schedules: u64,
}

/// One in-flight read fill: request id → (task, core, line address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedInflight {
    /// Request id.
    pub id: u64,
    /// Task awaiting the fill.
    pub task: u32,
    /// Core awaiting the fill.
    pub core: u8,
    /// Line address being filled.
    pub line: u64,
}

/// Measurement-phase baseline counters for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SavedBaseline {
    /// Instructions at the measurement boundary.
    pub instructions: u64,
    /// Stall time at the boundary.
    pub stall: Ps,
    /// LLC misses at the boundary.
    pub misses: u64,
    /// Page faults at the boundary.
    pub faults: u64,
    /// Spilled pages at the boundary.
    pub spilled: u64,
    /// CPU time at the boundary.
    pub cpu_time: Ps,
    /// Schedules at the boundary.
    pub schedules: u64,
}

/// The complete dynamic state of a [`crate::system::System`], captured
/// by [`crate::system::System::export_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSystem {
    /// Simulation clock.
    pub clock: Ps,
    /// Next memory-request id.
    pub next_req: u64,
    /// Start of the measured phase.
    pub measure_start: Ps,
    /// Per-channel memory backends (tagged: primary controller or
    /// shadow model).
    pub mcs: Vec<SavedBackend>,
    /// Per-core state.
    pub cores: Vec<SavedCore>,
    /// OS task table (parallel to `sims`).
    pub tasks: Vec<SavedTask>,
    /// Per-task simulation state (parallel to `tasks`).
    pub sims: Vec<SavedSim>,
    /// Process scheduler (runqueues + stats).
    pub sched: SavedScheduler,
    /// Bank-aware page allocator.
    pub alloc: SavedBankAlloc,
    /// In-flight read fills, sorted by request id.
    pub inflight: Vec<SavedInflight>,
    /// Measurement baselines, in task order.
    pub base: Vec<SavedBaseline>,
    /// Scheduler stats at the measurement boundary.
    pub sched_base_stats: SchedStats,
}

impl Encode for SavedPendingMem {
    fn encode(&self, e: &mut Enc) {
        self.writeback.encode(e);
        self.fill.encode(e);
        self.write.encode(e);
        self.dependent.encode(e);
    }
}

impl Encode for SavedSim {
    fn encode(&self, e: &mut Enc) {
        self.wl.encode(e);
        self.ctx.encode(e);
        self.pending.encode(e);
    }
}

impl Encode for SavedCore {
    fn encode(&self, e: &mut Enc) {
        self.caches.encode(e);
        self.current.encode(e);
        self.sched_base.encode(e);
        self.quantum_end.encode(e);
        self.inflight_lines.encode(e);
    }
}

impl Encode for SavedTask {
    fn encode(&self, e: &mut Enc) {
        self.vruntime.encode(e);
        self.state.encode(e);
        self.cpu.encode(e);
        self.possible_banks.encode(e);
        self.last_alloced_bank.encode(e);
        self.mm.encode(e);
        self.bytes_per_bank.encode(e);
        self.spilled_pages.encode(e);
        self.cpu_time.encode(e);
        self.schedules.encode(e);
    }
}

impl Encode for SavedInflight {
    fn encode(&self, e: &mut Enc) {
        self.id.encode(e);
        self.task.encode(e);
        self.core.encode(e);
        self.line.encode(e);
    }
}

impl Encode for SavedBaseline {
    fn encode(&self, e: &mut Enc) {
        self.instructions.encode(e);
        self.stall.encode(e);
        self.misses.encode(e);
        self.faults.encode(e);
        self.spilled.encode(e);
        self.cpu_time.encode(e);
        self.schedules.encode(e);
    }
}

impl Encode for SavedSystem {
    fn encode(&self, e: &mut Enc) {
        self.clock.encode(e);
        self.next_req.encode(e);
        self.measure_start.encode(e);
        self.mcs.encode(e);
        self.cores.encode(e);
        self.tasks.encode(e);
        self.sims.encode(e);
        self.sched.encode(e);
        self.alloc.encode(e);
        self.inflight.encode(e);
        self.base.encode(e);
        self.sched_base_stats.encode(e);
    }
}
