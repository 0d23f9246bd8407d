//! Checkpoint images of a whole [`crate::system::System`].
//!
//! A checkpoint captures **dynamic state only**: the configuration and
//! workload mix are *not* stored. Restoring means rebuilding a fresh
//! `System` from the same `(config, mix)` pair and importing the saved
//! dynamic state into it; the 64-bit canonical `(config, mix)`
//! fingerprint (see [`crate::runcache`]) travels with every image so a
//! mismatched rebuild is rejected instead of silently diverging.
//!
//! # File format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RFSM"
//! 4       4     format version (little-endian u32, currently 1)
//! 8       8     config fingerprint (canonical; see `runcache`)
//! 16      8     payload length N
//! 24      N     payload: SavedSystem via the crate codec
//! 24+N    8     checksum: FNV-1a over bytes [0, 24+N)
//! ```
//!
//! Not captured (by design): controller command-trace buffers
//! (diagnostic only), the fault plan and every other configuration input
//! (re-derived when the `System` is rebuilt), and floating-point
//! *derived* reporting values outside `last_utilization`. Everything
//! that feeds future simulation decisions **is** captured, which is what
//! makes a resumed run bit-identical to an uninterrupted one under the
//! same step segmentation.

use std::fmt;

use refsim_dram::backend::SavedBackend;
use refsim_dram::time::Ps;
use refsim_os::bank_alloc::SavedBankAlloc;
use refsim_os::sched::{SavedScheduler, SchedStats};
use refsim_os::vm::SavedAddressSpace;
use refsim_workloads::profiles::SavedWorkload;

use refsim_cpu::core::SavedExecContext;
use refsim_cpu::hierarchy::SavedHierarchy;

use crate::codec::{self, CodecError, Dec, Enc, Snapshot};

/// Magic number opening every checkpoint image.
pub const MAGIC: [u8; 4] = *b"RFSM";
/// Current checkpoint format version. v2 made the per-channel memory
/// image a tagged [`SavedBackend`] (primary controller or shadow model)
/// instead of a bare controller image.
pub const VERSION: u32 = 2;

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
/// configuration (re-derived from the mix on rebuild) and not stored.
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

impl Snapshot for SavedPendingMem {
    fn encode(&self, e: &mut Enc) {
        self.writeback.encode(e);
        self.fill.encode(e);
        self.write.encode(e);
        self.dependent.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedPendingMem {
            writeback: Snapshot::decode(d)?,
            fill: Snapshot::decode(d)?,
            write: Snapshot::decode(d)?,
            dependent: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedSim {
    fn encode(&self, e: &mut Enc) {
        self.wl.encode(e);
        self.ctx.encode(e);
        self.pending.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedSim {
            wl: Snapshot::decode(d)?,
            ctx: Snapshot::decode(d)?,
            pending: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedCore {
    fn encode(&self, e: &mut Enc) {
        self.caches.encode(e);
        self.current.encode(e);
        self.sched_base.encode(e);
        self.quantum_end.encode(e);
        self.inflight_lines.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedCore {
            caches: Snapshot::decode(d)?,
            current: Snapshot::decode(d)?,
            sched_base: Snapshot::decode(d)?,
            quantum_end: Snapshot::decode(d)?,
            inflight_lines: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedTask {
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
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedTask {
            vruntime: Snapshot::decode(d)?,
            state: Snapshot::decode(d)?,
            cpu: Snapshot::decode(d)?,
            possible_banks: Snapshot::decode(d)?,
            last_alloced_bank: Snapshot::decode(d)?,
            mm: Snapshot::decode(d)?,
            bytes_per_bank: Snapshot::decode(d)?,
            spilled_pages: Snapshot::decode(d)?,
            cpu_time: Snapshot::decode(d)?,
            schedules: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedInflight {
    fn encode(&self, e: &mut Enc) {
        self.id.encode(e);
        self.task.encode(e);
        self.core.encode(e);
        self.line.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedInflight {
            id: Snapshot::decode(d)?,
            task: Snapshot::decode(d)?,
            core: Snapshot::decode(d)?,
            line: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedBaseline {
    fn encode(&self, e: &mut Enc) {
        self.instructions.encode(e);
        self.stall.encode(e);
        self.misses.encode(e);
        self.faults.encode(e);
        self.spilled.encode(e);
        self.cpu_time.encode(e);
        self.schedules.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedBaseline {
            instructions: Snapshot::decode(d)?,
            stall: Snapshot::decode(d)?,
            misses: Snapshot::decode(d)?,
            faults: Snapshot::decode(d)?,
            spilled: Snapshot::decode(d)?,
            cpu_time: Snapshot::decode(d)?,
            schedules: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedSystem {
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
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedSystem {
            clock: Snapshot::decode(d)?,
            next_req: Snapshot::decode(d)?,
            measure_start: Snapshot::decode(d)?,
            mcs: Snapshot::decode(d)?,
            cores: Snapshot::decode(d)?,
            tasks: Snapshot::decode(d)?,
            sims: Snapshot::decode(d)?,
            sched: Snapshot::decode(d)?,
            alloc: Snapshot::decode(d)?,
            inflight: Snapshot::decode(d)?,
            base: Snapshot::decode(d)?,
            sched_base_stats: Snapshot::decode(d)?,
        })
    }
}

/// Why a checkpoint image could not be accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// The image's format version is not supported.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the image bytes.
    ChecksumMismatch {
        /// Checksum stored in the image.
        stored: u64,
        /// Checksum recomputed over the image bytes.
        computed: u64,
    },
    /// The image was produced under a different `(config, mix)` pair.
    FingerprintMismatch {
        /// Fingerprint the caller expected.
        expected: u64,
        /// Fingerprint stored in the image.
        stored: u64,
    },
    /// The payload failed to decode.
    Codec(CodecError),
    /// The decoded state was rejected by the target system.
    Import(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a refsim checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (supported: {VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint corrupt: checksum {computed:#018x} != stored {stored:#018x}"
            ),
            CheckpointError::FingerprintMismatch { expected, stored } => write!(
                f,
                "checkpoint belongs to a different config/mix: fingerprint \
                 {stored:#018x} != expected {expected:#018x}"
            ),
            CheckpointError::Codec(e) => write!(f, "checkpoint payload: {e}"),
            CheckpointError::Import(why) => write!(f, "checkpoint rejected on import: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// A framed, checksummed checkpoint: fingerprint + [`SavedSystem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the `(config, mix)` the state was captured under.
    pub fingerprint: u64,
    /// The captured dynamic state.
    pub state: SavedSystem,
}

impl Checkpoint {
    /// Serializes the checkpoint into the version-1 file format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = codec::to_bytes(&self.state);
        let mut e = Enc::new();
        e.put_bytes(&MAGIC);
        e.put_u32(VERSION);
        e.put_u64(self.fingerprint);
        e.put_u64(payload.len() as u64);
        e.put_bytes(&payload);
        let mut bytes = e.into_bytes();
        let checksum = codec::fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Parses and verifies a version-1 image.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on bad magic, unsupported version, checksum
    /// mismatch, or payload decode failure.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::BadMagic);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let computed = codec::fnv64(body);
        // Magic is checked before the checksum so that "not a checkpoint
        // at all" is reported as such rather than as corruption.
        let mut d = Dec::new(body);
        let magic = d.get_bytes(4).map_err(|_| CheckpointError::BadMagic)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = d.get_u32().map_err(CheckpointError::Codec)?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        if computed != stored {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        let fingerprint = d.get_u64()?;
        let n = d.get_u64()?;
        if n != d.remaining() as u64 {
            return Err(CheckpointError::Codec(CodecError::Invalid(format!(
                "payload length {n} != {} bytes present",
                d.remaining()
            ))));
        }
        let payload = d.get_bytes(n as usize)?;
        let state = codec::from_bytes(payload)?;
        Ok(Checkpoint { fingerprint, state })
    }

    /// Verifies that the checkpoint was captured under the expected
    /// `(config, mix)` fingerprint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::FingerprintMismatch`] when it was not.
    pub fn check_fingerprint(&self, expected: u64) -> Result<(), CheckpointError> {
        if self.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                expected,
                stored: self.fingerprint,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::runcache::job_fingerprint;
    use refsim_workloads::mix::by_name;

    fn tiny_state() -> SavedSystem {
        SavedSystem {
            clock: Ps::from_us(42),
            next_req: 7,
            measure_start: Ps::ZERO,
            mcs: Vec::new(),
            cores: Vec::new(),
            tasks: Vec::new(),
            sims: Vec::new(),
            sched: SavedScheduler {
                queues: Vec::new(),
                stats: SchedStats::default(),
            },
            alloc: SavedBankAlloc {
                buddy: refsim_os::buddy::SavedBuddy {
                    frames: 0,
                    free_frames: 0,
                    free_lists: Vec::new(),
                    alloc_map: Vec::new(),
                },
                per_bank_free: Vec::new(),
                stats: Default::default(),
            },
            inflight: Vec::new(),
            base: Vec::new(),
            sched_base_stats: SchedStats::default(),
        }
    }

    #[test]
    fn container_roundtrips() {
        let cp = Checkpoint {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            state: tiny_state(),
        };
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("parse");
        assert_eq!(back, cp);
    }

    #[test]
    fn corruption_is_detected() {
        let cp = Checkpoint {
            fingerprint: 1,
            state: tiny_state(),
        };
        let mut bytes = cp.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let cp = Checkpoint {
            fingerprint: 1,
            state: tiny_state(),
        };
        let mut bytes = cp.to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        );

        // Version check happens before the checksum: patch both.
        let mut bytes = cp.to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncated_image_is_an_error() {
        let cp = Checkpoint {
            fingerprint: 1,
            state: tiny_state(),
        };
        let bytes = cp.to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 9]).is_err());
        assert!(Checkpoint::from_bytes(&bytes[..4]).is_err());
        assert!(Checkpoint::from_bytes(b"").is_err());
    }

    #[test]
    fn fingerprint_depends_on_config_and_mix() {
        let cfg = SystemConfig::table1();
        let mix5 = by_name("WL-5").unwrap();
        let mix4 = by_name("WL-4").unwrap();
        let f = job_fingerprint(&cfg, &mix5);
        assert_eq!(f, job_fingerprint(&cfg, &mix5), "must be stable");
        assert_ne!(f, job_fingerprint(&cfg, &mix4), "mix must matter");
        assert_ne!(
            f,
            job_fingerprint(&cfg.co_design(), &mix5),
            "config must matter"
        );
    }

    #[test]
    fn check_fingerprint_gates_restore() {
        let cp = Checkpoint {
            fingerprint: 0xAA,
            state: tiny_state(),
        };
        assert!(cp.check_fingerprint(0xAA).is_ok());
        assert!(matches!(
            cp.check_fingerprint(0xBB),
            Err(CheckpointError::FingerprintMismatch {
                expected: 0xBB,
                stored: 0xAA
            })
        ));
    }
}
