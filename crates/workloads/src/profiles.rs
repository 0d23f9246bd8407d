//! Benchmark models for the SPEC CPU2006 / STREAM / NAS programs used by
//! the paper's workloads (Table 2, §5.4.1, §6.1).
//!
//! Each [`BenchmarkProfile`] describes a synthetic program: its memory
//! footprint (from §5.4.1 where the paper reports one), the density of
//! memory instructions, how its references split between a small
//! cache-resident *hot* region and a large *cold* region, and the cold
//! region's access pattern. Pushed through the Table 1 cache hierarchy,
//! the models land in the paper's MPKI classes (H > 10 > M ≥ 1 > L) —
//! `refsim-core` carries a calibration test asserting exactly that.

use std::hash::Hasher;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::pattern::{MemAccess, PatternKind, PatternState};

/// Memory-intensity class from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MpkiClass {
    /// MPKI > 10.
    High,
    /// 1 ≤ MPKI ≤ 10.
    Medium,
    /// MPKI < 1.
    Low,
}

impl MpkiClass {
    /// Classifies a measured MPKI value (§6.1's thresholds).
    pub fn of(mpki: f64) -> Self {
        if mpki > 10.0 {
            MpkiClass::High
        } else if mpki >= 1.0 {
            MpkiClass::Medium
        } else {
            MpkiClass::Low
        }
    }

    /// Single-letter label used in Table 2.
    pub fn letter(self) -> char {
        match self {
            MpkiClass::High => 'H',
            MpkiClass::Medium => 'M',
            MpkiClass::Low => 'L',
        }
    }
}

/// The benchmarks modeled from the paper's suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// SPEC CPU2006 429.mcf — pointer-chasing, 1.7 GB footprint, H.
    Mcf,
    /// SPEC CPU2006 453.povray — cache-resident ray tracer, L.
    Povray,
    /// SPEC CPU2006 464.h264ref — video encoder, L.
    H264ref,
    /// SPEC CPU2006 459.GemsFDTD — FDTD stencil, 850 MB, M.
    GemsFdtd,
    /// SPEC CPU2006 410.bwaves — blast-wave CFD, 920 MB, H.
    Bwaves,
    /// STREAM — sequential triad kernels, 800 MB, M.
    Stream,
    /// NAS UA (unstructured adaptive mesh), M.
    NpbUa,
    /// SPEC CPU2006 462.libquantum — streaming, H (extra, sensitivity).
    Libquantum,
    /// SPEC CPU2006 433.milc — lattice QCD, M (extra, sensitivity).
    Milc,
}

impl Benchmark {
    /// Every modeled benchmark.
    pub const ALL: [Benchmark; 9] = [
        Benchmark::Mcf,
        Benchmark::Povray,
        Benchmark::H264ref,
        Benchmark::GemsFdtd,
        Benchmark::Bwaves,
        Benchmark::Stream,
        Benchmark::NpbUa,
        Benchmark::Libquantum,
        Benchmark::Milc,
    ];

    /// The SPEC-suite benchmarks whose footprints Figure 5 examines.
    pub const FIGURE5: [Benchmark; 7] = [
        Benchmark::Mcf,
        Benchmark::Povray,
        Benchmark::H264ref,
        Benchmark::GemsFdtd,
        Benchmark::Bwaves,
        Benchmark::Stream,
        Benchmark::NpbUa,
    ];

    /// The profile describing this benchmark's synthetic model.
    pub fn profile(self) -> BenchmarkProfile {
        const MB: u64 = 1 << 20;
        match self {
            Benchmark::Mcf => BenchmarkProfile {
                name: "mcf",
                footprint: 1_740 * MB, // 1.7 GB (§5.4.1)
                hot_bytes: 96 * 1024,
                mem_per_mille: 320,
                cold_per_mille: 130,
                write_per_mille: 240,
                dependent_per_mille: 600,
                cold_pattern: PatternKind::PointerChase,
                class: MpkiClass::High,
            },
            Benchmark::Povray => BenchmarkProfile {
                name: "povray",
                footprint: 8 * MB,
                hot_bytes: 24 * 1024,
                mem_per_mille: 300,
                cold_per_mille: 1,
                write_per_mille: 300,
                dependent_per_mille: 0,
                cold_pattern: PatternKind::Random,
                class: MpkiClass::Low,
            },
            Benchmark::H264ref => BenchmarkProfile {
                name: "h264ref",
                footprint: 64 * MB,
                hot_bytes: 24 * 1024,
                mem_per_mille: 340,
                cold_per_mille: 2,
                write_per_mille: 320,
                dependent_per_mille: 0,
                cold_pattern: PatternKind::Streaming {
                    streams: 2,
                    stride: 8,
                },
                class: MpkiClass::Low,
            },
            Benchmark::GemsFdtd => BenchmarkProfile {
                name: "GemsFDTD",
                footprint: 850 * MB, // §5.4.1
                hot_bytes: 64 * 1024,
                mem_per_mille: 380,
                cold_per_mille: 165,
                write_per_mille: 300,
                dependent_per_mille: 0,
                cold_pattern: PatternKind::Streaming {
                    streams: 6,
                    stride: 8,
                },
                class: MpkiClass::Medium,
            },
            Benchmark::Bwaves => BenchmarkProfile {
                name: "bwaves",
                footprint: 920 * MB, // §5.4.1
                hot_bytes: 64 * 1024,
                mem_per_mille: 400,
                cold_per_mille: 340,
                write_per_mille: 260,
                dependent_per_mille: 0,
                cold_pattern: PatternKind::Streaming {
                    streams: 4,
                    stride: 8,
                },
                class: MpkiClass::High,
            },
            Benchmark::Stream => BenchmarkProfile {
                name: "stream",
                footprint: 800 * MB, // §5.4.1
                hot_bytes: 32 * 1024,
                mem_per_mille: 420,
                cold_per_mille: 160,
                write_per_mille: 330, // triad: 2 loads + 1 store
                dependent_per_mille: 0,
                cold_pattern: PatternKind::Streaming {
                    streams: 3,
                    stride: 8,
                },
                class: MpkiClass::Medium,
            },
            Benchmark::NpbUa => BenchmarkProfile {
                name: "npb_ua",
                footprint: 480 * MB,
                hot_bytes: 64 * 1024,
                mem_per_mille: 360,
                cold_per_mille: 9,
                write_per_mille: 280,
                dependent_per_mille: 100,
                cold_pattern: PatternKind::Random,
                class: MpkiClass::Medium,
            },
            Benchmark::Libquantum => BenchmarkProfile {
                name: "libquantum",
                footprint: 128 * MB,
                hot_bytes: 16 * 1024,
                mem_per_mille: 380,
                cold_per_mille: 330,
                write_per_mille: 250,
                dependent_per_mille: 0,
                cold_pattern: PatternKind::Streaming {
                    streams: 1,
                    stride: 8,
                },
                class: MpkiClass::High,
            },
            Benchmark::Milc => BenchmarkProfile {
                name: "milc",
                footprint: 680 * MB,
                hot_bytes: 48 * 1024,
                mem_per_mille: 350,
                cold_per_mille: 8,
                write_per_mille: 300,
                dependent_per_mille: 0,
                cold_pattern: PatternKind::Random,
                class: MpkiClass::Medium,
            },
        }
        .assert_valid()
    }

    /// Short name (Table 2 spelling).
    pub fn name(self) -> &'static str {
        self.profile().name
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one synthetic benchmark model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Benchmark name as printed in Table 2.
    pub name: &'static str,
    /// Total virtual footprint in bytes.
    pub footprint: u64,
    /// Size of the cache-resident hot region (start of the footprint).
    pub hot_bytes: u64,
    /// Memory instructions per 1000 instructions.
    pub mem_per_mille: u32,
    /// Of memory instructions, how many per 1000 reference the cold
    /// region (the rest hit the hot region).
    pub cold_per_mille: u32,
    /// Stores per 1000 memory instructions.
    pub write_per_mille: u32,
    /// Of cold loads, serializing (pointer-chase) fraction per 1000.
    pub dependent_per_mille: u32,
    /// Cold-region access pattern.
    pub cold_pattern: PatternKind,
    /// Expected MPKI class (Table 2).
    pub class: MpkiClass,
}

impl BenchmarkProfile {
    fn assert_valid(self) -> Self {
        assert!(
            self.footprint > self.hot_bytes,
            "{}: hot ⊄ footprint",
            self.name
        );
        assert!(self.mem_per_mille > 0 && self.mem_per_mille <= 1000);
        assert!(self.cold_per_mille <= 1000);
        assert!(self.write_per_mille <= 1000);
        assert!(self.dependent_per_mille <= 1000);
        self
    }

    /// First-order MPKI estimate from the model parameters (each cold
    /// access to a fresh line misses; streaming patterns touch a new line
    /// every `line/stride` accesses). The cache simulation refines this.
    pub fn nominal_mpki(&self) -> f64 {
        let new_line = match self.cold_pattern {
            PatternKind::Streaming { stride, .. } => (stride as f64 / 64.0).min(1.0),
            PatternKind::Random | PatternKind::PointerChase => 1.0,
        };
        f64::from(self.mem_per_mille) * f64::from(self.cold_per_mille) / 1000.0 * new_line
    }
}

/// One generated unit of work: `non_mem` plain instructions followed by
/// an optional memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Op {
    /// Non-memory instructions preceding the access.
    pub non_mem: u32,
    /// The memory access, if this op carries one.
    pub mem: Option<MemAccess>,
}

/// Deterministic instruction-stream generator for one task.
///
/// # Examples
///
/// ```
/// use refsim_workloads::profiles::{Benchmark, TaskWorkload};
///
/// let mut w = TaskWorkload::new(Benchmark::Mcf, 7);
/// let op = w.next_op();
/// assert!(op.non_mem > 0 || op.mem.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TaskWorkload {
    benchmark: Benchmark,
    profile: BenchmarkProfile,
    rng: StdRng,
    cold: PatternState,
    hot_cursor: u64,
    /// Fixed-point accumulator scheduling memory instructions at
    /// `mem_per_mille` density.
    mem_credit: u32,
}

impl TaskWorkload {
    /// Creates the generator; `seed` individualizes tasks running the
    /// same benchmark.
    pub fn new(benchmark: Benchmark, seed: u64) -> Self {
        let profile = benchmark.profile();
        let cold_size = profile.footprint - profile.hot_bytes;
        TaskWorkload {
            benchmark,
            profile,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5),
            cold: PatternState::new(profile.cold_pattern, cold_size),
            hot_cursor: 0,
            mem_credit: 0,
        }
    }

    /// The benchmark being modeled.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The profile in effect.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Streams the dynamic generator state into `h` for state hashing:
    /// the raw RNG word, the cold-region cursors, the hot cursor and the
    /// memory-instruction credit. The benchmark and profile are
    /// configuration.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.rng.state_u64());
        self.cold.hash_state(h);
        h.write_u64(self.hot_cursor);
        h.write_u32(self.mem_credit);
    }

    /// XORs `mask` into the RNG state word, so the random stream departs
    /// from the unperturbed one. The replay auditor's negative control
    /// plants its known divergence with this.
    pub fn perturb_rng(&mut self, mask: u64) {
        self.rng = StdRng::from_state_u64(self.rng.state_u64() ^ mask);
    }

    /// Generates the next unit of work.
    ///
    /// Each call emits one memory instruction and the number of plain
    /// instructions that precede it, scheduled at `mem_per_mille`
    /// density by a credit accumulator. The dice are `next_u64() % 1000`:
    /// the same draws and remainders as `gen_range(0..1000)` (the span
    /// fits in u64), without its u128 modulo, so the call dissolves into
    /// the core loop. A test pins the op stream to the `gen_range` form.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let p = &self.profile;
        self.mem_credit += 1000;
        let non_mem = (self.mem_credit / p.mem_per_mille).saturating_sub(1);
        self.mem_credit -= (non_mem + 1) * p.mem_per_mille;

        let is_cold = ((self.rng.next_u64() % 1000) as u32) < p.cold_per_mille;
        let write = ((self.rng.next_u64() % 1000) as u32) < p.write_per_mille;
        let (vaddr, dependent) = if is_cold {
            let (off, dep) = self.cold.next(&mut self.rng);
            // The dependence die is rolled only when the pattern marked
            // the access dependent.
            let dep = dep && ((self.rng.next_u64() % 1000) as u32) < p.dependent_per_mille;
            (p.hot_bytes + off, dep && !write)
        } else {
            // Hot region: tight sequential reuse loop.
            let off = self.hot_cursor;
            self.hot_cursor = (self.hot_cursor + 8) % p.hot_bytes;
            (off, false)
        };
        Op {
            non_mem,
            mem: Some(MemAccess {
                vaddr,
                write,
                dependent,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Records a state stream as raw bytes, so two states compare byte
    /// for byte.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Hasher for Bytes {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn state_bytes(w: &TaskWorkload) -> Vec<u8> {
        let mut b = Bytes::default();
        w.hash_state(&mut b);
        b.0
    }

    #[test]
    fn profiles_are_valid_and_nominally_in_class() {
        for b in Benchmark::ALL {
            let p = b.profile();
            let nominal = p.nominal_mpki();
            match p.class {
                MpkiClass::High => assert!(nominal > 10.0, "{}: {nominal}", p.name),
                MpkiClass::Medium => {
                    assert!((1.0..=12.0).contains(&nominal), "{}: {nominal}", p.name)
                }
                MpkiClass::Low => assert!(nominal < 1.0, "{}: {nominal}", p.name),
            }
        }
    }

    #[test]
    fn footprints_match_section_5_4_1() {
        assert_eq!(Benchmark::Mcf.profile().footprint, 1_740 << 20);
        assert_eq!(Benchmark::Bwaves.profile().footprint, 920 << 20);
        assert_eq!(Benchmark::Stream.profile().footprint, 800 << 20);
        assert_eq!(Benchmark::GemsFdtd.profile().footprint, 850 << 20);
    }

    #[test]
    fn mem_density_matches_profile() {
        let mut w = TaskWorkload::new(Benchmark::Stream, 1);
        let mut instrs: u64 = 0;
        let mut mems: u64 = 0;
        for _ in 0..100_000 {
            let op = w.next_op();
            instrs += u64::from(op.non_mem) + 1;
            mems += u64::from(op.mem.is_some());
        }
        let per_mille = mems as f64 * 1000.0 / instrs as f64;
        let target = f64::from(Benchmark::Stream.profile().mem_per_mille);
        assert!(
            (per_mille - target).abs() < target * 0.05,
            "measured {per_mille}, target {target}"
        );
    }

    #[test]
    fn addresses_stay_within_footprint() {
        for b in [Benchmark::Mcf, Benchmark::Povray, Benchmark::Bwaves] {
            let mut w = TaskWorkload::new(b, 3);
            let fp = b.profile().footprint;
            for _ in 0..10_000 {
                if let Some(m) = w.next_op().mem {
                    assert!(m.vaddr < fp, "{b}: {:#x} >= {fp:#x}", m.vaddr);
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ_same_seed_agrees() {
        let collect = |seed| {
            let mut w = TaskWorkload::new(Benchmark::Mcf, seed);
            (0..100)
                .filter_map(|_| w.next_op().mem.map(|m| m.vaddr))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn dependent_only_on_cold_loads() {
        let mut w = TaskWorkload::new(Benchmark::Mcf, 5);
        let mut saw_dep = false;
        for _ in 0..50_000 {
            if let Some(m) = w.next_op().mem {
                if m.dependent {
                    assert!(!m.write, "stores are never dependent");
                    saw_dep = true;
                }
            }
        }
        assert!(saw_dep, "mcf should issue dependent loads");
    }

    /// The `gen_range` form of [`TaskWorkload::next_op`]: the reference
    /// the production generator's `next_u64() % 1000` dice are pinned to.
    fn reference_next_op(w: &mut TaskWorkload) -> Op {
        let p = &w.profile;
        w.mem_credit += 1000;
        let non_mem = (w.mem_credit / p.mem_per_mille).saturating_sub(1);
        w.mem_credit -= (non_mem + 1) * p.mem_per_mille;

        let is_cold = w.rng.gen_range(0..1000) < p.cold_per_mille;
        let write = w.rng.gen_range(0..1000) < p.write_per_mille;
        let (vaddr, dependent) = if is_cold {
            let (off, dep) = w.cold.next(&mut w.rng);
            let dep = dep && w.rng.gen_range(0..1000) < p.dependent_per_mille;
            (p.hot_bytes + off, dep && !write)
        } else {
            let off = w.hot_cursor;
            w.hot_cursor = (w.hot_cursor + 8) % p.hot_bytes;
            (off, false)
        };
        Op {
            non_mem,
            mem: Some(MemAccess {
                vaddr,
                write,
                dependent,
            }),
        }
    }

    #[test]
    fn fast_op_stream_is_bit_identical() {
        // Every benchmark, interleaved calls included: the generator
        // must consume the RNG stream exactly like the `gen_range`
        // reference.
        for b in Benchmark::ALL {
            let mut reference = TaskWorkload::new(b, 11);
            let mut fast = TaskWorkload::new(b, 11);
            for i in 0..50_000 {
                let r = reference_next_op(&mut reference);
                let f = if i % 3 == 0 {
                    reference_next_op(&mut fast)
                } else {
                    fast.next_op()
                };
                assert_eq!(r, f, "{b} diverged at op {i}");
            }
            assert_eq!(state_bytes(&reference), state_bytes(&fast), "{b}");
        }
    }

    #[test]
    fn class_letters() {
        assert_eq!(MpkiClass::of(42.0), MpkiClass::High);
        assert_eq!(MpkiClass::of(5.0), MpkiClass::Medium);
        assert_eq!(MpkiClass::of(0.2), MpkiClass::Low);
        assert_eq!(MpkiClass::High.letter(), 'H');
    }

    #[test]
    fn display_names() {
        assert_eq!(Benchmark::GemsFdtd.to_string(), "GemsFDTD");
        assert_eq!(Benchmark::NpbUa.to_string(), "npb_ua");
    }
}
