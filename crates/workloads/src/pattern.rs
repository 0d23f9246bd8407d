//! Address-stream pattern generators.
//!
//! A pattern produces virtual addresses inside a task-private region
//! `[base, base + size)`. Patterns are deterministic given their RNG
//! state, and model the access-locality archetypes of the paper's
//! benchmark suites: sequential streaming (STREAM, bwaves), multi-stream
//! stencils (GemsFDTD), uniform-random and pointer-chasing irregular
//! access (mcf), and cache-resident compute (povray, h264ref).

use std::hash::Hasher;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// One generated memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Virtual address (byte-granular).
    pub vaddr: u64,
    /// Store (true) or load (false).
    pub write: bool,
    /// Serializing load: the next access cannot issue until this one
    /// returns (pointer chase). Only meaningful for loads.
    pub dependent: bool,
}

/// Shape of a region's access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternKind {
    /// `streams` concurrent sequential walks at `stride` bytes, round-
    /// robin. One stream models STREAM/bwaves; several model stencil
    /// codes (GemsFDTD).
    Streaming {
        /// Concurrent walk count (≥ 1).
        streams: u32,
        /// Byte stride per access.
        stride: u64,
    },
    /// Uniform-random cache-line-granular accesses.
    Random,
    /// Uniform-random *dependent* loads (each must return before the
    /// next issues) — pointer chasing.
    PointerChase,
}

/// Stateful generator for one [`PatternKind`] over a region of `size`
/// bytes.
#[derive(Debug, Clone)]
pub struct PatternState {
    kind: PatternKind,
    size: u64,
    /// Per-stream cursors for streaming kinds.
    cursors: Vec<u64>,
    next_stream: usize,
}

impl PatternState {
    /// Creates a pattern over `[0, size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, or a streaming pattern has zero streams
    /// or zero stride.
    pub fn new(kind: PatternKind, size: u64) -> Self {
        assert!(size > 0, "pattern region must be non-empty");
        let cursors = match kind {
            PatternKind::Streaming { streams, stride } => {
                assert!(streams >= 1, "streaming needs >= 1 stream");
                assert!(stride >= 1, "stride must be >= 1");
                // Spread stream origins evenly over the region.
                (0..u64::from(streams))
                    .map(|i| i * (size / u64::from(streams)))
                    .collect()
            }
            _ => Vec::new(),
        };
        PatternState {
            kind,
            size,
            cursors,
            next_stream: 0,
        }
    }

    /// The pattern kind.
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// Streams the dynamic cursor state into `h` for state hashing: the
    /// per-stream cursors (length-prefixed), then the round-robin index.
    /// The kind and size are configuration.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.cursors.len() as u64);
        for &c in &self.cursors {
            h.write_u64(c);
        }
        h.write_u64(self.next_stream as u64);
    }

    /// Produces the next region-relative offset and dependence flag.
    pub fn next<R: Rng>(&mut self, rng: &mut R) -> (u64, bool) {
        match self.kind {
            PatternKind::Streaming { stride, .. } => {
                let s = self.next_stream;
                self.next_stream = (self.next_stream + 1) % self.cursors.len();
                let off = self.cursors[s];
                self.cursors[s] = (off + stride) % self.size;
                (off, false)
            }
            PatternKind::Random => (rng.gen_range(0..self.size) & !63, false),
            PatternKind::PointerChase => (rng.gen_range(0..self.size) & !63, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn streaming_single_walks_sequentially_and_wraps() {
        let mut p = PatternState::new(
            PatternKind::Streaming {
                streams: 1,
                stride: 8,
            },
            64,
        );
        let mut r = rng();
        let offs: Vec<u64> = (0..9).map(|_| p.next(&mut r).0).collect();
        assert_eq!(offs, vec![0, 8, 16, 24, 32, 40, 48, 56, 0]);
    }

    #[test]
    fn streaming_multi_round_robins_spread_origins() {
        let mut p = PatternState::new(
            PatternKind::Streaming {
                streams: 4,
                stride: 8,
            },
            4096,
        );
        let mut r = rng();
        let offs: Vec<u64> = (0..4).map(|_| p.next(&mut r).0).collect();
        assert_eq!(offs, vec![0, 1024, 2048, 3072]);
        assert_eq!(p.next(&mut r).0, 8);
    }

    #[test]
    fn random_is_line_aligned_and_in_range() {
        let mut p = PatternState::new(PatternKind::Random, 1 << 20);
        let mut r = rng();
        for _ in 0..1000 {
            let (off, dep) = p.next(&mut r);
            assert_eq!(off % 64, 0);
            assert!(off < 1 << 20);
            assert!(!dep);
        }
    }

    #[test]
    fn pointer_chase_is_dependent() {
        let mut p = PatternState::new(PatternKind::PointerChase, 1 << 20);
        let mut r = rng();
        let (_, dep) = p.next(&mut r);
        assert!(dep);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let gen = || {
            let mut p = PatternState::new(PatternKind::Random, 1 << 24);
            let mut r = rng();
            (0..100).map(|_| p.next(&mut r).0).collect::<Vec<_>>()
        };
        assert_eq!(gen(), gen());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        let _ = PatternState::new(PatternKind::Random, 0);
    }
}
