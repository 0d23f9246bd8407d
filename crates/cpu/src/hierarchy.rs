//! Two-level private cache hierarchy (L1 → L2) matching Table 1.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::cache::{Cache, CacheConfig, CacheStats, Lookup};

/// Where an access was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierOutcome {
    /// Satisfied by the L1 (2-cycle path, folded into base CPI).
    L1Hit,
    /// Satisfied by the L2 (20-cycle path).
    L2Hit,
    /// Missed the whole hierarchy; a DRAM fill is required for
    /// `line_addr`, and any dirty L2 victim must be written back.
    Miss {
        /// Line-aligned fill address.
        line_addr: u64,
        /// Dirty L2 victim to write back to memory, if any.
        writeback: Option<u64>,
    },
}

/// Hierarchy-level counters (beyond the per-cache ones).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierStats {
    /// Total accesses presented to the hierarchy.
    pub accesses: u64,
    /// Accesses that missed both levels (LLC misses).
    pub llc_misses: u64,
    /// Dirty lines pushed to memory.
    pub writebacks: u64,
}

/// A private L1+L2 stack for one core.
///
/// A fill allocates in both levels, but the stack is neither strictly
/// inclusive nor lossless for stores. Two known modelling gaps (listed
/// in DESIGN.md §5):
///
/// - Only a *dirty* L2 victim back-invalidates its L1 copy, whose data
///   rides out with that victim's writeback. A clean L2 victim leaves
///   its L1 copy resident.
/// - L1 victims are dropped, dirty or not; nothing writes them into the
///   L2. A store that hits a line the L2 holds clean dirties only the L1
///   copy, so that store never reaches DRAM.
///
/// # Examples
///
/// ```
/// use refsim_cpu::hierarchy::{CacheHierarchy, HierOutcome};
///
/// let mut h = CacheHierarchy::table1();
/// assert!(matches!(h.access(0x1000, false), HierOutcome::Miss { .. }));
/// assert_eq!(h.access(0x1000, false), HierOutcome::L1Hit);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    stats: HierStats,
    /// Hot-line memo for [`CacheHierarchy::access`]: the last line
    /// that hit the L1 and the tag-store slot holding it. Runtime-only
    /// acceleration state — never hashed, cleared on every access
    /// that can move lines, so a stale slot can never be touched.
    hot: Option<(u64, usize)>,
}

impl CacheHierarchy {
    /// Builds a hierarchy with explicit configurations.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        CacheHierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            stats: HierStats::default(),
            hot: None,
        }
    }

    /// The paper's per-core configuration: 32 KiB/4-way L1 and
    /// 1 MiB/16-way L2, 64 B lines.
    pub fn table1() -> Self {
        Self::new(CacheConfig::l1_32k(), CacheConfig::l2_1m())
    }

    /// The full two-level lookup behind [`CacheHierarchy::access`].
    fn lookup(&mut self, paddr: u64, write: bool) -> HierOutcome {
        self.stats.accesses += 1;
        if self.l1.access(paddr, write).is_hit() {
            return HierOutcome::L1Hit;
        }
        // The L1 victim, if any, is dropped here even when dirty (see the
        // type-level doc).
        match self.l2.access(paddr, write) {
            Lookup::Hit => HierOutcome::L2Hit,
            Lookup::Miss { writeback } => {
                let mut wb = writeback;
                if let Some(victim) = wb {
                    // Back-invalidate the L1 copy of the evicted line; a
                    // dirty L1 copy rides out with the same writeback.
                    let _ = self.l1.invalidate(victim);
                    self.stats.writebacks += 1;
                    wb = Some(victim);
                }
                self.stats.llc_misses += 1;
                HierOutcome::Miss {
                    line_addr: self.l2.line_addr(paddr),
                    writeback: wb,
                }
            }
        }
    }

    /// Accesses `paddr`; `write` marks stores.
    ///
    /// Consecutive accesses to one L1 line — the dominant case in
    /// sequential phases — skip the tag walk and replay the hit
    /// bookkeeping via [`Cache::touch`]. Every other access runs the full
    /// lookup and re-arms the memo, so counters, LRU order and dirty bits
    /// evolve exactly as under the full lookup alone.
    #[inline]
    pub fn access(&mut self, paddr: u64, write: bool) -> HierOutcome {
        if let Some((line, slot)) = self.hot {
            if self.l1.line_addr(paddr) == line {
                self.stats.accesses += 1;
                self.l1.touch(slot, write);
                return HierOutcome::L1Hit;
            }
        }
        let out = self.lookup(paddr, write);
        // `lookup` leaves the line L1-resident on every path: a miss
        // allocates it, and the back-invalidation that may follow only
        // removes the L2 victim, a different line.
        self.hot = self
            .l1
            .locate(paddr)
            .map(|slot| (self.l1.line_addr(paddr), slot));
        out
    }

    /// LLC misses per kilo-instruction given an instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.stats.llc_misses as f64 * 1000.0 / instructions as f64
    }

    /// Hierarchy counters.
    pub fn stats(&self) -> &HierStats {
        &self.stats
    }

    /// L1 counters.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Zeroes all counters, preserving cache contents (warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = HierStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Streams both tag stores and the hierarchy counters into `h` for
    /// state hashing. The lookup memo is an accelerator, not state.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        self.l1.hash_state(h);
        self.l2.hash_state(h);
        h.write_u64(self.stats.accesses);
        h.write_u64(self.stats.llc_misses);
        h.write_u64(self.stats.writebacks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn state_bytes(h: &CacheHierarchy) -> Vec<u8> {
        let mut b = Bytes::default();
        h.hash_state(&mut b);
        b.0
    }

    #[test]
    fn miss_fills_both_levels() {
        let mut h = CacheHierarchy::table1();
        match h.access(0x40_0000, false) {
            HierOutcome::Miss {
                line_addr,
                writeback,
            } => {
                assert_eq!(line_addr, 0x40_0000);
                assert_eq!(writeback, None);
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(h.access(0x40_0000, false), HierOutcome::L1Hit);
        assert_eq!(h.stats().llc_misses, 1);
        assert_eq!(h.stats().accesses, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = CacheHierarchy::table1();
        h.access(0, false);
        // Thrash L1 set 0 (128-set L1 → 8 KiB stride) but stay within the
        // L2 set 0's 16 ways (64 KiB stride in L2... careful: use L1-set
        // aliasing addresses that map to *different* L2 sets).
        for i in 1..=4u64 {
            h.access(i * 128 * 64, false);
        }
        // 0 is gone from L1 but still in L2.
        assert_eq!(h.access(0, false), HierOutcome::L2Hit);
    }

    #[test]
    fn dirty_l2_eviction_emits_writeback_and_back_invalidates() {
        let mut h = CacheHierarchy::table1();
        let l2_set_stride = 1024 * 64;
        h.access(0, true); // dirty in both levels
        let mut saw_wb = false;
        for i in 1..=16u64 {
            if let HierOutcome::Miss {
                writeback: Some(w), ..
            } = h.access(i * l2_set_stride, false)
            {
                assert_eq!(w, 0);
                saw_wb = true;
            }
        }
        assert!(saw_wb, "line 0 should have been evicted dirty");
        // And the L1 copy is gone too (inclusive-ish behavior).
        assert!(matches!(h.access(0, false), HierOutcome::Miss { .. }));
        assert_eq!(h.stats().writebacks, 1);
    }

    /// The known store-loss gap in the type-level doc, pinned so that
    /// closing it is a deliberate change: a store that hits a line the L2
    /// holds clean is gone once the line leaves both levels.
    #[test]
    fn store_hitting_clean_l2_line_never_reaches_dram() {
        let mut h = CacheHierarchy::table1();
        h.access(0, false);
        assert_eq!(h.access(0, true), HierOutcome::L1Hit);
        // 64 KiB apart: L1 set 0 and L2 set 0 both, so line 0 leaves the
        // L1 after 4 fills and the L2 after 16.
        for i in 1..=16u64 {
            assert!(matches!(
                h.access(i * 1024 * 64, false),
                HierOutcome::Miss {
                    writeback: None,
                    ..
                }
            ));
        }
        assert_eq!(h.stats().writebacks, 0);
        assert!(matches!(h.access(0, false), HierOutcome::Miss { .. }));
    }

    #[test]
    fn fast_access_is_bit_identical() {
        let mut reference = CacheHierarchy::table1();
        let mut fast = CacheHierarchy::table1();
        // Deterministic mix of tight reuse (memo hits), set-conflict
        // evictions and cold strides; interleave memoized and full
        // lookups on the fast hierarchy to exercise memo invalidation.
        let mut x = 0x1234_5678_u64;
        for i in 0..200_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = match x % 10 {
                0..=5 => (x >> 32) % (24 * 1024),    // hot region
                6..=7 => ((x >> 32) % 4) * 128 * 64, // L1 set 0 conflicts
                _ => (x >> 16) % (256 << 20),        // cold sweep
            };
            let write = x.is_multiple_of(7);
            let r = reference.lookup(addr, write);
            let f = if i.is_multiple_of(17) {
                fast.hot = None;
                fast.lookup(addr, write)
            } else {
                fast.access(addr, write)
            };
            assert_eq!(r, f, "diverged at access {i} addr {addr:#x}");
        }
        assert_eq!(state_bytes(&reference), state_bytes(&fast));
    }

    #[test]
    fn mpki_computation() {
        let mut h = CacheHierarchy::table1();
        for i in 0..10u64 {
            h.access(i * 64 * 1024 * 1024, false); // all misses
        }
        assert!((h.mpki(1000) - 10.0).abs() < 1e-9);
        assert_eq!(h.mpki(0), 0.0);
    }

    #[test]
    fn reset_preserves_contents() {
        let mut h = CacheHierarchy::table1();
        h.access(0x9000, false);
        h.reset_stats();
        assert_eq!(h.stats().accesses, 0);
        assert_eq!(h.access(0x9000, false), HierOutcome::L1Hit);
    }
}
