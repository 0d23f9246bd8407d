//! Set-associative, write-back/write-allocate cache with LRU replacement.
//!
//! Caches here are *tag stores* only — the simulator tracks which lines
//! are resident and dirty, not their data. Allocation happens immediately
//! on miss (the fill's timing is modeled by the core/memory simulation,
//! not the tag store).

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

/// Cache shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// The paper's L1: 32 KiB, 4-way, 64 B lines.
    pub const fn l1_32k() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// The paper's per-core L2: 1 MiB, 16-way, 64 B lines.
    pub const fn l2_1m() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * u64::from(self.line_bytes))
    }

    /// Checks shape invariants.
    ///
    /// # Errors
    ///
    /// Returns a message if any count is zero, not a power of two where
    /// required, or the capacity is not an exact multiple of `ways ×
    /// line_bytes`.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 || self.line_bytes == 0 || self.size_bytes == 0 {
            return Err("cache dimensions must be non-zero".to_owned());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line_bytes must be a power of two".to_owned());
        }
        let per_set = u64::from(self.ways) * u64::from(self.line_bytes);
        if !self.size_bytes.is_multiple_of(per_set) {
            return Err("size must be a multiple of ways × line".to_owned());
        }
        if !self.sets().is_power_of_two() {
            return Err("set count must be a power of two".to_owned());
        }
        if self.line_bytes == 1 && self.sets() == 1 {
            // A 64-bit tag would not leave room for the valid bit.
            return Err("a cache needs at least one offset or index bit".to_owned());
        }
        Ok(())
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has been allocated. If a dirty
    /// victim was evicted, its line-aligned address is returned for
    /// writeback.
    Miss {
        /// Dirty victim to write back, if any.
        writeback: Option<u64>,
    },
}

impl Lookup {
    /// Whether this was a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// Per-cache counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty victims written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio, or `None` with no accesses.
    pub fn miss_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.misses as f64 / total as f64)
        }
    }
}

/// A physically indexed, physically tagged cache tag store.
///
/// Lines are kept struct-of-arrays, row-major by set: a lookup compares
/// one key word (`tag << 1 | valid`) per way over a contiguous run —
/// 32 B for a 4-way set, 128 B for a 16-way one — and only a hit or a
/// fill touches the stamp and dirty arrays.
///
/// # Examples
///
/// ```
/// use refsim_cpu::cache::{Cache, CacheConfig, Lookup};
///
/// let mut c = Cache::new(CacheConfig::l1_32k());
/// assert!(matches!(c.access(0x1000, false), Lookup::Miss { .. }));
/// assert_eq!(c.access(0x1000, false), Lookup::Hit);
/// assert_eq!(c.access(0x1004, false), Lookup::Hit); // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tag << 1 | valid` per line. Invalidation clears only the valid
    /// bit, so a stale tag survives into the state stream.
    keys: Vec<u64>,
    /// LRU stamps; larger = more recently used.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    offset_bits: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        let sets = cfg.sets();
        let lines = (sets * u64::from(cfg.ways)) as usize;
        Cache {
            cfg,
            keys: vec![0; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            offset_bits: cfg.line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes counters (cache contents are preserved — warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Streams the tag store and counters into `h` for state hashing:
    /// every line row-major by set (length-prefixed) as `(tag, valid,
    /// dirty, stamp)`, then the LRU clock and the hit/miss/writeback
    /// counters. The shape is configuration.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.keys.len() as u64);
        for ((&key, &stamp), &dirty) in self.keys.iter().zip(&self.stamps).zip(&self.dirty) {
            h.write_u64(key >> 1);
            h.write_u8(u8::from(key & 1 != 0));
            h.write_u8(u8::from(dirty));
            h.write_u64(stamp);
        }
        h.write_u64(self.tick);
        h.write_u64(self.stats.hits);
        h.write_u64(self.stats.misses);
        h.write_u64(self.stats.writebacks);
    }

    /// Line-aligns an address.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.offset_bits << self.offset_bits
    }

    /// Absolute tag-store slot currently holding `addr`'s line, or
    /// `None` when not resident. No LRU update, no allocation — pair
    /// with [`Cache::touch`] for memoized repeat hits.
    #[inline]
    pub fn locate(&self, addr: u64) -> Option<usize> {
        let (set, key) = self.index(addr);
        self.find(set, key)
    }

    /// Replays exactly the hit half of [`Cache::access`] against a slot
    /// obtained from [`Cache::locate`]: bumps the LRU clock, stamps the
    /// line, merges the dirty bit, and counts a hit. The caller
    /// guarantees the slot still holds the intended line — the batched
    /// hierarchy path invalidates its memo on every outcome that can
    /// move lines.
    #[inline]
    pub fn touch(&mut self, slot: usize, write: bool) {
        self.tick += 1;
        debug_assert!(self.keys[slot] & 1 != 0, "touch on an invalid slot");
        self.stamps[slot] = self.tick;
        self.dirty[slot] |= write;
        self.stats.hits += 1;
    }

    /// Looks up `addr`, allocating on miss (write-allocate); `write`
    /// marks the line dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> Lookup {
        self.tick += 1;
        let (set, key) = self.index(addr);
        if let Some(slot) = self.find(set, key) {
            self.stamps[slot] = self.tick;
            self.dirty[slot] |= write;
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        self.fill(set, key, write)
    }

    /// The miss half of [`Cache::access`]: evicts the victim of `set`
    /// and allocates `key` in its place. Kept out of line so the hit
    /// path stays small enough to inline into its callers.
    #[inline(never)]
    fn fill(&mut self, set: usize, key: u64, write: bool) -> Lookup {
        self.stats.misses += 1;
        let slot = self.victim(set);
        let old = self.keys[slot];
        let writeback = if old & 1 != 0 && self.dirty[slot] {
            self.stats.writebacks += 1;
            Some(self.rebuild_addr(old >> 1, set as u64))
        } else {
            None
        };
        self.keys[slot] = key;
        self.stamps[slot] = self.tick;
        self.dirty[slot] = write;
        Lookup::Miss { writeback }
    }

    /// Whether `addr`'s line is resident (no LRU update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        self.locate(addr).is_some()
    }

    /// Invalidates `addr`'s line if resident, returning its address if it
    /// was dirty (back-invalidation from an inclusive outer level). Only
    /// the valid bit is cleared: the stale tag and dirty bit stay.
    pub fn invalidate(&mut self, addr: u64) -> Option<u64> {
        let (set, key) = self.index(addr);
        let slot = self.find(set, key)?;
        self.keys[slot] = key & !1;
        self.dirty[slot].then(|| self.rebuild_addr(key >> 1, set as u64))
    }

    /// Set index and valid key (`tag << 1 | 1`) of `addr`'s line.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.offset_bits;
        (
            (line & self.set_mask) as usize,
            (line >> self.set_bits) << 1 | 1,
        )
    }

    /// Absolute slot of `set` whose key equals `key`. Compares every way
    /// of a 64-way chunk into a bitmask before branching, so which way
    /// hits costs no mispredicted early exit.
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let base = set * self.ways;
        let mut chunk_base = base;
        for chunk in self.keys[base..base + self.ways].chunks(64) {
            let mut hits = 0u64;
            for (way, &k) in chunk.iter().enumerate() {
                hits |= u64::from(k == key) << way;
            }
            if hits != 0 {
                return Some(chunk_base + hits.trailing_zeros() as usize);
            }
            chunk_base += 64;
        }
        None
    }

    /// Slot to fill in `set`: the lowest way of least rank, where an
    /// invalid way ranks 0 and a valid one its stamp — so the first
    /// invalid way, else the least recently used one.
    #[inline]
    fn victim(&self, set: usize) -> usize {
        let base = set * self.ways;
        let rank = |slot: usize| {
            if self.keys[slot] & 1 == 0 {
                0
            } else {
                self.stamps[slot]
            }
        };
        let (mut best, mut best_rank) = (base, rank(base));
        for slot in base + 1..base + self.ways {
            if best_rank == 0 {
                break;
            }
            let r = rank(slot);
            if r < best_rank {
                (best, best_rank) = (slot, r);
            }
        }
        best
    }

    fn rebuild_addr(&self, tag: u64, set: u64) -> u64 {
        ((tag << self.set_bits) | set) << self.offset_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_shapes() {
        let l1 = CacheConfig::l1_32k();
        assert_eq!(l1.sets(), 128);
        assert!(l1.validate().is_ok());
        let l2 = CacheConfig::l2_1m();
        assert_eq!(l2.sets(), 1024);
        assert!(l2.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = CacheConfig::l1_32k();
        c.line_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::l1_32k();
        c.ways = 0;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::l1_32k();
        c.size_bytes = 33 * 1024 + 7;
        assert!(c.validate().is_err());
        // One-byte lines in one set: the tag would need all 64 bits.
        let c = CacheConfig {
            size_bytes: 4,
            ways: 4,
            line_bytes: 1,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn hit_after_fill_and_line_granularity() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(c.access(0x103f, false).is_hit());
        assert!(!c.access(0x1040, false).is_hit());
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-mapped-ish scenario: fill all 4 ways of one set, touch
        // way 0 again, then force an eviction — way 1 must go.
        let mut c = Cache::new(CacheConfig::l1_32k());
        let set_stride = 128 * 64; // sets × line
        let a = |i: u64| i * set_stride; // all map to set 0
        for i in 0..4 {
            c.access(a(i), false);
        }
        c.access(a(0), false); // refresh way holding a(0)
        c.access(a(4), false); // evicts a(1)
        assert!(c.probe(a(0)));
        assert!(!c.probe(a(1)));
        assert!(c.probe(a(4)));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        let set_stride = 128 * 64;
        c.access(0, true); // dirty
        for i in 1..=4u64 {
            let r = c.access(i * set_stride, false);
            if i == 4 {
                match r {
                    Lookup::Miss { writeback } => assert_eq!(writeback, Some(0)),
                    Lookup::Hit => panic!("expected miss"),
                }
            }
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        let set_stride = 128 * 64;
        for i in 0..5u64 {
            match c.access(i * set_stride, false) {
                Lookup::Miss { writeback } => assert_eq!(writeback, None),
                Lookup::Hit => panic!("unexpected hit"),
            }
        }
    }

    #[test]
    fn invalidate_returns_dirty_address() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        c.access(0x2000, true);
        assert_eq!(c.invalidate(0x2000), Some(0x2000));
        assert!(!c.probe(0x2000));
        c.access(0x3000, false);
        assert_eq!(c.invalidate(0x3000), None);
        assert_eq!(c.invalidate(0x4000), None); // not resident
    }

    #[test]
    fn rebuild_addr_roundtrips_through_eviction() {
        let mut c = Cache::new(CacheConfig::l2_1m());
        let addr = 0x00de_adbe_efc0_u64 & !0x3f;
        c.access(addr, true);
        // Evict by filling the set.
        let set_stride = 1024 * 64;
        let mut wb = None;
        for i in 1..=16u64 {
            if let Lookup::Miss { writeback: Some(w) } = c.access(addr + i * set_stride, false) {
                wb = Some(w);
            }
        }
        assert_eq!(wb, Some(addr));
    }

    #[test]
    fn miss_rate_reporting() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        assert_eq!(c.stats().miss_rate(), None);
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.stats().miss_rate(), Some(0.5));
        c.reset_stats();
        assert_eq!(c.stats().miss_rate(), None);
        assert!(c.probe(0), "reset_stats must not drop contents");
    }
}
