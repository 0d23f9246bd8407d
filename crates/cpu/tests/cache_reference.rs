//! Differential check of the struct-of-arrays tag store against the
//! array-of-structs cache it replaced.
//!
//! `reference::Cache` below is that earlier cache, kept verbatim as the
//! executable specification: one `{tag, valid, dirty, stamp}` record per
//! line and a `min_by_key` victim walk. The production `Cache` must agree
//! with it operation for operation — same `Lookup`s, same `CacheStats`,
//! same `SavedCache` (stale tags and dirty bits of invalidated lines
//! included) — in both Table 1 shapes.

use proptest::prelude::*;

use refsim_cpu::cache::{Cache, CacheConfig};

mod reference {
    use refsim_cpu::cache::{CacheConfig, CacheStats, Lookup, SavedCache, SavedLine};

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        /// LRU stamp; larger = more recently used.
        stamp: u64,
    }

    /// The array-of-structs tag store, verbatim.
    #[derive(Debug, Clone)]
    pub struct Cache {
        cfg: CacheConfig,
        lines: Vec<Line>, // sets × ways, row-major by set
        set_mask: u64,
        offset_bits: u32,
        tick: u64,
        stats: CacheStats,
    }

    impl Cache {
        pub fn new(cfg: CacheConfig) -> Self {
            cfg.validate()
                .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
            let sets = cfg.sets();
            Cache {
                cfg,
                lines: vec![Line::default(); (sets * u64::from(cfg.ways)) as usize],
                set_mask: sets - 1,
                offset_bits: cfg.line_bytes.trailing_zeros(),
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        pub fn reset_stats(&mut self) {
            self.stats = CacheStats::default();
        }

        pub fn save_state(&self) -> SavedCache {
            SavedCache {
                lines: self
                    .lines
                    .iter()
                    .map(|l| SavedLine {
                        tag: l.tag,
                        valid: l.valid,
                        dirty: l.dirty,
                        stamp: l.stamp,
                    })
                    .collect(),
                tick: self.tick,
                stats: self.stats,
            }
        }

        pub fn restore_state(&mut self, saved: &SavedCache) -> Result<(), String> {
            if saved.lines.len() != self.lines.len() {
                return Err(format!(
                    "cache line count mismatch: saved {}, expected {}",
                    saved.lines.len(),
                    self.lines.len()
                ));
            }
            for (dst, src) in self.lines.iter_mut().zip(&saved.lines) {
                *dst = Line {
                    tag: src.tag,
                    valid: src.valid,
                    dirty: src.dirty,
                    stamp: src.stamp,
                };
            }
            self.tick = saved.tick;
            self.stats = saved.stats;
            Ok(())
        }

        pub fn locate(&self, addr: u64) -> Option<usize> {
            let (set, tag) = self.index(addr);
            let base = set * self.cfg.ways as usize;
            self.lines[base..base + self.cfg.ways as usize]
                .iter()
                .position(|l| l.valid && l.tag == tag)
                .map(|way| base + way)
        }

        pub fn touch(&mut self, slot: usize, write: bool) {
            self.tick += 1;
            let line = &mut self.lines[slot];
            debug_assert!(line.valid, "touch on an invalid slot");
            line.stamp = self.tick;
            line.dirty |= write;
            self.stats.hits += 1;
        }

        pub fn access(&mut self, addr: u64, write: bool) -> Lookup {
            self.tick += 1;
            let (set, tag) = self.index(addr);
            let base = set * self.cfg.ways as usize;
            let ways = &mut self.lines[base..base + self.cfg.ways as usize];

            if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.stamp = self.tick;
                line.dirty |= write;
                self.stats.hits += 1;
                return Lookup::Hit;
            }

            self.stats.misses += 1;
            // Victim: invalid way first, else LRU.
            let victim = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| if l.valid { l.stamp } else { 0 })
                .map(|(i, _)| i)
                .expect("ways is non-empty");
            let old = ways[victim];
            ways[victim] = Line {
                tag,
                valid: true,
                dirty: write,
                stamp: self.tick,
            };
            let writeback = if old.valid && old.dirty {
                self.stats.writebacks += 1;
                Some(self.rebuild_addr(old.tag, set as u64))
            } else {
                None
            };
            Lookup::Miss { writeback }
        }

        pub fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.index(addr);
            let base = set * self.cfg.ways as usize;
            self.lines[base..base + self.cfg.ways as usize]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        pub fn invalidate(&mut self, addr: u64) -> Option<u64> {
            let (set, tag) = self.index(addr);
            let base = set * self.cfg.ways as usize;
            for l in &mut self.lines[base..base + self.cfg.ways as usize] {
                if l.valid && l.tag == tag {
                    l.valid = false;
                    if l.dirty {
                        return Some(self.rebuild_addr(tag, set as u64));
                    }
                    return None;
                }
            }
            None
        }

        fn index(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.offset_bits;
            (
                (line & self.set_mask) as usize,
                line >> self.set_mask.count_ones(),
            )
        }

        fn rebuild_addr(&self, tag: u64, set: u64) -> u64 {
            ((tag << self.set_mask.count_ones()) | set) << self.offset_bits
        }
    }
}

/// One step of a random tag-store script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, bool),
    Invalidate(u64),
    /// `locate` followed, when resident, by `touch`: the memo pair the
    /// hierarchy's L1 memo uses.
    LocateTouch(u64, bool),
    Probe(u64),
    ResetStats,
    /// `save_state`, then restore into a fresh cache that replaces the
    /// live one.
    SaveRestore,
}

/// Ops over 24 conflicting tags in each of 8 sets, so scripts hit, evict
/// and re-reference constantly in both shapes; a high tag bit now and
/// then exercises wide tags through writeback address rebuilding.
fn op_strategy(set_stride: u64) -> impl Strategy<Value = Op> {
    (0u8..16, 0u64..24, 0u64..4, 0u64..8, 0u64..64, any::<bool>()).prop_map(
        move |(kind, tag, hi, set, off, w)| {
            let a = (tag + (hi << 30)) * set_stride + set * 64 + off;
            match kind {
                0..=8 => Op::Access(a, w),
                9 | 10 => Op::Invalidate(a),
                11 | 12 => Op::LocateTouch(a, w),
                13 => Op::Probe(a),
                14 => Op::ResetStats,
                _ => Op::SaveRestore,
            }
        },
    )
}

fn run_script(cfg: CacheConfig, ops: &[Op]) {
    let mut soa = Cache::new(cfg);
    let mut aos = reference::Cache::new(cfg);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(a, w) => assert_eq!(soa.access(a, w), aos.access(a, w), "op {i}: {op:?}"),
            Op::Invalidate(a) => {
                assert_eq!(soa.invalidate(a), aos.invalidate(a), "op {i}: {op:?}");
            }
            Op::LocateTouch(a, w) => {
                let slot = soa.locate(a);
                assert_eq!(slot, aos.locate(a), "op {i}: {op:?}");
                if let Some(slot) = slot {
                    soa.touch(slot, w);
                    aos.touch(slot, w);
                }
            }
            Op::Probe(a) => assert_eq!(soa.probe(a), aos.probe(a), "op {i}: {op:?}"),
            Op::ResetStats => {
                soa.reset_stats();
                aos.reset_stats();
            }
            Op::SaveRestore => {
                let saved = soa.save_state();
                assert_eq!(saved, aos.save_state(), "op {i}: saved state");
                soa = Cache::new(cfg);
                soa.restore_state(&saved).expect("same shape");
                aos = reference::Cache::new(cfg);
                aos.restore_state(&saved).expect("same shape");
            }
        }
        assert_eq!(soa.stats(), aos.stats(), "op {i}: {op:?}");
    }
    assert_eq!(soa.save_state(), aos.save_state());
}

proptest! {
    /// L1 shape: 32 KiB, 4-way, 128 sets.
    #[test]
    fn soa_matches_aos_reference_l1(
        ops in prop::collection::vec(op_strategy(128 * 64), 1..600),
    ) {
        run_script(CacheConfig::l1_32k(), &ops);
    }

    /// L2 shape: 1 MiB, 16-way, 1024 sets.
    #[test]
    fn soa_matches_aos_reference_l2(
        ops in prop::collection::vec(op_strategy(1024 * 64), 1..600),
    ) {
        run_script(CacheConfig::l2_1m(), &ops);
    }
}
