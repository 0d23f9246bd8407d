//! Binary buddy physical-page allocator (the Linux `__get_free_pages`
//! machinery the paper's Algorithm 2 extends).

use std::collections::BTreeSet;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};

/// Physical frame number (4 KiB units).
pub type Frame = u64;

/// Highest block order (Linux's `MAX_ORDER - 1`): blocks of up to
/// 2^10 pages = 4 MiB.
pub const MAX_ORDER: u32 = 10;

/// Allocation failure: no block of the requested order (or larger) is
/// free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "buddy allocator out of memory")
    }
}

impl std::error::Error for OutOfMemory {}

/// A binary buddy allocator over `frames` physical pages.
///
/// Free blocks are kept per order in address-sorted sets, so allocation
/// is deterministic and prefers low physical addresses (which is what
/// makes the Figure 5 "fill bank 0 first" experiment meaningful).
///
/// # Examples
///
/// ```
/// use refsim_os::buddy::BuddyAllocator;
///
/// let mut b = BuddyAllocator::new(1024);
/// let f = b.alloc(0)?;          // one 4 KiB page
/// let big = b.alloc(4)?;        // a 16-page block
/// b.free(f, 0);
/// b.free(big, 4);
/// assert_eq!(b.free_frames(), 1024);
/// # Ok::<(), refsim_os::buddy::OutOfMemory>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuddyAllocator {
    frames: u64,
    free_frames: u64,
    /// Free block start frames, per order.
    free_lists: Vec<BTreeSet<Frame>>,
    /// Per-frame allocation record: `order + 1` at the start frame of an
    /// allocated block, 0 elsewhere. Catches double/mismatched frees.
    alloc_map: Vec<u8>,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `0..frames`.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: u64) -> Self {
        assert!(frames > 0, "cannot manage zero frames");
        let mut a = BuddyAllocator {
            frames,
            free_frames: frames,
            free_lists: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
            alloc_map: vec![0; frames as usize],
        };
        // Seed with maximal aligned blocks (greedy high-order carve).
        let mut start = 0u64;
        while start < frames {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                if start.is_multiple_of(size) && start + size <= frames {
                    break;
                }
                order -= 1;
            }
            a.free_lists[order as usize].insert(start);
            start += 1u64 << order;
        }
        a
    }

    /// Total managed frames.
    pub fn total_frames(&self) -> u64 {
        self.frames
    }

    /// Currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Free blocks currently held at `order` (diagnostics / tests).
    pub fn free_blocks_at(&self, order: u32) -> usize {
        self.free_lists[order as usize].len()
    }

    /// Allocates a block of 2^`order` frames, returning its first frame.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] when no block of `order` or above is free.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc(&mut self, order: u32) -> Result<Frame, OutOfMemory> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Find the smallest order with a free block.
        let found = (order..=MAX_ORDER)
            .find(|&o| !self.free_lists[o as usize].is_empty())
            .ok_or(OutOfMemory)?;
        // `found` selected a non-empty list, but degrade to OOM rather
        // than panic if that ever stops holding.
        let Some(&start) = self.free_lists[found as usize].iter().next() else {
            return Err(OutOfMemory);
        };
        self.free_lists[found as usize].remove(&start);
        // Split down to the requested order, freeing the upper halves.
        let mut o = found;
        while o > order {
            o -= 1;
            let buddy = start + (1u64 << o);
            self.free_lists[o as usize].insert(buddy);
        }
        self.free_frames -= 1u64 << order;
        self.alloc_map[start as usize] = (order + 1) as u8;
        Ok(start)
    }

    /// Returns a block allocated with [`alloc`](Self::alloc), merging
    /// with free buddies as far as possible.
    ///
    /// # Panics
    ///
    /// Panics if the block is out of range, misaligned, or (detectably)
    /// already free — double frees corrupt real allocators, so the
    /// simulated one refuses them loudly.
    pub fn free(&mut self, start: Frame, order: u32) {
        assert!(order <= MAX_ORDER);
        let size = 1u64 << order;
        assert!(
            start.is_multiple_of(size),
            "misaligned free of {start:#x}@{order}"
        );
        assert!(start + size <= self.frames, "free beyond end of memory");
        assert!(
            self.alloc_map[start as usize] == (order + 1) as u8,
            "double or mismatched free of {start:#x}@{order}"
        );
        self.alloc_map[start as usize] = 0;
        self.free_frames += size;
        let mut start = start;
        let mut order = order;
        // Coalesce with the buddy while it is free.
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            if !self.free_lists[order as usize].remove(&buddy) {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(start);
    }

    /// Structural self-audit of the free lists: alignment, range,
    /// free/allocated agreement with the allocation map, block overlap,
    /// and the free-frame total. Returns the first inconsistency found,
    /// or `None` when the structure is sound. Cost is linear in the
    /// number of free blocks, so it is cheap enough to run per quantum
    /// under full audit.
    pub fn audit(&self) -> Option<String> {
        let mut blocks: Vec<(Frame, u64)> = Vec::new();
        for (o, list) in self.free_lists.iter().enumerate() {
            let size = 1u64 << o;
            for &start in list {
                if !start.is_multiple_of(size) {
                    return Some(format!("free block {start:#x}@{o} is misaligned"));
                }
                if start + size > self.frames {
                    return Some(format!(
                        "free block {start:#x}@{o} extends past end of memory"
                    ));
                }
                if self.alloc_map[start as usize] != 0 {
                    return Some(format!(
                        "frame {start:#x} is both free (order {o}) and allocated (record {})",
                        self.alloc_map[start as usize]
                    ));
                }
                blocks.push((start, size));
            }
        }
        blocks.sort_unstable();
        for w in blocks.windows(2) {
            let ((a, a_size), (b, _)) = (w[0], w[1]);
            if a + a_size > b {
                return Some(format!(
                    "free blocks overlap: {a:#x}(+{a_size}) covers {b:#x} — double free?"
                ));
            }
        }
        let listed: u64 = blocks.iter().map(|&(_, s)| s).sum();
        if listed != self.free_frames {
            return Some(format!(
                "free lists hold {listed} frame(s) but free_frames says {}",
                self.free_frames
            ));
        }
        None
    }

    /// Streams the full allocator state into `h` for state hashing: the
    /// frame counts, the free block start frames per order (ascending,
    /// each list length-prefixed) and the per-frame allocation records.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.frames);
        h.write_u64(self.free_frames);
        h.write_u64(self.free_lists.len() as u64);
        for list in &self.free_lists {
            h.write_u64(list.len() as u64);
            for &f in list {
                h.write_u64(f);
            }
        }
        h.write_u64(self.alloc_map.len() as u64);
        h.write(&self.alloc_map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocator_is_fully_free() {
        let b = BuddyAllocator::new(4096);
        assert_eq!(b.free_frames(), 4096);
        assert_eq!(b.free_blocks_at(MAX_ORDER), 4);
    }

    #[test]
    fn non_power_of_two_capacity_is_carved_greedily() {
        let b = BuddyAllocator::new(1024 + 512 + 1);
        assert_eq!(b.free_frames(), 1537);
        assert_eq!(b.free_blocks_at(MAX_ORDER), 1);
        assert_eq!(b.free_blocks_at(9), 1);
        assert_eq!(b.free_blocks_at(0), 1);
    }

    #[test]
    fn alloc_prefers_low_addresses() {
        let mut b = BuddyAllocator::new(4096);
        assert_eq!(b.alloc(0).unwrap(), 0);
        assert_eq!(b.alloc(0).unwrap(), 1);
    }

    #[test]
    fn split_and_merge_roundtrip() {
        let mut b = BuddyAllocator::new(1024);
        let f = b.alloc(0).unwrap();
        assert_eq!(b.free_frames(), 1023);
        b.free(f, 0);
        assert_eq!(b.free_frames(), 1024);
        // Everything merged back into one max-order block.
        assert_eq!(b.free_blocks_at(MAX_ORDER), 1);
        for o in 0..MAX_ORDER {
            assert_eq!(b.free_blocks_at(o), 0, "order {o} should be empty");
        }
    }

    #[test]
    fn interleaved_frees_merge_pairwise() {
        let mut b = BuddyAllocator::new(8);
        let frames: Vec<_> = (0..8).map(|_| b.alloc(0).unwrap()).collect();
        assert_eq!(b.free_frames(), 0);
        // Free odd frames: no merges possible yet.
        for &f in frames.iter().filter(|f| *f % 2 == 1) {
            b.free(f, 0);
        }
        assert_eq!(b.free_blocks_at(0), 4);
        // Free even frames: everything merges to one order-3 block.
        for &f in frames.iter().filter(|f| *f % 2 == 0) {
            b.free(f, 0);
        }
        assert_eq!(b.free_blocks_at(3), 1);
        assert_eq!(b.free_frames(), 8);
    }

    #[test]
    fn exhaustion_reports_oom() {
        let mut b = BuddyAllocator::new(2);
        b.alloc(1).unwrap();
        assert_eq!(b.alloc(0), Err(OutOfMemory));
    }

    #[test]
    #[should_panic(expected = "double or mismatched free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(16);
        let f = b.alloc(0).unwrap();
        b.free(f, 0);
        b.free(f, 0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_panics() {
        let mut b = BuddyAllocator::new(16);
        b.free(1, 1);
    }

    #[test]
    fn higher_order_allocation_is_aligned() {
        let mut b = BuddyAllocator::new(4096);
        let f = b.alloc(5).unwrap();
        assert_eq!(f % 32, 0);
        let g = b.alloc(5).unwrap();
        assert_eq!(g % 32, 0);
        assert_ne!(f, g);
    }
}
