//! Per-task virtual memory: demand-paged page tables.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::bank_alloc::PAGE_BYTES;
use crate::buddy::Frame;

/// Largest VPN a page table holds: a slot keeps `vpn + 1` in its upper
/// 32 bits. The largest footprint (mcf, 1.74 GB) needs under 2^19 pages.
const MAX_VPN: u64 = u32::MAX as u64 - 1;

/// Largest frame a page table holds (a slot's lower 32 bits). The
/// largest geometry `SystemConfig` accepts has 2^24 frames.
const MAX_FRAME: Frame = u32::MAX as u64;

/// Fibonacci hashing multiplier, 2^64 / φ.
const FIB_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slots of a page table's first allocation.
const MIN_SLOTS: usize = 16;

/// A VPN → frame map in one array of packed `u64` slots.
///
/// A slot holds `(vpn + 1) << 32 | frame`, and 0 is an empty slot, so a
/// grown table starts as zeroed memory. Fibonacci hashing picks a
/// VPN's home slot and linear probing resolves collisions. The table
/// doubles before it passes ¾ load, which keeps short the unsuccessful
/// probe that every page fault makes. Mappings are never removed, so
/// there are no tombstones.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PageTable {
    /// Power-of-two slot array; empty until the first insert.
    slots: Vec<u64>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl PageTable {
    #[inline]
    fn home(&self, vpn: u64) -> usize {
        (vpn.wrapping_mul(FIB_MUL) >> self.shift) as usize
    }

    /// The frame mapped at `vpn`, if any.
    #[inline]
    fn get(&self, vpn: u64) -> Option<Frame> {
        if self.slots.is_empty() || vpn > MAX_VPN {
            return None;
        }
        let tag = vpn + 1;
        let mask = self.slots.len() - 1;
        let mut i = self.home(vpn);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if slot >> 32 == tag {
                return Some(slot & MAX_FRAME);
            }
            i = (i + 1) & mask;
        }
    }

    /// Maps `vpn` to `frame` unless `vpn` is already mapped; returns
    /// whether it did. Both must be in range.
    fn insert(&mut self, vpn: u64, frame: Frame) -> bool {
        debug_assert!(vpn <= MAX_VPN && frame <= MAX_FRAME);
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = vpn + 1;
        let mask = self.slots.len() - 1;
        let mut i = self.home(vpn);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                self.slots[i] = tag << 32 | frame;
                self.len += 1;
                return true;
            }
            if slot >> 32 == tag {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Moves every mapping into a zeroed array of twice the slots.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; slots]);
        self.shift = 64 - slots.trailing_zeros();
        let mask = slots - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut i = self.home((slot >> 32) - 1);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, Frame)> + '_ {
        self.slots
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| ((s >> 32) - 1, s & MAX_FRAME))
    }
}

/// A task's virtual→physical mapping, filled on demand.
///
/// # Examples
///
/// ```
/// use refsim_os::vm::AddressSpace;
///
/// let mut mm = AddressSpace::new();
/// assert_eq!(mm.translate(0x1234), None); // not yet faulted in
/// mm.map(0x1000, 42);
/// assert_eq!(mm.translate(0x1234), Some(42 * 4096 + 0x234));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AddressSpace {
    page_table: PageTable,
    /// Demand faults taken (== pages mapped).
    faults: u64,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Virtual page number of `vaddr`.
    pub fn vpn(vaddr: u64) -> u64 {
        vaddr / PAGE_BYTES
    }

    /// Translates a virtual address, or `None` if the page is unmapped
    /// (page fault).
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        self.page_table
            .get(Self::vpn(vaddr))
            .map(|f| f * PAGE_BYTES + vaddr % PAGE_BYTES)
    }

    /// Installs a mapping for `vaddr`'s page.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped (double fault handling is a
    /// kernel bug), or if its VPN or `frame` does not fit in 32 bits.
    pub fn map(&mut self, vaddr: u64, frame: Frame) {
        let vpn = Self::vpn(vaddr);
        assert!(
            vpn <= MAX_VPN && frame <= MAX_FRAME,
            "page {vpn:#x} -> frame {frame:#x} is out of the page table's 32-bit range"
        );
        assert!(
            self.page_table.insert(vpn, frame),
            "page {vpn:#x} double-mapped"
        );
        self.faults += 1;
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.page_table.len as u64
    }

    /// Resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        self.resident_pages() * PAGE_BYTES
    }

    /// Demand faults taken so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Iterates over `(vpn, frame)` mappings (deterministic order not
    /// guaranteed; used for teardown and statistics).
    pub fn mappings(&self) -> impl Iterator<Item = (u64, Frame)> + '_ {
        self.page_table.iter()
    }

    /// Heap bytes the page table holds, for footprint tests.
    #[doc(hidden)]
    pub fn page_table_bytes(&self) -> usize {
        std::mem::size_of_val(self.page_table.slots.as_slice())
    }

    /// Streams the `(vpn, frame)` mappings sorted by VPN
    /// (length-prefixed) and the fault counter into `h` for state
    /// hashing. Sorting makes the stream independent of the table's
    /// slot layout.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        let mut pages: Vec<(u64, Frame)> = self.mappings().collect();
        pages.sort_unstable();
        h.write_u64(pages.len() as u64);
        for (vpn, frame) in pages {
            h.write_u64(vpn);
            h.write_u64(frame);
        }
        h.write_u64(self.faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_miss_then_hit() {
        let mut mm = AddressSpace::new();
        assert_eq!(mm.translate(0x5000), None);
        mm.map(0x5000, 7);
        assert_eq!(mm.translate(0x5000), Some(7 * 4096));
        assert_eq!(mm.translate(0x5fff), Some(7 * 4096 + 0xfff));
        assert_eq!(mm.translate(0x6000), None);
        assert_eq!(mm.faults(), 1);
        assert_eq!(mm.resident_pages(), 1);
        assert_eq!(mm.rss_bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut mm = AddressSpace::new();
        mm.map(0x1000, 1);
        mm.map(0x1fff, 2); // same page
    }

    #[test]
    fn vpn_math() {
        assert_eq!(AddressSpace::vpn(0), 0);
        assert_eq!(AddressSpace::vpn(4095), 0);
        assert_eq!(AddressSpace::vpn(4096), 1);
    }

    #[test]
    #[should_panic(expected = "32-bit range")]
    fn map_rejects_out_of_range_vpn() {
        AddressSpace::new().map((MAX_VPN + 1) * PAGE_BYTES, 1);
    }

    #[test]
    #[should_panic(expected = "32-bit range")]
    fn map_rejects_out_of_range_frame() {
        AddressSpace::new().map(0x1000, MAX_FRAME + 1);
    }

    #[test]
    fn largest_vpn_and_frame_round_trip() {
        let mut mm = AddressSpace::new();
        let vaddr = MAX_VPN * PAGE_BYTES + 0xabc;
        mm.map(vaddr, MAX_FRAME);
        assert_eq!(mm.translate(vaddr), Some(MAX_FRAME * PAGE_BYTES + 0xabc));
        assert_eq!(mm.translate(u64::MAX), None);
        assert_eq!(
            mm.mappings().collect::<Vec<_>>(),
            vec![(MAX_VPN, MAX_FRAME)]
        );
    }

    #[test]
    fn mappings_iterates_all() {
        let mut mm = AddressSpace::new();
        mm.map(0x1000, 10);
        mm.map(0x2000, 20);
        let mut v: Vec<_> = mm.mappings().collect();
        v.sort_unstable();
        assert_eq!(v, vec![(1, 10), (2, 20)]);
    }
}
