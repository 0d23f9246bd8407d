//! A small open-addressing hash map keyed by `u64`, hashed with FNV-1a.
//!
//! [`std::collections::HashMap`] pays for SipHash (DoS resistance the
//! simulator does not need) and its default hasher allocates per map.
//! Request ids are sequential `u64`s, so the hot `inflight` table in
//! [`crate::system::System`] — one insert and one remove per LLC miss —
//! wants the cheapest possible mixing; each core's MSHR line table,
//! keyed by line address, takes the same traffic. FNV-1a over the 8 key
//! bytes distributes sequential keys well and is already this
//! workspace's standard hash (checkpoints, replay state digests).
//!
//! The table uses linear probing with backward-shift deletion (no
//! tombstones, so long-lived maps never degrade), grows at ⅞ load, and
//! never shrinks — steady-state stepping performs zero allocations once
//! the high-water capacity is reached.
//!
//! # Examples
//!
//! ```
//! use refsim_core::fastmap::FnvMap;
//!
//! let mut m: FnvMap<u32> = FnvMap::new();
//! m.insert(7, 42);
//! assert_eq!(m.get(7), Some(&42));
//! assert_eq!(m.remove(7), Some(42));
//! assert!(m.is_empty());
//! ```

/// FNV-1a over the little-endian bytes of `k`.
#[inline]
fn fnv1a_u64(k: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in k.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An open-addressing `u64 → V` map hashed with FNV-1a.
///
/// See the [module docs](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct FnvMap<V> {
    /// Power-of-two slot array; `None` is an empty slot.
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> Default for FnvMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FnvMap<V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FnvMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn ideal(&self, k: u64) -> usize {
        (fnv1a_u64(k) as usize) & self.mask()
    }

    /// The slot holding `k`, if present.
    #[inline]
    fn find(&self, k: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.ideal(k);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((key, _)) if *key == k => return Some(i),
                Some(_) => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Looks up the value stored under `k`.
    pub fn get(&self, k: u64) -> Option<&V> {
        let i = self.find(k)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Whether `k` is present.
    pub fn contains_key(&self, k: u64) -> bool {
        self.find(k).is_some()
    }

    /// Inserts `k → v`, returning the value it replaces, if any.
    pub fn insert(&mut self, k: u64, v: V) -> Option<V> {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = self.ideal(k);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((k, v));
                    self.len += 1;
                    return None;
                }
                Some((key, val)) if *key == k => {
                    return Some(std::mem::replace(val, v));
                }
                Some(_) => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Removes `k`, returning its value if it was present.
    ///
    /// Uses backward-shift deletion: subsequent entries of the probe
    /// chain slide back over the hole, so no tombstones accumulate.
    pub fn remove(&mut self, k: u64) -> Option<V> {
        let mut hole = self.find(k)?;
        let (_, v) = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((key, _)) = self.slots[i] else {
                break;
            };
            let ideal = (fnv1a_u64(key) as usize) & mask;
            // `i`'s entry may move into the hole only if its probe chain
            // passes through the hole: ideal ∉ (hole, i] cyclically.
            let dist_from_ideal = i.wrapping_sub(ideal) & mask;
            let dist_from_hole = i.wrapping_sub(hole) & mask;
            if dist_from_ideal >= dist_from_hole {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
        Some(v)
    }

    /// Iterates over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Number of slots currently allocated (the map's capacity proxy;
    /// stable slot count across a window means zero rehash traffic).
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FnvMap::new();
        for k in 0..1000u64 {
            assert_eq!(m.insert(k, k * 3), None);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(&(k * 3)));
        }
        for k in (0..1000u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k * 3));
        }
        assert_eq!(m.len(), 500);
        for k in 0..1000u64 {
            if k % 2 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&(k * 3)));
            }
        }
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut m = FnvMap::new();
        assert_eq!(m.insert(5, "a"), None);
        assert_eq!(m.insert(5, "b"), Some("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(5), Some(&"b"));
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut m = FnvMap::new();
        for k in 0..100u64 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        m.insert(1, 2);
        assert_eq!(m.get(1), Some(&2));
    }

    /// Deterministic pseudo-random torture against std's HashMap: the
    /// backward-shift deletion must preserve every probe chain.
    #[test]
    fn mirrors_std_hashmap_under_mixed_churn() {
        let mut m = FnvMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Small key space forces heavy collision + reuse traffic.
            let k = (state >> 33) % 257;
            match state % 3 {
                0 | 1 => {
                    assert_eq!(m.insert(k, step), reference.insert(k, step), "key {k}");
                }
                _ => {
                    assert_eq!(m.remove(k), reference.remove(&k), "key {k}");
                }
            }
            assert_eq!(m.len(), reference.len());
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(&v));
        }
        assert_eq!(m.iter().count(), reference.len());
    }

    #[test]
    fn sequential_ids_with_wraparound_reuse() {
        // The inflight table's exact pattern: monotonically increasing
        // ids inserted and removed in FIFO-ish order, plus ids reused
        // from an earlier epoch (checkpoint/restore rewinds next_req).
        let mut m = FnvMap::new();
        for k in 0..64u64 {
            m.insert(k, k);
        }
        for k in 0..64u64 {
            assert_eq!(m.remove(k), Some(k));
        }
        for k in 0..64u64 {
            assert_eq!(m.insert(k, k + 100), None, "reused id {k} must be fresh");
            assert_eq!(m.get(k), Some(&(k + 100)));
        }
    }
}
