//! Open-addressed map keyed by `u64` with dense, insertion-ordered values.
//!
//! [`FlatMap`] replaces `std::collections::HashMap` on the simulator's
//! per-transaction paths: a power-of-two probe table of slot indices plus
//! dense `keys`/`vals` vectors. Compared to the std map this avoids SipHash
//! (one multiply + shift instead), keeps values contiguous, and iterates in
//! deterministic insertion order — important because several observable
//! results fold over map contents.
//!
//! Removal uses probe-table tombstones with dense-slot reuse: a removed
//! entry leaves a tombstone in the index (probes walk through it) and its
//! dense slot on a free list, so delete-heavy churn at a steady live count
//! reuses slots instead of growing either vector. The probe table is
//! rehashed in place when tombstones accumulate past a quarter of its
//! capacity, bounding probe lengths. For maps that never remove (directory
//! entries), iteration order is exactly insertion order; after removals,
//! reused slots keep the *slot's* position in iteration order — still
//! deterministic, which is what the simulator's folds require.

/// Fibonacci-style multiplicative hash spreading `u64` keys.
#[inline]
fn spread(key: u64) -> u64 {
    // Knuth's 2^64 / phi multiplier; high bits are well mixed, so the
    // probe mask is applied after a right shift.
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(29)
}

const EMPTY: u32 = u32::MAX;
const TOMBSTONE: u32 = u32::MAX - 1;

/// A hash map from `u64` keys to `V`, open-addressed with linear probing,
/// dense slot-ordered storage, and tombstone-based removal.
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    /// Probe table of indices into `keys`/`vals`; length is a power of two.
    index: Vec<u32>,
    keys: Vec<u64>,
    vals: Vec<Option<V>>,
    /// Dense slots vacated by `remove`, reused LIFO by later inserts.
    free: Vec<u32>,
    /// Outstanding `TOMBSTONE` entries in `index`.
    tombstones: usize,
}

impl<V> Default for FlatMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlatMap<V> {
    /// Empty map (no allocation until first insert).
    pub fn new() -> Self {
        Self {
            index: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len() - self.free.len()
    }

    /// True when no live entry remains.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense slot of `key`, if present.
    #[inline]
    fn probe(&self, key: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut i = spread(key) as usize & mask;
        loop {
            let slot = self.index[i];
            if slot == EMPTY {
                return None;
            }
            if slot != TOMBSTONE && self.keys[slot as usize] == key {
                return Some(slot as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Shared access to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.probe(key).map(|s| self.vals[s].as_ref().expect("indexed slot is live"))
    }

    /// Mutable access to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.probe(key).map(|s| self.vals[s].as_mut().expect("indexed slot is live"))
    }

    /// Value for `key`, inserting `make()` first if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let slot = match self.probe(key) {
            Some(s) => s,
            None => self.push(key, make()),
        };
        self.vals[slot].as_mut().expect("just inserted")
    }

    /// Insert `val` for `key`; returns the previous value if any.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        match self.probe(key) {
            Some(s) => self.vals[s].replace(val),
            None => {
                self.push(key, val);
                None
            }
        }
    }

    /// Remove `key`, returning its value if it was present.
    ///
    /// Leaves a tombstone in the probe table (reclaimed by a later insert
    /// along the same probe path or by the next rehash) and recycles the
    /// dense slot through the free list.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut i = spread(key) as usize & mask;
        loop {
            let slot = self.index[i];
            if slot == EMPTY {
                return None;
            }
            if slot != TOMBSTONE && self.keys[slot as usize] == key {
                self.index[i] = TOMBSTONE;
                self.tombstones += 1;
                self.free.push(slot);
                return self.vals[slot as usize].take();
            }
            i = (i + 1) & mask;
        }
    }

    /// Append or revive an entry (key known absent) and index it; returns
    /// its dense slot.
    fn push(&mut self, key: u64, val: V) -> usize {
        // Rehash in place when tombstones crowd the probe table; grow at
        // 7/8 combined (live + tombstone) load, or on first insert.
        if self.tombstones * 4 > self.index.len() {
            self.rebuild(self.index.len());
        }
        if (self.len() + self.tombstones + 1) * 8 > self.index.len() * 7 {
            self.rebuild((self.index.len() * 2).max(16));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.keys[s as usize] = key;
                self.vals[s as usize] = Some(val);
                s as usize
            }
            None => {
                self.keys.push(key);
                self.vals.push(Some(val));
                self.keys.len() - 1
            }
        };
        self.link(key, slot as u32);
        slot
    }

    /// Place `slot` on `key`'s probe path, reusing the first tombstone
    /// encountered. Caller guarantees `key` is absent.
    fn link(&mut self, key: u64, slot: u32) {
        let mask = self.index.len() - 1;
        let mut i = spread(key) as usize & mask;
        loop {
            let e = self.index[i];
            if e == EMPTY || e == TOMBSTONE {
                if e == TOMBSTONE {
                    self.tombstones -= 1;
                }
                self.index[i] = slot;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuild the probe table at `cap` entries from live slots only,
    /// dropping all tombstones.
    fn rebuild(&mut self, cap: usize) {
        self.index.clear();
        self.index.resize(cap, EMPTY);
        self.tombstones = 0;
        for slot in 0..self.keys.len() {
            if self.vals[slot].is_some() {
                let key = self.keys[slot];
                self.link(key, slot as u32);
            }
        }
    }

    /// Live keys in dense-slot order (= insertion order absent removals).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Live `(key, &value)` pairs in dense-slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.keys.iter().zip(self.vals.iter()).filter_map(|(k, v)| v.as_ref().map(|v| (*k, v)))
    }
}

impl<V: crate::snap::Snap> crate::snap::Snap for FlatMap<V> {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        // Primary state only: dense keys/values (holes included — slot
        // positions are observable through iteration order) and the free
        // list (LIFO reuse order is observable through future inserts).
        // The probe table is derived state, rebuilt on load; its exact
        // capacity affects probe cost only, never results.
        self.keys.save(w);
        self.vals.save(w);
        self.free.save(w);
    }
    fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        let keys: Vec<u64> = Vec::load(r)?;
        let vals: Vec<Option<V>> = Vec::load(r)?;
        let free: Vec<u32> = Vec::load(r)?;
        if keys.len() != vals.len() {
            return Err(crate::snap::SnapError::Corrupt(format!(
                "flat map: {} keys vs {} values",
                keys.len(),
                vals.len()
            )));
        }
        let holes = vals.iter().filter(|v| v.is_none()).count();
        if free.len() != holes
            || free.iter().any(|&s| s as usize >= vals.len() || vals[s as usize].is_some())
        {
            return Err(crate::snap::SnapError::Corrupt(
                "flat map: free list does not match value holes".to_string(),
            ));
        }
        let mut m = Self { index: Vec::new(), keys, vals, free, tombstones: 0 };
        if !m.keys.is_empty() {
            // Same sizing rule as the incremental grower: capacity stays
            // under 7/8 load for the live count.
            let cap = ((m.len() + 1) * 8 / 7 + 1).next_power_of_two().max(16);
            m.rebuild(cap);
        }
        // A repeated live key would shadow its twin: every probe finds
        // the first, so the second could never be reached or removed.
        if (0..m.keys.len()).any(|s| m.vals[s].is_some() && m.probe(m.keys[s]) != Some(s)) {
            return Err(crate::snap::SnapError::Corrupt("flat map: repeated key".to_string()));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut m: FlatMap<String> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(7), None);
        assert_eq!(m.insert(7, "seven".into()), None);
        assert_eq!(m.insert(7, "VII".into()), Some("seven".into()));
        assert_eq!(m.get(7).map(String::as_str), Some("VII"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn survives_growth_with_many_sparse_keys() {
        let mut m: FlatMap<u64> = FlatMap::new();
        // Sparse, huge keys — the directory's block ids are in the
        // billions for synthetic benchmarks.
        let keys: Vec<u64> = (0..1000).map(|i| i * 0x1_0000_002B + 17).collect();
        for &k in &keys {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1000);
        for &k in &keys {
            assert_eq!(m.get(k), Some(&(k * 3)));
        }
        assert_eq!(m.get(5), None);
    }

    #[test]
    fn get_or_insert_with_is_lazy() {
        let mut m: FlatMap<Vec<u8>> = FlatMap::new();
        m.get_or_insert_with(1, || vec![1]).push(9);
        m.get_or_insert_with(1, || panic!("must not re-create"));
        assert_eq!(m.get(1), Some(&vec![1, 9]));
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut m: FlatMap<char> = FlatMap::new();
        for (i, k) in [900u64, 3, 77, 12, 500].iter().enumerate() {
            m.insert(*k, (b'a' + i as u8) as char);
        }
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![900, 3, 77, 12, 500]);
        assert_eq!(m.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec!['a', 'b', 'c', 'd', 'e']);
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Keys engineered to share a bucket at small table sizes still
        // resolve to distinct slots.
        let mut m: FlatMap<u32> = FlatMap::new();
        for k in 0..64u64 {
            m.insert(k << 32, k as u32);
        }
        for k in 0..64u64 {
            assert_eq!(m.get(k << 32), Some(&(k as u32)));
        }
    }

    #[test]
    fn remove_returns_value_and_forgets_key() {
        let mut m: FlatMap<u32> = FlatMap::new();
        m.insert(10, 100);
        m.insert(20, 200);
        assert_eq!(m.remove(10), Some(100));
        assert_eq!(m.remove(10), None, "double remove is a miss");
        assert_eq!(m.remove(99), None, "absent key is a miss");
        assert_eq!(m.get(10), None);
        assert_eq!(m.get(20), Some(&200), "neighbors survive removal");
        assert_eq!(m.len(), 1);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![20]);
    }

    #[test]
    fn probes_walk_through_tombstones() {
        // Colliding keys chain past each other; removing one mid-chain
        // must not hide the keys linked behind its tombstone.
        let mut m: FlatMap<u32> = FlatMap::new();
        for k in 0..16u64 {
            m.insert(k << 32, k as u32);
        }
        m.remove(3 << 32);
        for k in 0..16u64 {
            if k == 3 {
                assert_eq!(m.get(k << 32), None);
            } else {
                assert_eq!(m.get(k << 32), Some(&(k as u32)), "key {k} lost behind tombstone");
            }
        }
        // Reinsert: the tombstone on the probe path is reclaimed.
        m.insert(3 << 32, 333);
        assert_eq!(m.get(3 << 32), Some(&333));
        assert_eq!(m.tombstones, 0, "reinsert along the probe path reclaims the tombstone");
    }

    /// Delete-heavy directory churn: entries retire and new blocks arrive
    /// at a steady live count. Dense slots must be recycled (no unbounded
    /// growth of `keys`/`vals`) and the probe table must stay bounded via
    /// tombstone rehash, with lookups staying correct throughout.
    #[test]
    fn tombstone_reuse_under_delete_heavy_churn() {
        let mut m: FlatMap<u64> = FlatMap::new();
        const LIVE: u64 = 64;
        for k in 0..LIVE {
            m.insert(k, k * 2);
        }
        let (dense_cap, index_cap) = (m.keys.len(), m.index.len());
        for round in 1..200u64 {
            // Retire the oldest generation, admit a new one.
            for k in 0..LIVE {
                assert_eq!(m.remove((round - 1) * LIVE + k), Some(((round - 1) * LIVE + k) * 2));
            }
            for k in 0..LIVE {
                m.insert(round * LIVE + k, (round * LIVE + k) * 2);
            }
            assert_eq!(m.len(), LIVE as usize);
            for k in 0..LIVE {
                assert_eq!(m.get(round * LIVE + k), Some(&((round * LIVE + k) * 2)));
            }
            assert_eq!(m.get((round - 1) * LIVE), None, "retired generation gone");
        }
        assert_eq!(m.keys.len(), dense_cap, "dense slots must be reused, not grown");
        assert_eq!(m.index.len(), index_cap, "steady live count must not grow the probe table");
        assert!(m.tombstones * 4 <= m.index.len() + 4, "tombstones must be reclaimed by rehash");
        // Order stays deterministic: exactly the last generation, one per slot.
        assert_eq!(m.iter().count(), LIVE as usize);
    }

    #[test]
    fn remove_everything_then_refill() {
        let mut m: FlatMap<u8> = FlatMap::new();
        for k in 0..40u64 {
            m.insert(k, k as u8);
        }
        for k in 0..40u64 {
            m.remove(k);
        }
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        for k in 100..140u64 {
            m.insert(k, (k - 100) as u8);
        }
        assert_eq!(m.len(), 40);
        assert_eq!(m.keys.len(), 40, "refill reuses all vacated slots");
        for k in 100..140u64 {
            assert_eq!(m.get(k), Some(&((k - 100) as u8)));
        }
    }

    #[test]
    fn load_refuses_a_repeated_key() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        vec![4u64, 9, 4].save(&mut w);
        vec![Some(1u32), Some(2), Some(3)].save(&mut w);
        Vec::<u32>::new().save(&mut w);
        let bytes = w.finish();
        let err = FlatMap::<u32>::load(&mut SnapReader::new(&bytes).unwrap()).unwrap_err();
        assert!(err.to_string().contains("repeated key"), "{err}");
    }
}
