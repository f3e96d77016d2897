//! Fixed 128-bit occupancy set.
//!
//! [`BitSet128`] replaces the router's former bare `occ: u64` word: two
//! words of storage, so a router with up to 128 `(port, vc)` slots can
//! track which input FIFOs are non-empty without aliasing. Iteration
//! yields set bits in ascending order via `trailing_zeros`, which is what
//! keeps the phase sweeps deterministic. [`BitSet128::and`] and
//! [`BitSet128::and_not`] combine the router's slot-class masks, so a
//! sweep visits only the slots of the class it serves.

/// A set of up to 128 small indices, stored as two `u64` words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitSet128 {
    words: [u64; 2],
}

impl BitSet128 {
    /// Largest index (exclusive) the set can hold.
    pub const CAPACITY: usize = 128;

    /// Empty set.
    #[inline]
    pub const fn new() -> Self {
        Self { words: [0, 0] }
    }

    /// Insert `bit`. Panics in debug builds if `bit >= 128`.
    #[inline]
    pub fn set(&mut self, bit: usize) {
        debug_assert!(bit < Self::CAPACITY);
        self.words[bit >> 6] |= 1u64 << (bit & 63);
    }

    /// Remove `bit`.
    #[inline]
    pub fn clear(&mut self, bit: usize) {
        debug_assert!(bit < Self::CAPACITY);
        self.words[bit >> 6] &= !(1u64 << (bit & 63));
    }

    /// True if `bit` is present.
    #[inline]
    pub fn test(&self, bit: usize) -> bool {
        debug_assert!(bit < Self::CAPACITY);
        self.words[bit >> 6] & (1u64 << (bit & 63)) != 0
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words[0] == 0 && self.words[1] == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        (self.words[0].count_ones() + self.words[1].count_ones()) as usize
    }

    /// Bits set in both `self` and `other`.
    #[inline]
    pub fn and(self, other: Self) -> Self {
        Self { words: [self.words[0] & other.words[0], self.words[1] & other.words[1]] }
    }

    /// Bits set in `self` but not in `other`.
    #[inline]
    pub fn and_not(self, other: Self) -> Self {
        Self { words: [self.words[0] & !other.words[0], self.words[1] & !other.words[1]] }
    }

    /// Iterate set bits in ascending order.
    #[inline]
    pub fn iter(&self) -> BitIter {
        BitIter { words: self.words, base: 0 }
    }
}

/// Ascending iterator over the set bits of a [`BitSet128`].
#[derive(Debug, Clone)]
pub struct BitIter {
    words: [u64; 2],
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            let w = self.words[self.base >> 6];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.words[self.base >> 6] = w & (w - 1);
                return Some(self.base + bit);
            }
            if self.base >= 64 {
                return None;
            }
            self.base = 64;
        }
    }
}

crate::snap_struct!(BitSet128 { words });

impl IntoIterator for &BitSet128 {
    type Item = usize;
    type IntoIter = BitIter;
    fn into_iter(self) -> BitIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_test_across_both_words() {
        let mut s = BitSet128::new();
        assert!(s.is_empty());
        for bit in [0, 1, 63, 64, 65, 127] {
            s.set(bit);
            assert!(s.test(bit));
        }
        assert_eq!(s.count(), 6);
        s.clear(64);
        assert!(!s.test(64));
        assert!(s.test(65), "clearing one bit must not disturb neighbors");
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn iteration_is_ascending_across_the_word_boundary() {
        let mut s = BitSet128::new();
        for bit in [127, 3, 64, 63, 0, 100] {
            s.set(bit);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 100, 127]);
    }

    #[test]
    fn and_and_not_combine_both_words() {
        let mut a = BitSet128::new();
        let mut b = BitSet128::new();
        for bit in [1, 63, 64, 100] {
            a.set(bit);
        }
        for bit in [63, 100, 127] {
            b.set(bit);
        }
        assert_eq!(a.and(b).iter().collect::<Vec<_>>(), vec![63, 100]);
        assert_eq!(a.and_not(b).iter().collect::<Vec<_>>(), vec![1, 64]);
        assert!(a.and_not(a).is_empty());
    }

    #[test]
    fn double_set_and_clear_are_idempotent() {
        let mut s = BitSet128::new();
        s.set(70);
        s.set(70);
        assert_eq!(s.count(), 1);
        s.clear(70);
        s.clear(70);
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
    }
}
