//! Deterministic pseudo-random number generation.
//!
//! A self-contained xoshiro256** generator seeded through SplitMix64, so
//! every stochastic choice in the simulator (sharer placement, background
//! traffic, workload jitter) is reproducible from a single `u64` seed and
//! independent of external crates' version drift.

/// Deterministic PRNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift with rejection for unbiased results.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below bound must be nonzero");
        // Lemire rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Rng::range requires lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `\[0, 1\]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Choose `k` distinct values from `[0, n)` (k <= n), in random order.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        // Partial Fisher-Yates over an index vector; O(n) setup but n is a
        // mesh node count (<= a few thousand) in this workspace.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Fork an independent child stream (e.g. one per node) that will not
    /// correlate with the parent.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn range_inclusive_endpoints() {
        let mut r = Rng::new(9);
        let (mut lo_hit, mut hi_hit) = (false, false);
        for _ in 0..2000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            lo_hit |= v == 3;
            hi_hit |= v == 5;
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn f64_unit_interval_and_roughly_uniform() {
        let mut r = Rng::new(1234);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn sample_distinct_is_distinct_and_complete() {
        let mut r = Rng::new(5);
        let s = r.sample_distinct(100, 40);
        assert_eq!(s.len(), 40);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 40);
        assert!(s.iter().all(|&v| v < 100));
        let all = r.sample_distinct(10, 10);
        let set: std::collections::HashSet<_> = all.into_iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(77);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(8);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(11);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
