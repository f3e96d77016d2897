//! Randomized property tests on the simulation kernel: calendar ordering,
//! statistics correctness against naive references, RNG contracts.
//!
//! Cases are generated from the workspace's own deterministic [`Rng`]
//! (fixed seeds, fixed trial counts) so the suite is reproducible and
//! dependency-free.

use wormdsm_sim::{Calendar, Histogram, Rng, Summary};

#[test]
fn calendar_pops_sorted_stable() {
    let mut rng = Rng::new(0x5EED_0001);
    for _ in 0..64 {
        let n = rng.range(1, 200) as usize;
        let events: Vec<(u64, u32)> =
            (0..n).map(|_| (rng.below(1000), rng.below(1000) as u32)).collect();
        let mut cal = Calendar::new();
        for (i, (t, v)) in events.iter().enumerate() {
            cal.schedule(*t, (*v, i));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut count = 0;
        while let Some((t, (_, i))) = cal.pop_next() {
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "stable time order violated");
            }
            last = Some((t, i));
            count += 1;
        }
        assert_eq!(count, events.len());
    }
}

#[test]
fn summary_matches_naive() {
    let mut rng = Rng::new(0x5EED_0002);
    for _ in 0..64 {
        let n = rng.range(1, 300) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.f64() - 0.5) * 2e6).collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let nf = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / nf;
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.stddev() - var.sqrt()).abs() < 1e-5 * (1.0 + var.sqrt()));
        assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(s.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
}

#[test]
fn summary_merge_any_split() {
    let mut rng = Rng::new(0x5EED_0003);
    for _ in 0..64 {
        let n = rng.range(2, 200) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.f64() - 0.5) * 2e3).collect();
        let split = rng.index(xs.len());
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let (mut a, mut b) = (Summary::new(), Summary::new());
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        assert!((a.stddev() - whole.stddev()).abs() < 1e-7 * (1.0 + whole.stddev()));
    }
}

#[test]
fn histogram_total_and_bounds() {
    let mut rng = Rng::new(0x5EED_0004);
    for _ in 0..64 {
        let n = rng.range(1, 200) as usize;
        let xs: Vec<u64> = (0..n).map(|_| rng.below(500)).collect();
        let mut h = Histogram::new(10, 20);
        for &x in &xs {
            h.record(x);
        }
        let bucketed: u64 = (0..h.buckets()).map(|i| h.bucket(i)).sum();
        assert_eq!(bucketed + h.overflow(), xs.len() as u64);
        let q0 = h.quantile(0.0);
        let q1 = h.quantile(1.0);
        assert!(q0 <= q1);
    }
}

#[test]
fn rng_below_in_bounds() {
    let mut meta = Rng::new(0x5EED_0005);
    for _ in 0..32 {
        let seed = meta.next_u64();
        let bound = meta.range(1, 1_000_000);
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            assert!(r.below(bound) < bound);
        }
    }
}

#[test]
fn rng_sample_distinct_contract() {
    let mut meta = Rng::new(0x5EED_0006);
    for _ in 0..64 {
        let seed = meta.next_u64();
        let n = meta.range(1, 99) as usize;
        let k = (n * meta.index(100) / 100).min(n);
        let mut r = Rng::new(seed);
        let s = r.sample_distinct(n, k);
        assert_eq!(s.len(), k);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), k);
        assert!(s.iter().all(|&v| v < n));
    }
}
