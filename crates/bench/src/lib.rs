//! # wormdsm-bench — experiment harness
//!
//! [`repro`] holds the paper's evaluation and its extension studies as
//! one experiment table with their claims as checked predicates; the
//! `repro` binary runs it (see DESIGN.md's experiment index). The other
//! binaries in `src/bin/` serve the farm (`farm`) and measure the
//! simulator's own host cost (`exp_perf`, a package of its own).
//! Simulation instances are single-threaded and deterministic; sweeps
//! fan out across OS threads.

#![warn(missing_docs)]

pub mod repro;

use std::collections::VecDeque;

use wormdsm_coherence::Addr;
use wormdsm_core::{DsmSystem, MemOp, SchemeKind, SystemConfig};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_sim::Rng;
use wormdsm_workloads::{gen_pattern, Pattern, PatternKind};

/// Measured outcome of one seeded invalidation transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnResult {
    /// Home-observed invalidation latency, cycles.
    pub inval_latency: f64,
    /// Processor-observed write latency, cycles.
    pub write_latency: f64,
    /// Messages sent + received at the home.
    pub home_msgs: f64,
    /// Directory-controller busy cycles at the home.
    pub dc_busy: u64,
    /// Network traffic, flit-hops.
    pub traffic: u64,
    /// Total worms injected.
    pub messages: u64,
    /// Gather worms parked (VCT deferrals).
    pub parks: u64,
    /// Cycles gather heads spent blocked.
    pub gather_blocked: u64,
}

/// Fail fast when `sys` is in a state no experiment should report numbers
/// from: a protocol invariant fired mid-run, or the end-state coherence
/// audit ([`DsmSystem::verify_coherence`]) finds a violated invariant.
/// Call it with the system idle (no transient protocol states in flight).
pub fn assert_coherent(sys: &DsmSystem, context: &str) {
    if let Some(v) = sys.invariant_violation() {
        panic!("{context}: {v}");
    }
    if let Err(e) = sys.verify_coherence() {
        panic!("{context}: coherence audit failed: {e}");
    }
}

/// Run one seeded invalidation transaction of `pattern` under `scheme` on
/// a `k x k` mesh and measure it.
pub fn measure_single_txn(scheme: SchemeKind, k: usize, pattern: &Pattern) -> TxnResult {
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    measure_txn_on(&mut sys, pattern)
}

/// Run one seeded transaction on an existing (idle) system.
pub fn measure_txn_on(sys: &mut DsmSystem, pattern: &Pattern) -> TxnResult {
    let nodes = sys.config().nodes() as u64;
    // A fresh block homed at the pattern's home node, beyond any block
    // previously used on this system.
    let block_id = fresh_block(sys, pattern.home, nodes);
    let addr = Addr(block_id * sys.config().block_bytes);
    let b = sys.geometry().block_of(addr);
    sys.seed_shared(b, &pattern.sharers);

    let lat0 = sys.metrics().inval_latency.sum();
    let wl0 = sys.metrics().write_latency.sum();
    let hm0 = sys.metrics().inval_home_msgs.sum();
    let dc0 = sys.dc_busy(pattern.home);
    let tr0 = sys.net_stats().flit_hops;
    let ms0 = sys.net_stats().worms_injected[0] + sys.net_stats().worms_injected[1];
    let pk0 = sys.net_stats().parks;
    let gb0 = sys.net_stats().gather_blocked_cycles;
    let txns0 = sys.metrics().inval_txns;

    sys.issue(pattern.writer, MemOp::Write(addr));
    sys.run_until_idle(2_000_000).expect("transaction completes");
    assert_eq!(sys.metrics().inval_txns, txns0 + 1, "exactly one transaction measured");
    assert_coherent(sys, "seeded transaction");

    TxnResult {
        inval_latency: sys.metrics().inval_latency.sum() - lat0,
        write_latency: sys.metrics().write_latency.sum() - wl0,
        home_msgs: sys.metrics().inval_home_msgs.sum() - hm0,
        dc_busy: sys.dc_busy(pattern.home) - dc0,
        traffic: sys.net_stats().flit_hops - tr0,
        messages: sys.net_stats().worms_injected[0] + sys.net_stats().worms_injected[1] - ms0,
        parks: sys.net_stats().parks - pk0,
        gather_blocked: sys.net_stats().gather_blocked_cycles - gb0,
    }
}

/// Measure `probes` sequential invalidations under background load.
///
/// Every cycle each idle processor with ops left in `bg` issues its next
/// one. After `warmup` cycles, whenever `writer` is idle and no probe is
/// in flight, `next` draws the next probe's pattern (`None` skips the
/// cycle): a fresh block homed at the pattern's home is seeded with its
/// sharers and `writer` writes it. Stops after `probes` probes or at
/// cycle `deadline`; returns each probe's invalidation latency.
pub fn probes_under_load(
    sys: &mut DsmSystem,
    bg: &mut [VecDeque<MemOp>],
    writer: NodeId,
    (warmup, deadline): (u64, u64),
    probes: usize,
    mut next: impl FnMut() -> Option<Pattern>,
) -> Vec<f64> {
    let nodes = sys.config().nodes() as u64;
    let (mut lats, mut block, mut warmup) = (Vec::new(), 1u64, warmup);
    let mut pending: Option<f64> = None; // latency sum before the probe
    while lats.len() < probes && sys.now() < deadline {
        for (p, ops) in bg.iter_mut().enumerate() {
            if !ops.is_empty() && sys.proc_idle(NodeId(p as u16)) {
                sys.issue(NodeId(p as u16), ops.pop_front().expect("non-empty"));
            }
        }
        if warmup == 0 && pending.is_none() && sys.proc_idle(writer) {
            if let Some(pat) = next() {
                let addr = Addr((block * nodes + pat.home.0 as u64) * sys.config().block_bytes);
                block += 7;
                sys.seed_shared(sys.geometry().block_of(addr), &pat.sharers);
                pending = Some(sys.metrics().inval_latency.sum());
                sys.issue(writer, MemOp::Write(addr));
            }
        }
        if let Some(before) = pending {
            let sum = sys.metrics().inval_latency.sum();
            if sum > before {
                lats.push(sum - before);
                pending = None;
            }
        }
        sys.step();
        warmup = warmup.saturating_sub(1);
    }
    lats
}

/// Pick a block id homed at `home` that this system has not used yet.
fn fresh_block(sys: &DsmSystem, home: NodeId, nodes: u64) -> u64 {
    // Blocks are home-interleaved: block % nodes == home. Derive a unique
    // index from the current cycle so repeated measurements on one system
    // never reuse a block.
    let salt = sys.now() / 16 + 1;
    salt * nodes + home.0 as u64
}

/// Mean of several single-transaction measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanTxn {
    /// Mean invalidation latency, cycles.
    pub inval_latency: f64,
    /// Mean write latency, cycles.
    pub write_latency: f64,
    /// Mean home messages.
    pub home_msgs: f64,
    /// Mean DC busy cycles.
    pub dc_busy: f64,
    /// Mean traffic, flit-hops.
    pub traffic: f64,
    /// Mean messages.
    pub messages: f64,
    /// Total parks across trials.
    pub parks: u64,
}

/// Measure `trials` random patterns of `d` sharers under `scheme`.
///
/// Patterns are generated serially from the seeded RNG (the random stream
/// is part of the experiment definition), then each trial runs on its own
/// fresh system across worker threads. Trials are independent and the
/// accumulation folds in trial order, so the result is bit-identical to
/// the historical serial loop.
pub fn mean_over_patterns(
    scheme: SchemeKind,
    k: usize,
    kind: PatternKind,
    d: usize,
    trials: usize,
    seed: u64,
) -> MeanTxn {
    assert!(trials >= 1, "trials must be >= 1");
    let mesh = Mesh2D::square(k);
    let mut rng = Rng::new(seed);
    let patterns: Vec<Pattern> =
        (0..trials).map(|_| gen_pattern(&mesh, kind, d, &mut rng)).collect();
    let results = par_map(patterns, |p| measure_single_txn(scheme, k, &p));
    let mut acc = MeanTxn::default();
    for r in results {
        acc.inval_latency += r.inval_latency;
        acc.write_latency += r.write_latency;
        acc.home_msgs += r.home_msgs;
        acc.dc_busy += r.dc_busy as f64;
        acc.traffic += r.traffic as f64;
        acc.messages += r.messages as f64;
        acc.parks += r.parks;
    }
    let n = trials as f64;
    acc.inval_latency /= n;
    acc.write_latency /= n;
    acc.home_msgs /= n;
    acc.dc_busy /= n;
    acc.traffic /= n;
    acc.messages /= n;
    acc
}

/// Run closures in parallel across OS threads, preserving output order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let queue: std::sync::Mutex<std::vec::IntoIter<(usize, T)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>().into_iter());
    let out: std::sync::Mutex<Vec<(usize, R)>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let item = queue.lock().expect("work queue").next();
                let Some((i, t)) = item else { break };
                let r = f(t);
                out.lock().expect("results").push((i, r));
            });
        }
    });
    let mut results = out.into_inner().expect("results");
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Minimal wall-clock micro-bench runner used by the `benches/` targets
/// (self-contained substitute for an external bench harness): runs `f`
/// for a warmup pass plus `iters` timed passes and prints min/mean per
/// iteration.
pub fn time_it<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
    assert!(iters >= 1);
    std::hint::black_box(f()); // warmup
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "{name:<40} min {:>12.3} us   mean {:>12.3} us   ({iters} iters)",
        min * 1e6,
        mean * 1e6
    );
}

/// The standard sharer-count sweep used by the figures.
pub fn d_sweep(k: usize) -> Vec<usize> {
    assert!(k >= 2, "k must be >= 2 (a 1x1 mesh has no sharers)");
    let max = (k * k).saturating_sub(2);
    [1, 2, 4, 6, 8, 12, 16, 24, 32, 48].iter().copied().filter(|&d| d <= max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_txn_measurement_is_deterministic() {
        let mesh = Mesh2D::square(8);
        let mut rng = Rng::new(11);
        let p = gen_pattern(&mesh, PatternKind::UniformRandom, 5, &mut rng);
        let a = measure_single_txn(SchemeKind::MiMaCol, 8, &p);
        let b = measure_single_txn(SchemeKind::MiMaCol, 8, &p);
        assert_eq!(a.inval_latency, b.inval_latency);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn repeated_measurements_on_one_system() {
        let scheme = SchemeKind::MiMaCol;
        let mut sys = DsmSystem::new(SystemConfig::for_scheme(8, scheme), scheme.build());
        let mesh = Mesh2D::square(8);
        let mut rng = Rng::new(3);
        for _ in 0..3 {
            let p = gen_pattern(&mesh, PatternKind::UniformRandom, 4, &mut rng);
            let r = measure_txn_on(&mut sys, &p);
            assert!(r.inval_latency > 0.0);
        }
        assert_eq!(sys.metrics().inval_txns, 3);
    }

    /// The parallel fan-out inside `mean_over_patterns` must be invisible:
    /// its result is bit-identical to a hand-rolled serial loop over the
    /// same seeded pattern stream (the historical implementation).
    #[test]
    fn parallel_mean_is_bit_identical_to_serial_fold() {
        let (scheme, k, kind, d, trials, seed) =
            (SchemeKind::MiMaCol, 4, PatternKind::UniformRandom, 4, 6, 17);
        let par = mean_over_patterns(scheme, k, kind, d, trials, seed);

        let mesh = Mesh2D::square(k);
        let mut rng = Rng::new(seed);
        let mut acc = MeanTxn::default();
        for _ in 0..trials {
            let p = gen_pattern(&mesh, kind, d, &mut rng);
            let r = measure_single_txn(scheme, k, &p);
            acc.inval_latency += r.inval_latency;
            acc.write_latency += r.write_latency;
            acc.home_msgs += r.home_msgs;
            acc.dc_busy += r.dc_busy as f64;
            acc.traffic += r.traffic as f64;
            acc.messages += r.messages as f64;
            acc.parks += r.parks;
        }
        let n = trials as f64;
        assert_eq!(par.inval_latency, acc.inval_latency / n);
        assert_eq!(par.write_latency, acc.write_latency / n);
        assert_eq!(par.home_msgs, acc.home_msgs / n);
        assert_eq!(par.dc_busy, acc.dc_busy / n);
        assert_eq!(par.traffic, acc.traffic / n);
        assert_eq!(par.messages, acc.messages / n);
        assert_eq!(par.parks, acc.parks);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..50).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn d_sweep_respects_mesh_capacity() {
        assert!(d_sweep(4).iter().all(|&d| d <= 14));
        assert!(d_sweep(8).contains(&32));
    }

    #[test]
    #[should_panic(expected = "k must be >= 2")]
    fn d_sweep_rejects_degenerate_mesh() {
        d_sweep(1);
    }

    #[test]
    #[should_panic(expected = "trials must be >= 1")]
    fn zero_trials_rejected() {
        mean_over_patterns(SchemeKind::UiUa, 4, PatternKind::UniformRandom, 2, 0, 1);
    }
}
