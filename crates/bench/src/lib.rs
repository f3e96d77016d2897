//! # wormdsm-bench — experiment harness
//!
//! [`repro`] holds the paper's evaluation as one experiment table with
//! its claims as checked predicates; the `repro` binary runs it (see
//! DESIGN.md's experiment index). The other binaries in `src/bin/`
//! measure the simulator itself (`exp_hotloop`, `exp_profile`,
//! `exp_scale`, `exp_perf`), study the adaptive schemes (`exp_adaptive`)
//! or serve the farm (`farm`). Simulation instances are single-threaded
//! and deterministic; sweeps fan out across OS threads.

#![warn(missing_docs)]

pub mod repro;

use std::collections::VecDeque;

use wormdsm_coherence::Addr;
use wormdsm_core::{DsmSystem, MemOp, SchemeKind, SystemConfig};
use wormdsm_farm::metrics_fingerprint;
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_sim::Rng;
use wormdsm_workloads::{gen_pattern, Observe, Pattern, PatternKind, RunReport, Scenario};

/// Measured outcome of one seeded invalidation transaction.
#[derive(Debug, Clone, Copy)]
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

/// `"name": value` pairs for a phase breakdown, in attribution order —
/// the JSON shape shared by every `BENCH_*.json` phase field.
pub fn phases_json(vals: impl Fn(wormdsm_core::Phase) -> String) -> String {
    let pairs: Vec<String> = wormdsm_core::Phase::ALL
        .iter()
        .map(|p| format!("\"{}\": {}", p.name(), vals(*p)))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// Golden busy-cycle reference for 4x4 MI-MA(col) at compute scale 1
/// — (app, cycles, flit_hops, inval_lat_count, inval_lat_sum) — recorded
/// on the pre-optimization tree (commit f102984). Every run of that
/// configuration must reproduce it bit for bit.
pub const BUSY_GOLDEN: [(&str, u64, u64, u64, f64); 3] = [
    ("bh", 93_882, 347_892, 142, 27_230.0),
    ("lu", 142_273, 651_056, 24, 3_675.0),
    ("apsp", 306_859, 1_480_233, 881, 130_394.0),
];

/// When `s` is the configuration [`BUSY_GOLDEN`] was recorded in, assert
/// that its finished run `r` reproduces the golden row field by field and
/// return `true`; otherwise return `false`.
pub fn check_busy_golden(s: &Scenario, r: &RunReport) -> bool {
    if (s.k, s.compute_scale, s.scheme) != (4, 1, SchemeKind::MiMaCol) {
        return false;
    }
    let g = BUSY_GOLDEN.iter().find(|g| g.0 == s.app).expect("golden app");
    let (m, ctx) = (r.sys.metrics(), s.canonical());
    assert_eq!(r.result.cycles, g.1, "{ctx}: cycles diverged from golden");
    assert_eq!(r.sys.net_stats().flit_hops, g.2, "{ctx}: flit hops diverged from golden");
    assert_eq!(m.inval_latency.count(), g.3, "{ctx}: txn count diverged from golden");
    assert_eq!(m.inval_latency.sum(), g.4, "{ctx}: inval latency diverged from golden");
    true
}

/// Run `s` to completion under `obs` and return the audited report.
/// Panics, naming the scenario, if the run fails or an observer pauses
/// it: the `exp_*` binaries' scenarios come from trusted CLI defaults.
pub fn run_scenario(s: &Scenario, obs: Observe<'_>) -> RunReport {
    s.finish(obs).unwrap_or_else(|e| panic!("{}: {e}", s.canonical()))
}

/// [`metrics_fingerprint`] of a finished run: equal fingerprints mean
/// bit-identical simulated results.
pub fn fingerprint(r: &RunReport) -> u64 {
    metrics_fingerprint(&r.sys.export_metrics())
}

/// Check the flight-recorder ring for overflow after a traced run.
///
/// Returns `true` when the ring kept every recorded event. On overflow
/// prints a loud warning (ring-derived event dumps and `timeline()`
/// reconstructions are incomplete; streaming consumers attached to the
/// push path — the `TxnProfiler` — saw every event regardless) so a
/// bench harness can skip ring-derived cross-checks instead of asserting
/// on truncated data.
pub fn warn_on_trace_drops(context: &str, sys: &DsmSystem) -> bool {
    let dropped = sys.recorder().dropped();
    if dropped == 0 {
        return true;
    }
    println!(
        "\nWARNING: {context}: flight-recorder ring overflowed — {dropped} of {} events \
         dropped.\n         Ring-derived timelines/dumps are incomplete; raise the ring \
         capacity\n         (FlightRecorder::set_capacity) to restore them. Streaming \
         consumers on the\n         push path (TxnProfiler) saw every event and are \
         unaffected.",
        sys.recorder().recorded()
    );
    false
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

/// Parse a simple `--key value` command line.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when `--flag` is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The standard sharer-count sweep used by the figures.
pub fn d_sweep(k: usize) -> Vec<usize> {
    assert!(k >= 2, "k must be >= 2 (a 1x1 mesh has no sharers)");
    let max = (k * k).saturating_sub(2);
    [1, 2, 4, 6, 8, 12, 16, 24, 32, 48].iter().copied().filter(|&d| d <= max).collect()
}

/// Print a table row of f64 cells after a label.
pub fn row(label: &str, cells: &[f64]) {
    print!("{label:>12}");
    for c in cells {
        print!(" {c:>10.1}");
    }
    println!();
}

/// Print a table header.
pub fn header(first: &str, cols: &[String]) {
    print!("{first:>12}");
    for c in cols {
        print!(" {c:>10}");
    }
    println!();
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
