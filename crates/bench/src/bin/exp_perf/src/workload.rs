//! The four benchmark workloads and one repetition of each.
//!
//! A repetition builds its inputs from the seed, builds a fresh
//! `DsmSystem` per input, drives it to completion with the loop of
//! `Workload::advance`, audits it, and returns its measurements as named
//! values plus a fingerprint of the simulated results.

use std::sync::Arc;
use std::time::Instant;
use wormdsm_coherence::{Addr, BlockId};
use wormdsm_core::{DsmSystem, InvalidationScheme, MemOp, SchemeKind, SystemConfig};
use wormdsm_farm::metrics_fingerprint;
use wormdsm_mesh::{Mesh2D, NodeId};
use wormdsm_sim::{Cycle, Fnv64, Rng};
use wormdsm_workloads::{apps, gen_pattern, Pattern, PatternKind, Workload};

use crate::layers::{Bare, Hooks, LayerTimers, PlanStats, TimedScheme};

/// Simulated cycles after which a run is abandoned as hung. The largest
/// workload needs about 2.5M.
pub const MAX_CYCLES: Cycle = 20_000_000;

#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// A seeded application kernel, placed on the mesh by the seed's
    /// symmetry.
    App { app: &'static str, compute_scale: u64 },
    /// Batches of concurrent writes, each invalidating `sharers` uniform
    /// random sharers set up with `seed_shared`.
    Inval { batches: usize, writes: usize, sharers: usize },
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub k: usize,
    pub scheme: SchemeKind,
    pub input: Input,
    /// Repetitions in one benchmark set.
    pub reps: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "apsp-busy-k8",
        k: 8,
        scheme: SchemeKind::MiMaCol,
        input: Input::App { app: "apsp", compute_scale: 1 },
        reps: 8,
        why: "contended flit stepping: DsmSystem::step moving flits takes ~90% of host time \
              and the issue loop the rest; 1.2% of cycles skipped, planning 0.2%",
    },
    Spec {
        name: "bh-idle-k8",
        k: 8,
        scheme: SchemeKind::MiMaCol,
        input: Input::App { app: "bh", compute_scale: 256 },
        reps: 30,
        why: "realistic compute:communication ratio: fast-forward skips 97% of simulated \
              cycles, the only workload where skipping covers most of the simulated time",
    },
    Spec {
        name: "inval-k64-ada",
        k: 64,
        scheme: SchemeKind::MiMaAdaptive,
        input: Input::Inval { batches: 2, writes: 64, sharers: 128 },
        reps: 6,
        why: "4096-node mesh under MI-MA(ada): adaptive planning takes ~22% of host time \
              (2.7 ms a plan), long multidestination worms, 144 MiB of system state",
    },
    Spec {
        name: "inval-k64-uiua",
        k: 64,
        scheme: SchemeKind::UiUa,
        input: Input::Inval { batches: 2, writes: 64, sharers: 128 },
        reps: 4,
        why: "the same batches under UI-UA: 33k short unicast worms, twice the flit-hops, no \
              planning; the paper's headline comparison at scale",
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The mesh symmetry chosen by `s mod 4` as a node-to-node table: bit 0
/// mirrors x, bit 1 mirrors y, so `s = 0` is the identity.
///
/// The four maps that transpose the mesh are left out on purpose: e-cube
/// routing goes x first, so a transpose turns the apps' row traffic into
/// column traffic, and apsp then needs 43-48% more simulated cycles. That
/// is another workload, not another input of the same one.
pub fn symmetry(mesh: &Mesh2D, s: u64) -> Vec<NodeId> {
    let (w, h) = (mesh.width(), mesh.height());
    mesh.iter_nodes()
        .map(|n| {
            let c = mesh.coord(n);
            let x = if s & 1 != 0 { w - 1 - c.x as usize } else { c.x as usize };
            let y = if s & 2 != 0 { h - 1 - c.y as usize } else { c.y as usize };
            mesh.node_at(x, y)
        })
        .collect()
}

/// Move block `b` from its home `b % n` to the same-index block homed at
/// `sigma[b % n]`.
pub fn remap_block(b: u64, sigma: &[NodeId]) -> u64 {
    let n = sigma.len() as u64;
    b - b % n + sigma[(b % n) as usize].0 as u64
}

/// `w` with processor `p`'s stream run by node `sigma[p]` and every block
/// rehomed by [`remap_block`]. Barrier and lock ids are left alone.
pub fn apply_symmetry(w: &Workload, sigma: &[NodeId], block_bytes: u64) -> Workload {
    let remap = |a: Addr| {
        let b = remap_block(a.0 / block_bytes, sigma);
        Addr(b * block_bytes + a.0 % block_bytes)
    };
    let mut out = Workload::new(sigma.len());
    for (p, ops) in w.ops.iter().enumerate() {
        out.ops[sigma[p].idx()] = ops
            .iter()
            .map(|&op| match op {
                MemOp::Read(a) => MemOp::Read(remap(a)),
                MemOp::Write(a) => MemOp::Write(remap(a)),
                other => other,
            })
            .collect();
    }
    out
}

/// `writes` uniform invalidation patterns with pairwise-distinct writers,
/// so the whole batch can be outstanding at once. `gen_pattern` already
/// keeps each writer off its home and out of its sharer set.
pub fn inval_batch(mesh: &Mesh2D, writes: usize, sharers: usize, rng: &mut Rng) -> Vec<Pattern> {
    assert!(writes <= mesh.nodes(), "{writes} distinct writers on {} nodes", mesh.nodes());
    let mut taken = vec![false; mesh.nodes()];
    let mut batch = Vec::with_capacity(writes);
    while batch.len() < writes {
        let p = gen_pattern(mesh, PatternKind::UniformRandom, sharers, rng);
        if !std::mem::replace(&mut taken[p.writer.idx()], true) {
            batch.push(p);
        }
    }
    batch
}

/// Drive `w` on `sys` to completion with the loop of `Workload::advance`:
/// one issue pass per cycle in ascending node order, then one step;
/// abort on an invariant violation or once `max_cycles` pass.
///
/// Also returns, for every write that missed at issue, the cycles until
/// its processor was next idle.
pub fn drive<H: Hooks>(
    sys: &mut DsmSystem,
    w: &Workload,
    max_cycles: Cycle,
    hooks: &mut H,
) -> Result<Vec<Cycle>, String> {
    let n = w.ops.len();
    assert_eq!(n, sys.config().nodes(), "one op stream per node");
    let deadline = sys.now() + max_cycles;
    let mut cursor = vec![0usize; n];
    let mut runnable: Vec<usize> = (0..n).filter(|&p| !w.ops[p].is_empty()).collect();
    let mut miss_at: Vec<Option<Cycle>> = vec![None; n];
    // Nodes out of ops whose last op is a write miss still in flight.
    let mut draining: Vec<usize> = Vec::new();
    let mut latencies = Vec::new();
    loop {
        if let Some(v) = sys.invariant_violation() {
            return Err(format!("invariant violation: {v}"));
        }
        let now = sys.now();
        if now > deadline {
            return Err(format!("cycle cap of {max_cycles} passed at cycle {now}"));
        }
        draining.retain(|&p| {
            if !sys.proc_idle(NodeId(p as u16)) {
                return true;
            }
            latencies.push(now - miss_at[p].take().expect("draining node has a write in flight"));
            false
        });
        runnable.retain(|&p| {
            let node = NodeId(p as u16);
            if sys.proc_idle(node) {
                if let Some(t) = miss_at[p].take() {
                    latencies.push(now - t);
                }
                let op = w.ops[p][cursor[p]];
                cursor[p] += 1;
                let misses = sys.metrics().write_misses;
                hooks.issue(sys, node, op);
                if sys.metrics().write_misses != misses {
                    miss_at[p] = Some(now);
                }
            }
            let more = cursor[p] < w.ops[p].len();
            if !more && miss_at[p].is_some() {
                draining.push(p);
            }
            more
        });
        if runnable.is_empty() && draining.is_empty() && sys.idle() {
            return Ok(latencies);
        }
        hooks.step(sys);
    }
}

/// One run's inputs: the op streams and the blocks to seed as shared.
struct Inputs {
    ops: Workload,
    shared: Vec<(BlockId, Vec<NodeId>)>,
}

fn make_inputs(
    spec: &Spec,
    mesh: &Mesh2D,
    seed: u64,
    rng: &mut Rng,
    block_bytes: u64,
) -> Result<Inputs, String> {
    match spec.input {
        Input::App { app, compute_scale } => {
            let w = apps::seeded(app, mesh.nodes(), compute_scale)?;
            let ops = apply_symmetry(&w, &symmetry(mesh, seed), block_bytes);
            Ok(Inputs { ops, shared: Vec::new() })
        }
        Input::Inval { writes, sharers, .. } => {
            let n = mesh.nodes() as u64;
            let mut ops = Workload::new(mesh.nodes());
            let mut shared = Vec::with_capacity(writes);
            for (i, p) in inval_batch(mesh, writes, sharers, rng).into_iter().enumerate() {
                // A distinct block per write, homed at the pattern's home.
                let block = (i as u64 + 1) * n + p.home.0 as u64;
                ops.push(p.writer.idx(), MemOp::Write(Addr(block * block_bytes)));
                shared.push((BlockId(block), p.sharers));
            }
            Ok(Inputs { ops, shared })
        }
    }
}

/// Simulated counters summed over a repetition's runs.
#[derive(Debug, Default)]
struct Totals {
    cycles: u64,
    skipped: u64,
    flit_hops: u64,
    worms: u64,
    deliveries: u64,
    parks: u64,
    max_link_utilization: f64,
    hits: u64,
    read_misses: u64,
    write_misses: u64,
    retries: u64,
    inval_txns: u64,
    inval_latency: (f64, u64),
    write_latency: (f64, u64),
    write_samples: Vec<Cycle>,
}

impl Totals {
    fn add(&mut self, sys: &DsmSystem, samples: Vec<Cycle>) {
        let (m, net) = (sys.metrics(), sys.net_stats());
        self.cycles += sys.now();
        self.skipped += sys.skipped_cycles();
        self.flit_hops += net.flit_hops;
        self.worms += net.worms_injected.iter().sum::<u64>();
        self.deliveries += net.deliveries;
        self.parks += net.parks;
        self.max_link_utilization =
            self.max_link_utilization.max(net.max_link_utilization(sys.now()));
        self.hits += m.read_hits + m.write_hits;
        self.read_misses += m.read_misses;
        self.write_misses += m.write_misses;
        self.retries += m.fetch_retries + m.wb_retries + m.iack_fallbacks;
        self.inval_txns += m.inval_txns;
        self.inval_latency.0 += m.inval_latency.sum();
        self.inval_latency.1 += m.inval_latency.count();
        self.write_latency.0 += m.write_latency.sum();
        self.write_latency.1 += m.write_latency.count();
        self.write_samples.extend(samples);
    }
}

/// Nearest-rank quantile of sorted integer samples (0 when empty).
fn rank_quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`; 0 off Linux).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Measurements of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Named values: the host and simulated end-to-end metrics, plus the
    /// per-layer metrics when traced.
    pub values: Vec<(&'static str, f64)>,
    /// Hash of every run's `metrics_fingerprint`, in run order.
    pub fingerprint: u64,
}

/// Run one repetition of `spec` on the inputs of `seed`. With `traced`,
/// time every call into each layer as well.
pub fn run_rep(spec: &Spec, seed: u64, traced: bool, max_cycles: Cycle) -> Result<Rep, String> {
    let rep_start = Instant::now();
    let mesh = Mesh2D::square(spec.k);
    let cfg = SystemConfig::for_scheme(spec.k, spec.scheme);
    let runs = match spec.input {
        Input::App { .. } => 1,
        Input::Inval { batches, .. } => batches,
    };
    let plans = Arc::new(PlanStats::default());
    let mut timers = LayerTimers::default();
    let mut rng = Rng::new(seed);
    let mut fp = Fnv64::new();
    let mut sim = Totals::default();
    let (mut gen_s, mut new_s, mut run_s, mut verify_s) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..runs {
        let t = Instant::now();
        let inputs = make_inputs(spec, &mesh, seed, &mut rng, cfg.block_bytes)?;
        gen_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let scheme: Box<dyn InvalidationScheme> = if traced {
            Box::new(TimedScheme::new(spec.scheme.build(), Arc::clone(&plans)))
        } else {
            spec.scheme.build()
        };
        let mut sys = DsmSystem::new(cfg.clone(), scheme);
        new_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for (block, sharers) in &inputs.shared {
            sys.seed_shared(*block, sharers);
        }
        gen_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let samples = if traced {
            drive(&mut sys, &inputs.ops, max_cycles, &mut timers)
        } else {
            drive(&mut sys, &inputs.ops, max_cycles, &mut Bare)
        }?;
        run_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        sys.verify_coherence().map_err(|e| format!("coherence audit failed: {e}"))?;
        verify_s += t.elapsed().as_secs_f64();
        if let Input::Inval { writes, .. } = spec.input {
            let txns = sys.metrics().inval_txns;
            if txns != writes as u64 {
                return Err(format!("{txns} invalidation transactions, expected {writes}"));
            }
        }
        sim.add(&sys, samples);
        fp.write_u64(metrics_fingerprint(&sys.export_metrics()));
    }
    let wall_s = rep_start.elapsed().as_secs_f64();

    sim.write_samples.sort_unstable();
    let mut values = vec![
        ("wall_s", wall_s),
        ("sim_cycles_per_s", ratio(sim.cycles as f64, run_s)),
        ("setup_s", gen_s + new_s),
        ("peak_rss_mib", peak_rss_mib()),
        ("sim_cycles", sim.cycles as f64),
        ("flit_hops", sim.flit_hops as f64),
        ("inval_latency_mean", ratio(sim.inval_latency.0, sim.inval_latency.1 as f64)),
        ("write_miss_latency_mean", ratio(sim.write_latency.0, sim.write_latency.1 as f64)),
        ("write_latency_p50", rank_quantile(&sim.write_samples, 0.5)),
        ("write_latency_p90", rank_quantile(&sim.write_samples, 0.9)),
    ];
    if traced {
        let steps = timers.steps();
        let plan = plans.tally();
        timers.step_ns.sort_unstable();
        let accesses = sim.hits + sim.read_misses + sim.write_misses;
        values.extend([
            ("core.system.step.calls", steps.calls as f64),
            ("core.system.step.s", steps.secs()),
            ("core.system.step.p99_ns", rank_quantile(&timers.step_ns, 0.99)),
            ("core.system.step.flit.calls", timers.flit.calls as f64),
            ("core.system.step.flit.s", timers.flit.secs()),
            (
                "core.system.step.ns_per_flit_hop",
                ratio(timers.flit.ns as f64, sim.flit_hops as f64),
            ),
            ("core.system.step.ff.calls", timers.ff.calls as f64),
            ("core.system.step.ff.s", timers.ff.secs()),
            ("core.system.step.idle.calls", timers.idle.calls as f64),
            ("core.system.step.idle.s", timers.idle.secs()),
            ("sim.skipped_cycles", sim.skipped as f64),
            ("sim.dead_fraction", ratio(sim.skipped as f64, sim.cycles as f64)),
            ("core.schemes.plan.calls", plan.calls as f64),
            ("core.schemes.plan.s", plan.secs()),
            ("core.schemes.plan.ns_per_call", ratio(plan.ns as f64, plan.calls as f64)),
            ("core.schemes.plan.share", ratio(plan.secs(), run_s)),
            ("core.system.issue.calls", timers.issue.calls as f64),
            ("core.system.issue.s", timers.issue.secs()),
            ("workloads.advance.poll_s", run_s - steps.secs() - timers.issue.secs()),
            ("workloads.gen_s", gen_s),
            ("core.system.new_s", new_s),
            ("core.system.verify_coherence_s", verify_s),
            ("mesh.flit_hops", sim.flit_hops as f64),
            ("mesh.worms_injected", sim.worms as f64),
            ("mesh.deliveries", sim.deliveries as f64),
            ("mesh.parks", sim.parks as f64),
            ("mesh.max_link_utilization", sim.max_link_utilization),
            ("coherence.read_misses", sim.read_misses as f64),
            ("coherence.write_misses", sim.write_misses as f64),
            ("coherence.hit_ratio", ratio(sim.hits as f64, accesses as f64)),
            ("coherence.inval_txns", sim.inval_txns as f64),
            (
                "coherence.retry_ratio",
                ratio(sim.retries as f64, (sim.read_misses + sim.write_misses) as f64),
            ),
        ]);
    }
    Ok(Rep { values, fingerprint: fp.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn fingerprint(sys: &DsmSystem) -> u64 {
        metrics_fingerprint(&sys.export_metrics())
    }

    fn system(k: usize, scheme: SchemeKind) -> DsmSystem {
        DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build())
    }

    /// The benchmark's loop, bare or timed, simulates exactly what
    /// `Workload::run` simulates.
    #[test]
    fn benchmark_loop_matches_workload_run() {
        for app in ["bh", "apsp"] {
            let w = apps::seeded(app, 16, 1).unwrap();
            let mut reference = system(4, SchemeKind::MiMaCol);
            w.run(&mut reference, MAX_CYCLES).unwrap();

            let mut bare = system(4, SchemeKind::MiMaCol);
            let samples = drive(&mut bare, &w, MAX_CYCLES, &mut Bare).unwrap();
            assert_eq!(bare.now(), reference.now(), "{app}");
            assert_eq!(fingerprint(&bare), fingerprint(&reference), "{app}");
            // One sample per write that missed at issue; deferred writes
            // that miss on their internal retry have none.
            assert!(!samples.is_empty(), "{app}");
            assert!(samples.len() as u64 <= bare.metrics().write_misses, "{app}");

            let mut timers = LayerTimers::default();
            let mut timed = system(4, SchemeKind::MiMaCol);
            drive(&mut timed, &w, MAX_CYCLES, &mut timers).unwrap();
            assert_eq!(fingerprint(&timed), fingerprint(&reference), "{app}");
            assert_eq!(timers.steps().calls, timed.now() - timed.skipped_cycles(), "{app}");
            assert_eq!(timers.issue.calls as usize, w.total_ops(), "{app}");
        }
    }

    fn small_inval(scheme: SchemeKind) -> Spec {
        Spec {
            name: "test",
            k: 8,
            scheme,
            input: Input::Inval { batches: 2, writes: 16, sharers: 24 },
            reps: 1,
            why: "",
        }
    }

    fn value(rep: &Rep, name: &str) -> f64 {
        rep.values.iter().find(|(k, _)| *k == name).unwrap().1
    }

    /// Timing the scheme layer through the wrapper changes no result.
    #[test]
    fn timing_wrapper_matches_bare_scheme() {
        for scheme in [SchemeKind::MiMaCol, SchemeKind::MiMaAdaptive] {
            let spec = small_inval(scheme);
            let bare = run_rep(&spec, 7, false, MAX_CYCLES).unwrap();
            let timed = run_rep(&spec, 7, true, MAX_CYCLES).unwrap();
            assert_eq!(bare.fingerprint, timed.fingerprint, "{scheme}");
            assert_eq!(value(&timed, "core.schemes.plan.calls"), 32.0, "{scheme}: one per write");
            assert!(value(&timed, "core.schemes.plan.s") > 0.0, "{scheme}");
            assert!(value(&timed, "write_latency_p90") > 0.0, "{scheme}");
        }
    }

    #[test]
    fn symmetries_are_bijections_and_seed_zero_is_identity() {
        for k in [4, 8] {
            let mesh = Mesh2D::square(k);
            let n = mesh.nodes() as u64;
            for s in 0..8 {
                let sigma = symmetry(&mesh, s);
                let image: HashSet<NodeId> = sigma.iter().copied().collect();
                assert_eq!(image.len(), mesh.nodes(), "k={k} s={s} is a permutation");
                assert_eq!(sigma, symmetry(&mesh, s % 4), "seeds repeat every four");
                let blocks: HashSet<u64> = (0..3 * n).map(|b| remap_block(b, &sigma)).collect();
                assert_eq!(blocks, (0..3 * n).collect(), "k={k} s={s} permutes blocks");
                for b in 0..3 * n {
                    assert_eq!(remap_block(b, &sigma) % n, sigma[(b % n) as usize].0 as u64);
                }
            }
            assert!(symmetry(&mesh, 0).iter().enumerate().all(|(i, v)| v.idx() == i));
        }
        let w = apps::seeded("bh", 16, 1).unwrap();
        let same = apply_symmetry(&w, &symmetry(&Mesh2D::square(4), 0), 32);
        assert_eq!(same.ops, w.ops, "seed 0 leaves the app untouched");
    }

    #[test]
    fn inval_batches_have_distinct_writers_off_home() {
        for (k, writes, sharers, seeds) in [(8, 48, 10, 0..20), (64, 64, 128, 0..3)] {
            let mesh = Mesh2D::square(k);
            for seed in seeds {
                let mut rng = Rng::new(seed);
                let batch = inval_batch(&mesh, writes, sharers, &mut rng);
                assert_eq!(batch.len(), writes);
                let writers: HashSet<NodeId> = batch.iter().map(|p| p.writer).collect();
                assert_eq!(writers.len(), writes, "k={k} seed={seed}: distinct writers");
                for p in &batch {
                    assert_ne!(p.writer, p.home);
                    assert!(!p.sharers.contains(&p.writer) && !p.sharers.contains(&p.home));
                    assert_eq!(p.sharers.len(), sharers);
                }
            }
        }
    }

    #[test]
    fn cycle_cap_fails_the_rep() {
        let spec = find("bh-idle-k8").unwrap();
        let e = run_rep(spec, 0, false, 1_000).unwrap_err();
        assert!(e.contains("cycle cap of 1000 passed"), "{e}");
    }
}
