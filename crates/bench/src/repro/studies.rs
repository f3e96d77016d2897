//! The extension studies: H5 latency attribution, H6 large-mesh sharer
//! scaling and H9 adaptive grouping. Like the paper's experiments, each
//! runs one fixed configuration per [`Arm`] and returns one [`Table`];
//! every profiled run also checks that its phases sum exactly to each
//! transaction's latency.

use std::collections::VecDeque;

use wormdsm_coherence::Addr;
use wormdsm_core::{DsmSystem, MemOp, SchemeKind, SystemConfig, TxnProfiler};
use wormdsm_farm::metrics_fingerprint;
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_sim::profile::Phase;
use wormdsm_sim::Rng;
use wormdsm_workloads::{gen_pattern, Observe, Pattern, PatternKind, Scenario};

use super::{Arm, Table, SEED};
use crate::{assert_coherent, measure_txn_on, par_map, probes_under_load, TxnResult};

/// The phase columns, in [`Phase::ALL`] order.
pub const PHASE_COLS: [&str; 6] = ["inject", "head", "body", "dest", "ack", "close"];

/// Mean cycles per phase over the profiler's closed transactions.
fn phase_means(p: &TxnProfiler) -> [f64; 6] {
    Phase::ALL.map(|ph| p.mean_phase(ph))
}

/// The profiler attributed all `txns` transactions, none is left open,
/// and every transaction's phases sum exactly to its latency.
fn check_profiler(ctx: &str, p: &TxnProfiler, txns: u64) {
    assert_eq!(p.closed(), txns, "{ctx}: profiler missed transactions");
    assert_eq!(p.open_txns(), 0, "{ctx}: transactions left open");
    p.verify_exact().unwrap_or_else(|e| panic!("{ctx}: phases must sum exactly: {e}"));
}

/// H5: the seeded applications on 4x4 at compute scale 1, profiled,
/// under every scheme (the quick arm runs APSP only). Each row also runs
/// unprofiled, and the two metric exports must fingerprint the same.
pub fn h5(arm: Arm) -> Table {
    let apps: &[&str] = [&["bh", "lu", "apsp"][..], &["apsp"]][arm as usize];
    let title = format!(
        "latency attribution, mean cycles per phase, {} on 4x4 at compute scale 1",
        apps.join("/")
    );
    let cols = [&[("txns", 0), ("mean lat", 1)][..], &PHASE_COLS.map(|c| (c, 1))].concat();
    let mut t = Table::new("H5", title, &["app", "scheme"], &cols);
    let jobs: Vec<_> = apps.iter().flat_map(|&a| SchemeKind::ALL.map(|s| (a, s))).collect();
    let rows = par_map(jobs.clone(), |(app, scheme)| {
        let run = |profile| {
            let s = Scenario { scheme, app: app.into(), k: 4, profile, ..Scenario::default() };
            let ctx = s.canonical();
            let r = s.finish(Observe::default()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            (metrics_fingerprint(&r.sys.export_metrics()), r, ctx)
        };
        let ((on, mut r, ctx), (off, ..)) = (run(true), run(false));
        assert_eq!(on, off, "{ctx}: profiling changed the run");
        let p = r.sys.take_profiler().expect("a profiled scenario attaches a profiler");
        check_profiler(&ctx, &p, r.sys.metrics().inval_txns);
        let mean = p.latency_total() as f64 / p.closed().max(1) as f64;
        [[p.closed() as f64, mean].as_slice(), &phase_means(&p)].concat()
    });
    for ((app, scheme), vals) in jobs.into_iter().zip(rows) {
        t.add(key![app, scheme.name()], vals);
    }
    t
}

/// H6's schemes: the unicast baseline, one-phase multidestination
/// invalidation and the full MI-MA scheme.
const H6_SCHEMES: [SchemeKind; 3] = [SchemeKind::UiUa, SchemeKind::MiUaCol, SchemeKind::MiMaCol];

/// Sharer counts probed on a k x k mesh: powers of two from 4 up to a
/// quarter of the mesh, capped at 1024.
fn d_values(k: usize) -> Vec<usize> {
    let cap = (k * k / 4).min(1024);
    std::iter::successors(Some(4), |d| Some(d * 2)).take_while(|&d| d <= cap).collect()
}

/// H6: mean invalidation latency vs sharer count on meshes up to k=128.
/// One system per (k, scheme) runs every point's seeded transactions in
/// turn, each on an idle machine.
pub fn h6(arm: Arm) -> Table {
    let (ks, trials): (&[usize], usize) =
        [(&[8, 16, 32, 64, 128][..], 3), (&[8, 16, 32], 2)][arm as usize];
    let title = format!(
        "invalidation latency (cycles) vs sharers on large meshes, uniform-random sharers, {trials} trials, seed {SEED}"
    );
    let mut t = Table::new("H6", title, &["mesh", "d"], &H6_SCHEMES.map(|s| (s.name(), 1)));
    let jobs: Vec<_> = ks.iter().flat_map(|&k| H6_SCHEMES.map(|s| (k, s))).collect();
    let lats = par_map(jobs, |(k, scheme)| {
        let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
        let mesh = Mesh2D::square(k);
        let point = |d: usize| {
            let mut rng = Rng::new(SEED + d as u64);
            let patterns: Vec<Pattern> = (0..trials)
                .map(|_| gen_pattern(&mesh, PatternKind::UniformRandom, d, &mut rng))
                .collect();
            let sum =
                patterns.iter().fold(0.0, |a, p| a + measure_txn_on(&mut sys, p).inval_latency);
            sum / trials as f64
        };
        d_values(k).into_iter().map(point).collect::<Vec<f64>>()
    });
    for (&k, per_scheme) in ks.iter().zip(lats.chunks(H6_SCHEMES.len())) {
        for (i, d) in d_values(k).into_iter().enumerate() {
            t.add(key![format!("{k}x{k}"), d], per_scheme.iter().map(|l| l[i]));
        }
    }
    t
}

/// H9's seeded pattern kinds, by row label.
const H9_KINDS: [(&str, PatternKind); 4] = [
    ("uniform", PatternKind::UniformRandom),
    ("row", PatternKind::SameRow),
    ("cluster", PatternKind::Cluster { radius: 2 }),
    ("column", PatternKind::SameColumn),
];

/// Background blocks live far above any probe block (probe ids grow from
/// 1), so the two address streams never collide.
const HOT_BG_BASE: u64 = 1 << 20;

/// What an H9 row measured that must not depend on profiling.
#[derive(PartialEq)]
struct H9Numbers {
    /// Each seeded transaction's full result; empty on a hot-column row.
    txns: Vec<TxnResult>,
    /// Each transaction's invalidation latency.
    lats: Vec<f64>,
    /// Cycles simulated.
    cycles: u64,
    /// Flit hops.
    flit_hops: u64,
    /// Busy cycles per directed link.
    link_busy: Vec<u64>,
}

impl H9Numbers {
    fn of(sys: &DsmSystem, txns: Vec<TxnResult>, lats: Vec<f64>) -> Self {
        let net = sys.net_stats();
        let (cycles, flit_hops, link_busy) = (sys.now(), net.flit_hops, net.link_busy.clone());
        Self { txns, lats, cycles, flit_hops, link_busy }
    }
}

fn h9_system(scheme: SchemeKind, k: usize, profile: bool) -> DsmSystem {
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    if profile {
        sys.enable_profiling();
    }
    sys
}

/// Run `patterns` as sequential seeded transactions on one system.
fn pattern_row(
    scheme: SchemeKind,
    k: usize,
    patterns: &[Pattern],
    profile: bool,
) -> (H9Numbers, Option<TxnProfiler>) {
    let mut sys = h9_system(scheme, k, profile);
    let txns: Vec<TxnResult> = patterns.iter().map(|p| measure_txn_on(&mut sys, p)).collect();
    assert_coherent(&sys, &format!("{} pattern row", scheme.name()));
    let lats = txns.iter().map(|r| r.inval_latency).collect();
    (H9Numbers::of(&sys, txns, lats), sys.take_profiler())
}

/// The hot-column pattern: a sharer strip down column k/2 plus single
/// sharers spread along row 1 in scattered columns, home at the top of
/// the hot column, writer in the far corner. The strip must ride the
/// congested vertical links no matter what; the flanks are where the
/// grouping policy has room to act.
fn hot_pattern(mesh: &Mesh2D, k: usize, d: usize) -> Pattern {
    let (hc, strip) = (k / 2, d / 2);
    let flank_cols = [1, 2, k - 2, k - 1];
    assert!(strip < k && d - strip <= flank_cols.len(), "hot pattern needs a smaller d");
    let mut sharers: Vec<NodeId> = (1..=strip).map(|y| mesh.node_at(hc, y)).collect();
    sharers.extend(flank_cols[..d - strip].iter().map(|&x| mesh.node_at(x, 1)));
    Pattern { home: mesh.node_at(hc, 0), writer: NodeId(0), sharers }
}

/// Measure `probes` sequential hot-column transactions while every node
/// of column k/2 streams private reads to blocks homed half the column
/// away: pure vertical traffic up and down the column.
fn hot_row(
    scheme: SchemeKind,
    k: usize,
    d: usize,
    probes: usize,
    profile: bool,
) -> (H9Numbers, Option<TxnProfiler>) {
    let (nodes, hc, mesh) = (k * k, k / 2, Mesh2D::square(k));
    let mut sys = h9_system(scheme, k, profile);
    let bb = sys.config().block_bytes;
    let mut bg: Vec<VecDeque<MemOp>> = vec![VecDeque::new(); nodes];
    for y in 0..k {
        let (reader, home) = (mesh.node_at(hc, y), mesh.node_at(hc, (y + k / 2) % k));
        for i in 0..20_000u64 {
            let block = (HOT_BG_BASE + y as u64 * 40_000 + i) * nodes as u64 + home.idx() as u64;
            bg[reader.idx()].push_back(MemOp::Read(Addr(block * bb)));
        }
    }
    let pat = hot_pattern(&mesh, k, d);
    // The 4,000-cycle warmup lets MI-MA(ada)'s 1024-cycle feedback window
    // commit several hot windows before the first probe.
    let lats = probes_under_load(&mut sys, &mut bg, pat.writer, (4_000, 2_000_000), probes, || {
        Some(pat.clone())
    });
    assert_eq!(lats.len(), probes, "{}: hot-column run hit the deadline", scheme.name());
    (H9Numbers::of(&sys, Vec::new(), lats), sys.take_profiler())
}

/// H9: DPM and MI-MA(ada) against the static schemes on seeded patterns
/// and on a saturated column. Every row runs profiled and unprofiled, and
/// the two must agree on every transaction's result and every link's busy
/// cycles: the adaptive plans read the link-load meter, which must commit
/// identically whoever watches. A hot-column probe's traffic is mostly
/// background, so its traffic cell is NaN.
pub fn h9(arm: Arm) -> Table {
    let (k, d) = (8, 6);
    let (trials, probes) = [(12, 4), (4, 2)][arm as usize];
    let title = format!(
        "adaptive grouping, {k}x{k}, d = {d}: seeded patterns ({trials} trials) and column {} saturated ({probes} probes), mean cycles",
        k / 2
    );
    let cols = [("mean lat", 1), ("traffic", 1), ("body", 1), ("ack", 1)];
    let mut t = Table::new("H9", title, &["pattern", "scheme"], &cols);
    // One seeded pattern list per kind, shared by every scheme.
    let (mesh, mut rng) = (Mesh2D::square(k), Rng::new(0xADA9_0001));
    let sets: Vec<(&str, Vec<Pattern>)> = H9_KINDS
        .iter()
        .map(|&(name, kind)| {
            (name, (0..trials).map(|_| gen_pattern(&mesh, kind, d, &mut rng)).collect())
        })
        .collect();
    let rows = sets.iter().map(|(name, p)| (*name, Some(p))).chain([("hot-column", None)]);
    let jobs: Vec<_> = rows.flat_map(|r| SchemeKind::ALL.map(|s| (r, s))).collect();
    let cells = par_map(jobs.clone(), |((name, patterns), scheme)| {
        let run = |profile| match patterns {
            Some(p) => pattern_row(scheme, k, p, profile),
            None => hot_row(scheme, k, d, probes, profile),
        };
        let ((profiled, p), (plain, _)) = (run(true), run(false));
        let ctx = format!("{name} {}", scheme.name());
        assert!(profiled == plain, "{ctx}: profiling changed the run");
        let (p, n) = (p.expect("profiled arm"), profiled.lats.len());
        check_profiler(&ctx, &p, n as u64);
        let lat = profiled.lats.iter().sum::<f64>() / n as f64;
        let traffic = match patterns {
            Some(_) => profiled.txns.iter().map(|r| r.traffic as f64).sum::<f64>() / n as f64,
            None => f64::NAN,
        };
        let ph = phase_means(&p);
        [lat, traffic, ph[Phase::BodySerialization.index()], ph[Phase::AckReturn.index()]]
    });
    for (((name, _), scheme), vals) in jobs.into_iter().zip(cells) {
        t.add(key![name, scheme.name()], vals);
    }
    t
}
