//! The paper's evaluation as one experiment table, [`EXPERIMENTS`]:
//! E1–E13 (E7b is E7's application arm), the A1/A2 ablations, the C1
//! sharing-class control and the H5/H6/H9 extension [`studies`]. Each
//! entry runs one fixed configuration per [`Arm`] and returns one
//! [`Table`] whose title is built from that configuration; [`claims`]
//! checks the paper's claims against the tables. Every run is
//! deterministic.

use std::sync::OnceLock;

use wormdsm_analytic::{estimate_invalidation, NetParams};
use wormdsm_coherence::Addr;
use wormdsm_core::{ConsistencyModel, DsmSystem, MemOp, SchemeKind, SystemConfig};
use wormdsm_mesh::network::{MeshConfig, Network};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_mesh::worm::{VNet, WormKind, WormSpec};
use wormdsm_mesh::IackMode;
use wormdsm_sim::json::{self, Layout, Raw, ToJson};
use wormdsm_sim::Rng;
use wormdsm_workloads::apps::{apsp, apsp::ApspConfig, barnes_hut, barnes_hut::BarnesHutConfig};
use wormdsm_workloads::apps::{lu, lu::LuConfig};
use wormdsm_workloads::synthetic::producer_consumer_workload;
use wormdsm_workloads::synthetic::{background_workload, migratory_workload};
use wormdsm_workloads::{gen_pattern, Pattern, PatternKind, Workload};

use crate::{assert_coherent, d_sweep, mean_over_patterns, par_map, probes_under_load, MeanTxn};

pub mod claims;

/// Which fixed configuration set the experiments run. Arrays indexed by
/// `arm as usize` list the full arm's value first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The paper's sizes: 20 trials per sweep point, full application
    /// sizes, 5 background-load probes.
    Full,
    /// Sized for CI: 5 trials, reduced application sizes, 2 probes.
    Quick,
}

impl Arm {
    /// `"full"` or `"quick"`.
    pub fn name(self) -> &'static str {
        ["full", "quick"][self as usize]
    }

    fn trials(self) -> usize {
        [20, 5][self as usize]
    }
}

/// One experiment's result: a header, then rows of printed cells. The
/// first `keys` cells of a row name it; the rest are values.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id (`E1` … `E13`, `E7b`, `A1`, `A2`, `C1`, `H5`, `H6`,
    /// `H9`).
    pub id: &'static str,
    /// Title, built from the configuration that was run.
    pub title: String,
    /// Column names: the key columns, then the value columns.
    pub cols: Vec<String>,
    /// How many leading columns are keys.
    pub keys: usize,
    /// Rows in run order, each cell as printed.
    pub rows: Vec<Vec<String>>,
    decimals: Vec<usize>,
}

/// A row key from anything printable: `key!["8x8", d]`.
macro_rules! key {
    ($($k:expr),*) => { vec![$($k.to_string()),*] };
}

pub mod studies;

impl Table {
    fn new(id: &'static str, title: String, keys: &[&str], vals: &[(&str, usize)]) -> Self {
        let cols = keys.iter().chain(vals.iter().map(|v| &v.0)).map(|c| c.to_string()).collect();
        let decimals = vals.iter().map(|v| v.1).collect();
        Self { id, title, cols, keys: keys.len(), rows: Vec::new(), decimals }
    }

    /// A table with one value column per scheme.
    fn schemes(id: &'static str, title: String, keys: &[&str]) -> Self {
        Self::new(id, title, keys, &SchemeKind::ALL.map(|s| (s.name(), 1)))
    }

    /// Add a row: `key`, then `vals` printed with their column's decimals.
    fn add(&mut self, mut key: Vec<String>, vals: impl IntoIterator<Item = f64>) {
        key.extend(vals.into_iter().zip(&self.decimals).map(|(v, &d)| format!("{v:.d$}")));
        self.rows.push(key);
    }

    /// The row whose key cells are `key`.
    pub fn row(&self, key: &[&str]) -> Option<&Vec<String>> {
        self.rows.iter().find(|r| r[..self.keys].iter().eq(key.iter()))
    }

    /// Column `col` of `row` as a number; NaN when missing or not a
    /// number, so that every comparison with it is false.
    pub fn at(&self, row: &[String], col: &str) -> f64 {
        let c = self.cols.iter().position(|c| c == col);
        c.and_then(|c| row.get(c)).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN)
    }

    /// Column `col` of the row keyed `key`, as [`Table::at`].
    pub fn num(&self, key: &[&str], col: &str) -> f64 {
        self.row(key).map_or(f64::NAN, |r| self.at(r, col))
    }

    /// The table as a markdown section.
    pub fn to_markdown(&self) -> String {
        let line = |r: &[String]| format!("| {} |\n", r.join(" | "));
        let mut s = format!("### {} — {}\n\n{}", self.id, self.title, line(&self.cols));
        s += &format!("|{}\n", "---|".repeat(self.cols.len()));
        s + &self.rows.iter().map(|r| line(r)).collect::<String>()
    }
}

/// The table as one JSON object, one row per line: value cells that are
/// finite numbers are JSON numbers, every other cell a string.
impl ToJson for Table {
    fn write_json(&self, out: &mut String) {
        let rows = json::arr(Layout::Lines("  "), |a| {
            for r in &self.rows {
                a.item(json::arr(Layout::Compact, |cells| {
                    for (i, c) in r.iter().enumerate() {
                        match c.parse::<f64>() {
                            Ok(v) if i >= self.keys && v.is_finite() => cells.item(Raw(c)),
                            _ => cells.item(c),
                        };
                    }
                }));
            }
        });
        json::object(out, |o| {
            o.field("id", self.id).field("title", &self.title).field("keys", self.keys);
            o.field("cols", &self.cols).field("rows", &rows);
        });
    }
}

/// Runs one experiment's fixed configuration for an arm.
pub type Run = fn(Arm) -> Table;

/// Every experiment, in report order, with its id as `repro --only`
/// takes it.
pub const EXPERIMENTS: [(&str, Run); 20] = [
    ("E1", e1),
    ("E2", |arm| sweep8(arm, "E2")),
    ("E3", |arm| sweep8(arm, "E3")),
    ("E4", |arm| sweep8(arm, "E4")),
    ("E5", |arm| sweep8(arm, "E5")),
    ("E6", e6),
    ("E7", e7),
    ("E7b", e7b),
    ("E8", e8),
    ("E9", e9),
    ("E10", e10),
    ("E11", e11),
    ("E12", e12),
    ("E13", e13),
    ("A1", a1),
    ("A2", a2),
    ("C1", c1),
    ("H5", studies::h5),
    ("H6", studies::h6),
    ("H9", studies::h9),
];

/// Run the experiments named in `only` (all when empty) in parallel and
/// return their tables in report order; an unknown id is an error.
pub fn run(arm: Arm, only: &[&str]) -> Result<Vec<Table>, String> {
    let ids = EXPERIMENTS.map(|e| e.0);
    if let Some(bad) = only.iter().find(|id| !ids.contains(id)) {
        return Err(format!("unknown experiment {bad:?} (known: {})", ids.join(",")));
    }
    let picked = EXPERIMENTS.into_iter().filter(|e| only.is_empty() || only.contains(&e.0));
    Ok(par_map(picked.collect(), |e| (e.1)(arm)))
}

const N: usize = SchemeKind::ALL.len();
const SEED: u64 = 1;

/// Mean seeded single-transaction results, uniform-random sharers, at
/// every `(k, d)` point under every scheme: one chunk of `N` per point.
fn sweep(points: &[(usize, usize)], trials: usize) -> Vec<MeanTxn> {
    let jobs: Vec<_> = points.iter().flat_map(|&p| SchemeKind::ALL.map(|s| (p, s))).collect();
    par_map(jobs, |((k, d), s)| {
        mean_over_patterns(s, k, PatternKind::UniformRandom, d, trials, SEED)
    })
}

/// E2–E5: per-scheme tables over the 8x8 sharer sweep, one row per
/// metric and `d`. They share one sweep per arm, run on first use.
fn sweep8(arm: Arm, id: &'static str) -> Table {
    type Metric = (&'static str, fn(&MeanTxn) -> f64);
    let (what, metrics): (&str, &[Metric]) = match id {
        "E2" => ("invalidation latency (cycles) vs sharers", &[("inval lat", |m| m.inval_latency)]),
        "E3" => {
            ("processor write latency (cycles) vs sharers", &[("write lat", |m| m.write_latency)])
        }
        "E4" => ("home occupancy", &[("home msgs", |m| m.home_msgs), ("DC busy", |m| m.dc_busy)]),
        "E5" => ("network traffic", &[("flit-hops", |m| m.traffic), ("worms", |m| m.messages)]),
        other => unreachable!("{other} is not a sweep experiment"),
    };
    static SWEEPS: [OnceLock<Vec<MeanTxn>>; 2] = [OnceLock::new(), OnceLock::new()];
    let ds = d_sweep(8);
    let points: Vec<_> = ds.iter().map(|&d| (8, d)).collect();
    let sw = SWEEPS[arm as usize].get_or_init(|| sweep(&points, arm.trials()));
    let title =
        format!("{what}, 8x8, uniform-random sharers, {} trials, seed {SEED}", arm.trials());
    let mut t = Table::schemes(id, title, &["metric", "d"]);
    for (metric, f) in metrics {
        for (d, chunk) in ds.iter().zip(sw.chunks(N)) {
            t.add(key![metric, d], chunk.iter().map(f));
        }
    }
    t
}

fn e1(_: Arm) -> Table {
    let trials = 20;
    let title = format!("analytic estimates, uniform-random sharers, {trials} trials, seed {SEED}");
    let cols =
        [("home sends", 1), ("home recvs", 1), ("msgs", 1), ("traffic", 0), ("latency (cy)", 0)];
    let mut t = Table::new("E1", title, &["mesh", "scheme", "d"], &cols);
    for (k, scheme) in [8, 16].into_iter().flat_map(|k| SchemeKind::ALL.map(|s| (k, s))) {
        let (mesh, s) = (Mesh2D::square(k), scheme.build());
        for d in d_sweep(k) {
            let mut rng = Rng::new(SEED);
            let mut acc = [0.0; 5];
            for _ in 0..trials {
                let p = gen_pattern(&mesh, PatternKind::UniformRandom, d, &mut rng);
                let (net, routing) = (NetParams::default(), scheme.natural_routing());
                let e = estimate_invalidation(&net, &mesh, routing, s.as_ref(), p.home, &p.sharers);
                let msgs = [e.home_sends, e.home_recvs, e.total_msgs].map(|m| m as f64);
                let v = [msgs[0], msgs[1], msgs[2], e.traffic_flit_hops as f64, e.latency];
                acc = std::array::from_fn(|i| acc[i] + v[i]);
            }
            t.add(key![format!("{k}x{k}"), scheme.name(), d], acc.map(|a| a / trials as f64));
        }
    }
    t
}

fn e6(arm: Arm) -> Table {
    let ks = [4usize, 6, 8, 10, 12, 16];
    let points: Vec<_> = [8, 16]
        .into_iter()
        .flat_map(|d| ks.into_iter().filter(move |k| k * k > d + 2).map(move |k| (k, d)))
        .collect();
    let (trials, w) = (arm.trials(), "uniform-random sharers");
    let title =
        format!("invalidation latency (cycles) vs mesh size, {w}, {trials} trials, seed {SEED}");
    let mut t = Table::schemes("E6", title, &["d", "mesh"]);
    for (&(k, d), chunk) in points.iter().zip(sweep(&points, trials).chunks(N)) {
        t.add(key![d, format!("{k}x{k}")], chunk.iter().map(|m| m.inval_latency));
    }
    t
}

fn mode_name(mode: IackMode) -> &'static str {
    match mode {
        IackMode::VctDefer => "vct",
        IackMode::Block => "block",
    }
}

const E7_SCHEMES: [SchemeKind; 2] = [SchemeKind::MiMaCol, SchemeKind::MiMaTwoPhase];
const MODES: [IackMode; 2] = [IackMode::VctDefer, IackMode::Block];

fn e7(_: Arm) -> Table {
    let (k, concurrent, d) = (8, 6, 12);
    let title = format!("i-ack buffer sensitivity, {k}x{k}, {concurrent} concurrent txns, d = {d}");
    let cols = [("latency (cy)", 1), ("parks", 0), ("blocked (cy)", 0), ("retries", 0)];
    let mut t = Table::new("E7", title, &["scheme", "mode", "buffers"], &cols);
    let (mesh, nodes) = (Mesh2D::square(k), (k * k) as u64);
    for (scheme, mode, buffers) in E7_SCHEMES
        .into_iter()
        .flat_map(|s| MODES.map(|m| (s, m)))
        .flat_map(|(s, m)| [1, 2, 4, 8].map(|b| (s, m, b)))
    {
        let mut cfg = SystemConfig::for_scheme(k, scheme);
        (cfg.mesh.iack_buffers, cfg.mesh.iack_mode) = (buffers, mode);
        let mut sys = DsmSystem::new(cfg, scheme.build());
        // Every transaction invalidates the same sharers, laid out in deep
        // columns: an i-reserve worm's entry at the column head stays
        // reserved until the gather returns from the far end, so the
        // transactions contend for the entries as the paper's buffer
        // sizing considers. The blocks are all homed at node 0.
        let depth = 6.min(k - 2);
        let sharers: Vec<_> =
            (0..d).map(|i| mesh.node_at(2 + 2 * (i / depth), 1 + i % depth)).collect();
        let addrs: Vec<_> = (1..=concurrent as u64).map(|i| Addr(i * nodes * 32)).collect();
        for &a in &addrs {
            sys.seed_shared(sys.geometry().block_of(a), &sharers);
        }
        for (i, &a) in addrs.iter().enumerate() {
            sys.issue(mesh.node_at(k - 1, k - 1 - i), MemOp::Write(a));
        }
        sys.run_until_idle(5_000_000).expect("all transactions complete");
        let (m, n) = (sys.metrics(), sys.net_stats());
        let blocked = n.gather_blocked_cycles + n.multicast_blocked_cycles;
        let vals = [n.parks, blocked, m.iack_fallbacks].map(|v| v as f64);
        t.add(
            key![scheme.name(), mode_name(mode), buffers],
            [m.inval_latency.mean()].into_iter().chain(vals),
        );
    }
    t
}

fn e7b(_: Arm) -> Table {
    let (k, deadline) = (8, 2_000_000);
    let (label, w) = bh(64, 2);
    let title = format!(
        "VCT deferred delivery vs blocking gathers, {label}, {k}x{k}, {deadline}-cycle deadline"
    );
    let cols = [("outcome", 0), ("exec cycles", 0), ("parks", 0), ("blocked cycles", 0)];
    let mut t = Table::new("E7b", title, &["scheme", "mode"], &cols);
    let jobs: Vec<_> = E7_SCHEMES.into_iter().flat_map(|s| MODES.map(|m| (s, m))).collect();
    t.rows = par_map(jobs, |(scheme, mode)| {
        let mut cfg = SystemConfig::for_scheme(k, scheme);
        cfg.mesh.iack_mode = mode;
        let mut sys = DsmSystem::new(cfg, scheme.build());
        // Only a completed, audited run reports numbers; any error is the
        // row's outcome, verbatim.
        let r = w.run(&mut sys, deadline).and_then(|r| {
            sys.verify_coherence().map_err(|e| format!("coherence audit failed: {e}")).map(|_| r)
        });
        let n = sys.net_stats();
        let cells = match r {
            Ok(r) => key!["completed", r.cycles, n.parks, n.gather_blocked_cycles],
            Err(e) => key![e, "-", "-", "-"],
        };
        [key![scheme.name(), mode_name(mode)], cells].concat()
    });
    t
}

fn e8(_: Arm) -> Table {
    let k = 8;
    let title =
        format!("consumption channels: 4 multicasts forward-and-absorb at one interface, {k}x{k}");
    let cols = [("makespan", 0), ("mean lat", 1), ("blocked (cy)", 0)];
    let mut t = Table::new("E8", title, &["worm len", "channels"], &cols);
    let (m, c) = (Mesh2D::square(k), k / 2);
    for (len, channels) in [8u16, 24].into_iter().flat_map(|l| [1, 2, 4].map(|c| (l, c))) {
        let mut net =
            Network::new(MeshConfig { cons_channels: channels, ..MeshConfig::paper_defaults(k) });
        // Southbound and northbound columns, eastbound and westbound rows:
        // four disjoint paths that all forward-and-absorb at the center.
        let ends = [(c, 0, c, k - 1), (c, k - 1, c, 0), (0, c, k - 1, c), (k - 1, c, 0, c)];
        for (i, (sx, sy, ex, ey)) in ends.into_iter().enumerate() {
            let (src, end) = (m.node_at(sx, sy), m.node_at(ex, ey));
            let unicast = WormSpec::unicast(src, end, VNet::Req, len, i as u64);
            let dests = [m.node_at(c, c), end].into();
            net.inject(WormSpec { kind: WormKind::Multicast, dests, ..unicast });
        }
        let end = net.run_until_quiescent(100_000).expect("all deliver");
        let s = net.stats();
        t.add(
            key![len, channels],
            [end as f64, s.multicast_latency.mean(), s.multicast_blocked_cycles as f64],
        );
    }
    t
}

const FOUR: [SchemeKind; 4] =
    [SchemeKind::UiUa, SchemeKind::MiUaCol, SchemeKind::MiMaCol, SchemeKind::MiMaWf];

fn e9(arm: Arm) -> Table {
    let (k, d, probes) = (8, 8, [5, 2][arm as usize]);
    let title = format!(
        "invalidation latency under background load, {k}x{k}, d = {d}, {probes} probes per point"
    );
    let mut t = Table::new(
        "E9",
        title,
        &["scheme", "bg gap"],
        &[("latency (cy)", 1), ("max link util", 3)],
    );
    // A 1M-cycle compute gap leaves the mesh idle.
    let gaps = [("0", 0), ("50", 50), ("150", 150), ("400", 400), ("idle", 1_000_000)];
    let jobs: Vec<_> = FOUR.into_iter().flat_map(|s| gaps.map(|g| (s, g))).collect();
    let rows = par_map(jobs.clone(), |(scheme, g)| loaded_probes(scheme, k, d, g.1, probes));
    for ((scheme, g), r) in jobs.into_iter().zip(rows) {
        t.add(key![scheme.name(), g.0], r);
    }
    t
}

/// Stream private remote reads (guaranteed misses, compute gap `gap`)
/// from every node but node 0 and measure `probes` seeded invalidations
/// written by node 0 mid-stream: the mean probe latency and the busiest
/// link's utilization.
fn loaded_probes(scheme: SchemeKind, k: usize, d: usize, gap: u64, probes: usize) -> [f64; 2] {
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    let mut bg = background_workload(k * k, 100_000, gap, 99).ops;
    bg[0].clear();
    let (mesh, mut rng) = (Mesh2D::square(k), Rng::new(7));
    let lats = probes_under_load(&mut sys, &mut bg, NodeId(0), (2_000, 5_000_000), probes, || {
        let p = Pattern {
            writer: NodeId(0),
            ..gen_pattern(&mesh, PatternKind::UniformRandom, d, &mut rng)
        };
        (!p.sharers.contains(&p.writer) && p.home != p.writer).then_some(p)
    });
    let mean = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
    [mean, sys.net_stats().max_link_utilization(sys.now())]
}

fn e10(_: Arm) -> Table {
    let k = 8;
    let cfg = SystemConfig::for_scheme(k, SchemeKind::UiUa);
    let (c, sz) = (cfg.costs, cfg.sizes);
    let title =
        format!("derived memory latencies (paper Tables 4 and 5), UI-UA, {k}x{k}, 5 ns cycles");
    let mut t = Table::new("E10", title, &["scenario"], &[("cycles", 0), ("ns", 0)]);
    let mut add = |name: String, cy: u64| t.add(key![name], [cy as f64, cy as f64 * 5.0]);
    let mesh = Mesh2D::square(k);
    let block = |x: usize, y: usize| Addr(((k * k) as u64 + mesh.node_at(x, y).0 as u64) * 32);
    let (n00, read, write) = (mesh.node_at(0, 0), MemOp::Read, MemOp::Write);

    add("read hit (cache access)".into(), c.cache_access);
    add(
        "clean read miss, local memory".into(),
        stall(k, &[], mesh.node_at(5, 0), read(block(5, 0))),
    );
    add("clean read miss, neighboring node".into(), stall(k, &[], n00, read(block(1, 0))));
    // Table 5: the neighbor miss term by term. An uncontended unicast
    // worm crosses hops + 1 routers and then streams its flits; the
    // requester's cache fill follows the stall, so it is no term.
    let worm = |flits: u16, hops: u64| (hops + 1) * cfg.mesh.router_delay + flits as u64;
    let data = sz.control + sz.data;
    add("breakdown: cache access + CC compose".into(), c.cache_access + c.cc_send);
    add(format!("breakdown: request worm ({} flits, 1 hop)", sz.control), worm(sz.control, 1));
    add("breakdown: DC processing + memory access".into(), c.dc_proc + c.mem_access);
    add("breakdown: DC compose reply".into(), c.dc_send);
    add(format!("breakdown: data reply ({data} flits, 1 hop)"), worm(data, 1));
    add("breakdown: CC processing".into(), c.cc_proc);

    add("clean read miss, corner-to-corner".into(), stall(k, &[], n00, read(block(k - 1, k - 1))));
    // Dirty read miss, 3 hops: requester -> home -> owner -> requester.
    let (far, a) = (mesh.node_at(7.min(k - 1), 7.min(k - 1)), block(4, 4));
    add("dirty read miss (cache-to-cache)".into(), stall(k, &[(n00, write(a))], far, read(a)));
    add("write miss, uncached block".into(), stall(k, &[], n00, write(block(1, 0))));
    for d in [1usize, 8] {
        let sharers = (0..d).map(|i| (mesh.node_at(2 + i % (k - 2), 1 + i / (k - 2)), read(a)));
        let setup: Vec<_> = [(n00, read(a))].into_iter().chain(sharers).collect();
        add(format!("upgrade with {d} remote sharer(s), UI-UA"), stall(k, &setup, n00, write(a)));
    }
    t
}

/// On a fresh UI-UA system, run each `setup` op to idle, then issue `op`
/// on `node` and return the processor's stall in cycles.
fn stall(k: usize, setup: &[(NodeId, MemOp)], node: NodeId, op: MemOp) -> u64 {
    let mut sys =
        DsmSystem::new(SystemConfig::for_scheme(k, SchemeKind::UiUa), SchemeKind::UiUa.build());
    let stalled = |s: &DsmSystem| s.metrics().read_latency.sum() + s.metrics().write_latency.sum();
    let mut before = 0.0;
    for &(n, o) in setup.iter().chain([(node, op)].iter()) {
        before = stalled(&sys);
        sys.issue(n, o);
        sys.run_until_idle(1_000_000).expect("completes");
    }
    (stalled(&sys) - before) as u64
}

/// An application workload on 64 processors, labelled by its size.
type App = (String, Workload);

fn bh(bodies: usize, steps: usize) -> App {
    let cfg = BarnesHutConfig { procs: 64, bodies, steps, ..Default::default() };
    (format!("Barnes-Hut ({bodies} bodies, {steps} steps)"), barnes_hut::generate(&cfg))
}

/// Barnes-Hut's (bodies, steps) per arm.
const BH_SIZE: [(usize, usize); 2] = [(128, 4), (64, 2)];

/// The three applications, sized for `arm`.
fn apps(arm: Arm) -> [App; 3] {
    let (bodies, steps) = BH_SIZE[arm as usize];
    let lu = LuConfig { procs: 64, n: [128, 64][arm as usize], ..Default::default() };
    let apsp = ApspConfig { procs: 64, n: 64, relax_cost: 32 };
    [
        bh(bodies, steps),
        (format!("Blocked LU ({0}x{0}, {1}x{1} blocks)", lu.n, lu.block), lu::generate(&lu)),
        (format!("APSP (Floyd-Warshall, n={})", apsp.n), apsp::generate(&apsp)),
    ]
}

/// Metric `col` of a finished application run: execution `cycles` and
/// the audited system. Any other column names a sharer-count bucket
/// (`1`, `3-4`, `33+`) and reads the percentage of invalidations in it;
/// `norm` is filled in by [`app_rows`].
fn app_metric(col: &str, cycles: f64, sys: &DsmSystem) -> f64 {
    let m = sys.metrics();
    match col {
        "cycles" => cycles,
        "invals" => m.inval_txns as f64,
        "invals/Mcycle" => m.inval_txns as f64 / (cycles / 1e6),
        "mean d" => m.inval_set_size.summary().mean(),
        "inval lat" => m.inval_latency.mean(),
        "home msgs" => m.inval_home_msgs.mean(),
        "traffic" => sys.net_stats().flit_hops as f64,
        "stall cyc" => m.stall_cycles as f64,
        "sync stall cyc" => m.sync_stall_cycles as f64,
        "barriers" => m.barriers as f64,
        "norm" => f64::NAN,
        bucket => {
            let (lo, hi) = bucket.split_once('-').unwrap_or((bucket.trim_end_matches('+'), bucket));
            let lo: usize = lo.parse().expect("bucket column");
            let hi = if bucket.ends_with('+') { 255 } else { hi.parse().expect("bucket column") };
            let h = &m.inval_set_size;
            100.0 * (lo..=hi).map(|v| h.bucket(v)).sum::<u64>() as f64 / h.count().max(1) as f64
        }
    }
}

/// One application-level row to run: key, scheme, configuration, workload.
type AppJob<'w> = (Vec<String>, SchemeKind, SystemConfig, &'w Workload);

/// Run every job to completion on a fresh audited system, in parallel,
/// and add a row of the table's metrics for each. `norm` is execution
/// time over the first row of the job's group: the rows sharing their
/// first key when `grouped`, else the whole table.
fn app_rows(t: &mut Table, jobs: Vec<AppJob<'_>>, grouped: bool) {
    let cols = t.cols[t.keys..].to_vec();
    let rows = par_map(jobs, |(key, scheme, cfg, w)| {
        let mut sys = DsmSystem::new(cfg, scheme.build());
        let r = w.run(&mut sys, 500_000_000).unwrap_or_else(|e| panic!("{key:?}: {e}"));
        assert_coherent(&sys, &format!("{key:?}"));
        let vals: Vec<f64> = cols.iter().map(|c| app_metric(c, r.cycles as f64, &sys)).collect();
        (key, vals)
    });
    let (c, n) = (cols.iter().position(|c| c == "cycles"), cols.iter().position(|c| c == "norm"));
    let mut base = (String::new(), f64::NAN);
    for (key, mut vals) in rows {
        if let (Some(c), Some(n)) = (c, n) {
            if base.1.is_nan() || (grouped && key[0] != base.0) {
                base = (key[0].clone(), vals[c]);
            }
            vals[n] = vals[c] / base.1;
        }
        t.add(key, vals);
    }
}

fn e11(arm: Arm) -> Table {
    let title = "applications on 8x8 (64 procs), execution time normalized to UI-UA".to_string();
    let cols = [("cycles", 0), ("norm", 3), ("invals", 0), ("mean d", 1), ("inval lat", 1)];
    let cols = [&cols[..], &[("home msgs", 1), ("traffic", 0), ("stall cyc", 0)]].concat();
    let mut t = Table::new("E11", title, &["app", "scheme"], &cols);
    let apps = apps(arm);
    let jobs = apps.iter().flat_map(|(label, w)| {
        SchemeKind::ALL.map(|s| (key![label, s.name()], s, SystemConfig::for_scheme(8, s), w))
    });
    app_rows(&mut t, jobs.collect(), true);
    t
}

fn e12(arm: Arm) -> Table {
    let title =
        "invalidation set sizes under UI-UA, 64 procs, % of invalidations per sharer-count bucket";
    let mut cols = vec![("invals", 0), ("mean d", 1)];
    cols.extend(["1", "2", "3-4", "5-8", "9-16", "17-32", "33+"].map(|b| (b, 1)));
    let mut t = Table::new("E12", title.into(), &["app"], &cols);
    let (apps, ui) = (apps(arm), SchemeKind::UiUa);
    let jobs = apps.iter().map(|(l, w)| (key![l], ui, SystemConfig::for_scheme(8, ui), w));
    app_rows(&mut t, jobs.collect(), false);
    t
}

fn e13(_: Arm) -> Table {
    let (rounds, blocks, procs) = (8, 4, 64);
    let title = format!(
        "hot-spot invalidation throughput, 8x8, {rounds} rounds x {blocks} blocks, d ~ {}",
        procs - 2
    );
    let cols = [("cycles", 0), ("invals", 0), ("invals/Mcycle", 1), ("inval lat", 1)];
    let mut t = Table::new("E13", title, &["scheme"], &cols);
    // Each round every processor reads every hot block, then after a
    // barrier distinct writers rewrite the blocks concurrently.
    let mut w = Workload::new(procs);
    let barrier = |w: &mut Workload, id: usize| {
        (0..procs)
            .for_each(|p| w.push(p, MemOp::Barrier { id: id as u16, participants: procs as u32 }))
    };
    for r in 0..rounds {
        let addr = |b: usize| Addr(((r * blocks + b + 1) * procs + b) as u64 * 32);
        (0..blocks).for_each(|b| (0..procs).for_each(|p| w.push(p, MemOp::Read(addr(b)))));
        barrier(&mut w, 2 * r);
        (0..blocks).for_each(|b| w.push(procs - 1 - b, MemOp::Write(addr(b))));
        barrier(&mut w, 2 * r + 1);
    }
    let jobs = SchemeKind::ALL.map(|s| (key![s.name()], s, SystemConfig::for_scheme(8, s), &w));
    app_rows(&mut t, jobs.to_vec(), false);
    t
}

fn a1(arm: Arm) -> Table {
    let n = [128, 64][arm as usize];
    let title = format!(
        "sequential vs release consistency (8-entry write buffer), APSP (Floyd-Warshall, n={n}), 64 procs, normalized to UI-UA under SC"
    );
    let cols = [("cycles", 0), ("norm", 3), ("stall cyc", 0), ("inval lat", 1)];
    let mut t = Table::new("A1", title, &["scheme", "model"], &cols);
    let w = apsp::generate(&ApspConfig { procs: 64, n, relax_cost: 32 });
    let rc = ConsistencyModel::Release { write_buffer: 8 };
    let jobs = FOUR.into_iter().flat_map(|s| {
        let sc = SystemConfig::for_scheme(8, s);
        [
            (key![s.name(), "SC"], s, sc.clone(), &w),
            (key![s.name(), "RC"], s, SystemConfig { consistency: rc, ..sc }, &w),
        ]
    });
    app_rows(&mut t, jobs.collect(), false);
    t
}

fn a2(arm: Arm) -> Table {
    let (bodies, steps) = BH_SIZE[arm as usize];
    let (label, w) = bh(bodies, steps);
    let title =
        format!("barrier release via unicasts vs multidestination worms, {label}, 64 procs");
    let cols = [("cycles", 0), ("sync stall cyc", 0), ("barriers", 0)];
    let mut t = Table::new("A2", title, &["scheme", "release"], &cols);
    let jobs = [SchemeKind::UiUa, SchemeKind::MiMaCol].into_iter().flat_map(|s| {
        [(false, "unicast"), (true, "multicast")].map(|(mcast, name)| {
            let cfg = SystemConfig { multicast_barriers: mcast, ..SystemConfig::for_scheme(8, s) };
            (key![s.name(), name], s, cfg, &w)
        })
    });
    app_rows(&mut t, jobs.collect(), false);
    t
}

fn c1(_: Arm) -> Table {
    let (procs, rounds) = (64, 6);
    let title = format!(
        "sharing classes, {procs} procs, 8 blocks: migratory ({} rounds) vs producer-consumer ({rounds} rounds), normalized to UI-UA",
        rounds * 4
    );
    let cols = [("cycles", 0), ("norm", 3), ("invals", 0), ("mean d", 1), ("inval lat", 1)];
    let mut t = Table::new("C1", title, &["class", "scheme"], &cols);
    let classes = [
        ("migratory", migratory_workload(procs, 8, rounds * 4, 20)),
        ("producer-consumer", producer_consumer_workload(procs, 8, rounds, 20)),
    ];
    let jobs = classes.iter().flat_map(|(class, w)| {
        FOUR.map(|s| (key![class, s.name()], s, SystemConfig::for_scheme(8, s), w))
    });
    app_rows(&mut t, jobs.collect(), true);
    t
}
