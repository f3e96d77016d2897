//! H9 — dynamic partition merging and contention-adaptive grouping,
//! head-to-head against the static schemes.
//!
//! Two arms:
//!
//! 1. **Pattern table** — extends H5's latency attribution to all nine
//!    schemes on seeded single-transaction patterns (uniform, same-row,
//!    cluster, same-column; the `PatternKind` generators). Every
//!    row runs twice — profiled and unprofiled — and the two arms are
//!    asserted bit-identical per trial, so the table doubles as a
//!    regression net for the adaptive feedback loop (the plan depends on
//!    the link-load meter, which must commit identically whether or not
//!    the profiler watches).
//!
//! 2. **Hot column** — background readers saturate the vertical links of
//!    one column while seeded invalidations whose sharers straddle that
//!    column are measured mid-stream. This is the regime the adaptive
//!    scheme exists for: its windowed link-occupancy summary commits hot
//!    windows, so merge decisions and injection order see the congestion
//!    that static MI-MA(col) is blind to.
//!
//! The run fails (panics) unless MI-MA(ada) beats MI-MA(col)'s mean
//! invalidation latency on at least one skewed or hot-column pattern —
//! the paper-level claim this experiment exists to check — and the phase
//! attribution shows *where* the latency moved.
//!
//! Usage: `exp_adaptive [--k 8] [--d 6] [--trials 12] [--probes 4]
//!                      [--quick] [--out BENCH_adaptive.json]`

use std::collections::VecDeque;
use wormdsm_bench::{
    arg, assert_coherent, flag, measure_txn_on, phases_json, probes_under_load, TxnResult,
};
use wormdsm_coherence::Addr;
use wormdsm_core::{DsmSystem, MemOp, RunMeta, SchemeKind, SystemConfig, TxnProfiler};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_sim::profile::{validate_json, Phase};
use wormdsm_sim::Rng;
use wormdsm_workloads::{gen_pattern, Pattern, PatternKind};

/// Background blocks live far above any probe block (probe ids grow from
/// 1), so the two address streams never collide.
const HOT_BG_BASE: u64 = 1 << 20;

/// One measured row: per-trial results plus the profiler that watched
/// them (profiled arm only).
struct RowOut {
    results: Vec<TxnResult>,
    cycles: u64,
    flit_hops: u64,
    profiler: Option<TxnProfiler>,
}

/// Run `patterns` as sequential seeded transactions on one system.
fn run_row(scheme: SchemeKind, k: usize, patterns: &[Pattern], profile: bool) -> RowOut {
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    if profile {
        sys.enable_profiling();
    }
    let results: Vec<TxnResult> = patterns.iter().map(|p| measure_txn_on(&mut sys, p)).collect();
    assert_coherent(&sys, &format!("{} pattern row", scheme.name()));
    let profiler =
        if profile { Some(sys.take_profiler().expect("profiler attached")) } else { None };
    RowOut { results, cycles: sys.now(), flit_hops: sys.net_stats().flit_hops, profiler }
}

/// The profiled and unprofiled arms must agree on every measured number
/// of every trial: profiling is a pure observer, so the adaptive feedback
/// loop's committed meter windows cannot depend on it.
fn assert_row_identical(ctx: &str, a: &RowOut, b: &RowOut) {
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycles diverged under profiling");
    assert_eq!(a.flit_hops, b.flit_hops, "{ctx}: flit hops diverged under profiling");
    assert_eq!(a.results.len(), b.results.len());
    for (i, (x, y)) in a.results.iter().zip(b.results.iter()).enumerate() {
        assert_eq!(x.inval_latency, y.inval_latency, "{ctx} trial {i}: inval latency diverged");
        assert_eq!(x.write_latency, y.write_latency, "{ctx} trial {i}: write latency diverged");
        assert_eq!(x.traffic, y.traffic, "{ctx} trial {i}: traffic diverged");
        assert_eq!(x.messages, y.messages, "{ctx} trial {i}: message count diverged");
    }
}

/// The hot-column pattern: a sharer strip down the saturated column plus
/// single sharers spread along row 1 in scattered columns, home at the
/// top of the hot column, writer in the far corner. The strip must ride
/// the congested vertical links no matter what; the scattered flanks are
/// where grouping policy has room to act (one serialized worm per column
/// for the static schemes vs merged serpentines for DPM/adaptive).
fn hot_pattern(mesh: &Mesh2D, k: usize, d: usize) -> Pattern {
    let hc = k / 2;
    let strip = d / 2;
    let flank_cols = [1, 2, k - 2, k - 1];
    assert!(strip < k && d - strip <= flank_cols.len(), "hot pattern needs a smaller d");
    let mut sharers: Vec<NodeId> = (1..=strip).map(|y| mesh.node_at(hc, y)).collect();
    sharers.extend(flank_cols[..d - strip].iter().map(|&x| mesh.node_at(x, 1)));
    Pattern { home: mesh.node_at(hc, 0), writer: NodeId(0), sharers }
}

/// Measure `probes` sequential hot-column transactions mid-stream while
/// the hot column's vertical links carry continuous background reads.
/// Returns per-probe latencies (in probe order), the busiest link's
/// utilization, and the profiler when attached.
fn run_hot(
    scheme: SchemeKind,
    k: usize,
    d: usize,
    probes: usize,
    profile: bool,
) -> (Vec<f64>, f64, Option<TxnProfiler>) {
    let nodes = k * k;
    let hc = k / 2;
    let mesh = Mesh2D::square(k);
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    if profile {
        sys.enable_profiling();
    }
    let bb = sys.config().block_bytes;

    // Every node in the hot column streams private reads (guaranteed
    // misses) to blocks homed half the column away — pure vertical
    // traffic up and down column `hc`, request and reply.
    let mut bg: Vec<VecDeque<MemOp>> = vec![VecDeque::new(); nodes];
    for y in 0..k {
        let reader = mesh.node_at(hc, y);
        let home = mesh.node_at(hc, (y + k / 2) % k);
        for i in 0..20_000u64 {
            let block = (HOT_BG_BASE + y as u64 * 40_000 + i) * nodes as u64 + home.idx() as u64;
            bg[reader.idx()].push_back(MemOp::Read(Addr(block * bb)));
        }
    }

    let pat = hot_pattern(&mesh, k, d);
    // A 4,000-cycle warmup: long enough for the adaptive scheme's
    // 1024-cycle feedback window to commit several hot windows before the
    // first probe.
    let latencies =
        probes_under_load(&mut sys, &mut bg, pat.writer, (4_000, 2_000_000), probes, || {
            Some(pat.clone())
        });
    assert_eq!(latencies.len(), probes, "{}: hot-column run hit the deadline", scheme.name());
    let util = sys.net_stats().max_link_utilization(sys.now());
    let profiler =
        if profile { Some(sys.take_profiler().expect("profiler attached")) } else { None };
    (latencies, util, profiler)
}

fn phase_cells(p: &TxnProfiler) -> String {
    Phase::ALL.iter().map(|ph| format!(" {:>8.1}", p.mean_phase(*ph))).collect()
}

fn check_profiler(ctx: &str, p: &TxnProfiler, txns: u64) {
    assert_eq!(p.closed(), txns, "{ctx}: profiler missed transactions");
    assert_eq!(p.open_txns(), 0, "{ctx}: transactions left open");
    p.verify_exact().unwrap_or_else(|e| panic!("{ctx}: exact-sum violated: {e}"));
}

fn main() {
    let main_t0 = std::time::Instant::now();
    let k: usize = arg("--k", 8);
    let quick = flag("--quick");
    let d: usize = arg("--d", 6);
    let trials: usize = arg("--trials", if quick { 4 } else { 12 });
    let probes: usize = arg("--probes", if quick { 2 } else { 4 });
    let out: String = arg("--out", "BENCH_adaptive.json".to_string());
    assert!(k >= 4, "--k must be >= 4");
    let mesh = Mesh2D::square(k);

    let kinds: [(&str, PatternKind); 4] = [
        ("uniform", PatternKind::UniformRandom),
        ("row", PatternKind::SameRow),
        ("cluster", PatternKind::Cluster { radius: 2 }),
        ("column", PatternKind::SameColumn),
    ];
    // One seeded pattern list per kind, shared by every scheme — the
    // comparison is over identical transactions.
    let mut rng = Rng::new(0xADA9_0001);
    let pattern_sets: Vec<(&str, Vec<Pattern>)> = kinds
        .iter()
        .map(|&(name, kind)| {
            (name, (0..trials).map(|_| gen_pattern(&mesh, kind, d, &mut rng)).collect())
        })
        .collect();

    let mut rows = Vec::new();
    let mut means: Vec<(String, SchemeKind, f64)> = Vec::new();

    for (pname, patterns) in &pattern_sets {
        println!("\n== H9: {pname} patterns, {k}x{k}, d = {d}, {trials} trials ==");
        println!(
            "{:>12} {:>9} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "scheme", "mean lat", "traffic", "inject", "head", "body", "dest", "ack", "close"
        );
        for scheme in SchemeKind::ALL {
            let ctx = format!("{pname} {}", scheme.name());
            let profiled = run_row(scheme, k, patterns, true);
            let plain = run_row(scheme, k, patterns, false);
            assert_row_identical(&ctx, &profiled, &plain);
            let p = profiled.profiler.as_ref().expect("profiled arm");
            check_profiler(&ctx, p, trials as u64);

            let n = trials as f64;
            let mean_lat = profiled.results.iter().map(|r| r.inval_latency).sum::<f64>() / n;
            let mean_traffic = profiled.results.iter().map(|r| r.traffic as f64).sum::<f64>() / n;
            println!(
                "{:>12} {:>9.1} {:>9.1} {}",
                scheme.name(),
                mean_lat,
                mean_traffic,
                phase_cells(p)
            );
            let totals = p.phase_totals();
            rows.push(format!(
                concat!(
                    "    {{\"arm\": \"pattern\", \"pattern\": \"{}\", \"scheme\": \"{}\", ",
                    "\"trials\": {}, \"mean_inval_latency\": {:.3}, \"mean_traffic\": {:.3}, ",
                    "\"phase_totals\": {}, \"phase_means\": {}, \"bit_identical\": true}}"
                ),
                pname,
                scheme.name(),
                trials,
                mean_lat,
                mean_traffic,
                phases_json(|ph| totals[ph.index()].to_string()),
                phases_json(|ph| format!("{:.3}", p.mean_phase(ph))),
            ));
            means.push(((*pname).to_string(), scheme, mean_lat));
        }
    }

    // Hot-column arm: the same transaction for every scheme, measured
    // against live vertical congestion on column k/2.
    println!("\n== H9: hot-column arm, {k}x{k}, column {} saturated, {probes} probes ==", k / 2);
    println!(
        "{:>12} {:>9} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "mean lat", "max util", "inject", "head", "body", "dest", "ack", "close"
    );
    for scheme in SchemeKind::ALL {
        let ctx = format!("hot-column {}", scheme.name());
        let (lats, util, profiler) = run_hot(scheme, k, d, probes, true);
        let (plain_lats, plain_util, _) = run_hot(scheme, k, d, probes, false);
        assert_eq!(lats, plain_lats, "{ctx}: probe latencies diverged under profiling");
        assert_eq!(util, plain_util, "{ctx}: link utilization diverged under profiling");
        let p = profiler.expect("profiled arm");
        check_profiler(&ctx, &p, probes as u64);

        let mean_lat = lats.iter().sum::<f64>() / probes as f64;
        println!("{:>12} {:>9.1} {:>9.3} {}", scheme.name(), mean_lat, util, phase_cells(&p));
        rows.push(format!(
            concat!(
                "    {{\"arm\": \"hot_column\", \"pattern\": \"hot-column\", \"scheme\": \"{}\", ",
                "\"probes\": {}, \"mean_inval_latency\": {:.3}, \"max_link_util\": {:.4}, ",
                "\"phase_means\": {}, \"bit_identical\": true}}"
            ),
            scheme.name(),
            probes,
            mean_lat,
            util,
            phases_json(|ph| format!("{:.3}", p.mean_phase(ph))),
        ));
        means.push(("hot-column".to_string(), scheme, mean_lat));
    }

    // Verdict: the adaptive scheme must beat static MI-MA(col) somewhere
    // it claims to — a skewed or hot-column pattern.
    let skewed = ["row", "cluster", "hot-column"];
    let lookup = |pat: &str, s: SchemeKind| -> f64 {
        means.iter().find(|(p, m, _)| p == pat && *m == s).expect("measured").2
    };
    println!("\n-- H9 verdict: MI-MA(ada) vs MI-MA(col), skewed patterns --");
    let mut wins = 0usize;
    let mut verdicts = Vec::new();
    for pat in skewed {
        let col = lookup(pat, SchemeKind::MiMaCol);
        let ada = lookup(pat, SchemeKind::MiMaAdaptive);
        let win = ada < col;
        wins += win as usize;
        println!(
            "{:>12}  MI-MA(col) {:>8.1}  MI-MA(ada) {:>8.1}  {}",
            pat,
            col,
            ada,
            if win { "ada wins" } else { "col holds" }
        );
        verdicts.push(format!(
            "    {{\"pattern\": \"{pat}\", \"mi_ma_col\": {col:.3}, \"mi_ma_ada\": {ada:.3}, \
             \"ada_wins\": {win}}}"
        ));
    }
    assert!(
        wins >= 1,
        "MI-MA(ada) beat MI-MA(col) on no skewed/hot-column pattern — the H9 claim failed"
    );

    let json = format!(
        concat!(
            "{{\n  \"k\": {k},\n  \"d\": {d},\n  \"trials\": {trials},\n",
            "  \"probes\": {probes},\n  \"hot_column\": {hc},\n  \"quick\": {quick},\n",
            "  \"run_meta\": {run_meta},\n",
            "  \"phases\": [{phases}],\n  \"rows\": [\n{rows}\n  ],\n",
            "  \"verdict\": [\n{verdicts}\n  ]\n}}\n"
        ),
        k = k,
        run_meta = RunMeta::capture(0).with_wall_s(main_t0.elapsed().as_secs_f64()).to_json(),
        d = d,
        trials = trials,
        probes = probes,
        hc = k / 2,
        quick = quick,
        phases =
            Phase::ALL.iter().map(|p| format!("\"{}\"", p.name())).collect::<Vec<_>>().join(", "),
        rows = rows.join(",\n"),
        verdicts = verdicts.join(",\n"),
    );
    validate_json(&json).expect("BENCH_adaptive.json is well-formed");
    std::fs::write(&out, json).expect("write adaptive results");
    println!("\nwrote {out}");
}
