//! Whole-workspace integration tests: applications across schemes,
//! analytic-vs-simulated consistency, turn-model end-to-end runs, and
//! cross-scheme invariants.

use wormdsm::analytic::{estimate_invalidation, NetParams};
use wormdsm::coherence::Addr;
use wormdsm::core::{DsmSystem, MemOp, SchemeKind, SystemConfig, TraceLevel};
use wormdsm::mesh::topology::{Mesh2D, NodeId};
use wormdsm::sim::json::validate_json;
use wormdsm::sim::profile::chrome_trace;
use wormdsm::sim::trace::TraceKind;
use wormdsm::sim::Rng;
use wormdsm::sim::ToJson;
use wormdsm::workloads::apps::barnes_hut::{self, BarnesHutConfig};
use wormdsm::workloads::apps::lu::{self, LuConfig};
use wormdsm::workloads::apps::{
    self,
    apsp::{self, ApspConfig},
};
use wormdsm::workloads::synthetic::migratory_workload;
use wormdsm::workloads::{gen_pattern, PatternKind, Workload};
use wormdsm_farm::metrics_fingerprint;

fn run_app(scheme: SchemeKind, k: usize, w: Workload) -> (u64, DsmSystem) {
    run_app_ff(scheme, k, w, true)
}

fn run_app_ff(scheme: SchemeKind, k: usize, w: Workload, fast_forward: bool) -> (u64, DsmSystem) {
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
    sys.set_fast_forward(fast_forward);
    let r = w.run(&mut sys, 50_000_000).unwrap_or_else(|e| panic!("{scheme}: {e}"));
    (r.cycles, sys)
}

#[test]
fn apsp_runs_under_every_scheme_and_multidestination_wins() {
    let k = 6;
    let cfg = ApspConfig { n: 36, procs: 36, relax_cost: 16 };
    let mut cycles = Vec::new();
    for scheme in SchemeKind::ALL {
        let (c, sys) = run_app(scheme, k, apsp::generate(&cfg));
        assert!(sys.metrics().inval_txns > 0, "{scheme}: APSP must invalidate");
        assert!(
            sys.metrics().inval_set_size.summary().mean() > 3.0,
            "{scheme}: APSP has wide sharing"
        );
        cycles.push((scheme, c));
    }
    let ui = cycles.iter().find(|(s, _)| *s == SchemeKind::UiUa).expect("baseline").1;
    let best_ma = cycles
        .iter()
        .filter(|(s, _)| {
            matches!(s, SchemeKind::MiMaCol | SchemeKind::MiMaTree | SchemeKind::MiMaTwoPhase)
        })
        .map(|(_, c)| *c)
        .min()
        .expect("MA schemes ran");
    assert!(
        best_ma < ui,
        "MI-MA ({best_ma}) should beat UI-UA ({ui}) on the wide-sharing workload"
    );
}

#[test]
fn barnes_hut_small_runs_everywhere() {
    let cfg = BarnesHutConfig { procs: 16, bodies: 32, steps: 2, ..Default::default() };
    for scheme in SchemeKind::ALL {
        let (_, sys) = run_app(scheme, 4, barnes_hut::generate(&cfg));
        assert_eq!(sys.metrics().barriers, 1 + 2 * 3, "{scheme}: barrier count");
        assert!(sys.metrics().inval_txns > 0, "{scheme}");
    }
}

#[test]
fn lu_small_runs_everywhere() {
    let cfg = LuConfig { n: 32, block: 8, procs: 16, flop_cost: 16 };
    for scheme in SchemeKind::ALL {
        let (_, sys) = run_app(scheme, 4, lu::generate(&cfg));
        assert!(sys.metrics().inval_txns > 0, "{scheme}");
        assert!(sys.metrics().read_hit_ratio() > 0.1, "{scheme}: some locality expected");
    }
}

/// One golden row: a 4x4 configuration and ten end-to-end metrics it
/// must reproduce bit for bit. `busy` rows run the seeded application
/// at compute scale 1 (`apps::seeded(app, 16, 1)`, the busy-cycle regime
/// of `exp_perf`'s `apsp-busy-k8` at k = 4); the others run the small
/// configs of [`small_workload`].
struct Golden {
    app: &'static str,
    busy: bool,
    scheme: SchemeKind,
    cycles: u64,
    flit_hops: u64,
    flits_injected: u64,
    inval_txns: u64,
    lat_count: u64,
    lat_sum: f64,
    lat_min: f64,
    lat_max: f64,
    lat_stddev: f64,
    stall: u64,
}

/// The golden list. The first six rows were recorded on the
/// pre-optimization tree (commit f102984): the allocation-free flit
/// path, flat directory/txn state and occupancy masks must be
/// *observationally invisible*, so any divergence is a behavior change,
/// not an optimization. The APSP rows for MI-MA(2ph), DPM and MI-MA(ada)
/// were recorded on the tree that still had the partitioned parallel
/// tick and pin the dynamic schemes across its removal. The remaining
/// APSP schemes and the three busy rows were recorded when the busy
/// rows moved here from the bench harness; their cycles, flit hops,
/// transaction count and latency sum are the pre-optimization busy-cycle
/// reference of that harness.
#[rustfmt::skip]
const GOLDEN: [Golden; 16] = [
    Golden { app: "bh",   busy: false, scheme: SchemeKind::UiUa,    cycles: 34994, flit_hops: 221816, flits_injected: 82352, inval_txns: 78, lat_count: 78, lat_sum: 26038.0, lat_min: 158.0, lat_max: 698.0, lat_stddev: 150.6781034565921,   stall: 286673 },
    Golden { app: "bh",   busy: false, scheme: SchemeKind::MiMaCol, cycles: 33714, flit_hops: 200918, flits_injected: 73289, inval_txns: 78, lat_count: 78, lat_sum: 14789.0, lat_min: 115.0, lat_max: 494.0, lat_stddev: 90.03907125464889,   stall: 272503 },
    Golden { app: "lu",   busy: false, scheme: SchemeKind::UiUa,    cycles: 35911, flit_hops: 162432, flits_injected: 67080, inval_txns: 12, lat_count: 12, lat_sum: 2658.0,  lat_min: 181.0, lat_max: 262.0, lat_stddev: 28.10842103949158,   stall: 227374 },
    Golden { app: "lu",   busy: false, scheme: SchemeKind::MiMaCol, cycles: 35175, flit_hops: 158898, flits_injected: 65496, inval_txns: 12, lat_count: 12, lat_sum: 1886.0,  lat_min: 126.0, lat_max: 203.0, lat_stddev: 24.569063655110856,  stall: 221887 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::UiUa,    cycles: 33396, flit_hops: 140288, flits_injected: 53720, inval_txns: 47, lat_count: 47, lat_sum: 12190.0, lat_min: 160.0, lat_max: 436.0, lat_stddev: 70.33579807409441,   stall: 337359 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::MiMaCol, cycles: 31978, flit_hops: 125854, flits_injected: 47403, inval_txns: 47, lat_count: 47, lat_sum: 7655.0,  lat_min: 118.0, lat_max: 327.0, lat_stddev: 46.92484576257612,   stall: 329309 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::MiMaTwoPhase, cycles: 31978, flit_hops: 125854, flits_injected: 47403, inval_txns: 47, lat_count: 47, lat_sum: 7655.0, lat_min: 118.0, lat_max: 327.0, lat_stddev: 46.92484576257612, stall: 329309 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::Dpm,     cycles: 31738, flit_hops: 126262, flits_injected: 47007, inval_txns: 47, lat_count: 47, lat_sum: 7357.0,  lat_min: 118.0, lat_max: 340.0, lat_stddev: 48.59115192367179,   stall: 328989 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::MiMaAdaptive, cycles: 31684, flit_hops: 125944, flits_injected: 47091, inval_txns: 47, lat_count: 47, lat_sum: 7166.0, lat_min: 113.0, lat_max: 353.0, lat_stddev: 50.82127677389586, stall: 329114 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::MiUaCol, cycles: 32712, flit_hops: 134330, flits_injected: 50939, inval_txns: 47, lat_count: 47, lat_sum: 11286.0, lat_min: 155.0, lat_max: 376.0, lat_stddev: 67.34750055267546,   stall: 331914 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::MiMaTree, cycles: 32029, flit_hops: 124114, flits_injected: 47971, inval_txns: 47, lat_count: 47, lat_sum: 8591.0,  lat_min: 133.0, lat_max: 347.0, lat_stddev: 58.47310207965339,  stall: 329000 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::MiUaWf,  cycles: 32774, flit_hops: 135537, flits_injected: 49246, inval_txns: 47, lat_count: 47, lat_sum: 11779.0, lat_min: 133.0, lat_max: 400.0, lat_stddev: 73.01604405197222,   stall: 331086 },
    Golden { app: "apsp", busy: false, scheme: SchemeKind::MiMaWf,  cycles: 31932, flit_hops: 126981, flits_injected: 45728, inval_txns: 47, lat_count: 47, lat_sum: 7746.0,  lat_min: 117.0, lat_max: 370.0, lat_stddev: 49.47367161317406,   stall: 327831 },
    Golden { app: "bh",   busy: true,  scheme: SchemeKind::MiMaCol, cycles: 93882, flit_hops: 347892, flits_injected: 125653, inval_txns: 142, lat_count: 142, lat_sum: 27230.0, lat_min: 119.0, lat_max: 536.0, lat_stddev: 74.13282042706413, stall: 427705 },
    Golden { app: "lu",   busy: true,  scheme: SchemeKind::MiMaCol, cycles: 142273, flit_hops: 651056, flits_injected: 261495, inval_txns: 24, lat_count: 24, lat_sum: 3675.0, lat_min: 120.0, lat_max: 237.0, lat_stddev: 26.610324594036808, stall: 842899 },
    Golden { app: "apsp", busy: true,  scheme: SchemeKind::MiMaCol, cycles: 306859, flit_hops: 1480233, flits_injected: 551301, inval_txns: 881, lat_count: 881, lat_sum: 130394.0, lat_min: 54.0, lat_max: 368.0, lat_stddev: 46.01171887365951, stall: 2727169 },
];

/// The small app configs the non-busy golden rows run on 16 processors.
fn small_workload(app: &str) -> Workload {
    match app {
        "bh" => barnes_hut::generate(&BarnesHutConfig {
            procs: 16,
            bodies: 32,
            steps: 2,
            ..Default::default()
        }),
        "lu" => lu::generate(&LuConfig { n: 32, block: 8, procs: 16, flop_cost: 16 }),
        "apsp" => apsp::generate(&ApspConfig { n: 16, procs: 16, relax_cost: 16 }),
        other => panic!("unknown app {other}"),
    }
}

/// How a golden row is run: `Plain` as an ordinary simulation, or
/// `Observed` — latency profiler on (which raises tracing to `Flit`),
/// contention probe on, and a 64-slot flight-recorder ring that is bound
/// to overflow.
#[derive(Clone, Copy, Debug)]
enum Arm {
    Plain,
    Observed,
}

/// Run every row on a 4x4 mesh in `arm` and hold it to its ten golden
/// values. Observation must not move a number. An observed run must also
/// attribute every transaction exactly whatever the ring dropped (the
/// profiler is hooked ahead of the ring write), its probe must mirror
/// the network's own link accounting, and its exports must be
/// well-formed JSON.
fn check_golden(rows: impl Iterator<Item = &'static Golden>, arm: Arm) {
    for g in rows {
        let workload = match g.busy {
            true => apps::seeded(g.app, 16, 1).expect("seeded app"),
            false => small_workload(g.app),
        };
        let tag = format!("{}{}/{} {arm:?}", g.app, if g.busy { " (busy)" } else { "" }, g.scheme);
        let (cycles, mut sys) = match arm {
            Arm::Plain => run_app(g.scheme, 4, workload),
            Arm::Observed => {
                let mut sys =
                    DsmSystem::new(SystemConfig::for_scheme(4, g.scheme), g.scheme.build());
                sys.enable_profiling();
                sys.enable_contention_probe(256);
                sys.recorder_mut().set_capacity(64);
                let r = workload.run(&mut sys, 50_000_000).expect("observed run completes");
                (r.cycles, sys)
            }
        };
        let (n, m) = (sys.net_stats(), sys.metrics());
        assert_eq!(cycles, g.cycles, "{tag}: cycles");
        assert_eq!(n.flit_hops, g.flit_hops, "{tag}: flit hops");
        assert_eq!(n.flits_injected, g.flits_injected, "{tag}: flits injected");
        assert_eq!(m.inval_txns, g.inval_txns, "{tag}: inval txns");
        assert_eq!(m.inval_latency.count(), g.lat_count, "{tag}: latency count");
        assert_eq!(m.inval_latency.sum(), g.lat_sum, "{tag}: latency sum");
        assert_eq!(m.inval_latency.min(), g.lat_min, "{tag}: latency min");
        assert_eq!(m.inval_latency.max(), g.lat_max, "{tag}: latency max");
        assert_eq!(m.inval_latency.stddev(), g.lat_stddev, "{tag}: latency stddev");
        assert_eq!(m.stall_cycles, g.stall, "{tag}: stall cycles");
        if let Arm::Plain = arm {
            continue;
        }
        assert!(sys.recorder().dropped() > 0, "{tag}: a 64-slot ring must overflow");
        let p = sys.take_profiler().expect("profiler attached");
        assert_eq!(p.closed(), g.inval_txns, "{tag}: profiler closes");
        assert_eq!(p.open_txns(), 0, "{tag}: transactions left open");
        assert_eq!(p.latency_total() as f64, g.lat_sum, "{tag}: profiler latency total");
        p.verify_exact().unwrap_or_else(|e| panic!("{tag}: phases must sum exactly: {e}"));
        assert!(p.records().iter().all(|t| t.phase_sum() == t.latency), "{tag}: phase sums");
        let probe = sys.take_contention_probe().expect("probe enabled");
        let mut from_windows = vec![0u64; sys.net_stats().link_busy.len()];
        for w in probe.windows() {
            for (slot, &f) in w.flits.iter().enumerate() {
                from_windows[slot / probe.vcs()] += u64::from(f);
            }
        }
        assert_eq!(
            from_windows,
            sys.net_stats().link_busy,
            "{tag}: probe windows disagree with NetStats::link_busy"
        );
        validate_json(&chrome_trace::trace_json(p.records(), &[])).expect("chrome trace JSON");
        validate_json(&sys.export_metrics().to_json()).expect("metrics registry JSON");
    }
}

/// Slots the message table may span in the 4x4 runs below, far fewer than
/// the messages those runs send.
const MSG_SLOT_BOUND: usize = 2048;

/// Run `w` to completion on `sys` as [`Workload::run`] does, each idle
/// processor issuing its next op every cycle, and every 1,000 cycles hold
/// the message table to at most [`MSG_SLOT_BOUND`] slots. With `force`,
/// each check first forces a collection and then holds the table to its
/// holders: every key a holder names is in the table (nothing dangles),
/// and the table holds no message beyond those (nothing leaks).
fn check_message_table(tag: &str, mut sys: DsmSystem, mut w: Workload, force: bool) -> DsmSystem {
    let mut checks = 0;
    loop {
        if sys.now() >= 1_000 * checks {
            checks += 1;
            if force {
                sys.collect_messages();
                let held: std::collections::BTreeSet<u64> = sys.held_message_keys().collect();
                let table = sys.message_table();
                for &k in &held {
                    table.check(k).unwrap_or_else(|e| panic!("{tag} at {}: {e}", sys.now()));
                }
                assert_eq!(table.len(), held.len(), "{tag} at {}: unheld messages", sys.now());
            }
            let slots = sys.message_table().slots();
            assert!(slots <= MSG_SLOT_BOUND, "{tag} at {}: {slots} slots", sys.now());
        }
        for (p, ops) in w.ops.iter_mut().enumerate() {
            let node = NodeId(p as u16);
            if !ops.is_empty() && sys.proc_idle(node) {
                sys.issue(node, ops.pop_front().expect("non-empty"));
            }
        }
        if w.ops.iter().all(|q| q.is_empty()) && sys.idle() {
            assert!(checks > 3, "{tag}: a run of {} cycles checks too little", sys.now());
            return sys;
        }
        assert!(sys.invariant_violation().is_none() && sys.now() < 10_000_000, "{tag} wedged");
        sys.step();
    }
}

fn system(scheme: SchemeKind) -> DsmSystem {
    DsmSystem::new(SystemConfig::for_scheme(4, scheme), scheme.build())
}

/// The message table holds exactly the messages something still names —
/// a worm, an undrained delivery, a queued directory request or a
/// receive, handle or inject event — in the small golden rows (barriers
/// included), a randomized protocol-stress stream under MI-MA(2ph) whose
/// gathers deposit and park, and a lock-handoff run. Forced collections
/// move no result.
#[test]
fn message_table_holds_exactly_the_messages_in_use() {
    for g in GOLDEN.iter().filter(|g| !g.busy) {
        let tag = format!("{}/{}", g.app, g.scheme);
        let sys = check_message_table(&tag, system(g.scheme), small_workload(g.app), true);
        assert_eq!(sys.now(), g.cycles, "{tag}: cycles");
        assert_eq!(sys.net_stats().flit_hops, g.flit_hops, "{tag}: flit hops");
    }

    // A protocol-stress op stream: random reads and writes of 12 blocks
    // from every node of a 4x4 mesh.
    let mut rng = Rng::new(0x57E5_0001);
    let mut w = Workload::new(16);
    for _ in 0..600 {
        let (node, block) = (rng.index(16), rng.index(12) as u64);
        let addr = Addr(block * 32);
        w.push(node, if rng.chance(0.5) { MemOp::Write(addr) } else { MemOp::Read(addr) });
    }
    let sys = check_message_table("stress 2ph", system(SchemeKind::MiMaTwoPhase), w, true);
    let n = sys.net_stats();
    assert!(n.deposits > 0 && n.parks > 0, "the stress run deposits and parks: {n:?}");

    let w = migratory_workload(16, 4, 24, 100);
    let sys = check_message_table("locks", system(SchemeKind::MiMaCol), w, true);
    assert!(sys.metrics().sync_stall_cycles > 0, "the lock run contends for locks");
}

/// Left to collect on its own, the table stays within a few collection
/// thresholds while a long run sends many times more messages than that:
/// its size follows the messages in flight, not the run's length.
#[test]
fn message_table_stays_bounded_over_a_long_run() {
    let g = GOLDEN.iter().find(|g| g.busy && g.app == "apsp").expect("busy APSP row");
    let w = apps::seeded(g.app, 16, 1).expect("seeded app");
    let sys = check_message_table("busy apsp", system(g.scheme), w, false);
    assert_eq!(sys.now(), g.cycles, "collection moved a result");
    let worms: u64 = sys.net_stats().worms_injected.iter().sum();
    assert!(worms > 10 * MSG_SLOT_BOUND as u64, "each worm carries its own message: {worms}");
}

#[test]
fn golden_small_config_metrics_are_bit_identical_to_pre_optimization_tree() {
    check_golden(GOLDEN.iter().filter(|g| !g.busy), Arm::Plain);
}

/// Profiling is a pure observer: every small golden row (bh under
/// MI-MA(col) among them), run with the profiler and contention probe
/// attached on a ring so small it is guaranteed to overflow, reproduces
/// its golden values bit for bit, and the profiler's attribution does
/// not depend on ring capacity.
#[test]
fn profiling_is_bit_identical_and_survives_ring_overflow() {
    check_golden(GOLDEN.iter().filter(|g| !g.busy), Arm::Observed);
}

/// The busy rows, in both arms, in a test of their own so they run
/// beside the rest.
#[test]
fn golden_busy_config_metrics_are_bit_identical() {
    check_golden(GOLDEN.iter().filter(|g| g.busy), Arm::Plain);
    check_golden(GOLDEN.iter().filter(|g| g.busy), Arm::Observed);
}

/// The flight recorder is a pure observer whose record agrees with the
/// metrics: busy bh under MI-MA(col), traced at `Txn` and at `Flit`
/// level into a ring large enough to keep everything, fingerprints like
/// the untraced run, records one `txn_close` per transaction whose
/// latencies sum to the latency summary, and reconstructs a sampled
/// transaction whose open-to-close distance is its latency.
#[test]
fn traced_runs_are_bit_identical_and_agree_with_metrics() {
    let run = |level: TraceLevel| {
        let scheme = SchemeKind::MiMaCol;
        let mut sys = DsmSystem::new(SystemConfig::for_scheme(4, scheme), scheme.build());
        sys.set_trace_level(level);
        sys.recorder_mut().set_capacity(1 << 20);
        apps::seeded("bh", 16, 1).unwrap().run(&mut sys, 50_000_000).expect("bh completes");
        sys
    };
    let fingerprint = |sys: &DsmSystem| metrics_fingerprint(&sys.export_metrics());
    let off = fingerprint(&run(TraceLevel::Off));
    assert_eq!(fingerprint(&run(TraceLevel::Txn)), off, "txn-level tracing changed the run");
    let sys = run(TraceLevel::Flit);
    assert_eq!(fingerprint(&sys), off, "flit-level tracing changed the run");

    let rec = sys.recorder();
    assert_eq!(rec.dropped(), 0, "a 2^20 ring keeps the whole run");
    let closes: Vec<(u64, u64)> = rec
        .events()
        .filter_map(|e| match e.kind {
            TraceKind::TxnClose { txn, latency, .. } => Some((txn, latency)),
            _ => None,
        })
        .collect();
    let m = sys.metrics();
    assert_eq!(closes.len() as u64, m.inval_txns, "one txn_close per transaction");
    let sum: u64 = closes.iter().map(|c| c.1).sum();
    assert_eq!(sum as f64, m.inval_latency.sum(), "close latencies sum to the summary");

    let &(id, latency) = closes.last().expect("bh invalidates");
    let tl = rec.timeline(id);
    let at = |open: bool| {
        tl.iter()
            .find(|e| match e.kind {
                TraceKind::TxnOpen { .. } => open,
                TraceKind::TxnClose { .. } => !open,
                _ => false,
            })
            .map(|e| e.at)
            .expect("the timeline holds its open and close")
    };
    assert_eq!(at(false) - at(true), latency, "timeline disagrees with its close event");
}

#[test]
fn app_runs_are_deterministic() {
    let cfg = ApspConfig { n: 16, procs: 16, relax_cost: 16 };
    let (c1, s1) = run_app(SchemeKind::MiMaWf, 4, apsp::generate(&cfg));
    let (c2, s2) = run_app(SchemeKind::MiMaWf, 4, apsp::generate(&cfg));
    assert_eq!(c1, c2);
    assert_eq!(s1.net_stats().flit_hops, s2.net_stats().flit_hops);
    assert_eq!(s1.metrics().inval_latency.mean(), s2.metrics().inval_latency.mean());
}

/// Dead-cycle fast-forwarding must be invisible: a fast-forwarded run and
/// a per-cycle-stepped run of the same app must agree on every cycle
/// count, every flit hop, and the full invalidation-latency distribution.
#[test]
fn fast_forward_runs_are_bit_identical_to_per_cycle_stepping() {
    type Gen = fn() -> Workload;
    let apps: Vec<(&str, Gen)> = vec![
        ("bh", || {
            barnes_hut::generate(&BarnesHutConfig {
                procs: 16,
                bodies: 32,
                steps: 2,
                ..Default::default()
            })
        }),
        ("lu", || lu::generate(&LuConfig { n: 32, block: 8, procs: 16, flop_cost: 16 })),
        ("apsp", || apsp::generate(&ApspConfig { n: 16, procs: 16, relax_cost: 16 })),
    ];
    for (name, gen) in apps {
        // MI-MA(ada) is the hard case: its plans read the link-load
        // meter, whose gap commits must reproduce the stepped schedule's
        // summaries exactly for the runs to stay bit-identical.
        for scheme in [SchemeKind::UiUa, SchemeKind::MiMaCol, SchemeKind::MiMaAdaptive] {
            let (c_slow, slow) = run_app_ff(scheme, 4, gen(), false);
            let (c_fast, fast) = run_app_ff(scheme, 4, gen(), true);
            assert_eq!(c_slow, c_fast, "{name}/{scheme}: cycle count diverged");
            assert_eq!(slow.now(), fast.now(), "{name}/{scheme}: clock diverged");
            assert_eq!(
                slow.net_stats().flit_hops,
                fast.net_stats().flit_hops,
                "{name}/{scheme}: flit hops diverged"
            );
            assert_eq!(
                slow.net_stats().flits_injected,
                fast.net_stats().flits_injected,
                "{name}/{scheme}: injected flits diverged"
            );
            let (ms, mf) = (slow.metrics(), fast.metrics());
            assert_eq!(ms.inval_txns, mf.inval_txns, "{name}/{scheme}: txn count diverged");
            for (what, a, b) in [
                ("count", ms.inval_latency.count() as f64, mf.inval_latency.count() as f64),
                ("sum", ms.inval_latency.sum(), mf.inval_latency.sum()),
                ("min", ms.inval_latency.min(), mf.inval_latency.min()),
                ("max", ms.inval_latency.max(), mf.inval_latency.max()),
                ("stddev", ms.inval_latency.stddev(), mf.inval_latency.stddev()),
            ] {
                assert_eq!(a, b, "{name}/{scheme}: inval latency {what} diverged");
            }
            assert_eq!(ms.stall_cycles, mf.stall_cycles, "{name}/{scheme}: stall cycles diverged");
        }
    }
}

#[test]
fn analytic_tracks_simulation_on_idle_transactions() {
    // On an otherwise idle machine the contention-free model should land
    // within a modest factor of the simulator, and must preserve the
    // UI-UA-vs-MI-MA ordering at large d.
    let k = 8;
    let mesh = Mesh2D::square(k);
    let mut rng = Rng::new(5);
    for scheme in [SchemeKind::UiUa, SchemeKind::MiUaCol, SchemeKind::MiMaCol] {
        for d in [4usize, 16, 32] {
            let p = gen_pattern(&mesh, PatternKind::UniformRandom, d, &mut rng);
            let sim = wormdsm_bench_shim::measure(scheme, k, &p);
            let est = estimate_invalidation(
                &NetParams::default(),
                &mesh,
                scheme.natural_routing(),
                scheme.build().as_ref(),
                p.home,
                &p.sharers,
            );
            let ratio = sim / est.latency;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{scheme} d={d}: sim {sim} vs analytic {} (ratio {ratio:.2})",
                est.latency
            );
        }
    }
}

#[test]
fn solo_flights_match_analytic_closed_form() {
    // The analytic model's contention-free flight law must match the
    // simulator *exactly* — not within a tolerance — for solo worms on an
    // idle mesh: final consumption latency and every intermediate absorb
    // timestamp, for unicasts and the planned invalidation worms of all
    // nine grouping schemes, cross-validated against the stepped engine.
    use wormdsm::analytic::solo_flight_latencies;
    use wormdsm::core::plan::PlannedWorm;
    use wormdsm::mesh::network::{MeshConfig, Network};
    use wormdsm::mesh::routing::BaseRouting;
    use wormdsm::mesh::topology::NodeId;
    use wormdsm::mesh::worm::{TxnId, VNet, WormKind, WormSpec};

    let k = 8;
    let mesh = Mesh2D::square(k);
    let p = NetParams::default();

    let check = |routing: BaseRouting, src: NodeId, w: &PlannedWorm, len: u16| {
        let model =
            solo_flight_latencies(&p, &mesh, routing.request_rule(), src, &w.dests, len as u64);
        let mut cfg = MeshConfig::paper_defaults(k);
        cfg.routing = routing;
        let mut net = Network::new(cfg);
        let id = net.inject(WormSpec {
            src,
            vnet: VNet::Req,
            kind: w.kind,
            dests: w.dests.clone(),
            len_flits: len,
            payload: 0,
            reserve_iack: w.reserve_iack,
            txn: TxnId(1),
            initial_acks: w.initial_acks,
            gather_deposit: w.gather_deposit,
            deliver: w.deliver.clone(),
        });
        net.run_until_quiescent(100_000).unwrap();
        // The final destination always delivers, so the loop checks the
        // final latency too.
        let q = net.worm(id).queued_at;
        for (j, &d) in w.dests.iter().enumerate() {
            if !w.deliver.as_ref().is_none_or(|m| m[j]) {
                continue;
            }
            let ds = net.take_deliveries(d);
            assert_eq!(ds.len(), 1, "exactly one delivery at {d}");
            assert_eq!(ds[0].worm, id, "the delivery at {d} is the solo worm's");
            assert_eq!(ds[0].at - q, model[j], "delivery time at dest {j} ({d}): src {src}");
        }
    };

    // Unicasts: every direction, with and without turns, across lengths.
    for &(sx, sy, dx, dy) in
        &[(0, 0, 7, 0), (7, 7, 0, 7), (0, 0, 5, 6), (6, 1, 2, 5), (3, 3, 3, 6), (4, 4, 4, 1)]
    {
        for len in [2u16, 5, 8, 16] {
            let w = PlannedWorm::unicast(mesh.node_at(dx, dy));
            check(BaseRouting::ECube, mesh.node_at(sx, sy), &w, len);
        }
    }

    // Every scheme's planned invalidation worms — request phase plus the
    // tree scheme's relayed column worms — injected solo under the
    // scheme's natural routing.
    let home = mesh.node_at(3, 4);
    let sharers: Vec<NodeId> = [(1, 2), (1, 5), (3, 1), (5, 6), (6, 2), (6, 5)]
        .iter()
        .map(|&(x, y)| mesh.node_at(x, y))
        .collect();
    for scheme in SchemeKind::ALL {
        let routing = scheme.natural_routing();
        let plan = scheme.build().plan(&mesh, home, &sharers);
        let mut checked = 0usize;
        for w in &plan.request_worms {
            assert_ne!(w.kind, WormKind::Gather, "{scheme}: request phase has no gathers");
            check(routing, home, w, 8);
            checked += 1;
        }
        for (delegate, worms) in &plan.relays {
            for w in worms {
                check(routing, *delegate, w, 8);
                checked += 1;
            }
        }
        assert!(checked > 0, "{scheme}: plan must carry invalidation worms");
    }
}

/// Minimal local re-implementation of the bench harness's seeded
/// transaction measurement (the facade crate does not depend on
/// wormdsm-bench).
mod wormdsm_bench_shim {
    use wormdsm::coherence::Addr;
    use wormdsm::core::{DsmSystem, MemOp, SchemeKind, SystemConfig};
    use wormdsm::workloads::Pattern;

    fn run(scheme: SchemeKind, k: usize, p: &Pattern) -> DsmSystem {
        let mut sys = DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build());
        let nodes = (k * k) as u64;
        let addr = Addr((nodes + p.home.0 as u64) * 32);
        let b = sys.geometry().block_of(addr);
        sys.seed_shared(b, &p.sharers);
        sys.issue(p.writer, MemOp::Write(addr));
        sys.run_until_idle(1_000_000).expect("completes");
        sys
    }

    pub fn measure(scheme: SchemeKind, k: usize, p: &Pattern) -> f64 {
        run(scheme, k, p).metrics().inval_latency.mean()
    }

    pub fn measure_traffic(scheme: SchemeKind, k: usize, p: &Pattern) -> u64 {
        run(scheme, k, p).net_stats().flit_hops
    }
}

#[test]
fn traffic_ordering_holds_for_column_patterns() {
    // A full column of sharers: multidestination worms traverse the
    // column once; UI-UA repeats the row prefix per sharer.
    let k = 8;
    let mesh = Mesh2D::square(k);
    let mut rng = Rng::new(9);
    let p = gen_pattern(&mesh, PatternKind::SameColumn, 6, &mut rng);
    let ui = wormdsm_bench_shim::measure_traffic(SchemeKind::UiUa, k, &p);
    let mi = wormdsm_bench_shim::measure_traffic(SchemeKind::MiUaCol, k, &p);
    assert!(mi < ui, "multicast traffic {mi} >= unicast {ui}");
}
