//! H5: latency-attribution profiling of the three seeded applications
//! under every invalidation scheme, with per-link contention heatmaps and
//! a Perfetto-loadable Chrome trace export.
//!
//! For each scheme × app the harness runs two arms — profiling off vs
//! profiling on (streaming `TxnProfiler` + mesh `ContentionProbe` at
//! `TraceLevel::Flit`) — and asserts their metrics fingerprints equal:
//! the profiler is a pure observer and must not perturb a single cycle. The profiled arm
//! is then checked for internal consistency:
//!
//! * every closed transaction's six phase widths sum *bit-exactly* to its
//!   reported open→close latency (`TxnProfiler::verify_exact`);
//! * the profiler's transaction count and total latency equal what
//!   `Metrics` reports independently;
//! * the contention probe's per-link busy totals equal the network's own
//!   `link_busy` accounting.
//!
//! The flight-recorder ring is deliberately left small (`--ring`,
//! default 4096) so flit-level runs overflow it: the profiler hooks the
//! push path *ahead of* the ring write, so attribution stays complete
//! and exact regardless — which the asserts above prove on every arm.
//!
//! For the reference configuration (4x4, compute scale 1, MI-MA(col))
//! the profiled arm is additionally held to the golden busy-cycle
//! numbers recorded on the pre-optimization tree
//! ([`wormdsm_bench::BUSY_GOLDEN`], the reference `exp_hotloop` uses).
//!
//! Output: per-scheme phase tables and apsp link heatmaps on stdout,
//! machine-readable rows in `BENCH_profile.json`, and a Chrome
//! trace-event file (`--trace-out`) for the representative apsp ×
//! MI-MA(col) run — load it at <https://ui.perfetto.dev> or
//! `chrome://tracing` to see every transaction as an async span with its
//! phase slices and per-router occupancy counter tracks.
//!
//! Usage: `exp_profile [--k 4] [--compute-scale 1] [--ring 4096]
//!                     [--probe-window 1024] [--out BENCH_profile.json]
//!                     [--trace-out BENCH_profile.trace.json]`

use wormdsm_bench::{arg, check_busy_golden, fingerprint, phases_json, run_scenario};
use wormdsm_core::{ContentionProbe, RunMeta, SchemeKind};
use wormdsm_mesh::render::link_heatmap;
use wormdsm_mesh::topology::Mesh2D;
use wormdsm_sim::profile::chrome_trace::{self, CounterPoint, CounterTrack};
use wormdsm_sim::profile::{validate_json, Phase};
use wormdsm_sim::Cycle;
use wormdsm_workloads::{Observe, Scenario};

const APPS: [&str; 3] = ["bh", "lu", "apsp"];

fn main() {
    let main_t0 = std::time::Instant::now();
    let k: usize = arg("--k", 4);
    let scale: u64 = arg("--compute-scale", 1);
    let ring: usize = arg("--ring", 4096);
    let probe_window: Cycle = arg("--probe-window", 1024);
    let out: String = arg("--out", "BENCH_profile.json".to_string());
    let trace_out: String = arg("--trace-out", "BENCH_profile.trace.json".to_string());
    let mesh = Mesh2D::square(k);
    let base = Scenario { k, compute_scale: scale, ..Scenario::default() };

    let mut rows = Vec::new();
    let mut trace_file: Option<String> = None;
    for scheme in SchemeKind::ALL {
        println!(
            "\n== H5: latency attribution, {0}x{0} {1}, compute scale {scale} ==",
            k,
            scheme.name()
        );
        println!(
            "{:>6} {:>6} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {:>9}",
            "app", "txns", "mean lat", "inject", "head", "body", "dest", "ack", "close", "dropped"
        );
        let mut apsp_probe: Option<(ContentionProbe, u64)> = None;
        for app in APPS {
            let off_arm = Scenario { scheme, app: app.into(), ..base.clone() };
            let on_arm = Scenario { profile: true, ..off_arm.clone() };
            let off = run_scenario(&off_arm, Observe::default());
            let mut on = run_scenario(
                &on_arm,
                Observe { ring: Some(ring), probe_window, ..Observe::default() },
            );
            let p = on.sys.take_profiler().expect("profiled scenario attaches a profiler");
            let probe = on.sys.take_contention_probe().expect("probe enabled");
            let (sys, cycles) = (&on.sys, on.result.cycles);

            // Profiling must be invisible: bit-identical simulated results.
            let ctx = format!("{app} {}", scheme.name());
            assert_eq!(fingerprint(&off), fingerprint(&on), "{ctx}: profiling changed the run");
            check_busy_golden(&on_arm, &on);

            // The profiler must agree with Metrics' independent accounting
            // and satisfy the exact-sum invariant on every transaction —
            // regardless of how many events the trace ring dropped.
            let (recorded, dropped) = (sys.recorder().recorded(), sys.recorder().dropped());
            assert_eq!(p.closed(), sys.metrics().inval_txns, "{ctx}: profiler missed closes");
            assert_eq!(p.open_txns(), 0, "{ctx}: transactions left open at idle");
            assert_eq!(
                p.latency_total() as f64,
                sys.metrics().inval_latency.sum(),
                "{ctx}: profiler latency total disagrees with metrics"
            );
            p.verify_exact().unwrap_or_else(|e| panic!("{ctx}: exact-sum violated: {e}"));

            // The probe's per-link busy totals mirror the network's own
            // link accounting, forwarded flit for forwarded flit.
            assert_eq!(
                probe.busy_total().iter().sum::<u64>(),
                sys.net_stats().link_busy.iter().sum::<u64>(),
                "{ctx}: probe busy totals disagree with NetStats::link_busy"
            );

            let stall_total: u64 = probe.stall_total().iter().sum();
            let busy_total: u64 = probe.busy_total().iter().sum();
            println!(
                "{:>6} {:>6} {:>9.1}  {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}  {:>9}",
                app,
                p.closed(),
                if p.closed() == 0 { 0.0 } else { p.latency_total() as f64 / p.closed() as f64 },
                p.mean_phase(Phase::InjectQueue),
                p.mean_phase(Phase::HeadTraversal),
                p.mean_phase(Phase::BodySerialization),
                p.mean_phase(Phase::DestStall),
                p.mean_phase(Phase::AckReturn),
                p.mean_phase(Phase::HomeClose),
                dropped
            );
            let totals = p.phase_totals();
            rows.push(format!(
                concat!(
                    "    {{\"scheme\": \"{}\", \"app\": \"{}\", \"cycles\": {}, \"txns\": {}, ",
                    "\"latency_total\": {}, \"phase_totals\": {}, \"phase_means\": {}, ",
                    "\"hops\": {}, \"unattributed_hops\": {}, \"stall_cycles\": {}, ",
                    "\"trace_recorded\": {}, \"trace_dropped\": {}, ",
                    "\"probe_windows\": {}, \"link_busy_cycles\": {}, ",
                    "\"credit_stall_cycles\": {}, \"bit_identical\": true, ",
                    "\"exact_phase_sum\": true}}"
                ),
                scheme.name(),
                app,
                cycles,
                p.closed(),
                p.latency_total(),
                phases_json(|ph| totals[ph.index()].to_string()),
                phases_json(|ph| format!("{:.3}", p.mean_phase(ph))),
                p.hops_total(),
                p.unattributed_hops(),
                p.stall_cycles(),
                recorded,
                dropped,
                probe.windows().len(),
                busy_total,
                stall_total,
            ));

            if app == "apsp" {
                // The representative config for the heatmap and (under
                // MI-MA(col)) the exported Chrome trace.
                if scheme == SchemeKind::MiMaCol {
                    let tracks: Vec<CounterTrack> = (0..mesh.nodes())
                        .map(|n| CounterTrack {
                            name: format!("router {n} occupancy"),
                            points: probe
                                .windows()
                                .iter()
                                .map(|w| CounterPoint {
                                    at: w.start,
                                    busy: probe.node_window_flits(w, n),
                                    stall: probe.node_window_stalls(w, n),
                                })
                                .collect(),
                        })
                        .collect();
                    let j = chrome_trace::trace_json(p.records(), &tracks);
                    validate_json(&j).expect("chrome trace is well-formed JSON");
                    trace_file = Some(j);
                }
                apsp_probe = Some((probe, cycles));
            }
        }
        let (probe, elapsed) = apsp_probe.expect("apsp ran");
        println!("\n-- apsp link-utilization heatmap, {} --", scheme.name());
        print!("{}", link_heatmap(&mesh, probe.busy_total(), elapsed));
    }

    let json = format!(
        concat!(
            "{{\n  \"k\": {k},\n  \"compute_scale\": {scale},\n  \"ring_capacity\": {ring},\n",
            "  \"probe_window\": {pw},\n  \"run_meta\": {run_meta},\n",
            "  \"phases\": [{phases}],\n  \"rows\": [\n{rows}\n  ]\n}}\n"
        ),
        k = k,
        scale = scale,
        run_meta = RunMeta::capture(0).with_wall_s(main_t0.elapsed().as_secs_f64()).to_json(),
        ring = ring,
        pw = probe_window,
        phases =
            Phase::ALL.iter().map(|p| format!("\"{}\"", p.name())).collect::<Vec<_>>().join(", "),
        rows = rows.join(",\n")
    );
    validate_json(&json).expect("BENCH_profile.json is well-formed");
    std::fs::write(&out, json).expect("write profile results");
    println!("\nwrote {out}");

    let trace = trace_file.expect("apsp MI-MA(col) ran");
    std::fs::write(&trace_out, &trace).expect("write chrome trace");
    println!("wrote {trace_out} ({} bytes) — load at ui.perfetto.dev", trace.len());
}
