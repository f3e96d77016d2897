//! Latency attribution you can look at: APSP on a 4x4 mesh under
//! MI-MA(col), profiled, with a contention probe sampling every link.
//!
//! Prints the run's per-link utilization heatmap and writes a Chrome
//! trace-event file: every invalidation transaction as an async span with
//! its six phase slices, plus one occupancy counter track per router.
//! Load the file at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! Run with: `cargo run --release --example profile_trace -- trace.json`

use wormdsm::core::SchemeKind;
use wormdsm::mesh::render::link_heatmap;
use wormdsm::mesh::topology::Mesh2D;
use wormdsm::sim::json::validate_json;
use wormdsm::sim::profile::chrome_trace::{self, CounterPoint, CounterTrack};
use wormdsm::workloads::{Observe, Scenario};

fn main() {
    let Some(out) = std::env::args().nth(1) else {
        eprintln!("usage: profile_trace <trace.json>");
        std::process::exit(2);
    };
    let s = Scenario {
        scheme: SchemeKind::MiMaCol,
        app: "apsp".into(),
        k: 4,
        profile: true,
        ..Scenario::default()
    };
    let mut r = s.finish(Observe { probe_window: 1024, ..Observe::default() }).expect("apsp runs");
    let p = r.sys.take_profiler().expect("a profiled scenario attaches a profiler");
    let probe = r.sys.take_contention_probe().expect("the probe is on");
    p.verify_exact().expect("every transaction's phases sum to its latency");

    let mesh = Mesh2D::square(s.k);
    println!("{}: {} transactions in {} cycles", s.canonical(), p.closed(), r.result.cycles);
    println!("\nlink utilization (busier direction of each link):");
    print!("{}", link_heatmap(&mesh, &r.sys.net_stats().link_busy, r.result.cycles));

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
    let json = chrome_trace::trace_json(p.records(), &tracks);
    validate_json(&json).expect("the Chrome trace is well-formed JSON");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out} ({} bytes); load it at https://ui.perfetto.dev", json.len());
}
