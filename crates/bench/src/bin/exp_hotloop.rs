//! Hot-loop throughput harness: cycles simulated per wall-second on the
//! three seeded applications, with dead-cycle fast-forwarding off
//! (control: per-cycle stepping) vs on (event-driven stepping).
//!
//! Verifies the two arms are bit-identical (equal metrics fingerprints
//! over the full registry) and writes the measurements to
//! `BENCH_hotloop.json`.
//!
//! At `--compute-scale 1` the workloads are communication-dominated and
//! nearly every cycle is *busy*, so fast-forwarding has nothing to elide
//! — throughput there measures the raw per-cycle simulation cost. For
//! the reference configuration (4x4, MI-MA(col)) this binary also checks
//! every run against the golden pre-optimization metrics
//! ([`wormdsm_bench::BUSY_GOLDEN`]; H2: the allocation-free flit path
//! must not change results, only speed) and writes a busy-cycle report
//! to `BENCH_busycycle.json`. Speed comparisons belong to `exp_perf`.
//!
//! With `--trace`, additionally measures flight-recorder overhead on the
//! busy arm (tracing off vs `txn` vs `flit` level, asserting all three
//! bit-identical), reconstructs one invalidation transaction's timeline,
//! checks every recorded `txn_close` latency against the metrics summary,
//! prints the metrics registry, and writes it all to `BENCH_trace.json`.
//!
//! Every arm is one `Scenario::run`, which ends with a coherence audit
//! (`verify_coherence` plus the sticky invariant-violation slot), so a
//! bench run cannot report numbers from a corrupted machine.
//!
//! Usage: `exp_hotloop [--k 4] [--scheme "MI-MA(col)"] [--compute-scale 256]
//!                     [--out BENCH_hotloop.json] [--busy-out BENCH_busycycle.json]
//!                     [--trace] [--trace-out BENCH_trace.json]
//!                     [--app bh] [--snapshot-every N] [--snapshot-out FILE]
//!                     [--resume FILE]`
//!
//! `--snapshot-every N` runs one app (`--app`) writing a resumable
//! scenario checkpoint every N cycles and keeps the last at
//! `--snapshot-out`; `--resume FILE` picks such a run back up and proves
//! the rejoined run bit-identical to one that was never interrupted. A
//! checkpoint names its scenario: resuming it under any other `--app`,
//! `--k`, `--scheme` or `--compute-scale` exits with an error that names
//! both.

use std::time::Instant;
use wormdsm_bench::{arg, check_busy_golden, fingerprint, flag, run_scenario, warn_on_trace_drops};
use wormdsm_core::{RunMeta, SchemeKind, TraceLevel};
use wormdsm_sim::trace::TraceKind;
use wormdsm_sim::Cycle;
use wormdsm_workloads::{Observe, Scenario};

/// An observation that traces at `level` into a ring large enough to
/// keep a busy-arm run's full transaction history.
fn traced(level: TraceLevel) -> Observe<'static> {
    Observe { trace_level: level, ring: Some(1 << 20), ..Observe::default() }
}

/// H4: flight-recorder overhead and timeline reconstruction on the busy
/// arm. Tracing must be invisible in the results (every level reproduces
/// the untraced run bit for bit) and the recorded timelines must agree
/// with the metrics the run reports.
fn trace_mode(scheme: SchemeKind, k: usize, out: &str) {
    let t0 = Instant::now();
    println!(
        "\n== H4: flight-recorder overhead, {0}x{0} {1}, compute scale 1 ==",
        k,
        scheme.name()
    );
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "app", "cycles", "off s", "txn s", "flit s", "txn ovh", "flit ovh"
    );
    let mut rows = Vec::new();
    let mut timeline = None;
    for app in ["bh", "lu", "apsp"] {
        let s = Scenario { scheme, app: app.into(), k, ..Scenario::default() };
        let off = run_scenario(&s, Observe::default());
        let txn = run_scenario(&s, traced(TraceLevel::Txn));
        let flit = run_scenario(&s, traced(TraceLevel::Flit));
        for (label, arm) in [("txn", &txn), ("flit", &flit)] {
            assert_eq!(
                fingerprint(&off),
                fingerprint(arm),
                "{app} {label}: tracing changed the run"
            );
        }
        let fsys = &flit.sys;
        // The recorded transaction closes must agree with the metrics the
        // run reported: one close per completed transaction, and the close
        // latencies summing to the latency summary. A ring overflow makes
        // those dumps incomplete: warn loudly and skip the ring-derived
        // cross-checks rather than asserting on truncated data.
        let ring_complete = warn_on_trace_drops(&format!("{app} flit arm"), fsys);
        let closes: Vec<(u64, u64)> = fsys
            .recorder()
            .events()
            .filter_map(|e| match e.kind {
                TraceKind::TxnClose { txn, latency, .. } => Some((txn, latency)),
                _ => None,
            })
            .collect();
        if ring_complete {
            assert_eq!(
                closes.len() as u64,
                fsys.metrics().inval_txns,
                "{app}: one txn_close per completed transaction"
            );
            let lat_sum: u64 = closes.iter().map(|&(_, l)| l).sum();
            assert_eq!(
                lat_sum as f64,
                fsys.metrics().inval_latency.sum(),
                "{app}: timeline latencies disagree with the metrics summary"
            );
        }
        if app == "bh" && ring_complete {
            // Dump one reconstructed timeline and cross-check it against
            // its own close event: open-to-close distance == latency.
            let &(id, latency) = closes.last().expect("bh completes transactions");
            let tl = fsys.recorder().timeline(id);
            let open_at = tl
                .iter()
                .find_map(|e| matches!(e.kind, TraceKind::TxnOpen { .. }).then_some(e.at))
                .expect("timeline contains the open");
            let close_at = tl
                .iter()
                .find_map(|e| matches!(e.kind, TraceKind::TxnClose { .. }).then_some(e.at))
                .expect("timeline contains the close");
            assert_eq!(close_at - open_at, latency, "timeline disagrees with its close event");
            println!("\n-- metrics registry (bh, busy arm) --");
            for line in fsys.export_metrics().lines() {
                println!("{line}");
            }
            println!("\n-- txn {id} timeline: {} events, {latency} cycles --", tl.len());
            timeline =
                Some((id, wormdsm_sim::trace::events_json(tl.iter()), fsys.export_metrics()));
        }
        let t_ovh = txn.wall_s / off.wall_s - 1.0;
        let f_ovh = flit.wall_s / off.wall_s - 1.0;
        println!(
            "{:>6} {:>12} {:>10.3} {:>10.3} {:>10.3} {:>8.1}% {:>8.1}%",
            app,
            off.result.cycles,
            off.wall_s,
            txn.wall_s,
            flit.wall_s,
            100.0 * t_ovh,
            100.0 * f_ovh
        );
        rows.push(format!(
            concat!(
                "    {{\"app\": \"{}\", \"cycles\": {}, ",
                "\"wall_s_off\": {:.6}, \"wall_s_txn\": {:.6}, \"wall_s_flit\": {:.6}, ",
                "\"overhead_txn\": {:.4}, \"overhead_flit\": {:.4}, ",
                "\"events_txn\": {}, \"events_flit\": {}, \"bit_identical\": true}}"
            ),
            app,
            off.result.cycles,
            off.wall_s,
            txn.wall_s,
            flit.wall_s,
            t_ovh,
            f_ovh,
            txn.sys.recorder().recorded(),
            fsys.recorder().recorded(),
        ));
    }
    // On a bh ring overflow the reconstructed timeline is unavailable;
    // the JSON records nulls instead of truncated data.
    let (tl_txn, tl_json, metrics_json) = match timeline {
        Some((id, tl, m)) => (id.to_string(), tl, m.to_json()),
        None => ("null".into(), "null".into(), "null".into()),
    };
    let json = format!(
        concat!(
            "{{\n  \"k\": {}, \n  \"scheme\": \"{}\",\n  \"compute_scale\": 1,\n",
            "  \"run_meta\": {},\n",
            "  \"apps\": [\n{}\n  ],\n",
            "  \"timeline_txn\": {},\n  \"timeline\": {},\n  \"metrics\": {}\n}}\n"
        ),
        k,
        scheme.name(),
        RunMeta::capture(0).with_wall_s(t0.elapsed().as_secs_f64()).to_json(),
        rows.join(",\n"),
        tl_txn,
        tl_json,
        metrics_json
    );
    std::fs::write(out, json).expect("write trace results");
    println!("\nwrote {out}");
}

/// `--snapshot-every N`: run `s` writing a resumable checkpoint every N
/// cycles, keep the last one at `path`, and verify checkpointing was
/// invisible (final state bit-identical to an uninterrupted run).
fn write_snapshots(s: &Scenario, every: Cycle, path: &str) {
    println!("\n== checkpointed run: {}, every {every} cycles ==", s.canonical());
    let reference = run_scenario(s, Observe::default());
    let mut last: Option<(Cycle, Vec<u8>)> = None;
    let snapshotting = Observe {
        observer: Some((
            every,
            Box::new(|sys, st| {
                last = Some((sys.now(), s.checkpoint(sys, st)));
                true
            }),
        )),
        ..Observe::default()
    };
    let r = run_scenario(s, snapshotting);
    assert_eq!(fingerprint(&r), fingerprint(&reference), "checkpointing changed the run");
    let (at, bytes) = last.expect("the observer sees the start of the run");
    std::fs::write(path, &bytes).expect("write checkpoint");
    println!(
        "finished at cycle {} bit-identical to the uninterrupted run; \
         kept the cycle-{at} checkpoint at {path} ({} bytes)",
        r.sys.now(),
        bytes.len()
    );
    println!("resume with the same --app/--k/--scheme/--compute-scale plus --resume {path}");
}

/// `--resume <file>`: continue `s` from a checkpoint written by
/// `--snapshot-every`, and verify the final state is bit-identical to a
/// run that was never interrupted. A checkpoint of any other scenario is
/// an error.
fn resume_from(s: &Scenario, path: &str) -> Result<(), String> {
    println!("\n== resumed run: {}, from {path} ==", s.canonical());
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let resumed = s.finish(Observe { resume: Some(&bytes), ..Observe::default() })?;
    let reference = run_scenario(s, Observe::default());
    assert_eq!(
        resumed.result.issued, reference.result.issued,
        "resumed run issued a different count"
    );
    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&reference),
        "resumed run diverged from the uninterrupted run"
    );
    println!(
        "resumed at cycle {}, finished at {}; bit-identical to the uninterrupted run",
        resumed.sys.now() - resumed.result.cycles,
        resumed.sys.now()
    );
    Ok(())
}

/// Write a throughput report: the scenario's mesh, scheme and compute
/// scale, the run metadata, and one JSON row per app.
fn write_report(path: &str, s: &Scenario, rows: &[String], t0: Instant) {
    let json = format!(
        "{{\n  \"k\": {},\n  \"scheme\": \"{}\",\n  \"compute_scale\": {},\n  \"run_meta\": {},\n  \"apps\": [\n{}\n  ]\n}}\n",
        s.k,
        s.scheme.name(),
        s.compute_scale,
        RunMeta::capture(0).with_wall_s(t0.elapsed().as_secs_f64()).to_json(),
        rows.join(",\n")
    );
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    let main_t0 = Instant::now();
    let k: usize = arg("--k", 4);
    let scale: u64 = arg("--compute-scale", 256);
    let scheme_name: String = arg("--scheme", "MI-MA(col)".to_string());
    let out: String = arg("--out", "BENCH_hotloop.json".to_string());
    let busy_out: String = arg("--busy-out", "BENCH_busycycle.json".to_string());
    let trace = flag("--trace");
    let trace_out: String = arg("--trace-out", "BENCH_trace.json".to_string());
    let app_arg: String = arg("--app", "bh".to_string());
    let snapshot_every: u64 = arg("--snapshot-every", 0);
    let snapshot_out: String = arg("--snapshot-out", "wormdsm.ckpt".to_string());
    let resume: String = arg("--resume", String::new());
    let scheme = SchemeKind::ALL
        .into_iter()
        .find(|s| s.name() == scheme_name)
        .unwrap_or_else(|| panic!("unknown scheme {scheme_name}"));
    let one_app = Scenario { scheme, app: app_arg, k, compute_scale: scale, ..Scenario::default() };
    if !resume.is_empty() {
        if let Err(e) = resume_from(&one_app, &resume) {
            eprintln!("exp_hotloop: cannot resume {resume}: {e}");
            std::process::exit(1);
        }
        return;
    }
    if snapshot_every > 0 {
        write_snapshots(&one_app, snapshot_every, &snapshot_out);
        return;
    }

    println!("\n== hot-loop throughput on {0}x{0}, {1} ==", k, scheme.name());
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "app", "cycles", "control s", "fast s", "control c/s", "fast c/s", "speedup"
    );

    let mut rows = Vec::new();
    let mut busy_rows = Vec::new();
    for app in ["bh", "lu", "apsp"] {
        let s = Scenario { app: app.into(), ..one_app.clone() };
        let control = run_scenario(&s, Observe { fast_forward: false, ..Observe::default() });
        let fast = run_scenario(&s, Observe::default());
        assert_eq!(
            fingerprint(&control),
            fingerprint(&fast),
            "{app}: fast-forward changed the run"
        );
        let cycles = fast.result.cycles;
        let net = fast.sys.net_stats();
        if check_busy_golden(&s, &fast) {
            busy_rows.push(format!(
                concat!(
                    "    {{\"app\": \"{}\", \"cycles\": {}, \"flit_hops\": {}, ",
                    "\"cycles_per_s\": {:.0}, \"worm_slots_reused\": {}, ",
                    "\"bit_identical_to_golden\": true}}"
                ),
                app,
                cycles,
                net.flit_hops,
                cycles as f64 / fast.wall_s,
                net.worm_slots_reused,
            ));
        }
        let control_cps = cycles as f64 / control.wall_s;
        let fast_cps = cycles as f64 / fast.wall_s;
        let speedup = control.wall_s / fast.wall_s;
        let dead = 100.0 * fast.sys.skipped_cycles() as f64 / cycles as f64;
        println!(
            "{:>6} {:>12} {:>14.3} {:>14.3} {:>14.0} {:>14.0} {:>7.2}x  ({dead:.1}% dead)",
            app, cycles, control.wall_s, fast.wall_s, control_cps, fast_cps, speedup
        );
        println!("       worm slots reused {:>9}", net.worm_slots_reused);
        rows.push(format!(
            concat!(
                "    {{\"app\": \"{}\", \"cycles\": {}, \"flit_hops\": {}, ",
                "\"dead_cycles\": {}, \"dead_fraction\": {:.4}, ",
                "\"control_wall_s\": {:.6}, \"fast_wall_s\": {:.6}, ",
                "\"control_cycles_per_s\": {:.0}, \"fast_cycles_per_s\": {:.0}, ",
                "\"speedup\": {:.3}, \"bit_identical\": true, \"metrics\": {}}}"
            ),
            app,
            cycles,
            net.flit_hops,
            fast.sys.skipped_cycles(),
            dead / 100.0,
            control.wall_s,
            fast.wall_s,
            control_cps,
            fast_cps,
            speedup,
            fast.sys.export_metrics().to_json()
        ));
    }

    println!();
    write_report(&out, &one_app, &rows, main_t0);
    if !busy_rows.is_empty() {
        write_report(&busy_out, &one_app, &busy_rows, main_t0);
    }

    if trace {
        trace_mode(scheme, k, &trace_out);
    }
}
