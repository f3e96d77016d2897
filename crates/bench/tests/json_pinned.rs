//! The bytes of every JSON output, pinned.
//!
//! Each output below is hashed with FNV-64 and compared with a constant
//! recorded before all JSON went through `wormdsm_sim::json`. A change
//! to the writer that moves one byte of a report, dump, trace, job row,
//! SSE payload or HTTP body fails here. `metrics_fingerprint` (and so
//! every `exp_perf` fingerprint) hashes `Metric::to_json`, which is one
//! more reason the bytes must not move.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use wormdsm_bench::repro::claims::{self, Expect, Verdict, CLAIMS};
use wormdsm_bench::repro::{self, Arm};
use wormdsm_core::SchemeKind;
use wormdsm_farm::{http, Farm, FarmConfig, JobOutcome, JobTable};
use wormdsm_sim::profile::chrome_trace::{self, CounterPoint, CounterTrack};
use wormdsm_sim::snap::fnv64;
use wormdsm_sim::trace::{FlightRecorder, InvariantViolation, TraceKind, TraceLevel};
use wormdsm_sim::ToJson;
use wormdsm_sim::{Histogram, Registry, Summary};
use wormdsm_workloads::{Observe, Scenario};

/// The golden busy bh row (4x4, MI-MA(col), compute scale 1), profiled
/// with a contention probe: its metric export, the `Flit`-level ring
/// dump and the Chrome trace with one counter track per router.
fn golden_run_outputs(got: &mut Vec<(&'static str, u64)>) {
    let s = Scenario { scheme: SchemeKind::MiMaCol, profile: true, ..Scenario::default() };
    let mut r = s.finish(Observe { probe_window: 1024, ..Observe::default() }).expect("bh runs");
    assert_eq!(r.result.cycles, 93882, "the golden busy bh row");
    got.push(("bh metrics", fnv64(r.sys.export_metrics().to_json().as_bytes())));
    got.push(("bh flit ring", fnv64(r.sys.recorder().to_json().as_bytes())));
    let p = r.sys.take_profiler().expect("profiled");
    let probe = r.sys.take_contention_probe().expect("probe on");
    let tracks: Vec<CounterTrack> = (0..16)
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
    assert!(p.records().len() > 10 && !probe.windows().is_empty());
    got.push(("bh chrome trace", fnv64(chrome_trace::trace_json(p.records(), &tracks).as_bytes())));
}

/// One event of every kind, and a violation that holds them in both its
/// recent list and its transaction timeline.
fn violation_dump() -> String {
    let mut r = FlightRecorder::new(64);
    r.set_level(TraceLevel::Flit);
    r.push(1, TraceKind::TxnOpen { txn: 7, block: 3, home: 0, writer: 1, needed: 2 });
    r.push(2, TraceKind::WormInject { worm: 100, txn: 7, src: 0, kind: "inv", dests: 2 });
    r.push(3, TraceKind::WormRoute { worm: 100, node: 1, port: 2 });
    r.push(5, TraceKind::WormDeliver { worm: 100, txn: 7, node: 3, is_final: true, latency: 3 });
    r.push(6, TraceKind::TxnAck { txn: 7, count: 1, got: 3, needed: 2 });
    r.push(7, TraceKind::StallEnter { node: 4, what: "read" });
    r.push(9, TraceKind::StallExit { node: 4, what: "read", stalled: 2 });
    r.push(9, TraceKind::FastForward { from: 9, to: 40 });
    r.push(40, TraceKind::TxnClose { txn: 7, latency: 39, set_size: 2 });
    r.push(40, TraceKind::InvariantFired { txn: 7 });
    let what = "acks \"over\"-collected at C:\\home\n\u{1}".to_string();
    let v = InvariantViolation::capture(what, 40, Some(7), &r, 6);
    assert!(!v.recent.is_empty() && !v.timeline.is_empty());
    v.to_json()
}

/// A table with a queued job, a done job (registry and phases) and a
/// failed job whose error needs every kind of escape.
fn job_table() -> String {
    let spec = |seed| Scenario { app: "synth".into(), seed, ..Scenario::default() };
    let mut t = JobTable::new();
    let (done, _) = t.submit(spec(1), None);
    let (failed, _) = t.submit(spec(2), None);
    t.submit(spec(1), None); // a dedup hit
    t.claim(2);
    t.progress(failed, 77, 5, 90);
    let mut reg = Registry::new();
    reg.counter("cycles", 12345);
    reg.gauge("util", 0.1);
    reg.gauge("big", 1e300);
    reg.gauge("tiny", -2.5e-7);
    reg.gauge("nan", f64::NAN);
    reg.gauge("inf", f64::INFINITY);
    let mut s = Summary::new();
    for x in [2.0, 3.5, 11.0] {
        s.record(x);
    }
    reg.summary("lat", &s);
    reg.summary("empty", &Summary::new());
    let mut h = Histogram::new(10, 4);
    for x in [1, 5, 25, 26, 999] {
        h.record(x);
    }
    reg.histogram("dist", &h);
    t.complete(
        done,
        JobOutcome {
            fingerprint: 0xfeed_beef,
            cycles: 4000,
            issued: 321,
            wall_s: 0.125,
            registry: reg,
            phases_json: Some("{\"inject_queue\":1.5,\"ack_return\":20}".into()),
        },
    );
    t.fail(failed, "bad \"spec\" at C:\\dir\nnext\u{1}line".into());
    t.submit(spec(3), None); // stays queued
    t.to_json()
}

fn scenarios() -> String {
    let odd = Scenario {
        app: "we\"ird\\app\n".into(),
        pattern: "col\u{1f}".into(),
        profile: true,
        ..Scenario::default()
    };
    format!("{}\n{}", Scenario::default().to_json(), odd.to_json())
}

/// E10's quick table with doctored cells (a non-finite value, a text
/// value, a key that needs escaping), and verdicts of both expectations
/// and both outcomes.
fn repro_outputs(got: &mut Vec<(&'static str, u64)>) {
    let mut tables = repro::run(Arm::Quick, &["E10"]).expect("known id");
    let verdicts = claims::check(Arm::Quick, &tables);
    let t = &mut tables[0];
    let n = t.cols.len();
    t.rows[0][n - 1] = "NaN".into();
    t.rows[0][n - 2] = "inf".into();
    t.rows[1][n - 1] = "n/a".into();
    t.rows[1][0] = "key \"q\"".into();
    got.push(("repro table", fnv64(t.to_json().as_bytes())));
    let mut v: Vec<String> = verdicts.iter().map(Verdict::to_json).collect();
    let diverging = Verdict {
        claim: &CLAIMS[0],
        expect: Expect::Diverges("measured \"7\" \\ not 8"),
        outcome: Err("row \"8x8\":\n3 < 4".into()),
    };
    v.push(diverging.to_json());
    got.push(("repro verdicts", fnv64(v.join("\n").as_bytes())));
}

/// One raw request against the farm's HTTP server; returns the status
/// line and the body.
fn request(port: u16, raw: &str) -> String {
    let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    format!("{}\n{body}", head.lines().next().unwrap_or(""))
}

fn get(port: u16, target: &str) -> String {
    request(port, &format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n"))
}

/// A one-worker farm runs a profiled job with the contention probe on
/// and a job that misses its deadline. Every SSE payload it publishes,
/// the profiled job's phase means, the heatmap and every JSON body of
/// the HTTP handler are pinned.
fn farm_outputs(got: &mut Vec<(&'static str, u64)>) {
    let farm = Arc::new(Farm::new(FarmConfig {
        workers: 1,
        progress_every: 512,
        probe_window: 256,
        event_ring: 16,
        txn_throttle: 2,
        state_dir: None,
    }));
    let sub = farm.bus().subscribe(1 << 16);
    let profiled = Scenario { app: "synth".into(), profile: true, ..Scenario::default() };
    let (ok, _) = farm.submit(profiled).unwrap();
    let late = Scenario { app: "synth".into(), seed: 9, max_cycles: 2000, ..Scenario::default() };
    farm.submit(late).unwrap();
    farm.run_executor(true);
    let (frames, dropped) = sub.drain(Duration::from_millis(10));
    assert_eq!(dropped, 0);
    for kind in ["job", "txn", "window", "progress", "dropped"] {
        assert!(frames.iter().any(|f| f.starts_with(&format!("event: {kind}\n"))), "{kind}");
    }
    assert!(frames.iter().any(|f| f.contains("\"state\":\"failed\"")), "{frames:?}");
    got.push(("farm sse", fnv64(frames.concat().as_bytes())));
    let job = farm.job(ok).unwrap();
    let wormdsm_farm::JobStatus::Done(o) = &job.status else { panic!("{:?}", job.status) };
    got.push(("farm phases", fnv64(o.phases_json.as_deref().unwrap().as_bytes())));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let server = {
        let farm = farm.clone();
        std::thread::spawn(move || http::serve(&farm, listener).unwrap())
    };
    let mut bodies = vec![
        get(port, "/heatmap"),
        get(port, "/submit?app=synth&profile=true"),
        request(port, "POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\napp=synth"),
        get(port, "/submit?app=quake"),
        get(port, "/submit?app=%22%5C%01"),
        get(port, "/nowhere"),
        request(port, "\r\n\r\n"),
        request(port, "POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
    ];
    let mut sse = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(sse, "GET /events HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    sse.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = String::new();
    let mut buf = [0u8; 256];
    while !hello.contains("\n\n") || !hello.contains("data:") {
        let n = sse.read(&mut buf).expect("the hello frame arrives");
        assert!(n > 0, "SSE stream closed early: {hello}");
        hello.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    bodies.push(hello.split_once("\r\n\r\n").expect("SSE head").1.to_string());
    bodies.push(request(port, "POST /shutdown HTTP/1.1\r\n\r\n"));
    server.join().unwrap();
    got.push(("farm http", fnv64(bodies.join("\n").as_bytes())));
}

#[test]
fn json_outputs_are_pinned() {
    let mut got = Vec::new();
    golden_run_outputs(&mut got);
    got.push(("violation", fnv64(violation_dump().as_bytes())));
    got.push(("job table", fnv64(job_table().as_bytes())));
    got.push(("scenarios", fnv64(scenarios().as_bytes())));
    repro_outputs(&mut got);
    farm_outputs(&mut got);
    let want = [
        ("bh metrics", 0xa857_1416_0183_19e3),
        ("bh flit ring", 0xcef8_0929_5b83_6e54),
        ("bh chrome trace", 0xc334_dc1a_eeb7_4257),
        ("violation", 0x4a3d_4e86_5fa0_813c),
        ("job table", 0x4d11_593a_1dbd_01c0),
        ("scenarios", 0x475d_9e5b_a821_9fec),
        ("repro table", 0x5d62_4d55_9d7f_17a9),
        ("repro verdicts", 0x870f_1a4e_2a26_9064),
        ("farm sse", 0xbf61_c40e_3962_18c2),
        ("farm phases", 0xc7dd_044f_4397_f386),
        ("farm http", 0x5b27_f858_935f_d5c6),
    ];
    let got_hex: Vec<String> = got.iter().map(|(n, h)| format!("(\"{n}\", {h:#018x}),")).collect();
    assert_eq!(got, want, "a JSON output moved:\n{}", got_hex.join("\n"));
}
