//! The experiment farm service: job queue + HTTP/SSE telemetry + live
//! dashboard over the simulator (see `wormdsm_farm`).
//!
//! Usage:
//!   farm [--port 8080] [--workers N] [--progress-every CYCLES]
//!        [--probe-window CYCLES] [--event-ring FRAMES]
//!        [--txn-throttle N] [--state-dir PATH]
//!   farm --smoke
//!
//! With `--state-dir`, interrupted jobs (SIGINT/SIGTERM or
//! `POST /shutdown`) checkpoint to disk and resume — bit-identically —
//! when a later farm process receives the same submission.
//!
//! `--smoke` runs a self-contained end-to-end check on an ephemeral
//! port (submit two jobs plus a duplicate, scrape every endpoint,
//! stream SSE, shut down cleanly) and prints PASS — the CI arm.
//!
//! An unknown flag, a missing or unparsable value, or a configuration
//! `FarmConfig::validate` refuses exits 2 with a message naming it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use wormdsm_farm::{http, signal, Farm, FarmConfig};

const USAGE: &str = "usage: farm [--port 8080] [--workers N] [--progress-every CYCLES] \
                     [--probe-window CYCLES] [--event-ring FRAMES] [--txn-throttle N] \
                     [--state-dir PATH] | farm --smoke";

/// The command line as `(config, port, smoke)`; `Err` names the flag at
/// fault.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(FarmConfig, u16, bool), String> {
    fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let (mut cfg, mut port, mut smoke) = (FarmConfig::default(), 8080, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--port" => port = num(&flag, value()?)?,
            "--workers" => cfg.workers = num(&flag, value()?)?,
            "--progress-every" => cfg.progress_every = num(&flag, value()?)?,
            "--probe-window" => cfg.probe_window = num(&flag, value()?)?,
            "--event-ring" => cfg.event_ring = num(&flag, value()?)?,
            "--txn-throttle" => cfg.txn_throttle = num(&flag, value()?)?,
            "--state-dir" => cfg.state_dir = Some(value()?.into()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    cfg.validate()?;
    Ok((cfg, port, smoke))
}

fn main() -> ExitCode {
    let (cfg, port, smoke) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("farm: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if smoke {
        self::smoke(cfg);
        return ExitCode::SUCCESS;
    }
    signal::install();
    let listener =
        TcpListener::bind(("0.0.0.0", port)).unwrap_or_else(|e| panic!("bind port {port}: {e}"));
    let farm = Arc::new(Farm::new(cfg));
    eprintln!(
        "farm: dashboard at http://127.0.0.1:{port}/  (metrics /metrics, jobs /jobs, SSE /events)"
    );
    eprintln!(
        "farm: submit with  curl 'http://127.0.0.1:{port}/submit?app=synth&scheme=MI-MA(col)&pattern=col&d=2&episodes=100&seed=1'"
    );
    let exec = {
        let farm = farm.clone();
        std::thread::spawn(move || farm.run_executor(false))
    };
    http::serve(&farm, listener).expect("farm http server");
    exec.join().expect("executor thread");
    let (queued, running, paused, done, failed) = {
        let j = farm.jobs_json();
        let count = |w: &str| j.matches(&format!("\"status\":\"{w}\"")).count();
        (count("queued"), count("running"), count("paused"), count("done"), count("failed"))
    };
    eprintln!(
        "farm: shut down cleanly ({queued} queued, {running} running, {paused} paused, \
         {done} done, {failed} failed)"
    );
    ExitCode::SUCCESS
}

/// One scripted HTTP request against the smoke server; returns the body.
fn get(port: u16, target: &str) -> String {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    write!(s, "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("response");
    buf.split_once("\r\n\r\n").expect("header/body split").1.to_string()
}

fn check(name: &str, ok: bool, detail: &str) {
    assert!(ok, "smoke check failed: {name}: {detail}");
    eprintln!("  ok: {name}");
}

/// Self-contained end-to-end smoke: ephemeral port, two jobs plus a
/// duplicate, every endpoint scraped, first SSE frames read, clean
/// shutdown. Exits non-zero (assert) on any failure.
fn smoke(cfg: FarmConfig) {
    let farm = Arc::new(Farm::new(FarmConfig { workers: 1, progress_every: 256, ..cfg }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let port = listener.local_addr().expect("local addr").port();
    eprintln!("farm --smoke on 127.0.0.1:{port}");
    let server = {
        let farm = farm.clone();
        std::thread::spawn(move || http::serve(&farm, listener).expect("serve"))
    };
    let exec = {
        let farm = farm.clone();
        std::thread::spawn(move || farm.run_executor(false))
    };

    // SSE first, so job-lifecycle frames land in this subscriber's ring.
    let mut sse = TcpStream::connect(("127.0.0.1", port)).expect("sse connect");
    write!(sse, "GET /events HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("sse request");

    let a = get(port, "/submit?app=synth&seed=1&episodes=50");
    let b = get(port, "/submit?app=synth&seed=2&episodes=50");
    let dup = get(port, "/submit?app=synth&seed=1&episodes=50");
    check("submit first", a == "{\"id\":0,\"fresh\":true}", &a);
    check("submit second", b == "{\"id\":1,\"fresh\":true}", &b);
    check("duplicate deduped", dup == "{\"id\":0,\"fresh\":false}", &dup);

    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let jobs = get(port, "/jobs");
        if jobs.matches("\"status\":\"done\"").count() == 2 {
            check("jobs report dedup", jobs.contains("\"dedup_hits\":1"), &jobs);
            check("jobs report fingerprints", jobs.contains("\"fingerprint\""), &jobs);
            break;
        }
        assert!(std::time::Instant::now() < deadline, "jobs never finished: {jobs}");
        std::thread::sleep(Duration::from_millis(100));
    }

    let metrics = get(port, "/metrics");
    check(
        "prometheus exposition",
        metrics.contains("# TYPE farm_jobs_done counter") && metrics.contains("farm_jobs_done 2"),
        &metrics[..metrics.len().min(400)],
    );
    check("dedup counter exported", metrics.contains("farm_dedup_hits 1"), &metrics);
    check("per-job labels", metrics.contains("scheme=\"UI-UA\""), &metrics);

    let mut first = [0u8; 2048];
    sse.set_read_timeout(Some(Duration::from_secs(10))).expect("sse timeout");
    let n = sse.read(&mut first).expect("sse first frame");
    let frame = String::from_utf8_lossy(&first[..n]).to_string();
    check("sse stream live", frame.contains("event: hello"), &frame);

    check("dashboard served", get(port, "/").contains("wormdsm experiment farm"), "");
    check("heatmap populated", get(port, "/heatmap").contains("\"busy\":["), "");

    let bye = get(port, "/shutdown");
    check("shutdown acknowledged", bye == "{\"shutdown\":true}", &bye);
    server.join().expect("server thread");
    exec.join().expect("executor thread");
    println!("farm smoke: PASS (2 jobs done, 1 dedup hit, clean shutdown)");
}
