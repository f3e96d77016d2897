//! End-to-end farm tests: the determinism invariant (farm-executed jobs
//! fingerprint bit-identically to standalone runs), graceful shutdown
//! with state-dir resume, and the HTTP surface over a real socket.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use wormdsm_core::SchemeKind;
use wormdsm_farm::{http, metrics_fingerprint, Farm, FarmConfig, JobStatus};
use wormdsm_workloads::{Observe, RunEnd, Scenario};

fn synth_spec(seed: u64) -> Scenario {
    Scenario { app: "synth".into(), seed, ..Scenario::default() }
}

fn outcome_fingerprint(farm: &Farm, id: u64) -> u64 {
    match farm.job(id).expect("job exists").status {
        JobStatus::Done(o) => o.fingerprint,
        other => panic!("job {id} not done: {other:?}"),
    }
}

/// Run `spec` outside the farm — no taps, no probes, no observation
/// windows — and fingerprint the result.
fn standalone_fingerprint(spec: &Scenario) -> u64 {
    metrics_fingerprint(&spec.finish(Observe::default()).unwrap().sys.export_metrics())
}

/// The headline invariant: a farm-executed job — telemetry taps, tiny
/// event ring, aggressive throttle, contention probe, tight observation
/// windows, a slow SSE subscriber dropping frames the whole time —
/// produces a metrics fingerprint bit-identical to a bare standalone
/// run. Covers a unicast baseline, a multidestination scheme, and an
/// application workload.
#[test]
fn farm_job_fingerprints_bit_identical_to_standalone() {
    let specs = [
        synth_spec(7),
        Scenario { scheme: SchemeKind::MiMaCol, pattern: "col".into(), d: 2, ..synth_spec(7) },
        Scenario { scheme: SchemeKind::MiMaTree, d: 8, episodes: 8, ..synth_spec(7) },
    ];
    let farm = Farm::new(FarmConfig {
        workers: 2,
        progress_every: 64,
        probe_window: 32,
        event_ring: 4,
        txn_throttle: 1,
        state_dir: None,
    });
    let slow = farm.bus().subscribe(2);
    let ids: Vec<u64> = specs.iter().map(|s| farm.submit(s.clone()).unwrap().0).collect();
    farm.run_executor(true);
    for (spec, &id) in specs.iter().zip(&ids) {
        assert_eq!(
            outcome_fingerprint(&farm, id),
            standalone_fingerprint(spec),
            "farm execution perturbed {}",
            spec.canonical()
        );
    }
    let (_, dropped) = slow.drain(Duration::from_millis(1));
    assert!(dropped > 0, "the slow subscriber really was overrun");
}

/// Graceful shutdown parks running jobs with checkpoints in the state
/// dir; a brand-new farm (fresh process, simulated) resumes them from
/// disk and finishes with the exact standalone fingerprint.
#[test]
fn shutdown_pauses_then_state_dir_resume_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("wormdsm-farm-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A long synthetic job (hundreds of episodes) with tight observation
    // windows, so shutdown lands well before completion.
    let spec = Scenario { episodes: 400, ..synth_spec(3) };
    let cfg = FarmConfig {
        workers: 1,
        progress_every: 64,
        state_dir: Some(dir.clone()),
        ..FarmConfig::default()
    };
    let farm = Arc::new(Farm::new(cfg.clone()));
    let (id, fresh) = farm.submit(spec.clone()).unwrap();
    assert!(fresh);
    let sub = farm.bus().subscribe(64);
    let exec = {
        let farm = farm.clone();
        std::thread::spawn(move || farm.run_executor(true))
    };
    // Wait for the first progress frame — proof the job is mid-run —
    // then pull the plug.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    'wait: loop {
        assert!(std::time::Instant::now() < deadline, "no progress frame arrived");
        let (frames, _) = sub.drain(Duration::from_millis(100));
        for f in frames {
            if f.starts_with("event: progress\n") {
                break 'wait;
            }
        }
    }
    farm.request_shutdown();
    exec.join().unwrap();
    let paused = farm.job(id).unwrap();
    assert_eq!(paused.status, JobStatus::Paused, "shutdown parked the job");
    let ckpt = dir.join(format!("{:016x}.ckpt", spec.config_hash()));
    assert!(ckpt.exists(), "checkpoint persisted to the state dir");

    // "Restart": a fresh farm over the same state dir. Submitting the
    // same config picks the checkpoint off disk and resumes mid-run.
    let farm2 = Farm::new(cfg);
    let (id2, fresh2) = farm2.submit(spec.clone()).unwrap();
    assert!(fresh2, "new process, new table — not a dedup hit");
    farm2.run_executor(true);
    let resumed = farm2.job(id2).unwrap();
    let JobStatus::Done(o) = &resumed.status else {
        panic!("resumed job did not finish: {:?}", resumed.status);
    };
    assert_eq!(
        o.fingerprint,
        standalone_fingerprint(&spec),
        "kill + state-dir resume changed the result"
    );
    assert!(!ckpt.exists(), "completion cleaned up the checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state-dir file the job cannot resume from — cut short (as by a
/// shutdown that died mid-write) or written by another scenario under a
/// colliding hash — is ignored: the job runs afresh and finishes
/// bit-identical to a standalone run.
#[test]
fn unusable_state_dir_checkpoint_runs_afresh() {
    let dir = std::env::temp_dir().join(format!("wormdsm-farm-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = synth_spec(5);
    let pause = || Observe { observer: Some((64, Box::new(|_, _| false))), ..Observe::default() };
    let (Ok(RunEnd::Paused(own)), Ok(RunEnd::Paused(other))) =
        (spec.run(pause()), synth_spec(6).run(pause()))
    else {
        panic!("the observer pauses before the first issue");
    };
    let cfg = FarmConfig { workers: 1, state_dir: Some(dir.clone()), ..FarmConfig::default() };
    for bytes in [&own[..own.len() / 2], &other[..]] {
        std::fs::write(dir.join(format!("{:016x}.ckpt", spec.config_hash())), bytes).unwrap();
        let farm = Farm::new(cfg.clone());
        let (id, _) = farm.submit(spec.clone()).unwrap();
        farm.run_executor(true);
        assert_eq!(outcome_fingerprint(&farm, id), standalone_fingerprint(&spec));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-cycle observation interval would fail every job; the config
/// check refuses it up front, naming the setting.
#[test]
fn config_validation_refuses_zero_progress_interval() {
    FarmConfig::default().validate().unwrap();
    let e = FarmConfig { progress_every: 0, ..FarmConfig::default() }.validate().unwrap_err();
    assert!(e.contains("progress_every"), "{e}");
}

/// Minimal HTTP/1.1 client for the tests: one request, read to EOF
/// (the server closes), return the body.
fn get(port: u16, target: &str) -> String {
    let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(s, "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    assert!(
        head.starts_with("HTTP/1.1 200") || head.starts_with("HTTP/1.1 400"),
        "unexpected status: {head}"
    );
    body.to_string()
}

/// Full HTTP round trip on a real socket: submit two jobs plus a
/// duplicate, watch them run, scrape every endpoint, stream the first
/// SSE frames, and shut the server down cleanly.
#[test]
fn http_surface_end_to_end() {
    let farm = Arc::new(Farm::new(FarmConfig {
        workers: 1,
        progress_every: 128,
        ..FarmConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let server = {
        let farm = farm.clone();
        std::thread::spawn(move || http::serve(&farm, listener).unwrap())
    };
    let exec = {
        let farm = farm.clone();
        std::thread::spawn(move || farm.run_executor(false))
    };

    // Open the SSE stream before submitting, so the job lifecycle
    // frames land in its ring.
    let mut sse = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(sse, "GET /events HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();

    let a = get(port, "/submit?app=synth&seed=1");
    let b = get(port, "/submit?app=synth&seed=2");
    let dup = get(port, "/submit?app=synth&seed=1");
    assert_eq!(a, "{\"id\":0,\"fresh\":true}");
    assert_eq!(b, "{\"id\":1,\"fresh\":true}");
    assert_eq!(dup, "{\"id\":0,\"fresh\":false}", "duplicate resolved to the original");
    let bad = get(port, "/submit?app=quake");
    assert!(bad.contains("error"), "bad spec rejected: {bad}");

    // Wait for both jobs to finish.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let jobs = get(port, "/jobs");
        if jobs.matches("\"status\":\"done\"").count() == 2 {
            assert!(jobs.contains("\"dedup_hits\":1"));
            assert!(jobs.contains("\"fingerprint\""));
            break;
        }
        assert!(std::time::Instant::now() < deadline, "jobs never finished: {jobs}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let metrics = get(port, "/metrics");
    assert!(metrics.contains("# TYPE farm_jobs_done counter"));
    assert!(metrics.contains("farm_jobs_done 2"));
    assert!(metrics.contains("farm_dedup_hits 1"));
    assert!(
        metrics.contains("scheme=\"UI-UA\""),
        "per-job metrics carry labels: {}",
        &metrics[..metrics.len().min(600)]
    );

    let heat = get(port, "/heatmap");
    assert!(heat.contains("\"busy\":["), "heatmap populated: {heat}");

    let dash = get(port, "/");
    assert!(dash.contains("<canvas id=\"heat\""), "dashboard embedded");

    // The SSE stream delivered its hello plus job lifecycle frames.
    sse.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sse_buf = [0u8; 4096];
    let mut sse_text = String::new();
    while !sse_text.contains("\"state\":\"done\"") {
        let n = sse.read(&mut sse_buf).expect("SSE frames keep flowing");
        assert!(n > 0, "SSE stream closed early: {sse_text}");
        sse_text.push_str(&String::from_utf8_lossy(&sse_buf[..n]));
    }
    assert!(sse_text.contains("event: hello\n"));
    assert!(sse_text.contains("event: progress\n"));

    let bye = get(port, "/shutdown");
    assert_eq!(bye, "{\"shutdown\":true}");
    server.join().unwrap();
    exec.join().unwrap();
    assert_eq!(farm.dedup_hits(), 1);
}

/// Regression guard for the dedup key: across a large seed range (and
/// every scheme x app combination) FNV-64 config hashes stay distinct.
#[test]
fn config_hashes_do_not_collide_across_seed_sweep() {
    let mut seen = HashSet::new();
    for seed in 0..1000u64 {
        assert!(seen.insert(synth_spec(seed).config_hash()), "seed {seed} collided");
    }
    for scheme in SchemeKind::ALL {
        for app in ["bh", "lu", "apsp", "synth"] {
            let spec = Scenario { scheme, app: app.into(), seed: 5000, ..Scenario::default() };
            assert!(seen.insert(spec.config_hash()), "{} collided", spec.canonical());
        }
    }
    assert_eq!(seen.len(), 1000 + SchemeKind::ALL.len() * 4);
}
