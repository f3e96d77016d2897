//! The farm service: executor workers that drain the job queue through
//! `Scenario::run`, live telemetry taps, and checkpointed shutdown.

use crate::events::EventBus;
use crate::queue::{JobOutcome, JobStatus, JobTable};
use crate::{metrics_fingerprint, signal};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wormdsm_core::{to_prometheus, DsmSystem, RunMeta, TraceLevel};
use wormdsm_sim::json::{self, Layout::Compact, ToJson};
use wormdsm_sim::trace::{EventTap, TraceKind};
use wormdsm_sim::{BoundedRing, Cycle, Phase, Registry};
use wormdsm_workloads::{IssueState, Observe, RunEnd, Scenario};

/// Tunables of a farm instance.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Jobs executed concurrently (each on its own thread).
    pub workers: usize,
    /// Observation-window size in cycles: how often running jobs report
    /// progress, drain telemetry, and poll for shutdown.
    pub progress_every: Cycle,
    /// Contention-probe window in cycles; 0 disables the probe.
    pub probe_window: Cycle,
    /// Per-subscriber SSE ring capacity (frames).
    pub event_ring: usize,
    /// Publish every Nth transaction trace event (1 = all).
    pub txn_throttle: u64,
    /// Directory for pause checkpoints; lets a killed farm process
    /// resume interrupted jobs on restart. `None` keeps checkpoints
    /// in-memory only.
    pub state_dir: Option<PathBuf>,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            progress_every: 4096,
            probe_window: 0,
            event_ring: 256,
            txn_throttle: 64,
            state_dir: None,
        }
    }
}

impl FarmConfig {
    /// Refuse a configuration no job can run under: observation windows
    /// must be at least one cycle long.
    pub fn validate(&self) -> Result<(), String> {
        if self.progress_every < 1 {
            return Err("progress_every (--progress-every) must be at least 1 cycle".to_string());
        }
        Ok(())
    }
}

/// Snapshot of per-link busy counters for the dashboard heatmap,
/// refreshed at every observation boundary of whichever job reported
/// last (links indexed `node * 4 + dir`, matching `NetStats::link_busy`
/// and `mesh::render::link_heatmap`).
#[derive(Debug, Clone)]
struct HeatSnapshot {
    job: u64,
    k: usize,
    at: Cycle,
    busy: Vec<u64>,
}

/// The shared farm service: job table, event bus, and shutdown flag.
/// Wrap in an [`Arc`] and share between the executor and HTTP threads.
pub struct Farm {
    cfg: FarmConfig,
    table: Mutex<JobTable>,
    bus: Arc<EventBus>,
    stop: AtomicBool,
    heat: Mutex<Option<HeatSnapshot>>,
}

impl std::fmt::Debug for Farm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Farm")
            .field("cfg", &self.cfg)
            .field("counts", &self.table.lock().expect("job table").counts())
            .field("bus", &self.bus)
            .finish()
    }
}

/// How one executed job ended.
enum JobEnd {
    Done(Box<JobOutcome>),
    Paused(Vec<u8>),
    Failed(String),
}

impl Farm {
    /// New farm with `cfg`.
    pub fn new(cfg: FarmConfig) -> Self {
        Self {
            cfg,
            table: Mutex::new(JobTable::new()),
            bus: Arc::new(EventBus::new()),
            stop: AtomicBool::new(false),
            heat: Mutex::new(None),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// The telemetry bus (subscribe for SSE).
    pub fn bus(&self) -> &Arc<EventBus> {
        &self.bus
    }

    /// Submit a job spec. Returns `(id, fresh)`; `fresh = false` means
    /// an identically configured job already exists and was returned
    /// instead (dedup hit). When a state dir holds a checkpoint for this
    /// config (from an interrupted previous process), the job resumes
    /// from it instead of starting over.
    pub fn submit(&self, spec: Scenario) -> Result<(u64, bool), String> {
        spec.validate()?;
        let ckpt = self.load_state_checkpoint(&spec);
        let resumed = ckpt.is_some();
        let (id, fresh) = self.table.lock().expect("job table").submit(spec, ckpt);
        if fresh {
            self.publish_job(id, if resumed { "queued-resume" } else { "queued" }, None);
        }
        Ok((id, fresh))
    }

    /// Ask the farm to stop: running jobs pause (with checkpoints) at
    /// their next observation boundary, the executor drains, and the
    /// HTTP accept loop exits.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True when this instance was asked to stop or a process-wide
    /// termination signal arrived ([`signal::requested`]).
    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || signal::requested()
    }

    /// Run the executor until shutdown is requested — or, with
    /// `exit_when_settled`, until no job is queued or running (batch
    /// mode / tests). Paused jobs are requeued on entry, so a restarted
    /// executor resumes interrupted work first.
    pub fn run_executor(&self, exit_when_settled: bool) {
        self.table.lock().expect("job table").requeue_paused();
        loop {
            if self.shutdown_requested() {
                return;
            }
            let batch = self.table.lock().expect("job table").claim(self.cfg.workers.max(1));
            if batch.is_empty() {
                if exit_when_settled && self.table.lock().expect("job table").settled() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            // One scoped thread per claimed job; `execute` turns a job
            // panic into a failure, so every thread returns a result.
            let ends: Vec<JobEnd> = std::thread::scope(|s| {
                let lanes: Vec<_> = batch
                    .iter()
                    .map(|(id, spec, ckpt)| s.spawn(move || execute(self, *id, spec, ckpt.clone())))
                    .collect();
                lanes.into_iter().map(|l| l.join().expect("execute catches job panics")).collect()
            });
            for ((id, spec, _), end) in batch.iter().zip(ends) {
                let mut table = self.table.lock().expect("job table");
                match end {
                    JobEnd::Done(outcome) => {
                        self.remove_state_checkpoint(spec);
                        let fingerprint = format!("{:016x}", outcome.fingerprint);
                        self.publish_job(*id, "done", Some(("fingerprint", &fingerprint)));
                        table.complete(*id, *outcome);
                    }
                    JobEnd::Paused(ckpt) => {
                        self.save_state_checkpoint(spec, &ckpt);
                        self.publish_job(*id, "paused", None);
                        table.pause(*id, ckpt);
                    }
                    JobEnd::Failed(e) => {
                        self.publish_job(*id, "failed", Some(("error", &e)));
                        table.fail(*id, e);
                    }
                }
            }
        }
    }

    /// Publish a `job` lifecycle frame: the job's id and new state, then
    /// the `extra` field, if any.
    fn publish_job(&self, id: u64, state: &str, extra: Option<(&str, &str)>) {
        let frame = json::obj(Compact, |o| {
            o.field("id", id).field("state", state);
            if let Some((key, value)) = extra {
                o.field(key, value);
            }
        });
        self.bus.publish("job", &frame.to_json());
    }

    /// Snapshot of one job's current state.
    pub fn job(&self, id: u64) -> Option<crate::queue::Job> {
        self.table.lock().expect("job table").get(id).cloned()
    }

    /// `GET /jobs` payload.
    pub fn jobs_json(&self) -> String {
        self.table.lock().expect("job table").to_json()
    }

    /// Dedup hits so far.
    pub fn dedup_hits(&self) -> u64 {
        self.table.lock().expect("job table").dedup_hits()
    }

    /// `GET /heatmap` payload: the most recent per-link busy snapshot
    /// (`{}` before any job reported).
    pub fn heatmap_json(&self) -> String {
        let heat = self.heat.lock().expect("heat snapshot");
        let snapshot = json::obj(Compact, |o| {
            if let Some(h) = &*heat {
                o.field("job", h.job).field("k", h.k).field("at", h.at).field("busy", &h.busy);
            }
        });
        snapshot.to_json()
    }

    /// `GET /metrics` payload: farm-level gauges plus the full metric
    /// export of every completed job, labeled by job/scheme/app, in the
    /// Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        let table = self.table.lock().expect("job table");
        let (queued, running, paused, done, failed) = table.counts();
        let mut farm = Registry::new();
        farm.counter("farm_jobs_submitted", table.jobs().len() as u64);
        farm.counter("farm_jobs_queued", queued);
        farm.counter("farm_jobs_running", running);
        farm.counter("farm_jobs_paused", paused);
        farm.counter("farm_jobs_done", done);
        farm.counter("farm_jobs_failed", failed);
        farm.counter("farm_dedup_hits", table.dedup_hits());
        farm.counter("farm_events_published", self.bus.published());
        farm.counter("farm_sse_subscribers", self.bus.subscribers() as u64);
        let mut out = to_prometheus(&farm, &[]);
        for job in table.jobs() {
            if let JobStatus::Done(o) = &job.status {
                let id = job.id.to_string();
                let labels = [
                    ("job", id.as_str()),
                    ("scheme", job.spec.scheme.name()),
                    ("app", &job.spec.app),
                ];
                out.push_str(&to_prometheus(&o.registry, &labels));
            }
        }
        out
    }

    fn state_path(&self, spec: &Scenario) -> Option<PathBuf> {
        self.cfg.state_dir.as_ref().map(|d| d.join(format!("{:016x}.ckpt", spec.config_hash())))
    }

    /// Persist a pause checkpoint. It names its scenario, so a restart
    /// can verify it resumes the same experiment.
    fn save_state_checkpoint(&self, spec: &Scenario, ckpt: &[u8]) {
        let Some(path) = self.state_path(spec) else { return };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, ckpt) {
            eprintln!("farm: failed to persist checkpoint {}: {e}", path.display());
        }
    }

    /// The state-dir checkpoint for `spec`, if there is one that names
    /// it. A truncated or corrupt file, or one left by a colliding
    /// scenario, is ignored (and kept), and the job runs afresh.
    fn load_state_checkpoint(&self, spec: &Scenario) -> Option<Vec<u8>> {
        let path = self.state_path(spec)?;
        let bytes = std::fs::read(&path).ok()?;
        match spec.check_checkpoint(&bytes) {
            Ok(()) => Some(bytes),
            Err(e) => {
                eprintln!("farm: ignoring checkpoint {}: {e}", path.display());
                None
            }
        }
    }

    fn remove_state_checkpoint(&self, spec: &Scenario) {
        if let Some(path) = self.state_path(spec) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Streaming tap on the flight recorder's push path: forwards every Nth
/// transaction-class event into a bounded staging ring, which the
/// observation-boundary callback drains into the [`EventBus`]. The tap
/// never takes a lock the simulation could wait on beyond the staging
/// ring's own O(1) push.
#[derive(Clone)]
struct FarmTap {
    job: u64,
    every: u64,
    seen: u64,
    staging: Arc<Mutex<BoundedRing<String>>>,
}

impl EventTap for FarmTap {
    fn observe(&mut self, at: Cycle, kind: &TraceKind) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.every) {
            return;
        }
        let frame = json::obj(Compact, |o| {
            o.field("job", self.job).field("at", at).field("kind", kind.name());
            o.field("txn", kind.txn()).field("seq", self.seen);
        });
        self.staging.lock().expect("tap staging ring").push(frame.to_json());
    }

    fn box_clone(&self) -> Box<dyn EventTap> {
        Box::new(self.clone())
    }
}

/// Execute one job to completion, pause, or failure. Panics are caught
/// and become failures, so one bad job fails alone instead of taking
/// down the executor.
fn execute(farm: &Farm, id: u64, spec: &Scenario, checkpoint: Option<Vec<u8>>) -> JobEnd {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job(farm, id, spec, checkpoint)
    }));
    match run {
        Ok(Ok(end)) => end,
        Ok(Err(e)) => JobEnd::Failed(e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            JobEnd::Failed(format!("panic: {msg}"))
        }
    }
}

fn run_job(
    farm: &Farm,
    id: u64,
    spec: &Scenario,
    checkpoint: Option<Vec<u8>>,
) -> Result<JobEnd, String> {
    let staging = Arc::new(Mutex::new(BoundedRing::new(farm.cfg.event_ring)));
    let tap = FarmTap { job: id, every: farm.cfg.txn_throttle.max(1), seen: 0, staging };
    let mut probe_seen = 0usize;
    let observer = |sys: &mut DsmSystem, st: &IssueState| {
        // Fresh and restored systems start without taps; results never
        // depend on them.
        if sys.recorder().taps_attached() == 0 {
            sys.recorder_mut().attach_tap(Box::new(tap.clone()));
        }
        observe_boundary(farm, id, spec, sys, st, &tap.staging, &mut probe_seen);
        !farm.shutdown_requested()
    };
    let obs = Observe {
        // Txn-level tracing feeds the tap; pure observation, results are
        // bit-identical to an untraced run (fingerprints exclude the
        // recorder's lifetime counters).
        trace_level: TraceLevel::Txn,
        probe_window: farm.cfg.probe_window,
        observer: Some((farm.cfg.progress_every, Box::new(observer))),
        resume: checkpoint.as_deref(),
    };
    let mut report = match spec.run(obs)? {
        RunEnd::Done(report) => report,
        RunEnd::Paused(ckpt) => return Ok(JobEnd::Paused(ckpt)),
    };
    let mut registry = report.sys.export_metrics();
    let fingerprint = metrics_fingerprint(&registry);
    RunMeta::capture(farm.cfg.workers).with_wall_s(report.wall_s).stamp(&mut registry);
    let phases_json = spec.profile.then(|| {
        let p = report.sys.take_profiler().expect("profiler attached for profiled job");
        let means = json::obj(Compact, |o| {
            for ph in Phase::ALL {
                o.field(ph.name(), p.mean_phase(ph));
            }
        });
        means.to_json()
    });
    Ok(JobEnd::Done(Box::new(JobOutcome {
        fingerprint,
        cycles: report.result.cycles,
        issued: report.result.issued,
        wall_s: report.wall_s,
        registry,
        phases_json,
    })))
}

/// Everything a running job does at an observation boundary: update the
/// table's live progress, flush staged trace events, stream new probe
/// windows, and refresh the heatmap snapshot. All reads plus pure-
/// observer drains — simulated state is never touched.
fn observe_boundary(
    farm: &Farm,
    id: u64,
    spec: &Scenario,
    sys: &mut DsmSystem,
    st: &IssueState,
    staging: &Mutex<BoundedRing<String>>,
    probe_seen: &mut usize,
) {
    let (now, issued, total_ops) = (sys.now(), st.issued(), st.total());
    farm.table.lock().expect("job table").progress(id, now, issued, total_ops);
    let (events, dropped) = {
        let mut ring = staging.lock().expect("tap staging ring");
        (ring.drain(), ring.take_dropped())
    };
    if dropped > 0 {
        farm.bus.publish("dropped", &json::flat(&[("job", &id), ("count", &dropped)]).to_json());
    }
    for ev in events {
        farm.bus.publish("txn", &ev);
    }
    if let Some(probe) = sys.contention_probe() {
        let windows = probe.windows();
        for w in probe.windows_since(*probe_seen) {
            let flits: u64 = w.flits.iter().map(|&v| u64::from(v)).sum();
            let stalls: u64 = w.stalls.iter().map(|&v| u64::from(v)).sum();
            let frame = json::obj(Compact, |o| {
                o.field("job", id).field("start", w.start).field("flits", flits);
                o.field("stalls", stalls);
            });
            farm.bus.publish("window", &frame.to_json());
        }
        *probe_seen = windows.len();
    }
    *farm.heat.lock().expect("heat snapshot") =
        Some(HeatSnapshot { job: id, k: spec.k, at: now, busy: sys.net_stats().link_busy.clone() });
    let frame = json::obj(Compact, |o| {
        o.field("job", id).field("at", now).field("issued", issued).field("total_ops", total_ops);
    });
    farm.bus.publish("progress", &frame.to_json());
}
