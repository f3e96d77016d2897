//! The job table: submission with config-hash dedup, FIFO scheduling,
//! progress tracking, and pause checkpoints.

use std::collections::{HashMap, VecDeque};
use wormdsm_sim::json::{self, Raw, ToJson};
use wormdsm_sim::{Cycle, Registry};
use wormdsm_workloads::Scenario;

/// Lifecycle state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting in the FIFO queue.
    Queued,
    /// Claimed by an executor worker.
    Running,
    /// Paused by graceful shutdown; `Job::checkpoint` holds a resumable
    /// snapshot and the job re-enters the queue on the next executor.
    Paused,
    /// Completed; see [`JobOutcome`].
    Done(JobOutcome),
    /// Failed with a diagnostic (bad config, deadline, invariant).
    Failed(String),
}

impl JobStatus {
    /// Lower-case status word used by JSON and the dashboard.
    pub fn word(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Paused => "paused",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// Results of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// FNV-64 fingerprint of the deterministic metric export (see
    /// `wormdsm_farm::metrics_fingerprint`) — bit-identical to a
    /// standalone run of the same config.
    pub fingerprint: u64,
    /// Simulated cycles the run took.
    pub cycles: Cycle,
    /// Operations issued.
    pub issued: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Full metric export (protocol + `net_` + `run_*` provenance).
    pub registry: Registry,
    /// Per-phase latency attribution JSON, when the job ran profiled.
    pub phases_json: Option<String>,
}

/// One submitted job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Dense submission id (0, 1, ...).
    pub id: u64,
    /// Configuration.
    pub spec: Scenario,
    /// Cached [`Scenario::config_hash`].
    pub hash: u64,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Simulated cycle reached (live while running).
    pub now_cycle: Cycle,
    /// Operations issued so far (live while running).
    pub issued: u64,
    /// Total operations in the workload (0 until first observed).
    pub total_ops: u64,
    /// Resumable checkpoint, present while [`JobStatus::Paused`] (or
    /// preloaded from a state dir at submission).
    pub checkpoint: Option<Vec<u8>>,
}

/// A `/jobs` row.
impl ToJson for Job {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("id", self.id).field("hash", format!("{:016x}", self.hash));
            o.field("status", self.status.word()).field("spec", &self.spec);
            o.field("now_cycle", self.now_cycle).field("issued", self.issued);
            o.field("total_ops", self.total_ops);
            match &self.status {
                JobStatus::Done(d) => {
                    o.field("fingerprint", format!("{:016x}", d.fingerprint));
                    o.field("cycles", d.cycles).field("wall_s", d.wall_s);
                    o.field("metrics", &d.registry);
                    if let Some(p) = &d.phases_json {
                        o.field("phases", Raw(p));
                    }
                }
                JobStatus::Failed(e) => {
                    o.field("error", e);
                }
                _ => {}
            }
        });
    }
}

/// All jobs the farm knows about, plus the FIFO schedule and dedup index.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Vec<Job>,
    queue: VecDeque<u64>,
    by_hash: HashMap<u64, u64>,
    dedup_hits: u64,
}

impl JobTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a spec. Returns `(job id, fresh)`: a spec whose config
    /// hash matches an existing job — whatever its state — returns that
    /// job's id with `fresh = false` and counts a dedup hit instead of
    /// queueing a duplicate. `checkpoint` preloads a resume snapshot
    /// (state-dir restart path).
    pub fn submit(&mut self, spec: Scenario, checkpoint: Option<Vec<u8>>) -> (u64, bool) {
        let hash = spec.config_hash();
        if let Some(&id) = self.by_hash.get(&hash) {
            self.dedup_hits += 1;
            return (id, false);
        }
        let id = self.jobs.len() as u64;
        self.jobs.push(Job {
            id,
            spec,
            hash,
            status: JobStatus::Queued,
            now_cycle: 0,
            issued: 0,
            total_ops: 0,
            checkpoint,
        });
        self.by_hash.insert(hash, id);
        self.queue.push_back(id);
        (id, true)
    }

    /// Claim up to `n` queued jobs for execution (FIFO), marking them
    /// Running. Returns `(id, spec, checkpoint)` triples; a checkpoint
    /// is present when the job resumes from a pause.
    pub fn claim(&mut self, n: usize) -> Vec<(u64, Scenario, Option<Vec<u8>>)> {
        let mut batch = Vec::new();
        while batch.len() < n {
            let Some(id) = self.queue.pop_front() else { break };
            let job = &mut self.jobs[id as usize];
            job.status = JobStatus::Running;
            batch.push((id, job.spec.clone(), job.checkpoint.take()));
        }
        batch
    }

    /// Move every Paused job back to the queue front (in id order), so a
    /// restarted executor resumes interrupted work before new work.
    pub fn requeue_paused(&mut self) {
        for job in self.jobs.iter_mut().rev() {
            if job.status == JobStatus::Paused {
                job.status = JobStatus::Queued;
                self.queue.push_front(job.id);
            }
        }
    }

    /// Record live progress of a running job.
    pub fn progress(&mut self, id: u64, now_cycle: Cycle, issued: u64, total_ops: u64) {
        let job = &mut self.jobs[id as usize];
        job.now_cycle = now_cycle;
        job.issued = issued;
        job.total_ops = total_ops;
    }

    /// Mark a job done.
    pub fn complete(&mut self, id: u64, outcome: JobOutcome) {
        let job = &mut self.jobs[id as usize];
        job.now_cycle = outcome.cycles;
        job.issued = outcome.issued;
        job.status = JobStatus::Done(outcome);
        job.checkpoint = None;
    }

    /// Mark a job failed.
    pub fn fail(&mut self, id: u64, err: String) {
        self.jobs[id as usize].status = JobStatus::Failed(err);
    }

    /// Park a running job with its resume checkpoint (graceful shutdown).
    pub fn pause(&mut self, id: u64, checkpoint: Vec<u8>) {
        let job = &mut self.jobs[id as usize];
        job.status = JobStatus::Paused;
        job.checkpoint = Some(checkpoint);
    }

    /// Job by id.
    pub fn get(&self, id: u64) -> Option<&Job> {
        self.jobs.get(id as usize)
    }

    /// All jobs, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Submissions that matched an existing config hash.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// `(queued, running, paused, done, failed)` counts.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0, 0);
        for j in &self.jobs {
            match j.status {
                JobStatus::Queued => c.0 += 1,
                JobStatus::Running => c.1 += 1,
                JobStatus::Paused => c.2 += 1,
                JobStatus::Done(_) => c.3 += 1,
                JobStatus::Failed(_) => c.4 += 1,
            }
        }
        c
    }

    /// True when no job is queued or running (paused jobs count as
    /// settled: they wait for an explicit resume).
    pub fn settled(&self) -> bool {
        let (queued, running, _, _, _) = self.counts();
        queued == 0 && running == 0
    }
}

/// The whole table, for `GET /jobs`.
impl ToJson for JobTable {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("dedup_hits", self.dedup_hits).field("jobs", &self.jobs);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> Scenario {
        Scenario { app: "synth".into(), seed, ..Scenario::default() }
    }

    #[test]
    fn dedup_returns_existing_id_and_counts() {
        let mut t = JobTable::new();
        let (a, fresh_a) = t.submit(spec(1), None);
        let (b, fresh_b) = t.submit(spec(2), None);
        let (c, fresh_c) = t.submit(spec(1), None); // duplicate of a
        assert!(fresh_a && fresh_b && !fresh_c);
        assert_eq!(c, a);
        assert_ne!(a, b);
        assert_eq!(t.dedup_hits(), 1);
        assert_eq!(t.jobs().len(), 2, "duplicate never materialized");
        // Dedup applies across every lifecycle state, including done.
        let claimed = t.claim(10);
        assert_eq!(claimed.len(), 2);
        t.complete(
            a,
            JobOutcome {
                fingerprint: 7,
                cycles: 10,
                issued: 5,
                wall_s: 0.1,
                registry: Registry::new(),
                phases_json: None,
            },
        );
        let (again, fresh) = t.submit(spec(1), None);
        assert_eq!(again, a);
        assert!(!fresh);
        assert_eq!(t.dedup_hits(), 2);
    }

    /// A failed job's error text may hold anything; `/jobs` stays valid
    /// JSON and carries it verbatim.
    #[test]
    fn failed_row_error_is_escaped() {
        let mut t = JobTable::new();
        let (id, _) = t.submit(spec(1), None);
        t.claim(1);
        let err = "bad \"spec\" at C:\\dir\nnext\u{1}line";
        t.fail(id, err.to_string());
        let json = t.to_json();
        json::validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(
            json.contains(r#""error":"bad \"spec\" at C:\\dir\u000anext\u0001line""#),
            "{json}"
        );
    }

    #[test]
    fn claim_is_fifo_and_respects_batch_size() {
        let mut t = JobTable::new();
        for s in 0..5 {
            t.submit(spec(s), None);
        }
        let first = t.claim(2);
        assert_eq!(first.iter().map(|(id, ..)| *id).collect::<Vec<_>>(), vec![0, 1]);
        let rest = t.claim(10);
        assert_eq!(rest.iter().map(|(id, ..)| *id).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(t.claim(1).is_empty());
        assert_eq!(t.counts().1, 5, "all running");
        assert!(!t.settled());
    }

    #[test]
    fn pause_requeues_ahead_of_new_work_with_checkpoint() {
        let mut t = JobTable::new();
        t.submit(spec(1), None);
        t.submit(spec(2), None);
        let batch = t.claim(2);
        t.pause(batch[0].0, vec![0xAB]);
        t.fail(batch[1].0, "boom".into());
        t.submit(spec(3), None);
        assert!(!t.settled(), "a queued job keeps the table unsettled");
        t.requeue_paused();
        let next = t.claim(10);
        assert_eq!(next[0].0, batch[0].0, "paused job resumes first");
        assert_eq!(next[0].2.as_deref(), Some(&[0xAB][..]), "checkpoint rides along");
        assert_eq!(next.len(), 2);
        let json = t.to_json();
        assert!(json.contains("\"error\":\"boom\""));
        assert!(json.contains("\"dedup_hits\":0"));
    }
}
