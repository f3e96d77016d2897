//! `wormdsm-farm` — a dependency-free experiment service around the
//! simulator: a persistent job queue with config-hash dedup, a
//! hand-rolled HTTP/1.1 server exposing Prometheus metrics and
//! server-sent-event telemetry, and an embedded live dashboard.
//!
//! Everything is observation-only with respect to the simulation: jobs
//! executed by the farm produce metric exports **bit-identical** to a
//! standalone run of the same configuration (asserted by
//! `tests/farm_e2e.rs` through [`metrics_fingerprint`]), and a farm
//! killed mid-run resumes its interrupted jobs from checkpoints without
//! perturbing their results.
//!
//! The three moving parts:
//!
//! * [`queue::JobTable`] — submissions, FNV-64 config dedup, FIFO
//!   scheduling, pause checkpoints. A job is a
//!   [`wormdsm_workloads::Scenario`]; its canonical string is the dedup
//!   key and names every checkpoint it writes.
//! * [`runner::Farm`] — executor workers running each job through
//!   `Scenario::run` with the farm's telemetry observer, graceful
//!   shutdown ([`signal`]), and state-dir persistence.
//! * [`http`] — the `TcpListener` front end: `/metrics`, `/jobs`,
//!   `/events` (SSE), `/heatmap`, job submission, and the dashboard.

#![warn(missing_docs)]

pub mod events;
pub mod http;
pub mod queue;
pub mod runner;
pub mod signal;

pub use events::{EventBus, Subscription};
pub use queue::{Job, JobOutcome, JobStatus, JobTable};
pub use runner::{Farm, FarmConfig};

use wormdsm_core::NONDETERMINISTIC_METRIC_PREFIXES;
use wormdsm_sim::snap::Fnv64;
use wormdsm_sim::{Registry, ToJson};

/// The single-page dashboard served at `GET /`.
pub const DASHBOARD_HTML: &str = include_str!("dashboard.html");

/// FNV-64 fingerprint of a metric export's deterministic content.
///
/// Hashes every `name=json;` pair in registry (insertion) order,
/// skipping names under [`NONDETERMINISTIC_METRIC_PREFIXES`] — the
/// trace-plumbing lifetime counters (`trace_events_*`, which vary with
/// observation settings) and the run-provenance stamps (`run_*`, which
/// vary with the host). What remains is exactly the simulated result,
/// so equal fingerprints mean bit-identical experiment outcomes — the
/// invariant the farm's e2e tests assert against standalone runs.
pub fn metrics_fingerprint(reg: &Registry) -> u64 {
    let mut h = Fnv64::new();
    for (name, metric) in reg.iter() {
        if NONDETERMINISTIC_METRIC_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        h.write(name.as_bytes());
        h.write(b"=");
        h.write(metric.to_json().as_bytes());
        h.write(b";");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_skips_nondeterministic_prefixes() {
        let mut a = Registry::new();
        a.counter("txns_completed", 42);
        a.gauge("net_peak_link_load", 0.5);
        let base = metrics_fingerprint(&a);
        a.counter("trace_events_recorded", 9999);
        a.counter("run_host_cores", 64);
        a.gauge("run_wall_s", 1.23);
        assert_eq!(metrics_fingerprint(&a), base, "observation noise is excluded");
        a.counter("txns_completed", 43);
        assert_ne!(metrics_fingerprint(&a), base, "real results are not");
    }

    #[test]
    fn fingerprint_depends_on_names_and_values() {
        let mut a = Registry::new();
        a.counter("x", 1);
        let mut b = Registry::new();
        b.counter("y", 1);
        assert_ne!(metrics_fingerprint(&a), metrics_fingerprint(&b));
        assert_eq!(metrics_fingerprint(&Registry::new()), metrics_fingerprint(&Registry::new()));
    }
}
