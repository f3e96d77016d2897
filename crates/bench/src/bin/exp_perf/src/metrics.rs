//! Every metric the benchmark reports: name, unit, better direction and
//! the bound by which a median may worsen before it counts as a
//! regression. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the baseline median; 0 = exact.
    pub bound: f64,
    /// Absolute change below which a difference is not a regression.
    pub floor: f64,
    /// The statistic of a run's repetitions that `--workload` reports.
    pub pick: Pick,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    Median,
    Min,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound, floor: 0.0, pick: Pick::Median }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    host(name, unit, Better::Lower, 0.0)
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    host(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// Host-cost metrics over untraced repetitions.
pub const HOST: [MetricDef; 4] = [
    // Other tenants of a shared host only ever add time, in bursts of
    // seconds to minutes, so a timed run reports its fastest repetition:
    // over ten runs of apsp-busy-k8 that moved 4% where the median
    // moved 10%. Slow stretches of several minutes still move it 5-16%,
    // hence the widest bound, for its inverse sim_cycles_per_s too.
    MetricDef { pick: Pick::Min, ..host("wall_s", "s", Lower, 0.25) },
    host("sim_cycles_per_s", "cycles/s", Higher, 0.25),
    // Set-up is short and noisy: the widest bound and a 5 ms floor.
    MetricDef { floor: 0.005, ..host("setup_s", "s", Lower, 0.25) },
    host("peak_rss_mib", "MiB", Lower, 0.10),
];

/// Failed repetitions over attempted ones; must stay 0.
pub const ERROR_RATE: MetricDef = exact("error_rate", "ratio");

/// Simulated results. Deterministic for a given seed, so they compare
/// exactly; they differ between seeds because the inputs do.
pub const SIMULATED: [MetricDef; 6] = [
    exact("sim_cycles", "cycles"),
    exact("flit_hops", "count"),
    exact("inval_latency_mean", "cycles"),
    exact("write_miss_latency_mean", "cycles"),
    exact("write_latency_p50", "cycles"),
    exact("write_latency_p90", "cycles"),
];

/// All eleven end-to-end metrics of a benchmark set, in print order.
pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    HOST.iter().chain(std::iter::once(&ERROR_RATE)).chain(SIMULATED.iter())
}

/// The `end_to_end` metrics of `BENCHMARK.json`, whose runs each take
/// another seed. `sim_cycles_per_s` is left out there: an invalidation
/// batch's cycle count is set by its slowest transaction, so it moves
/// 6-15% between seeds while host time does not. Within one seed (a set,
/// `--compare`) it stays an end-to-end metric.
pub fn across_seeds() -> impl Iterator<Item = &'static MetricDef> {
    HOST.iter().filter(|d| d.name != "sim_cycles_per_s")
}

/// Per-layer metrics, medians over traced repetitions. Names are
/// `<crate>.<module>.<call>` for timers around public calls, `mesh.*`
/// and `coherence.*` for the simulated layers' own counters.
pub const PER_LAYER: [MetricDef; 34] = [
    layer("sim_cycles_per_s", "cycles/s", Higher),
    layer("core.system.step.calls", "count", Lower),
    layer("core.system.step.s", "s", Lower),
    layer("core.system.step.p99_ns", "ns", Lower),
    layer("core.system.step.flit.calls", "count", Lower),
    layer("core.system.step.flit.s", "s", Lower),
    layer("core.system.step.ns_per_flit_hop", "ns", Lower),
    layer("core.system.step.ff.calls", "count", Lower),
    layer("core.system.step.ff.s", "s", Lower),
    layer("core.system.step.idle.calls", "count", Lower),
    layer("core.system.step.idle.s", "s", Lower),
    layer("sim.skipped_cycles", "count", Higher),
    layer("sim.dead_fraction", "ratio", Higher),
    layer("core.schemes.plan.calls", "count", Lower),
    layer("core.schemes.plan.s", "s", Lower),
    layer("core.schemes.plan.ns_per_call", "ns", Lower),
    layer("core.schemes.plan.share", "ratio", Lower),
    layer("core.system.issue.calls", "count", Lower),
    layer("core.system.issue.s", "s", Lower),
    layer("workloads.advance.poll_s", "s", Lower),
    layer("workloads.gen_s", "s", Lower),
    layer("core.system.new_s", "s", Lower),
    layer("core.system.verify_coherence_s", "s", Lower),
    layer("mesh.flit_hops", "count", Lower),
    layer("mesh.worms_injected", "count", Lower),
    layer("mesh.deliveries", "count", Lower),
    layer("mesh.parks", "count", Lower),
    layer("mesh.max_link_utilization", "ratio", Lower),
    layer("coherence.read_misses", "count", Lower),
    layer("coherence.write_misses", "count", Lower),
    layer("coherence.hit_ratio", "ratio", Higher),
    layer("coherence.inval_txns", "count", Lower),
    layer("coherence.retry_ratio", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];
