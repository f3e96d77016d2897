//! Outside-in layer timing: timers around the public calls the benchmark
//! makes into each layer. Nothing inside the simulator is instrumented,
//! so a traced repetition runs the same code as an untraced one plus the
//! timer reads, and must reproduce its fingerprint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wormdsm_core::{DsmSystem, InvalPlan, InvalidationScheme, MemOp, SchemeKind};
use wormdsm_mesh::network::LinkLoadMeter;
use wormdsm_mesh::{BaseRouting, Mesh2D, NodeId};
use wormdsm_sim::Cycle;

/// The two calls the run loop makes into `DsmSystem` per cycle. The
/// untraced loop uses [`Bare`]; the traced loop uses [`LayerTimers`].
pub trait Hooks {
    fn issue(&mut self, sys: &mut DsmSystem, node: NodeId, op: MemOp) {
        sys.issue(node, op);
    }

    fn step(&mut self, sys: &mut DsmSystem) {
        sys.step();
    }
}

/// Direct calls, no timing.
pub struct Bare;

impl Hooks for Bare {}

/// Calls and host nanoseconds of one class of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Per-call timers for `DsmSystem::issue` and `DsmSystem::step`. Steps are
/// split by what they did: moved flits (`flit_hops` advanced), skipped
/// dead cycles (`skipped_cycles` advanced), or neither.
#[derive(Debug, Default)]
pub struct LayerTimers {
    /// Host nanoseconds of every step, for the tail percentile.
    pub step_ns: Vec<u64>,
    pub flit: Tally,
    pub ff: Tally,
    pub idle: Tally,
    pub issue: Tally,
}

impl LayerTimers {
    pub fn steps(&self) -> Tally {
        Tally {
            calls: self.flit.calls + self.ff.calls + self.idle.calls,
            ns: self.flit.ns + self.ff.ns + self.idle.ns,
        }
    }
}

impl Hooks for LayerTimers {
    fn issue(&mut self, sys: &mut DsmSystem, node: NodeId, op: MemOp) {
        let t = Instant::now();
        sys.issue(node, op);
        self.issue.add(t.elapsed().as_nanos() as u64);
    }

    fn step(&mut self, sys: &mut DsmSystem) {
        let hops = sys.net_stats().flit_hops;
        let skipped = sys.skipped_cycles();
        let t = Instant::now();
        sys.step();
        let ns = t.elapsed().as_nanos() as u64;
        self.step_ns.push(ns);
        if sys.net_stats().flit_hops != hops {
            self.flit.add(ns);
        } else if sys.skipped_cycles() != skipped {
            self.ff.add(ns);
        } else {
            self.idle.add(ns);
        }
    }
}

/// Plan calls and nanoseconds, shared between a [`TimedScheme`] owned by
/// the system and the benchmark that reads them afterwards.
#[derive(Debug, Default)]
pub struct PlanStats {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl PlanStats {
    pub fn tally(&self) -> Tally {
        // Relaxed: plain statistics, read after the single-threaded run.
        Tally { calls: self.calls.load(Ordering::Relaxed), ns: self.ns.load(Ordering::Relaxed) }
    }
}

/// Forwards every call to the wrapped scheme and times `plan` and
/// `plan_with_load`, the scheme layer's only work.
pub struct TimedScheme {
    inner: Box<dyn InvalidationScheme>,
    stats: Arc<PlanStats>,
}

impl TimedScheme {
    pub fn new(inner: Box<dyn InvalidationScheme>, stats: Arc<PlanStats>) -> Self {
        Self { inner, stats }
    }

    fn timed(&self, f: impl FnOnce() -> InvalPlan) -> InvalPlan {
        let t = Instant::now();
        let plan = f();
        self.stats.ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        plan
    }
}

impl InvalidationScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    fn compatible_with(&self, routing: BaseRouting) -> bool {
        self.inner.compatible_with(routing)
    }

    fn plan(&self, mesh: &Mesh2D, home: NodeId, sharers: &[NodeId]) -> InvalPlan {
        self.timed(|| self.inner.plan(mesh, home, sharers))
    }

    fn feedback_window(&self) -> Option<Cycle> {
        self.inner.feedback_window()
    }

    fn plan_with_load(
        &self,
        mesh: &Mesh2D,
        home: NodeId,
        sharers: &[NodeId],
        load: Option<&LinkLoadMeter>,
    ) -> InvalPlan {
        self.timed(|| self.inner.plan_with_load(mesh, home, sharers, load))
    }
}
