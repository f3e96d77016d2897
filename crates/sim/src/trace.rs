//! Flight-recorder tracing and always-on invariant auditing.
//!
//! Release-mode benchmark runs used to execute with every protocol
//! invariant compiled out (`debug_assert!`) and no record of what the
//! simulator actually did — a silent protocol corruption would surface as
//! a plausible number, not a failure. This module provides the two
//! primitives that close that gap:
//!
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of structured
//!   [`TraceEvent`]s (worm inject/route/deliver, transaction
//!   open/ack/close, stall enter/exit, fast-forward jumps). Recording is
//!   gated at run time by a [`TraceLevel`] (default [`TraceLevel::Off`],
//!   one predictable branch per hook). The recorder can reconstruct a
//!   per-transaction timeline and dump itself as JSON.
//! * [`InvariantViolation`] — the structured error produced when a
//!   promoted protocol invariant fails. It carries the violation message,
//!   the recorder's most recent events, and the offending transaction's
//!   timeline, so a release-mode failure is diagnosable post-mortem.
//!
//! The consumers live in `wormdsm-mesh` (`Network` owns the recorder) and
//! `wormdsm-core` (`DsmSystem` records transaction-lifecycle events and
//! checks invariants via its `invariant!` macro).
//!
//! Determinism: the recorder is a pure observer. No simulation decision
//! may read it, so enabling or disabling tracing cannot perturb metrics —
//! the golden bit-identity tests run with tracing both off and on.

use crate::json::{self, ToJson};
use crate::profile::TxnProfiler;
use crate::Cycle;
use std::fmt;

/// Runtime verbosity of the flight recorder.
///
/// Levels are cumulative: `Flit` records everything `Txn` does plus the
/// per-worm events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing (the default). Each hook costs one branch.
    #[default]
    Off,
    /// Transaction lifecycle: open/ack/close, stall enter/exit,
    /// fast-forward jumps.
    Txn,
    /// Everything: transaction lifecycle plus worm inject/route/deliver.
    Flit,
}

impl TraceLevel {
    /// Parse a command-line spelling (`off`, `txn`, `flit`; `full` is an
    /// alias for `flit`).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "txn" => Some(TraceLevel::Txn),
            "flit" | "full" => Some(TraceLevel::Flit),
            _ => None,
        }
    }
}

/// Coarse category of a [`TraceKind`], used for runtime level gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Transaction-lifecycle events (recorded at [`TraceLevel::Txn`]+).
    Txn,
    /// Per-worm network events (recorded only at [`TraceLevel::Flit`]).
    Flit,
}

/// One structured flight-recorder event.
///
/// Field types are deliberately primitive (`u64`/`u32`/`&'static str`):
/// the sim kernel cannot name mesh/core types, and keeping events `Copy`
/// keeps the ring buffer allocation-free after construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A worm was injected into the network.
    WormInject {
        /// Worm id.
        worm: u64,
        /// Owning transaction id (0 when none).
        txn: u64,
        /// Source node.
        src: u32,
        /// Worm kind label (e.g. `"inv"`, `"gather"`, `"unicast"`).
        kind: &'static str,
        /// Number of delivery destinations.
        dests: u32,
    },
    /// A worm's header flit acquired an output channel at a router.
    WormRoute {
        /// Worm id.
        worm: u64,
        /// Router node where the route was allocated.
        node: u32,
        /// Output port index.
        port: u32,
    },
    /// A worm delivered its payload at a destination NIC.
    WormDeliver {
        /// Worm id.
        worm: u64,
        /// Owning transaction id (0 when none).
        txn: u64,
        /// Destination node.
        node: u32,
        /// True when this delivery retired the worm.
        is_final: bool,
        /// Inject-to-deliver latency in cycles.
        latency: u64,
    },
    /// An invalidation transaction was opened at the home node.
    TxnOpen {
        /// Transaction id.
        txn: u64,
        /// Block being invalidated.
        block: u64,
        /// Home node.
        home: u32,
        /// Requesting writer node.
        writer: u32,
        /// Acks required to close the transaction.
        needed: u32,
    },
    /// The home node absorbed acknowledgements for a transaction.
    TxnAck {
        /// Transaction id.
        txn: u64,
        /// Acks carried by this message.
        count: u32,
        /// Total acks collected so far (after this message).
        got: u32,
        /// Acks required to close the transaction.
        needed: u32,
    },
    /// An invalidation transaction closed (all acks collected).
    TxnClose {
        /// Transaction id.
        txn: u64,
        /// Open-to-close latency in cycles.
        latency: u64,
        /// Sharers invalidated.
        set_size: u32,
    },
    /// A processor stalled waiting for the memory system.
    StallEnter {
        /// Stalling node.
        node: u32,
        /// What it waits for (`"read"`, `"write"`, `"barrier"`, ...).
        what: &'static str,
    },
    /// A stalled processor resumed.
    StallExit {
        /// Resuming node.
        node: u32,
        /// What it was waiting for.
        what: &'static str,
        /// Cycles spent stalled.
        stalled: u64,
    },
    /// The idle-network fast-forward jumped the clock.
    FastForward {
        /// Cycle the jump started from.
        from: u64,
        /// Cycle the clock jumped to.
        to: u64,
    },
    /// A protocol invariant fired. Pushed unconditionally (ignores the
    /// runtime level) so a violation dump is never empty.
    InvariantFired {
        /// Offending transaction id (0 when none).
        txn: u64,
    },
}

impl TraceKind {
    /// The runtime-gating class of this event.
    pub fn class(&self) -> TraceClass {
        match self {
            TraceKind::WormInject { .. }
            | TraceKind::WormRoute { .. }
            | TraceKind::WormDeliver { .. } => TraceClass::Flit,
            _ => TraceClass::Txn,
        }
    }

    /// Transaction id this event belongs to, if any.
    pub fn txn(&self) -> Option<u64> {
        match *self {
            TraceKind::WormInject { txn, .. } | TraceKind::WormDeliver { txn, .. } => {
                (txn != 0).then_some(txn)
            }
            TraceKind::TxnOpen { txn, .. }
            | TraceKind::TxnAck { txn, .. }
            | TraceKind::TxnClose { txn, .. } => Some(txn),
            TraceKind::InvariantFired { txn } => (txn != 0).then_some(txn),
            _ => None,
        }
    }

    /// Worm id this event belongs to, if any.
    pub fn worm(&self) -> Option<u64> {
        match *self {
            TraceKind::WormInject { worm, .. }
            | TraceKind::WormRoute { worm, .. }
            | TraceKind::WormDeliver { worm, .. } => Some(worm),
            _ => None,
        }
    }

    /// Event name as it appears in JSON dumps.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::WormInject { .. } => "worm_inject",
            TraceKind::WormRoute { .. } => "worm_route",
            TraceKind::WormDeliver { .. } => "worm_deliver",
            TraceKind::TxnOpen { .. } => "txn_open",
            TraceKind::TxnAck { .. } => "txn_ack",
            TraceKind::TxnClose { .. } => "txn_close",
            TraceKind::StallEnter { .. } => "stall_enter",
            TraceKind::StallExit { .. } => "stall_exit",
            TraceKind::FastForward { .. } => "fast_forward",
            TraceKind::InvariantFired { .. } => "invariant_fired",
        }
    }
}

/// A timestamped, sequence-numbered flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle at which the event was recorded.
    pub at: Cycle,
    /// Monotonic sequence number (total order, survives ring wraparound).
    pub seq: u64,
    /// The structured event payload.
    pub kind: TraceKind,
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("at", self.at).field("seq", self.seq).field("event", self.kind.name());
            match self.kind {
                TraceKind::WormInject { worm, txn, src, kind, dests } => {
                    o.field("worm", worm).field("txn", txn).field("src", src);
                    o.field("kind", kind).field("dests", dests)
                }
                TraceKind::WormRoute { worm, node, port } => {
                    o.field("worm", worm).field("node", node).field("port", port)
                }
                TraceKind::WormDeliver { worm, txn, node, is_final, latency } => {
                    o.field("worm", worm).field("txn", txn).field("node", node);
                    o.field("final", is_final).field("latency", latency)
                }
                TraceKind::TxnOpen { txn, block, home, writer, needed } => {
                    o.field("txn", txn).field("block", block).field("home", home);
                    o.field("writer", writer).field("needed", needed)
                }
                TraceKind::TxnAck { txn, count, got, needed } => {
                    o.field("txn", txn).field("count", count).field("got", got);
                    o.field("needed", needed)
                }
                TraceKind::TxnClose { txn, latency, set_size } => {
                    o.field("txn", txn).field("latency", latency).field("set_size", set_size)
                }
                TraceKind::StallEnter { node, what } => o.field("node", node).field("what", what),
                TraceKind::StallExit { node, what, stalled } => {
                    o.field("node", node).field("what", what).field("stalled", stalled)
                }
                TraceKind::FastForward { from, to } => o.field("from", from).field("to", to),
                TraceKind::InvariantFired { txn } => o.field("txn", txn),
            };
        });
    }
}

/// Default ring capacity: enough to hold the full recent history of a
/// small-config run while staying a few hundred KiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A streaming observer of recorded events, fed from
/// [`FlightRecorder::push`] *beside* the ring write — after the attached
/// profiler, before the ring — so, like the profiler, what a tap sees is
/// independent of ring capacity and survives ring overflow.
///
/// Taps are pure observers: no simulation decision may read them, and a
/// tap must never block (the experiment farm's taps forward into a
/// bounded drop-oldest [`BoundedRing`](crate::ring::BoundedRing) for
/// exactly this reason). Like every trace consumer, a tap only observes
/// events that pass the [`TraceLevel`] gate.
pub trait EventTap: Send {
    /// Observe one event as it is recorded.
    fn observe(&mut self, at: Cycle, kind: &TraceKind);
    /// Clone this tap into a new box (keeps [`FlightRecorder`]
    /// clonable; taps that share state behind an `Arc` clone the
    /// handle).
    fn box_clone(&self) -> Box<dyn EventTap>;
}

impl Clone for Box<dyn EventTap> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s.
///
/// The recorder never allocates after construction; once full, the oldest
/// event is overwritten and [`FlightRecorder::dropped`] counts the loss.
#[derive(Clone)]
pub struct FlightRecorder {
    level: TraceLevel,
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event (ring start) once the buffer is full.
    head: usize,
    next_seq: u64,
    dropped: u64,
    /// Optional streaming profiler fed from [`FlightRecorder::push`]
    /// *before* the ring write, so its attribution survives ring
    /// overflow (see [`crate::profile`]).
    profiler: Option<Box<TxnProfiler>>,
    /// Streaming observers fed after the profiler, before the ring write
    /// (telemetry fan-out for the experiment farm; see [`EventTap`]).
    taps: Vec<Box<dyn EventTap>>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("level", &self.level)
            .field("len", &self.buf.len())
            .field("capacity", &self.capacity)
            .field("recorded", &self.next_seq)
            .field("dropped", &self.dropped)
            .field("profiler", &self.profiler.is_some())
            .field("taps", &self.taps.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl FlightRecorder {
    /// Create a recorder holding at most `capacity` events (min 1).
    ///
    /// The ring storage is allocated lazily on the first recorded event,
    /// so an `Off`-level recorder costs no memory.
    pub fn new(capacity: usize) -> Self {
        Self {
            level: TraceLevel::Off,
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            next_seq: 0,
            dropped: 0,
            profiler: None,
            taps: Vec::new(),
        }
    }

    /// Current runtime level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Set the runtime level. Does not clear already-recorded events.
    pub fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Replace the ring capacity, discarding any recorded events.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.buf = Vec::new();
        self.head = 0;
        self.dropped = 0;
    }

    /// True when events of `class` should be recorded right now.
    ///
    /// This is the single hot-path gate: at level `Off` it is one
    /// predictable branch.
    #[inline(always)]
    pub fn wants(&self, class: TraceClass) -> bool {
        match class {
            TraceClass::Txn => self.level >= TraceLevel::Txn,
            TraceClass::Flit => self.level >= TraceLevel::Flit,
        }
    }

    /// Record an event. Callers should gate on [`FlightRecorder::wants`]
    /// (or use the [`trace_event!`](crate::trace_event) macro, which
    /// does).
    #[cold]
    pub fn push(&mut self, at: Cycle, kind: TraceKind) {
        // The profiler and taps observe every event *before* the ring
        // write, so what they see is independent of ring capacity.
        if let Some(p) = self.profiler.as_deref_mut() {
            p.observe(at, &kind);
        }
        for tap in &mut self.taps {
            tap.observe(at, &kind);
        }
        let ev = TraceEvent { at, seq: self.next_seq, kind };
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            if self.buf.capacity() == 0 {
                self.buf.reserve_exact(self.capacity);
            }
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been recorded (or all were cleared).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Discard all recorded events (capacity and level unchanged).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }

    /// Iterate events oldest-to-newest.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, first) = self.buf.split_at(self.head);
        first.iter().chain(wrapped.iter())
    }

    /// The most recent `n` events, oldest-to-newest.
    pub fn last_n(&self, n: usize) -> Vec<TraceEvent> {
        let len = self.buf.len();
        self.events().skip(len.saturating_sub(n)).copied().collect()
    }

    /// Reconstruct the timeline of transaction `txn`: every event tagged
    /// with that transaction id, plus every event of a worm that any of
    /// those events referenced (so route hops, which carry only the worm
    /// id, appear in the timeline too). Oldest-to-newest.
    ///
    /// Worm ids are recycled by the network, so worm-only events count
    /// just inside the transaction's live window — from its first tagged
    /// event to its `txn_close` (unbounded while it is still open). An
    /// id reused by a concurrent transaction inside that window can still
    /// alias, but events from the rest of the run cannot.
    pub fn timeline(&self, txn: u64) -> Vec<TraceEvent> {
        let mut worms: Vec<u64> = Vec::new();
        let mut lo = u64::MAX;
        let mut hi = u64::MAX; // unbounded until the close is seen
        for e in self.events() {
            if e.kind.txn() == Some(txn) {
                lo = lo.min(e.seq);
                if matches!(e.kind, TraceKind::TxnClose { .. }) {
                    hi = e.seq;
                }
                if let Some(w) = e.kind.worm() {
                    worms.push(w);
                }
            }
        }
        self.events()
            .filter(|e| {
                e.kind.txn() == Some(txn)
                    || (e.seq >= lo
                        && e.seq <= hi
                        && e.kind.worm().is_some_and(|w| worms.contains(&w)))
            })
            .copied()
            .collect()
    }

    /// Attach a streaming profiler. It will observe every event pushed
    /// from now on; any previously attached profiler is replaced.
    ///
    /// The profiler only sees events that pass the level gate, so a
    /// meaningful phase breakdown requires [`TraceLevel::Flit`].
    pub fn attach_profiler(&mut self, profiler: TxnProfiler) {
        self.profiler = Some(Box::new(profiler));
    }

    /// Detach and return the attached profiler, if any.
    pub fn take_profiler(&mut self) -> Option<TxnProfiler> {
        self.profiler.take().map(|b| *b)
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&TxnProfiler> {
        self.profiler.as_deref()
    }

    /// Attach a streaming [`EventTap`]; it observes every event pushed
    /// from now on, alongside any other attached taps.
    pub fn attach_tap(&mut self, tap: Box<dyn EventTap>) {
        self.taps.push(tap);
    }

    /// Number of attached taps. A consumer that re-creates the recorder
    /// (snapshot restore, rollback) can use this to notice its tap is
    /// gone and re-attach.
    pub fn taps_attached(&self) -> usize {
        self.taps.len()
    }
}

/// The full ring as a JSON array of event objects, oldest first.
impl ToJson for FlightRecorder {
    fn write_json(&self, out: &mut String) {
        self.events().collect::<Vec<_>>().write_json(out);
    }
}

/// Record an event into a [`FlightRecorder`] iff the runtime level wants
/// this class.
///
/// ```
/// use wormdsm_sim::trace::{FlightRecorder, TraceClass, TraceKind, TraceLevel};
/// let mut rec = FlightRecorder::new(16);
/// rec.set_level(TraceLevel::Txn);
/// wormdsm_sim::trace_event!(&mut rec, TraceClass::Txn, 42, TraceKind::FastForward {
///     from: 42,
///     to: 99,
/// });
/// assert_eq!(rec.len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($rec:expr, $class:expr, $at:expr, $kind:expr) => {{
        let rec: &mut $crate::trace::FlightRecorder = $rec;
        if rec.wants($class) {
            rec.push($at, $kind);
        }
    }};
}

/// Structured error produced when a promoted protocol invariant fails.
///
/// Unlike the `debug_assert!`s it replaces, the check behind this error
/// is on in release builds; instead of aborting, the simulator records
/// the violation (first one wins), stops trusting its own state, and
/// surfaces this error from `run_until_idle`-style drivers. The embedded
/// event dump and transaction timeline make the failure diagnosable
/// without a rerun.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Human-readable description of the violated invariant.
    pub what: String,
    /// Cycle at which the violation was detected.
    pub at: Cycle,
    /// Offending transaction id, when one is implicated.
    pub txn: Option<u64>,
    /// The flight recorder's most recent events at detection time.
    pub recent: Vec<TraceEvent>,
    /// Timeline of the offending transaction (empty when `txn` is None).
    pub timeline: Vec<TraceEvent>,
}

impl InvariantViolation {
    /// Build a violation, snapshotting the recorder's last `last_n`
    /// events and the offending transaction's timeline.
    pub fn capture(
        what: String,
        at: Cycle,
        txn: Option<u64>,
        recorder: &FlightRecorder,
        last_n: usize,
    ) -> Self {
        Self {
            what,
            at,
            txn,
            recent: recorder.last_n(last_n),
            timeline: txn.map(|t| recorder.timeline(t)).unwrap_or_default(),
        }
    }
}

/// The violation's message, recent events and timeline.
impl ToJson for InvariantViolation {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("invariant", &self.what).field("at", self.at).field("txn", self.txn);
            o.field("recent", &self.recent).field("timeline", &self.timeline);
        });
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol invariant violated at cycle {}: {}{} ({} recent trace events, {} timeline events)",
            self.at,
            self.what,
            match self.txn {
                Some(t) => format!(" [txn {t}]"),
                None => String::new(),
            },
            self.recent.len(),
            self.timeline.len(),
        )
    }
}

impl std::error::Error for InvariantViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceKind {
        TraceKind::FastForward { from: i, to: i + 1 }
    }

    /// Tap that counts observations into a shared cell.
    #[derive(Clone)]
    struct CountingTap(std::sync::Arc<std::sync::Mutex<Vec<Cycle>>>);

    impl EventTap for CountingTap {
        fn observe(&mut self, at: Cycle, _kind: &TraceKind) {
            self.0.lock().unwrap().push(at);
        }
        fn box_clone(&self) -> Box<dyn EventTap> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn tap_sees_every_event_despite_ring_overflow() {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut r = FlightRecorder::new(2); // tiny ring: most events overwritten
        r.set_level(TraceLevel::Txn);
        r.attach_tap(Box::new(CountingTap(std::sync::Arc::clone(&seen))));
        assert_eq!(r.taps_attached(), 1);
        for i in 0..10 {
            r.push(i, ev(i));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 8, "ring overflowed");
        assert_eq!(seen.lock().unwrap().len(), 10, "tap saw every event anyway");
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cloned_recorder_clones_taps() {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut r = FlightRecorder::new(8);
        r.set_level(TraceLevel::Txn);
        r.attach_tap(Box::new(CountingTap(std::sync::Arc::clone(&seen))));
        let mut r2 = r.clone();
        assert_eq!(r2.taps_attached(), 1);
        r2.push(7, ev(7));
        assert_eq!(*seen.lock().unwrap(), vec![7], "Arc-backed tap clone shares the sink");
        let dbg = format!("{r2:?}");
        assert!(dbg.contains("taps: 1"), "{dbg}");
    }

    #[test]
    fn off_level_records_nothing_and_allocates_nothing() {
        let mut r = FlightRecorder::new(8);
        assert!(!r.wants(TraceClass::Txn));
        assert!(!r.wants(TraceClass::Flit));
        crate::trace_event!(&mut r, TraceClass::Txn, 1, ev(0));
        assert!(r.is_empty());
        assert_eq!(r.buf.capacity(), 0, "no allocation until first event");
    }

    #[test]
    fn txn_level_excludes_flit_events() {
        let mut r = FlightRecorder::new(8);
        r.set_level(TraceLevel::Txn);
        assert!(r.wants(TraceClass::Txn));
        assert!(!r.wants(TraceClass::Flit));
        r.set_level(TraceLevel::Flit);
        assert!(r.wants(TraceClass::Txn));
        assert!(r.wants(TraceClass::Flit));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(4);
        r.set_level(TraceLevel::Txn);
        for i in 0..10u64 {
            r.push(i, ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.recorded(), 10);
        let ats: Vec<Cycle> = r.events().map(|e| e.at).collect();
        assert_eq!(ats, vec![6, 7, 8, 9], "oldest-to-newest after wrap");
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(r.last_n(2).iter().map(|e| e.at).collect::<Vec<_>>(), vec![8, 9]);
        assert_eq!(r.last_n(99).len(), 4);
    }

    #[test]
    fn timeline_pulls_in_worm_events_via_inject_tag() {
        let mut r = FlightRecorder::new(32);
        r.set_level(TraceLevel::Flit);
        r.push(1, TraceKind::TxnOpen { txn: 7, block: 3, home: 0, writer: 1, needed: 2 });
        r.push(2, TraceKind::WormInject { worm: 100, txn: 7, src: 0, kind: "inv", dests: 2 });
        r.push(3, TraceKind::WormRoute { worm: 100, node: 1, port: 2 });
        r.push(3, TraceKind::WormInject { worm: 101, txn: 8, src: 0, kind: "inv", dests: 1 });
        r.push(4, TraceKind::WormRoute { worm: 101, node: 2, port: 0 });
        r.push(
            5,
            TraceKind::WormDeliver { worm: 100, txn: 7, node: 3, is_final: true, latency: 3 },
        );
        r.push(6, TraceKind::TxnClose { txn: 7, latency: 5, set_size: 2 });
        let tl = r.timeline(7);
        assert_eq!(tl.len(), 5, "txn 7 events plus worm 100's route hop");
        assert!(tl.iter().all(|e| e.kind.txn() == Some(7) || e.kind.worm() == Some(100)));
        assert_eq!(r.timeline(8).len(), 2);
        assert!(r.timeline(99).is_empty());
    }

    #[test]
    fn json_dump_is_wellformed_and_named() {
        let mut r = FlightRecorder::new(8);
        r.set_level(TraceLevel::Flit);
        r.push(1, TraceKind::StallEnter { node: 4, what: "read" });
        r.push(9, TraceKind::StallExit { node: 4, what: "read", stalled: 8 });
        let j = r.to_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"event\":\"stall_enter\""));
        assert!(j.contains("\"stalled\":8"));
    }

    #[test]
    fn violation_captures_recent_and_timeline() {
        let mut r = FlightRecorder::new(16);
        r.set_level(TraceLevel::Txn);
        r.push(1, TraceKind::TxnOpen { txn: 3, block: 9, home: 0, writer: 2, needed: 1 });
        r.push(2, TraceKind::TxnAck { txn: 3, count: 1, got: 1, needed: 1 });
        r.push(2, TraceKind::TxnAck { txn: 4, count: 1, got: 1, needed: 2 });
        let v = InvariantViolation::capture("over-collected acks".into(), 2, Some(3), &r, 2);
        assert_eq!(v.recent.len(), 2);
        assert_eq!(v.timeline.len(), 2, "only txn 3's events");
        let d = v.to_string();
        assert!(d.contains("over-collected acks"));
        assert!(d.contains("cycle 2"));
        let j = v.to_json();
        assert!(j.contains("\"invariant\":\"over-collected acks\""));
        assert!(j.contains("\"timeline\":["));
    }

    #[test]
    fn attached_profiler_sees_events_despite_ring_overflow() {
        use crate::profile::TxnProfiler;
        // Ring of 2: almost every event is overwritten, yet the profiler
        // (hooked ahead of the ring write) attributes every transaction.
        let mut r = FlightRecorder::new(2);
        r.set_level(TraceLevel::Flit);
        r.attach_profiler(TxnProfiler::new());
        for i in 0..50u64 {
            let txn = i + 1;
            let t0 = i * 100;
            r.push(t0, TraceKind::TxnOpen { txn, block: 1, home: 0, writer: 1, needed: 1 });
            r.push(t0, TraceKind::WormInject { worm: 9, txn, src: 0, kind: "inv", dests: 1 });
            r.push(t0 + 3, TraceKind::WormRoute { worm: 9, node: 0, port: 0 });
            r.push(
                t0 + 8,
                TraceKind::WormDeliver { worm: 9, txn, node: 2, is_final: true, latency: 8 },
            );
            r.push(t0 + 15, TraceKind::TxnAck { txn, count: 1, got: 1, needed: 1 });
            r.push(t0 + 15, TraceKind::TxnClose { txn, latency: 15, set_size: 1 });
        }
        assert!(r.dropped() > 0, "the ring must actually have overflowed");
        let p = r.take_profiler().unwrap();
        assert_eq!(p.closed(), 50);
        assert_eq!(p.latency_total(), 50 * 15);
        p.verify_exact().unwrap();
        assert!(r.profiler().is_none(), "take detaches");
    }

    #[test]
    fn set_capacity_resets_ring() {
        let mut r = FlightRecorder::new(2);
        r.set_level(TraceLevel::Txn);
        r.push(1, ev(1));
        r.push(2, ev(2));
        r.push(3, ev(3));
        assert_eq!(r.dropped(), 1);
        r.set_capacity(8);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.capacity(), 8);
        r.push(4, ev(4));
        assert_eq!(r.events().next().unwrap().seq, 3, "sequence numbers keep counting");
    }
}
