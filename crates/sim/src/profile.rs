//! Streaming latency-attribution profiler and Chrome-trace export.
//!
//! The paper's entire argument is a *decomposition* of invalidation
//! latency: where the `2d`-message unicast transaction spends its cycles
//! (home-NIC serialization, network traversal, destination stalls, ack
//! collection) and which phase each multidestination scheme removes. The
//! flight recorder (PR 4) captures the raw signal; this module turns it
//! into per-phase attributions.
//!
//! [`TxnProfiler`] consumes [`TraceKind`] events *online*, hooked into
//! [`FlightRecorder::push`](crate::trace::FlightRecorder::push) ahead of
//! the ring write. That makes attribution independent of ring capacity:
//! even when the ring overflows and drops millions of flit events, the
//! profiler has already seen every one of them.
//!
//! ## Exact-sum phase attribution
//!
//! Every closed transaction's open→close latency is split into six
//! non-overlapping phases ([`Phase`]) delimited by milestone timestamps:
//!
//! | # | phase                | milestone ending it                         |
//! |---|----------------------|---------------------------------------------|
//! | 0 | `inject_queue`       | first route hop of an outbound worm         |
//! | 1 | `head_traversal`     | first outbound delivery                     |
//! | 2 | `body_serialization` | last outbound delivery                      |
//! | 3 | `dest_stall`         | last ack-side worm injection                |
//! | 4 | `ack_return`         | last home-side ack absorption               |
//! | 5 | `home_close`         | transaction close                           |
//!
//! Milestones are clamped monotonically (`m[i] = clamp(raw, m[i-1],
//! close)`; a missing milestone collapses its phase to zero), so the
//! phase widths telescope: their sum is *bit-exactly* `close - open`,
//! which is bit-exactly the latency `Metrics` records. This invariant is
//! checked by [`TxnProfiler::verify_exact`] and asserted for every
//! transaction of every profiled golden run and `repro` H5 row.
//!
//! A worm is **outbound** when it was injected at the transaction's home
//! node (the invalidation worm(s) fanning out to sharers) and
//! **ack-side** otherwise (unicast acks, gather worms, i-ack deposits
//! returning to the home). Worm slot ids are recycled by the network, so
//! the profiler keeps a *binding* table keyed by worm id that is
//! overwritten on every `WormInject` — the streaming mirror of
//! `FlightRecorder::timeline`'s seq-window scoping. Injections owned by
//! no open transaction (barriers, fills) clear the binding, so a recycled
//! slot cannot leak hops into a stale transaction.
//!
//! At [`TraceLevel::Txn`](crate::trace::TraceLevel::Txn) no worm events
//! exist; phases 0–3 collapse to zero and the whole latency lands in
//! `ack_return`. Exact-sum still holds, but the breakdown is only
//! meaningful at `TraceLevel::Flit` (which profiling turns on).
//!
//! [`chrome_trace`] renders profiler records as a Chrome trace-event /
//! Perfetto-loadable JSON file through the [`json`](crate::json) writer.

use crate::trace::TraceKind;
use crate::Cycle;
use std::collections::HashMap;

/// Number of attribution phases.
pub const PHASE_COUNT: usize = 6;

/// One slice of a transaction's open→close latency. See the module docs
/// for the milestone that delimits each phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Open → first outbound route hop: invalidation worm(s) queued at
    /// the home NIC (and the home router's local port) before the head
    /// flit first acquires an output channel.
    InjectQueue,
    /// → first outbound delivery: head-flit traversal to the nearest
    /// destination.
    HeadTraversal,
    /// → last outbound delivery: remaining destinations consuming the
    /// worm — the serialization the multidestination schemes attack.
    BodySerialization,
    /// → last ack-side injection: destinations processing the
    /// invalidation and sourcing their acknowledgement (consumption
    /// channel and i-ack buffer stalls land here).
    DestStall,
    /// → last home-side ack absorption: acknowledgement return network
    /// time plus home-NIC gather/combining.
    AckReturn,
    /// → close: home-side bookkeeping after the final ack (zero in the
    /// current protocol, which closes in the same cycle).
    HomeClose,
}

impl Phase {
    /// All phases, in attribution order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::InjectQueue,
        Phase::HeadTraversal,
        Phase::BodySerialization,
        Phase::DestStall,
        Phase::AckReturn,
        Phase::HomeClose,
    ];

    /// Index into a `[u64; PHASE_COUNT]` phase array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::InjectQueue => "inject_queue",
            Phase::HeadTraversal => "head_traversal",
            Phase::BodySerialization => "body_serialization",
            Phase::DestStall => "dest_stall",
            Phase::AckReturn => "ack_return",
            Phase::HomeClose => "home_close",
        }
    }

    /// Short label for fixed-width table columns.
    pub fn short(self) -> &'static str {
        match self {
            Phase::InjectQueue => "inject",
            Phase::HeadTraversal => "head",
            Phase::BodySerialization => "body",
            Phase::DestStall => "dest",
            Phase::AckReturn => "ack",
            Phase::HomeClose => "close",
        }
    }
}

/// Per-transaction attribution produced when the transaction closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnRecord {
    /// Transaction id.
    pub txn: u64,
    /// Home node that opened the transaction.
    pub home: u32,
    /// Cycle of the `TxnOpen` event.
    pub opened_at: Cycle,
    /// Cycle of the `TxnClose` event.
    pub closed_at: Cycle,
    /// Latency reported by the `TxnClose` event (== `closed_at -
    /// opened_at`; divergence is counted as a mismatch, never hidden).
    pub latency: u64,
    /// Sharers invalidated.
    pub set_size: u32,
    /// Route hops attributed to this transaction's worms.
    pub hops: u64,
    /// Phase widths, indexed by [`Phase::index`]. Sums to `latency`.
    pub phases: [u64; PHASE_COUNT],
}

impl TxnRecord {
    /// Sum of the phase widths (bit-exactly `latency` when attribution
    /// is consistent; [`TxnProfiler::verify_exact`] checks this).
    pub fn phase_sum(&self) -> u64 {
        self.phases.iter().sum()
    }
}

/// Milestone state for one still-open transaction.
#[derive(Debug, Clone, Copy)]
struct OpenTxn {
    opened_at: Cycle,
    home: u32,
    first_out_route: Option<Cycle>,
    first_out_deliver: Option<Cycle>,
    last_out_deliver: Option<Cycle>,
    last_ack_inject: Option<Cycle>,
    last_ack_at: Option<Cycle>,
    hops: u64,
}

/// Which open transaction a (recycled) worm slot currently belongs to.
#[derive(Debug, Clone, Copy)]
struct WormBind {
    txn: u64,
    outbound: bool,
}

/// Streaming latency-attribution profiler.
///
/// Attach one to a `FlightRecorder` (see
/// [`FlightRecorder::attach_profiler`](crate::trace::FlightRecorder::attach_profiler));
/// it observes every pushed event *before* the ring write, so its
/// attribution does not depend on ring capacity. The profiler is a pure
/// observer: it never feeds back into the simulation, so enabling it
/// cannot perturb results (asserted bit-exactly by `repro` H9 and
/// `tests/full_stack.rs`).
#[derive(Debug, Clone, Default)]
pub struct TxnProfiler {
    open: HashMap<u64, OpenTxn>,
    binds: Vec<Option<WormBind>>,
    records: Vec<TxnRecord>,
    closed: u64,
    latency_total: u64,
    set_size_total: u64,
    hops_total: u64,
    phase_totals: [u64; PHASE_COUNT],
    latency_mismatches: u64,
    unmatched_closes: u64,
    unattributed_hops: u64,
    stall_cycles: u64,
    stalls: u64,
}

impl TxnProfiler {
    /// New profiler. It keeps a [`TxnRecord`] per closed transaction
    /// (for [`verify_exact`](Self::verify_exact) and the Chrome trace)
    /// besides the aggregates.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one flight-recorder event. Called by
    /// `FlightRecorder::push` for every event that passes the level
    /// gate; may also be fed synthetic streams in tests.
    pub fn observe(&mut self, at: Cycle, kind: &TraceKind) {
        match *kind {
            TraceKind::TxnOpen { txn, home, .. } => {
                self.open.insert(
                    txn,
                    OpenTxn {
                        opened_at: at,
                        home,
                        first_out_route: None,
                        first_out_deliver: None,
                        last_out_deliver: None,
                        last_ack_inject: None,
                        last_ack_at: None,
                        hops: 0,
                    },
                );
            }
            TraceKind::WormInject { worm, txn, src, .. } => {
                let w = worm as usize;
                if w >= self.binds.len() {
                    self.binds.resize(w + 1, None);
                }
                // Overwrite unconditionally: worm slots are recycled, and
                // the *latest* injection owns the slot from here on (the
                // streaming analogue of timeline()'s seq-window scoping).
                // Injections with no open owner clear the binding so a
                // recycled slot cannot credit hops to a stale txn.
                match self.open.get_mut(&txn) {
                    Some(t) if txn != 0 => {
                        let outbound = src == t.home;
                        if !outbound {
                            t.last_ack_inject = Some(at.max(t.last_ack_inject.unwrap_or(0)));
                        }
                        self.binds[w] = Some(WormBind { txn, outbound });
                    }
                    _ => self.binds[w] = None,
                }
            }
            TraceKind::WormRoute { worm, .. } => {
                match self.binds.get(worm as usize).copied().flatten() {
                    Some(b) => {
                        if let Some(t) = self.open.get_mut(&b.txn) {
                            t.hops += 1;
                            self.hops_total += 1;
                            if b.outbound && t.first_out_route.is_none() {
                                t.first_out_route = Some(at);
                            }
                        } else {
                            self.unattributed_hops += 1;
                        }
                    }
                    None => self.unattributed_hops += 1,
                }
            }
            TraceKind::WormDeliver { worm, txn, is_final, .. } if txn != 0 => {
                let bind = self.binds.get(worm as usize).copied().flatten();
                if let Some(t) = self.open.get_mut(&txn) {
                    // The delivery event carries the authoritative txn
                    // id; the binding only supplies the direction.
                    let outbound = match bind {
                        Some(b) if b.txn == txn => b.outbound,
                        _ => false,
                    };
                    if outbound {
                        if t.first_out_deliver.is_none() {
                            t.first_out_deliver = Some(at);
                        }
                        t.last_out_deliver = Some(at.max(t.last_out_deliver.unwrap_or(0)));
                    }
                }
                if is_final {
                    if let Some(slot) = self.binds.get_mut(worm as usize) {
                        if slot.is_some_and(|b| b.txn == txn) {
                            *slot = None;
                        }
                    }
                }
            }
            TraceKind::TxnAck { txn, .. } => {
                if let Some(t) = self.open.get_mut(&txn) {
                    t.last_ack_at = Some(at.max(t.last_ack_at.unwrap_or(0)));
                }
            }
            TraceKind::TxnClose { txn, latency, set_size } => {
                self.close(at, txn, latency, set_size);
            }
            TraceKind::StallExit { stalled, .. } => {
                self.stall_cycles += stalled;
                self.stalls += 1;
            }
            _ => {}
        }
    }

    fn close(&mut self, at: Cycle, txn: u64, latency: u64, set_size: u32) {
        let Some(t) = self.open.remove(&txn) else {
            self.unmatched_closes += 1;
            return;
        };
        // Monotone clamp: each milestone lands in [previous, close]; a
        // missing milestone collapses its phase to zero. The widths then
        // telescope to exactly `close - open`.
        let mut phases = [0u64; PHASE_COUNT];
        let mut prev = t.opened_at;
        let milestones = [
            t.first_out_route,
            t.first_out_deliver,
            t.last_out_deliver,
            t.last_ack_inject,
            t.last_ack_at,
        ];
        for (i, m) in milestones.into_iter().enumerate() {
            let m = m.unwrap_or(prev).clamp(prev, at);
            phases[i] = m - prev;
            prev = m;
        }
        phases[PHASE_COUNT - 1] = at - prev;
        if at - t.opened_at != latency {
            self.latency_mismatches += 1;
        }
        self.closed += 1;
        self.latency_total += latency;
        self.set_size_total += u64::from(set_size);
        for (tot, p) in self.phase_totals.iter_mut().zip(phases) {
            *tot += p;
        }
        self.records.push(TxnRecord {
            txn,
            home: t.home,
            opened_at: t.opened_at,
            closed_at: at,
            latency,
            set_size,
            hops: t.hops,
            phases,
        });
    }

    /// Closed (fully attributed) transactions.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Transactions still open (opened, not yet closed).
    pub fn open_txns(&self) -> usize {
        self.open.len()
    }

    /// Sum of reported open→close latencies over closed transactions.
    pub fn latency_total(&self) -> u64 {
        self.latency_total
    }

    /// Sum of invalidated-sharer counts over closed transactions.
    pub fn set_size_total(&self) -> u64 {
        self.set_size_total
    }

    /// Route hops attributed to (any) transaction worms.
    pub fn hops_total(&self) -> u64 {
        self.hops_total
    }

    /// Route hops of worms bound to no open transaction (barriers,
    /// fills, and hops of worms whose owner already closed).
    pub fn unattributed_hops(&self) -> u64 {
        self.unattributed_hops
    }

    /// Per-phase totals over all closed transactions, indexed by
    /// [`Phase::index`]. Sums to [`latency_total`](Self::latency_total)
    /// when no mismatch occurred.
    pub fn phase_totals(&self) -> [u64; PHASE_COUNT] {
        self.phase_totals
    }

    /// Mean width of `phase` in cycles over closed transactions.
    pub fn mean_phase(&self, phase: Phase) -> f64 {
        if self.closed == 0 {
            0.0
        } else {
            self.phase_totals[phase.index()] as f64 / self.closed as f64
        }
    }

    /// Closes whose event-reported latency disagreed with `close - open`
    /// (should be zero; kept as a counter rather than hidden).
    pub fn latency_mismatches(&self) -> u64 {
        self.latency_mismatches
    }

    /// `TxnClose` events with no matching `TxnOpen` (e.g. the profiler
    /// was attached mid-run).
    pub fn unmatched_closes(&self) -> u64 {
        self.unmatched_closes
    }

    /// Total processor stall cycles observed via `StallExit`.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Number of stall episodes observed via `StallExit`.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Per-transaction records, in close order.
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Check the exact-sum invariant: every kept record's phases sum
    /// bit-exactly to its reported latency, and no close-side mismatch
    /// was counted. Aggregate totals are cross-checked too.
    pub fn verify_exact(&self) -> Result<(), String> {
        if self.latency_mismatches != 0 {
            return Err(format!(
                "{} transactions closed with latency != close - open",
                self.latency_mismatches
            ));
        }
        for r in &self.records {
            if r.phase_sum() != r.latency {
                return Err(format!(
                    "txn {}: phases sum to {} but reported latency is {}",
                    r.txn,
                    r.phase_sum(),
                    r.latency
                ));
            }
            if r.closed_at - r.opened_at != r.latency {
                return Err(format!("txn {}: close-open disagrees with latency", r.txn));
            }
        }
        let total: u64 = self.phase_totals.iter().sum();
        if total != self.latency_total {
            return Err(format!(
                "phase totals sum to {total} but latency total is {}",
                self.latency_total
            ));
        }
        Ok(())
    }
}

/// Chrome trace-event ("Trace Event Format") export, loadable in
/// Perfetto / `chrome://tracing`.
///
/// * each closed transaction becomes an **async span** (`ph:"b"`/`"e"`,
///   `pid` = home node, `id` = txn id);
/// * its phases become **complete slices** (`ph:"X"`, one track per
///   transaction) nested under the span;
/// * caller-supplied [`CounterTrack`]s (e.g. per-router link occupancy
///   from the mesh contention probe) become **counter tracks**
///   (`ph:"C"`).
///
/// Timestamps are microseconds; cycles are converted at
/// [`NS_PER_CYCLE`](crate::NS_PER_CYCLE) (5 ns) and written as exact
/// decimal strings (`ns/1000.ns%1000`), so no float rounding occurs.
pub mod chrome_trace {
    use super::{Phase, TxnRecord};
    use crate::json::{self, Layout::Compact, ToJson};
    use crate::{Cycle, NS_PER_CYCLE};
    use std::fmt::Write;

    /// One sample of a counter track.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CounterPoint {
        /// Sample time (start of the accounting window).
        pub at: Cycle,
        /// Flits forwarded (busy link-cycles) in the window.
        pub busy: u64,
        /// Credit-stalled VC-cycles in the window.
        pub stall: u64,
    }

    /// A named counter track (e.g. `"router 5"` occupancy).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CounterTrack {
        /// Track name shown in the trace viewer.
        pub name: String,
        /// Samples, in nondecreasing `at` order.
        pub points: Vec<CounterPoint>,
    }

    /// Exact microsecond timestamp for a cycle count, as a JSON number
    /// (cycles are 5 ns, so three fractional digits suffice).
    struct Ts(Cycle);

    impl ToJson for Ts {
        fn write_json(&self, out: &mut String) {
            let ns = self.0 * NS_PER_CYCLE;
            let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
        }
    }

    /// Render the trace JSON.
    pub fn trace_json(records: &[TxnRecord], counters: &[CounterTrack]) -> String {
        let events = json::arr(Compact, |a| {
            for r in records {
                let (id, pid) = (r.txn, r.home);
                a.item(json::obj(Compact, |e| {
                    e.field("name", "txn").field("cat", "txn").field("ph", "b").field("id", id);
                    e.field("pid", pid).field("tid", id).field("ts", Ts(r.opened_at));
                    e.field("args", json::flat(&[("set_size", &r.set_size), ("hops", &r.hops)]));
                }));
                let mut t = r.opened_at;
                for p in Phase::ALL {
                    let w = r.phases[p.index()];
                    if w > 0 {
                        a.item(json::obj(Compact, |e| {
                            e.field("name", p.name()).field("cat", "phase").field("ph", "X");
                            e.field("pid", pid).field("tid", id).field("ts", Ts(t));
                            e.field("dur", Ts(w));
                        }));
                    }
                    t += w;
                }
                a.item(json::obj(Compact, |e| {
                    e.field("name", "txn").field("cat", "txn").field("ph", "e").field("id", id);
                    e.field("pid", pid).field("tid", id).field("ts", Ts(r.closed_at));
                }));
            }
            for c in counters {
                for p in &c.points {
                    a.item(json::obj(Compact, |e| {
                        e.field("name", &c.name).field("ph", "C").field("pid", 0u32);
                        e.field("tid", 0u32).field("ts", Ts(p.at));
                        e.field("args", json::flat(&[("busy", &p.busy), ("stall", &p.stall)]));
                    }));
                }
            }
        });
        let trace = json::obj(Compact, |o| {
            o.field("displayTimeUnit", "ns").field("traceEvents", &events);
        });
        trace.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::chrome_trace::{trace_json, CounterPoint, CounterTrack};
    use super::*;
    use crate::json::validate_json;

    fn open(p: &mut TxnProfiler, at: Cycle, txn: u64, home: u32) {
        p.observe(at, &TraceKind::TxnOpen { txn, block: 1, home, writer: 9, needed: 1 });
    }

    fn inject(p: &mut TxnProfiler, at: Cycle, worm: u64, txn: u64, src: u32) {
        p.observe(at, &TraceKind::WormInject { worm, txn, src, kind: "inv", dests: 1 });
    }

    fn route(p: &mut TxnProfiler, at: Cycle, worm: u64) {
        p.observe(at, &TraceKind::WormRoute { worm, node: 0, port: 0 });
    }

    fn deliver(p: &mut TxnProfiler, at: Cycle, worm: u64, txn: u64, is_final: bool) {
        p.observe(at, &TraceKind::WormDeliver { worm, txn, node: 3, is_final, latency: 1 });
    }

    fn ack(p: &mut TxnProfiler, at: Cycle, txn: u64) {
        p.observe(at, &TraceKind::TxnAck { txn, count: 1, got: 1, needed: 1 });
    }

    fn close(p: &mut TxnProfiler, at: Cycle, txn: u64, opened: Cycle) {
        p.observe(at, &TraceKind::TxnClose { txn, latency: at - opened, set_size: 1 });
    }

    #[test]
    fn phases_sum_exactly_and_attribute_each_milestone() {
        let mut p = TxnProfiler::new();
        open(&mut p, 100, 7, 0);
        inject(&mut p, 100, 5, 7, 0); // outbound: src == home
        route(&mut p, 104, 5); // inject_queue = 4
        deliver(&mut p, 110, 5, 7, false); // head_traversal = 6
        deliver(&mut p, 118, 5, 7, true); // body_serialization = 8
        inject(&mut p, 121, 6, 7, 3); // ack-side: dest_stall = 3
        ack(&mut p, 130, 7); // ack_return = 9
        close(&mut p, 130, 7, 100); // home_close = 0
        assert_eq!(p.closed(), 1);
        let r = p.records()[0];
        assert_eq!(r.phases, [4, 6, 8, 3, 9, 0]);
        assert_eq!(r.phase_sum(), r.latency);
        assert_eq!(r.hops, 1);
        p.verify_exact().unwrap();
    }

    #[test]
    fn missing_milestones_collapse_to_zero_but_still_sum() {
        // Txn-level stream: no worm events at all.
        let mut p = TxnProfiler::new();
        open(&mut p, 50, 3, 2);
        ack(&mut p, 90, 3);
        close(&mut p, 90, 3, 50);
        let r = p.records()[0];
        assert_eq!(r.phases, [0, 0, 0, 0, 40, 0], "all latency lands in ack_return");
        p.verify_exact().unwrap();
    }

    #[test]
    fn recycled_worm_slots_attribute_hops_to_the_latest_owner() {
        // Satellite 4: worm slot 5 serves txn 7, retires, and is recycled
        // for txn 8 while txn 7 is still open. Hops after the re-inject
        // must credit txn 8, and txn 7's phase milestones must not move.
        let mut p = TxnProfiler::new();
        open(&mut p, 10, 7, 0);
        open(&mut p, 12, 8, 1);
        inject(&mut p, 10, 5, 7, 0);
        route(&mut p, 11, 5);
        route(&mut p, 12, 5);
        route(&mut p, 13, 5);
        deliver(&mut p, 14, 5, 7, true); // retires slot 5 for txn 7
        inject(&mut p, 15, 5, 8, 1); // slot recycled for txn 8 (outbound)
        route(&mut p, 16, 5);
        route(&mut p, 17, 5);
        deliver(&mut p, 18, 5, 8, true);
        ack(&mut p, 20, 8);
        close(&mut p, 20, 8, 12);
        ack(&mut p, 30, 7);
        close(&mut p, 30, 7, 10);
        let r7 = *p.records().iter().find(|r| r.txn == 7).unwrap();
        let r8 = *p.records().iter().find(|r| r.txn == 8).unwrap();
        assert_eq!(r7.hops, 3, "txn 7 keeps only its own hops");
        assert_eq!(r8.hops, 2, "recycled slot's hops go to txn 8");
        // Txn 7's outbound milestones come from its own lifetime (route
        // at 11, deliver at 14) — not from the recycled slot's traffic.
        assert_eq!(r7.phases[Phase::InjectQueue.index()], 1);
        assert_eq!(r7.phases[Phase::BodySerialization.index()], 0);
        assert_eq!(r8.phases[Phase::InjectQueue.index()], 4, "12 → route at 16");
        p.verify_exact().unwrap();
    }

    #[test]
    fn untracked_injections_clear_stale_bindings() {
        // A barrier worm (txn 0) recycling a slot must sever the old
        // binding: its hops are unattributed, not credited to txn 7.
        let mut p = TxnProfiler::new();
        open(&mut p, 10, 7, 0);
        inject(&mut p, 10, 5, 7, 0);
        route(&mut p, 11, 5);
        inject(&mut p, 12, 5, 0, 2); // barrier recycles slot 5
        route(&mut p, 13, 5);
        route(&mut p, 14, 5);
        ack(&mut p, 20, 7);
        close(&mut p, 20, 7, 10);
        let r = p.records()[0];
        assert_eq!(r.hops, 1);
        assert_eq!(p.unattributed_hops(), 2);
        p.verify_exact().unwrap();
    }

    #[test]
    fn out_of_order_milestones_are_clamped_monotonically() {
        // An ack-side inject *before* the last outbound delivery (a fast
        // first destination) must not produce a negative phase.
        let mut p = TxnProfiler::new();
        open(&mut p, 0, 7, 0);
        inject(&mut p, 0, 1, 7, 0);
        route(&mut p, 2, 1);
        deliver(&mut p, 5, 1, 7, false);
        inject(&mut p, 7, 2, 7, 3); // first dest acks early
        deliver(&mut p, 9, 1, 7, true); // last outbound delivery after it
        ack(&mut p, 12, 7);
        close(&mut p, 12, 7, 0);
        let r = p.records()[0];
        assert_eq!(r.phases, [2, 3, 4, 0, 3, 0], "ack inject clamps into the deliver window");
        assert_eq!(r.phase_sum(), 12);
        p.verify_exact().unwrap();
    }

    #[test]
    fn aggregates_match_records_and_mismatch_is_detected() {
        let mut p = TxnProfiler::new();
        open(&mut p, 0, 1, 0);
        close(&mut p, 10, 1, 0);
        open(&mut p, 5, 2, 0);
        close(&mut p, 25, 2, 5);
        assert_eq!(p.latency_total(), 30);
        assert_eq!(p.phase_totals().iter().sum::<u64>(), 30);
        p.verify_exact().unwrap();
        // A close whose reported latency disagrees with close - open.
        open(&mut p, 30, 3, 0);
        p.observe(40, &TraceKind::TxnClose { txn: 3, latency: 99, set_size: 0 });
        assert_eq!(p.latency_mismatches(), 1);
        assert!(p.verify_exact().is_err());
    }

    #[test]
    fn unmatched_close_is_counted_not_crashed() {
        let mut p = TxnProfiler::new();
        p.observe(5, &TraceKind::TxnClose { txn: 42, latency: 5, set_size: 1 });
        assert_eq!(p.unmatched_closes(), 1);
        assert_eq!(p.closed(), 0);
    }

    #[test]
    fn chrome_trace_is_wellformed_and_carries_phases() {
        let mut p = TxnProfiler::new();
        open(&mut p, 100, 7, 2);
        inject(&mut p, 100, 5, 7, 2);
        route(&mut p, 104, 5);
        deliver(&mut p, 110, 5, 7, true);
        ack(&mut p, 120, 7);
        close(&mut p, 120, 7, 100);
        let counters = [CounterTrack {
            name: "router 2".into(),
            points: vec![
                CounterPoint { at: 0, busy: 3, stall: 1 },
                CounterPoint { at: 64, busy: 7, stall: 0 },
            ],
        }];
        let j = trace_json(p.records(), &counters);
        validate_json(&j).unwrap();
        assert!(j.contains("\"displayTimeUnit\":\"ns\""));
        assert!(j.contains("\"ph\":\"b\""));
        assert!(j.contains("\"ph\":\"e\""));
        assert!(j.contains("\"name\":\"inject_queue\""));
        assert!(j.contains("\"ph\":\"C\""));
        // 5 ns cycles → cycle 100 is 0.500 us, written exactly.
        assert!(j.contains("\"ts\":0.500"));
    }

    /// A counter track's name is a run-time string: it is escaped.
    #[test]
    fn counter_track_names_are_escaped() {
        let counters = [CounterTrack {
            name: "router \"5\"\\".into(),
            points: vec![CounterPoint { at: 0, busy: 1, stall: 0 }],
        }];
        let j = trace_json(&[], &counters);
        validate_json(&j).unwrap_or_else(|e| panic!("{j}: {e}"));
        assert!(j.contains(r#""name":"router \"5\"\\""#), "{j}");
    }
}
