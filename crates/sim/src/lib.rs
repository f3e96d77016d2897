//! # wormdsm-sim — deterministic simulation kernel
//!
//! A small, dependency-free discrete-event / cycle-level simulation kernel.
//! It plays the role CSIM played for the original paper: a clock, an event
//! calendar, deterministic pseudo-randomness, and statistics collection
//! (counters, histograms, busy-time utilization) used by every other
//! crate in the workspace.
//!
//! Design goals:
//!
//! * **Determinism.** Two runs with the same inputs produce bit-identical
//!   results. Event ordering ties are broken by insertion sequence number;
//!   all randomness flows from a seeded [`Rng`].
//! * **Cycle-level.** The network model advances in fixed 5 ns cycles
//!   ([`NS_PER_CYCLE`]); node-level activity uses the event calendar. Both
//!   share the same `Cycle` timebase.
//! * **Zero deps, no unsafe.** The kernel is plain safe Rust.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod calendar;
pub mod flat;
pub mod heap;
pub mod json;
pub mod lists;
pub mod profile;
pub mod ring;
pub mod rng;
pub mod slab;
pub mod snap;
pub mod stats;
pub mod trace;

pub use bitset::BitSet128;
pub use calendar::Calendar;
pub use flat::FlatMap;
pub use json::ToJson;
pub use lists::NodeLists;
pub use profile::{Phase, TxnProfiler, TxnRecord};
pub use ring::BoundedRing;
pub use rng::Rng;
pub use slab::Strided;
pub use snap::{fnv64, Fnv64, Snap, SnapError, SnapReader, SnapWriter};
pub use stats::{Histogram, Metric, Registry, Summary};
pub use trace::{
    EventTap, FlightRecorder, InvariantViolation, TraceClass, TraceEvent, TraceKind, TraceLevel,
};

/// Simulated time, measured in network cycles.
///
/// One cycle is [`NS_PER_CYCLE`] nanoseconds (5 ns), matching the paper's
/// convention of reporting latencies "in 5ns cycles".
pub type Cycle = u64;

/// Nanoseconds per simulated network cycle.
pub const NS_PER_CYCLE: u64 = 5;

/// The latest cycle a restored clock may name. No run comes near it
/// (2^62 cycles of 5 ns is over 700 years), and every delay or cost a
/// configuration may set is at most `u32::MAX` cycles, so a restored
/// state whose clocks are all below it can step on without overflowing
/// one. Snapshot loaders refuse a clock past it.
pub const MAX_CLOCK: Cycle = 1 << 62;

/// The most a statistics counter can have counted by cycle `now` in a
/// system of `nodes` nodes: 2^16 events a node a cycle. No counter comes
/// near it (a node moves at most one flit per port, virtual channel and
/// consumption channel a cycle, and handles far fewer messages), so a
/// restored counter past it is corrupt, and refusing it keeps a resumed
/// run from overflowing the counter.
pub fn counter_limit(now: Cycle, nodes: usize) -> u64 {
    now.saturating_add(1).saturating_mul(nodes as u64).saturating_mul(1 << 16)
}

/// Watchdog that detects lack of forward progress (e.g. a deadlocked
/// network or a protocol that lost a message).
///
/// The caller reports progress events; [`Watchdog::check`] returns an error
/// once `limit` cycles elapse with no progress.
#[derive(Debug, Clone)]
pub struct Watchdog {
    last_progress: Cycle,
    limit: Cycle,
}

impl Watchdog {
    /// Create a watchdog that trips after `limit` progress-free cycles.
    pub fn new(limit: Cycle) -> Self {
        Self { last_progress: 0, limit }
    }

    /// Record that useful work happened at time `now`.
    pub fn progress(&mut self, now: Cycle) {
        self.last_progress = now;
    }

    /// Returns `Err` with a diagnostic if no progress has been recorded in
    /// the last `limit` cycles.
    pub fn check(&self, now: Cycle) -> Result<(), NoProgress> {
        if now.saturating_sub(self.last_progress) > self.limit {
            Err(NoProgress { since: self.last_progress, now, limit: self.limit })
        } else {
            Ok(())
        }
    }
}

/// Error produced by [`Watchdog::check`] when the simulation stalls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoProgress {
    /// Last cycle at which progress was observed.
    pub since: Cycle,
    /// Cycle at which the watchdog tripped.
    pub now: Cycle,
    /// Configured progress-free limit.
    pub limit: Cycle,
}

impl core::fmt::Display for NoProgress {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "no simulation progress for {} cycles (last progress at {}, now {})",
            self.now - self.since,
            self.since,
            self.now
        )
    }
}

impl std::error::Error for NoProgress {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_trips_only_after_limit() {
        let mut w = Watchdog::new(100);
        w.progress(50);
        assert!(w.check(149).is_ok());
        assert!(w.check(150).is_ok());
        let err = w.check(151).unwrap_err();
        assert_eq!(err.since, 50);
        assert_eq!(err.limit, 100);
        w.progress(151);
        assert!(w.check(251).is_ok());
    }

    #[test]
    fn no_progress_displays_diagnostics() {
        let e = NoProgress { since: 10, now: 200, limit: 100 };
        let s = e.to_string();
        assert!(s.contains("190 cycles"));
        assert!(s.contains("last progress at 10"));
    }
}
