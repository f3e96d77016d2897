//! Deterministic event calendar.
//!
//! A min-heap keyed by `(time, sequence)` so that events scheduled for the
//! same cycle fire in insertion order — the property that makes whole-system
//! runs reproducible regardless of heap internals.

use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Event calendar: schedule payloads at future cycles, pop them in
/// deterministic `(time, insertion-order)` order.
///
/// Schedule and pop are pure heap operations plus a counter — the hot loop
/// pays no hashing.
#[derive(Debug)]
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `payload` to fire at absolute cycle `at`.
    pub fn schedule(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, payload }));
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Capture the calendar into a snapshot stream.
    ///
    /// Entries are emitted sorted by `(at, seq)` — the exact order they
    /// will pop in — so a loaded calendar's pop sequence is identical to
    /// the original's no matter how either heap happens to be arranged
    /// internally. `next_seq` is preserved (not compacted) so events
    /// scheduled after a restore tie-break exactly like they would have
    /// in the uninterrupted run.
    pub fn save(&self, w: &mut crate::snap::SnapWriter)
    where
        E: crate::snap::Snap,
    {
        w.put_u64(self.next_seq);
        let mut live: Vec<&Entry<E>> = self.heap.iter().map(|Reverse(e)| e).collect();
        live.sort_by_key(|e| (e.at, e.seq));
        w.put_usize(live.len());
        for e in live {
            w.put_u64(e.at);
            w.put_u64(e.seq);
            e.payload.save(w);
        }
    }

    /// Rebuild a calendar from a snapshot stream (see [`Calendar::save`]).
    pub fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError>
    where
        E: crate::snap::Snap,
    {
        let next_seq = r.get_u64()?;
        let n = r.get_len()?;
        let mut cal = Self::new();
        cal.next_seq = next_seq;
        for _ in 0..n {
            let at = r.get_u64()?;
            let seq = r.get_u64()?;
            if seq >= next_seq {
                return Err(crate::snap::SnapError::Corrupt(format!(
                    "calendar entry seq {seq} >= next_seq {next_seq}"
                )));
            }
            let payload = E::load(r)?;
            cal.heap.push(Reverse(Entry { at, seq, payload }));
        }
        Ok(cal)
    }

    /// Pop the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, E)> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.at <= now) {
            let Reverse(e) = self.heap.pop().expect("peeked");
            Some((e.at, e.payload))
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut c = Calendar::new();
        c.schedule(30, "c");
        c.schedule(10, "a");
        c.schedule(20, "b");
        assert_eq!(c.peek_next_at(), Some(10));
        assert_eq!(c.pop_due(Cycle::MAX), Some((10, "a")));
        assert_eq!(c.pop_due(Cycle::MAX), Some((20, "b")));
        assert_eq!(c.pop_due(Cycle::MAX), Some((30, "c")));
        assert_eq!(c.pop_due(Cycle::MAX), None);
        assert_eq!(c.peek_next_at(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut c = Calendar::new();
        for i in 0..100 {
            c.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(c.pop_due(7), Some((7, i)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut c = Calendar::new();
        c.schedule(5, 'x');
        c.schedule(10, 'y');
        assert_eq!(c.pop_due(4), None);
        assert_eq!(c.pop_due(5), Some((5, 'x')));
        assert_eq!(c.pop_due(5), None);
        assert_eq!(c.pop_due(100), Some((10, 'y')));
    }

    /// `len`/`is_empty` must agree with a naive recount under interleaved
    /// schedule/pop traffic.
    #[test]
    fn live_count_tracks_heap_contents() {
        let mut c = Calendar::new();
        c.schedule(10, 'a');
        c.schedule(20, 'b');
        assert_eq!(c.len(), 2);
        assert_eq!(c.pop_due(10), Some((10, 'a')));
        assert_eq!(c.len(), 1);
        c.schedule(15, 'c');
        assert_eq!(c.len(), 2);
        assert_eq!(c.pop_due(20), Some((15, 'c')));
        assert_eq!(c.pop_due(20), Some((20, 'b')));
        assert!(c.is_empty());
    }
}
