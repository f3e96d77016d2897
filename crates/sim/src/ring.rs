//! Bounded drop-oldest ring.
//!
//! The experiment-farm service streams simulator telemetry to an unknown
//! number of HTTP subscribers, and the one invariant that protects
//! determinism is: *a slow consumer must never exert backpressure on the
//! simulation thread*. [`BoundedRing`] is the building block that makes
//! that invariant structural — `push` always succeeds in O(1), evicting
//! the oldest element when full and counting the loss, so the producer's
//! timing is independent of how fast (or whether) anyone drains.
//!
//! The farm uses it as a queue ([`BoundedRing::drain`] hands each element
//! out once); the [`FlightRecorder`](crate::trace::FlightRecorder) keeps
//! its events in one and reads them in place ([`BoundedRing::iter`]).

use std::collections::VecDeque;

/// Fixed-capacity FIFO that drops its oldest element on overflow.
///
/// Every drop is counted; [`BoundedRing::take_dropped`] hands the count
/// to the consumer so silent loss can be surfaced (the farm's SSE layer
/// emits a `dropped` notice before the next event batch).
#[derive(Debug, Clone)]
pub struct BoundedRing<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> BoundedRing<T> {
    /// Ring holding at most `capacity` elements (min 1). The storage is
    /// allocated on the first push, so an unused ring costs no memory.
    pub fn new(capacity: usize) -> Self {
        Self { buf: VecDeque::new(), capacity: capacity.max(1), dropped: 0 }
    }

    /// Append `v`, evicting the oldest element if the ring is full.
    /// Never fails, never blocks, and allocates only on the first push.
    pub fn push(&mut self, v: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        } else if self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.capacity);
        }
        self.buf.push_back(v);
    }

    /// Remove and return every held element, oldest first.
    pub fn drain(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }

    /// Iterate the held elements, oldest first, without removing them.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Discard every held element and reset the drop count.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }

    /// Elements currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum elements held before eviction starts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime count of evicted elements.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Return the drop count accumulated since the last call and reset
    /// it — the "you missed N events" notice for a draining consumer.
    pub fn take_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.dropped)
    }

    /// Elements the storage has room for without reallocating: zero
    /// until the first push.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let mut r = BoundedRing::new(4);
        for i in 0..4 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.drain(), vec![0, 1, 2, 3]);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut r = BoundedRing::new(3);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.len(), 3, "never exceeds capacity");
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.drain(), vec![7, 8, 9], "newest survive, oldest evicted");
        assert_eq!(r.take_dropped(), 7);
        assert_eq!(r.dropped(), 0, "take_dropped resets");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = BoundedRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.push("a");
        r.push("b");
        assert_eq!(r.drain(), vec!["b"]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn allocates_on_first_push_and_iterates_in_place() {
        let mut r = BoundedRing::new(3);
        assert_eq!(r.allocated(), 0, "no storage before the first push");
        for i in 0..5 {
            r.push(i);
        }
        assert!(r.allocated() >= 3);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.len(), 3, "iterating removes nothing");
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0, "clear resets the drop count");
        r.push(9);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn drain_then_refill_keeps_counting() {
        let mut r = BoundedRing::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // drops 1
        assert_eq!(r.drain(), vec![2, 3]);
        r.push(4);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1, "drop count survives drain until taken");
    }
}
