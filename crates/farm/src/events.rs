//! Non-blocking telemetry fan-out: the bridge between the simulation
//! threads and an unknown number of SSE subscribers.
//!
//! The determinism-protecting invariant lives here: **publishing never
//! waits on a consumer**. Each subscriber owns a
//! [`BoundedRing`] of pre-rendered SSE frames;
//! `publish` pushes into every ring in O(1) (drop-oldest on overflow)
//! and signals a condvar. A stalled or dead subscriber therefore costs
//! the simulation a bounded, tiny amount of work per event — never a
//! stall — and learns about its losses through a `dropped` frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use wormdsm_sim::BoundedRing;

struct Sub {
    ring: Mutex<BoundedRing<String>>,
    cv: Condvar,
    id: u64,
}

/// Broadcast hub for server-sent-event frames.
#[derive(Default)]
pub struct EventBus {
    subs: Mutex<Vec<Arc<Sub>>>,
    next_id: AtomicU64,
    published: AtomicU64,
}

impl EventBus {
    /// Empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render and broadcast one SSE frame (`event: kind` + `data:`
    /// payload). Never blocks beyond each subscriber's ring lock, which
    /// is only ever held for O(1) pushes and drains.
    pub fn publish(&self, kind: &str, data: &str) {
        self.published.fetch_add(1, Ordering::Relaxed);
        let frame = format!("event: {kind}\ndata: {data}\n\n");
        let subs = self.subs.lock().expect("subscriber list");
        for sub in subs.iter() {
            sub.ring.lock().expect("subscriber ring").push(frame.clone());
            sub.cv.notify_one();
        }
    }

    /// Register a subscriber whose ring holds `capacity` frames.
    pub fn subscribe(self: &Arc<Self>, capacity: usize) -> Subscription {
        let sub = Arc::new(Sub {
            ring: Mutex::new(BoundedRing::new(capacity)),
            cv: Condvar::new(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
        });
        self.subs.lock().expect("subscriber list").push(sub.clone());
        Subscription { bus: self.clone(), sub }
    }

    /// Current subscriber count.
    pub fn subscribers(&self) -> usize {
        self.subs.lock().expect("subscriber list").len()
    }

    /// Lifetime count of frames published.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("subscribers", &self.subscribers())
            .field("published", &self.published())
            .finish()
    }
}

/// One subscriber's handle; deregisters on drop.
pub struct Subscription {
    bus: Arc<EventBus>,
    sub: Arc<Sub>,
}

impl Subscription {
    /// Wait up to `timeout` for frames, then drain: returns the queued
    /// frames (oldest first) and the number of frames this subscriber
    /// lost to ring overflow since the previous drain. An empty vec
    /// means the timeout elapsed quietly (SSE keep-alive time).
    pub fn drain(&self, timeout: Duration) -> (Vec<String>, u64) {
        let mut ring = self.sub.ring.lock().expect("subscriber ring");
        if ring.is_empty() {
            let (guard, _) = self.sub.cv.wait_timeout(ring, timeout).expect("subscriber ring");
            ring = guard;
        }
        (ring.drain(), ring.take_dropped())
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut subs = self.bus.subs.lock().expect("subscriber list");
        subs.retain(|s| s.id != self.sub.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_fan_out_to_every_subscriber() {
        let bus = Arc::new(EventBus::new());
        let a = bus.subscribe(8);
        let b = bus.subscribe(8);
        bus.publish("txn", "{\"x\":1}");
        bus.publish("progress", "{\"y\":2}");
        for sub in [&a, &b] {
            let (frames, dropped) = sub.drain(Duration::from_millis(10));
            assert_eq!(dropped, 0);
            assert_eq!(frames.len(), 2);
            assert_eq!(frames[0], "event: txn\ndata: {\"x\":1}\n\n");
            assert!(frames[1].starts_with("event: progress\n"));
        }
        assert_eq!(bus.published(), 2);
    }

    #[test]
    fn slow_subscriber_drops_oldest_and_learns_the_count() {
        let bus = Arc::new(EventBus::new());
        let slow = bus.subscribe(2);
        for i in 0..7 {
            bus.publish("txn", &format!("{i}"));
        }
        let (frames, dropped) = slow.drain(Duration::from_millis(1));
        assert_eq!(frames.len(), 2, "ring bounded the backlog");
        assert_eq!(dropped, 5, "losses surfaced, not silent");
        assert_eq!(frames[0], "event: txn\ndata: 5\n\n", "newest survive");
        // Next drain starts a fresh loss count.
        bus.publish("txn", "fresh");
        let (frames, dropped) = slow.drain(Duration::from_millis(10));
        assert_eq!((frames.len(), dropped), (1, 0));
    }

    #[test]
    fn drop_deregisters_and_wakes_on_publish() {
        let bus = Arc::new(EventBus::new());
        let sub = bus.subscribe(4);
        assert_eq!(bus.subscribers(), 1);
        // A publish from another thread wakes a parked drain well before
        // its timeout.
        let bus2 = bus.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            bus2.publish("txn", "wake");
        });
        let (frames, _) = sub.drain(Duration::from_secs(5));
        assert_eq!(frames.len(), 1);
        t.join().unwrap();
        drop(sub);
        assert_eq!(bus.subscribers(), 0, "drop deregistered");
        bus.publish("txn", "nobody listening");
        assert_eq!(bus.published(), 2);
    }
}
