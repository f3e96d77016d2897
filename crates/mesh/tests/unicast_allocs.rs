//! A plain unicast costs the heap nothing once the network is warm: the
//! worm table holds it whole in its cold record, with no destination
//! list, and every queue it passes through is already sized.
//!
//! This binary has a counting global allocator of its own, so it holds
//! only this test: the count is taken on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use wormdsm_mesh::network::{MeshConfig, Network};
use wormdsm_mesh::topology::NodeId;
use wormdsm_mesh::worm::{TxnId, Unicast, VNet, WormKind, WormSpec};
use wormdsm_sim::Rng;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each call meets `System`'s contract exactly when the
// caller meets `GlobalAlloc`'s; counting touches only a thread-local
// flag with a const initializer and an atomic, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// `n` seeded unicasts on a `k`x`k` mesh.
fn unicasts(k: u16, n: usize, seed: u64) -> Vec<Unicast> {
    let nodes = u64::from(k * k);
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let src = rng.below(nodes) as u16;
            let dest = (src + 1 + rng.below(nodes - 1) as u16) % (k * k);
            let vnet = if rng.chance(0.5) { VNet::Reply } else { VNet::Req };
            let len = rng.range(2, 12) as u16;
            Unicast {
                src: NodeId(src),
                dest: NodeId(dest),
                vnet,
                len,
                payload: i as u64,
                txn: TxnId(0),
            }
        })
        .collect()
}

/// Inject `batch` (a spec for every other worm) and tick until the network
/// is quiescent, draining deliveries every cycle; returns the deliveries.
fn run(net: &mut Network, batch: &[Unicast]) -> usize {
    for (i, &u) in batch.iter().enumerate() {
        if i % 2 == 0 {
            net.inject(u.spec());
        } else {
            net.inject_unicast(u);
        }
    }
    let mut delivered = 0;
    while !net.quiescent() {
        net.tick();
        while net.next_delivery().is_some() {
            delivered += 1;
        }
    }
    delivered
}

#[test]
fn a_plain_unicast_costs_no_heap_allocation_once_the_network_is_warm() {
    let k: u16 = 4;
    let mut net = Network::new(MeshConfig::paper_defaults(k.into()));
    // Warm up with as many worms in flight at once as the measured round
    // injects, so the worm table and the delivery queue reach their
    // working size.
    let warm = unicasts(k, 600, 0x0A11_0C05);
    assert_eq!(run(&mut net, &warm), warm.len());

    // Each of these goes in twice, once as a spec and once compact.
    // Building the specs allocates; injecting and running them must not.
    let batch = unicasts(k, 300, 0x0A11_0C06);
    let specs: Vec<WormSpec> = batch.iter().map(|u| u.spec()).collect();
    let mut delivered = 0;
    let n = allocations(|| {
        for (s, &u) in specs.into_iter().zip(&batch) {
            net.inject(s);
            net.inject_unicast(u);
        }
        while !net.quiescent() {
            net.tick();
            while net.next_delivery().is_some() {
                delivered += 1;
            }
        }
    });
    assert_eq!(delivered, 2 * batch.len());
    assert_eq!(n, 0, "{n} heap allocations for {delivered} plain unicasts");

    // The count is live: a multicast keeps its destination list in a
    // route of its own, the one allocation its injection makes (debug
    // builds included, where the injection also checks the path is
    // conformant without building it).
    let multi = WormSpec {
        kind: WormKind::Multicast,
        dests: vec![NodeId(1), NodeId(2)],
        ..WormSpec::unicast(NodeId(0), NodeId(2), VNet::Req, 4, 0)
    };
    let n = allocations(|| {
        net.inject(multi);
    });
    assert_eq!(n, 1, "a multicast's route, and nothing else, is counted");
}
