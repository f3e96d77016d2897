//! Drive the raw wormhole network: inject an i-reserve multicast worm and
//! an i-gather worm by hand and watch the BRCP machinery work — header
//! stripping, forward-and-absorb, i-ack posting, gather collection and
//! virtual-cut-through parking.
//!
//! Run with: `cargo run --release --example worm_playground`

use wormdsm::mesh::network::{MeshConfig, Network};
use wormdsm::mesh::topology::Mesh2D;
use wormdsm::mesh::worm::{TxnId, VNet, WormKind, WormSpec};

fn main() {
    let k = 8;
    let mut net = Network::new(MeshConfig::paper_defaults(k));
    let mesh = Mesh2D::square(k);
    let home = mesh.node_at(0, 0);
    let s1 = mesh.node_at(3, 2);
    let s2 = mesh.node_at(3, 4);
    let s3 = mesh.node_at(3, 6);
    let txn = TxnId(42);

    println!("Step 1: home (0,0) injects an i-reserve multicast worm covering");
    println!("        column-3 sharers (3,2) -> (3,4) -> (3,6).\n");
    net.inject(WormSpec {
        src: home,
        vnet: VNet::Req,
        kind: WormKind::Multicast,
        dests: vec![s1, s2, s3],
        len_flits: 9,
        payload: 1,
        reserve_iack: true,
        txn,
        initial_acks: 0,
        gather_deposit: false,
        deliver: None,
    });
    net.run_until_quiescent(100_000).expect("multicast delivers");
    for s in [s1, s2, s3] {
        for d in net.take_deliveries(s) {
            println!("  {s} received the invalidation (cycle {})", d.at);
        }
    }

    println!("\nStep 2: (3,6) initiates the i-gather before the other acks are");
    println!("        posted; the worm parks at (3,4) (VCT deferred delivery).\n");
    net.inject(WormSpec {
        src: s3,
        vnet: VNet::Reply,
        kind: WormKind::Gather,
        dests: vec![s2, s1, home],
        len_flits: 6,
        payload: 2,
        reserve_iack: false,
        txn,
        initial_acks: 1,
        gather_deposit: false,
        deliver: None,
    });
    for _ in 0..300 {
        net.tick();
    }
    println!("  parks so far: {}", net.stats().parks);

    println!("\nStep 3: the sharers post their i-acks; the parked worm resumes,");
    println!("        collects, and delivers ONE combined ack at the home.\n");
    net.post_iack(s2, txn);
    net.post_iack(s1, txn);
    net.run_until_quiescent(100_000).expect("gather completes");
    for d in net.take_deliveries(home) {
        println!("  home received gather with {} acks at cycle {}", d.acks, d.at);
    }
    println!("\n  resumes: {}, total flit-hops: {}", net.stats().resumes, net.stats().flit_hops);
}
