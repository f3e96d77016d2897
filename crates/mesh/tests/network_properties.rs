//! Randomized property tests on the network engine: conservation laws,
//! delivery completeness, credit restoration, and deterministic replay
//! under arbitrary traffic.
//!
//! Traffic batches are generated from the workspace's deterministic
//! [`Rng`] with fixed seeds, so every run exercises the same cases.

use wormdsm_mesh::network::{MeshConfig, Network};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_mesh::worm::{TxnId, VNet, WormKind, WormSpec};
use wormdsm_sim::Rng;

/// A batch of random unicasts on a k x k mesh: (src, dst, len, reply).
fn unicast_batch(rng: &mut Rng) -> (usize, Vec<(u16, u16, u16, bool)>) {
    let k = rng.range(4, 8) as usize;
    let n = (k * k) as u16;
    let count = rng.range(1, 39) as usize;
    let batch = (0..count)
        .map(|_| {
            (
                rng.below(n as u64) as u16,
                rng.below(n as u64) as u16,
                rng.range(4, 40) as u16,
                rng.chance(0.5),
            )
        })
        .collect();
    (k, batch)
}

#[test]
fn every_unicast_is_delivered_exactly_once() {
    let mut rng = Rng::new(0x0E57_0001);
    for _ in 0..64 {
        let (k, batch) = unicast_batch(&mut rng);
        let mut net = Network::new(MeshConfig::paper_defaults(k));
        let mut expected = vec![0usize; k * k];
        let mut injected_flits = 0u64;
        for (src, dst, len, reply) in &batch {
            if src == dst {
                continue;
            }
            let vnet = if *reply { VNet::Reply } else { VNet::Req };
            net.inject(WormSpec::unicast(NodeId(*src), NodeId(*dst), vnet, *len, 0));
            expected[*dst as usize] += 1;
            injected_flits += *len as u64;
        }
        net.run_until_quiescent(1_000_000).expect("quiesces");
        // Delivery completeness.
        for (i, want) in expected.iter().enumerate() {
            let got = net.take_deliveries(NodeId(i as u16)).len();
            assert_eq!(got, *want, "node {i}");
        }
        // Flit conservation: everything injected was consumed.
        assert_eq!(net.stats().flits_injected, injected_flits);
        assert_eq!(net.stats().flits_consumed, injected_flits);
    }
}

#[test]
fn deterministic_replay_arbitrary_batch() {
    let mut rng = Rng::new(0x0E57_0002);
    for _ in 0..32 {
        let (k, batch) = unicast_batch(&mut rng);
        let run = || {
            let mut net = Network::new(MeshConfig::paper_defaults(k));
            for (src, dst, len, reply) in &batch {
                if src == dst {
                    continue;
                }
                let vnet = if *reply { VNet::Reply } else { VNet::Req };
                net.inject(WormSpec::unicast(NodeId(*src), NodeId(*dst), vnet, *len, 0));
            }
            net.run_until_quiescent(1_000_000).expect("quiesces");
            (net.now(), net.stats().flit_hops, net.stats().unicast_latency.mean())
        };
        assert_eq!(run(), run());
    }
}

#[test]
fn column_multicasts_deliver_to_every_destination() {
    let mut rng = Rng::new(0x0E57_0003);
    for _ in 0..64 {
        let k = rng.range(5, 8) as usize;
        let col = rng.index(5);
        let row_count = rng.range(1, 4) as usize;
        let mut rows: Vec<usize> = rng.sample_distinct(5, row_count);
        rows.sort_unstable();
        let src_x = rng.index(5);
        let reserve = rng.chance(0.5);

        let mesh = Mesh2D::square(k);
        // Source on row 0; destinations down one column, monotone south,
        // excluding the source position.
        let src = mesh.node_at(src_x, 0);
        let dests: Vec<NodeId> =
            rows.iter().map(|&r| mesh.node_at(col, r + (k - 5))).filter(|&d| d != src).collect();
        if dests.is_empty() {
            continue;
        }
        let mut net = Network::new(MeshConfig::paper_defaults(k));
        net.inject(WormSpec {
            src,
            vnet: VNet::Req,
            kind: WormKind::Multicast,
            dests: dests.clone(),
            len_flits: 8,
            payload: 9,
            reserve_iack: reserve,
            txn: TxnId(3),
            initial_acks: 0,
            gather_deposit: false,
            deliver: None,
        });
        net.run_until_quiescent(1_000_000).expect("quiesces");
        for d in &dests {
            assert_eq!(net.take_deliveries(*d).len(), 1, "at {d}");
        }
        // Absorb copies + final consumption all drained.
        assert_eq!(net.stats().flits_consumed, dests.len() as u64 * 8);
    }
}

#[test]
fn reserve_post_gather_roundtrip() {
    let mut rng = Rng::new(0x0E57_0004);
    for _ in 0..64 {
        let k = rng.range(5, 8) as usize;
        let row_count = rng.range(2, 4) as usize;
        let mut rows: Vec<usize> =
            rng.sample_distinct(4, row_count).into_iter().map(|r| r + 1).collect();
        rows.sort_unstable();

        let mesh = Mesh2D::square(k);
        let home = mesh.node_at(0, 0);
        let col = 3;
        let dests: Vec<NodeId> = rows.iter().map(|&r| mesh.node_at(col, r)).collect();
        let txn = TxnId(77);
        let mut net = Network::new(MeshConfig::paper_defaults(k));
        net.inject(WormSpec {
            src: home,
            vnet: VNet::Req,
            kind: WormKind::Multicast,
            dests: dests.clone(),
            len_flits: 8,
            payload: 1,
            reserve_iack: true,
            txn,
            initial_acks: 0,
            gather_deposit: false,
            deliver: None,
        });
        net.run_until_quiescent(1_000_000).expect("multicast done");
        // Post at every intermediate destination (all but the last).
        for d in &dests[..dests.len() - 1] {
            assert!(net.post_iack(*d, txn));
        }
        // Gather retraces the group and ends at home.
        let mut gd: Vec<NodeId> = dests.iter().rev().skip(1).copied().collect();
        gd.push(home);
        let initiator = *dests.last().expect("non-empty");
        net.inject(WormSpec {
            src: initiator,
            vnet: VNet::Reply,
            kind: WormKind::Gather,
            dests: gd,
            len_flits: 6,
            payload: 2,
            reserve_iack: false,
            txn,
            initial_acks: 1,
            gather_deposit: false,
            deliver: None,
        });
        net.run_until_quiescent(1_000_000).expect("gather done");
        let ds = net.take_deliveries(home);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].acks as usize, dests.len(), "one ack per sharer");
    }
}

/// Saturating northbound unicast storm with cross traffic: back-to-back
/// worms climb the same two columns, so followers routinely stall on a
/// credit the worm ahead frees in the same cycle, and eastbound Req worms
/// *turn north* into those columns, contending with the climbers for the
/// north outputs. Under that credit back-pressure every worm must still
/// be delivered, with no invariant violation.
#[test]
fn north_storm_under_credit_backpressure_delivers_every_worm() {
    let k = 8;
    let mesh = Mesh2D::square(k);
    let mut net = Network::new(MeshConfig::paper_defaults(k));
    let mut rng = Rng::new(0x0E57_0022);
    let mut expected = 0usize;
    for i in 0..240u64 {
        let x = 2 + rng.index(2); // two columns -> deep credit back-pressure
        let src = mesh.node_at(x, rng.range(4, 7) as usize);
        let dst = mesh.node_at(x, rng.index(4));
        let vnet = if rng.chance(0.5) { VNet::Reply } else { VNet::Req };
        net.inject(WormSpec::unicast(src, dst, vnet, rng.range(4, 12) as u16, i));
        expected += 1;
    }
    for i in 0..160u64 {
        let x = 2 + rng.index(2); // merge into a stream column...
        let y = 1 + rng.index(6); // ...turning north at this row (XY)
        let src = mesh.node_at(rng.index(2), y);
        let dst = mesh.node_at(x, rng.index(y));
        net.inject(WormSpec::unicast(src, dst, VNet::Req, rng.range(4, 12) as u16, 240 + i));
        expected += 1;
    }
    net.run_until_quiescent(2_000_000).expect("storm quiesces");
    assert!(net.violation().is_none(), "{:?}", net.violation());
    let delivered: usize = (0..k * k).map(|n| net.take_deliveries(NodeId(n as u16)).len()).sum();
    assert_eq!(delivered, expected);
}
