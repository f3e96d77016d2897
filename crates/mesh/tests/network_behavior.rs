//! Integration tests for the wormhole network engine: delivery semantics,
//! multidestination mechanics, parking, contention, and determinism.

use wormdsm_mesh::network::{MeshConfig, Network};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_mesh::worm::{TxnId, VNet, WormId, WormKind, WormSpec};
use wormdsm_mesh::{BaseRouting, IackMode};
use wormdsm_sim::Cycle;

fn cfg(k: usize) -> MeshConfig {
    MeshConfig::paper_defaults(k)
}

fn multicast(src: NodeId, dests: Vec<NodeId>, reserve: bool, txn: u64) -> WormSpec {
    WormSpec {
        src,
        vnet: VNet::Req,
        kind: WormKind::Multicast,
        dests,
        len_flits: 8,
        payload: 0xBEEF,
        reserve_iack: reserve,
        txn: TxnId(txn),
        initial_acks: 0,
        gather_deposit: false,
        deliver: None,
    }
}

/// Take the delivery log at `dst`: each delivered worm with its latency,
/// the cycle its tail drained minus the cycle it was handed to the NIC.
fn latencies(net: &mut Network, dst: NodeId) -> Vec<(WormId, Cycle)> {
    let ds = net.take_deliveries(dst);
    assert!(ds.iter().all(|d| d.node == dst), "a delivery logged at {dst} names another node");
    ds.iter().map(|d| (d.worm, d.at - net.worm(d.worm).queued_at)).collect()
}

/// Take the delivery log at each of `dests`: each must hold exactly one
/// delivery, of worm `id` carrying `payload`; return the cycles they drained.
fn one_delivery_each(net: &mut Network, id: WormId, payload: u64, dests: &[NodeId]) -> Vec<Cycle> {
    dests
        .iter()
        .map(|&n| {
            let ds = net.take_deliveries(n);
            assert_eq!(ds.len(), 1, "{n} got {} deliveries", ds.len());
            assert_eq!((ds[0].worm, ds[0].node), (id, n), "at {n}");
            assert_eq!(ds[0].payload, payload, "at {n}");
            ds[0].at
        })
        .collect()
}

fn gather(src: NodeId, dests: Vec<NodeId>, txn: u64, initial: u32) -> WormSpec {
    WormSpec {
        src,
        vnet: VNet::Reply,
        kind: WormKind::Gather,
        dests,
        len_flits: 4,
        payload: 0xACC,
        reserve_iack: false,
        txn: TxnId(txn),
        initial_acks: initial,
        gather_deposit: false,
        deliver: None,
    }
}

#[test]
fn unicast_delivers_with_plausible_latency() {
    let mut net = Network::new(cfg(4));
    let m = Mesh2D::square(4);
    let src = m.node_at(0, 0);
    let dst = m.node_at(2, 1);
    let id = net.inject(WormSpec::unicast(src, dst, VNet::Req, 8, 42));
    let end = net.run_until_quiescent(10_000).expect("quiesces");
    let ds = net.take_deliveries(dst);
    assert_eq!(ds.len(), 1);
    assert_eq!((ds[0].worm, ds[0].node, ds[0].src, ds[0].payload), (id, dst, src, 42));
    let lat = ds[0].at - net.worm(id).queued_at;
    // 3 hops * 4-cycle router delay + 8 flits + injection/drain overheads:
    // must be more than the pure pipeline and far less than a congested
    // bound.
    assert!(lat >= 3 * 4 + 8, "latency {lat} too small");
    assert!(lat <= 60, "latency {lat} too large for an idle 4x4 mesh");
    assert!(end >= lat);
}

#[test]
fn unicast_flit_hops_equals_distance_times_length() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let src = m.node_at(1, 1);
    let dst = m.node_at(5, 6);
    net.inject(WormSpec::unicast(src, dst, VNet::Req, 10, 0));
    net.run_until_quiescent(10_000).unwrap();
    // 4 + 5 = 9 hops, 10 flits each.
    assert_eq!(net.stats().flit_hops, 9 * 10);
    assert_eq!(net.stats().flits_injected, 10);
    assert_eq!(net.stats().flits_consumed, 10);
}

#[test]
fn reply_vnet_uses_yx_routing() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let src = m.node_at(1, 1);
    let dst = m.node_at(5, 6);
    net.inject(WormSpec::unicast(src, dst, VNet::Reply, 6, 0));
    net.run_until_quiescent(10_000).unwrap();
    // Same Manhattan distance either way; just verify delivery and traffic.
    assert_eq!(net.stats().flit_hops, 9 * 6);
    assert_eq!(net.take_deliveries(dst).len(), 1);
}

#[test]
fn multicast_absorbs_at_intermediate_and_consumes_at_final() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let src = m.node_at(0, 3);
    let d1 = m.node_at(3, 3);
    let d2 = m.node_at(5, 3);
    let d3 = m.node_at(7, 3);
    let id = net.inject(multicast(src, vec![d1, d2, d3], false, 1));
    let end = net.run_until_quiescent(10_000).unwrap();
    // The copies absorbed on the way drain before the final consumption,
    // which is the last thing the network does.
    let at = one_delivery_each(&mut net, id, 0xBEEF, &[d1, d2, d3]);
    assert!(at[0] < at[1] && at[1] < at[2] && at[2] == end, "{at:?}, quiescent at {end}");
    // One worm, 7 hops, 8 flits on links; plus 2 absorb copies + 1 final
    // consumption (8 flits each) consumed.
    assert_eq!(net.stats().flit_hops, 7 * 8);
    assert_eq!(net.stats().flits_consumed, 3 * 8);
}

#[test]
fn multicast_down_column_after_row() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let src = m.node_at(1, 2);
    // Row to column 5, then south monotone.
    let dests = vec![m.node_at(5, 3), m.node_at(5, 5), m.node_at(5, 7)];
    let id = net.inject(multicast(src, dests.clone(), false, 1));
    net.run_until_quiescent(10_000).unwrap();
    let at = one_delivery_each(&mut net, id, 0xBEEF, &dests);
    assert!(at[0] < at[1] && at[1] < at[2], "deliveries follow the path: {at:?}");
}

#[test]
fn ireserve_then_posts_then_gather_collects_all_acks() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let home = m.node_at(0, 0);
    let s1 = m.node_at(3, 2);
    let s2 = m.node_at(3, 4);
    let s3 = m.node_at(3, 6); // gather initiator
    net.inject(multicast(home, vec![s1, s2, s3], true, 7));
    net.run_until_quiescent(10_000).unwrap();
    // All three sharers got the invalidation.
    for s in [s1, s2, s3] {
        assert_eq!(net.take_deliveries(s).len(), 1);
    }
    // Sharers post acks (intermediate destinations have reserved entries).
    assert!(net.post_iack(s1, TxnId(7)));
    assert!(net.post_iack(s2, TxnId(7)));
    // Initiator sends the gather with its own ack as the initial count.
    net.inject(gather(s3, vec![s2, s1, home], 7, 1));
    net.run_until_quiescent(10_000).unwrap();
    let ds = net.take_deliveries(home);
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].acks, 3, "home sees all three acknowledgements");
    assert_eq!(net.stats().parks, 0, "acks were posted before the gather arrived");
}

#[test]
fn gather_parks_and_resumes_on_late_ack() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let home = m.node_at(0, 0);
    let s1 = m.node_at(3, 2);
    let s2 = m.node_at(3, 4);
    net.inject(multicast(home, vec![s1, s2], true, 9));
    net.run_until_quiescent(10_000).unwrap();
    net.take_deliveries(s1);
    net.take_deliveries(s2);
    // s1's ack is NOT posted yet; gather from s2 must park at s1.
    net.inject(gather(s2, vec![s1, home], 9, 1));
    for _ in 0..200 {
        net.tick();
    }
    assert_eq!(net.stats().parks, 1, "gather parked at the unposted sharer");
    assert!(!net.quiescent());
    // Late ack arrives; the parked worm resumes and completes.
    assert!(net.post_iack(s1, TxnId(9)));
    net.run_until_quiescent(10_000).unwrap();
    assert_eq!(net.stats().resumes, 1);
    let ds = net.take_deliveries(home);
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].acks, 2);
}

#[test]
fn gather_block_mode_waits_in_network() {
    let mut c = cfg(8);
    c.iack_mode = IackMode::Block;
    let mut net = Network::new(c);
    let m = Mesh2D::square(8);
    let home = m.node_at(0, 0);
    let s1 = m.node_at(3, 2);
    let s2 = m.node_at(3, 4);
    net.inject(multicast(home, vec![s1, s2], true, 9));
    net.run_until_quiescent(10_000).unwrap();
    net.inject(gather(s2, vec![s1, home], 9, 1));
    for _ in 0..100 {
        net.tick();
    }
    assert_eq!(net.stats().parks, 0);
    assert!(net.stats().gather_blocked_cycles > 0, "blocked head retries");
    assert!(net.post_iack(s1, TxnId(9)));
    net.run_until_quiescent(10_000).unwrap();
    assert_eq!(net.take_deliveries(home)[0].acks, 2);
}

#[test]
fn deposit_gather_feeds_sweep_gather() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let home = m.node_at(0, 4);
    // Column-5 sharers; first-level gather deposits at home-column node
    // (0, 2), then a sweep gather collects it into home.
    let s1 = m.node_at(5, 1);
    let s2 = m.node_at(5, 2);
    let deposit_node = m.node_at(0, 2);
    net.inject(multicast(home, vec![s2, s1], true, 11));
    net.run_until_quiescent(10_000).unwrap();
    net.take_deliveries(s1);
    net.take_deliveries(s2);
    assert!(net.post_iack(s2, TxnId(11)));
    // First-level gather: s1 initiates, collects s2, deposits at (0,2).
    let mut g1 = gather(s1, vec![s2, deposit_node], 11, 1);
    g1.gather_deposit = true;
    net.inject(g1);
    net.run_until_quiescent(10_000).unwrap();
    assert_eq!(net.stats().deposits, 1);
    assert!(net.take_deliveries(deposit_node).is_empty(), "deposit, not delivery");
    // Sweep gather from the deposit node's side down the home column.
    net.inject(gather(m.node_at(0, 1), vec![deposit_node, home], 11, 0));
    net.run_until_quiescent(10_000).unwrap();
    let ds = net.take_deliveries(home);
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].acks, 2);
}

#[test]
fn west_first_serpentine_multicast() {
    let mut c = cfg(8);
    c.routing = BaseRouting::TurnModel;
    let mut net = Network::new(c);
    let m = Mesh2D::square(8);
    let home = m.node_at(4, 4);
    // West run to column 1, then serpentine east: (1,2), (3,6), (6,1).
    let dests = vec![m.node_at(1, 2), m.node_at(3, 6), m.node_at(6, 1)];
    let id = net.inject(multicast(home, dests.clone(), false, 1));
    net.run_until_quiescent(20_000).unwrap();
    let at = one_delivery_each(&mut net, id, 0xBEEF, &dests);
    assert!(at[0] < at[1] && at[1] < at[2], "deliveries follow the path: {at:?}");
}

#[test]
fn contending_worms_serialize_on_a_link_but_both_deliver() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    // Both cross the (0,0)->(1,0)->... row eastward on the Req net with a
    // single VC: strictly serialized.
    let a = net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(6, 0), VNet::Req, 16, 1));
    let b = net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(6, 0), VNet::Req, 16, 2));
    net.run_until_quiescent(20_000).unwrap();
    let [(wa, la), (wb, lb)] = latencies(&mut net, m.node_at(6, 0))[..] else {
        panic!("two deliveries")
    };
    assert_eq!((wa, wb), (a, b), "the first worm delivers first");
    assert!(lb > la, "second worm waits behind the first ({la} vs {lb})");
    assert_eq!(net.stats().flit_hops, 2 * 6 * 16);
}

#[test]
fn different_vnets_do_not_serialize() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let a = net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(6, 0), VNet::Req, 16, 1));
    let b = net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(6, 0), VNet::Reply, 16, 2));
    net.run_until_quiescent(20_000).unwrap();
    let ls = latencies(&mut net, m.node_at(6, 0));
    let lat = |id| ls.iter().find(|l| l.0 == id).expect("delivered").1;
    let (la, lb) = (lat(a), lat(b));
    // Reply vnet shares the physical link (both worms still progress, the
    // difference must be far below full serialization).
    let serialized_gap = 16;
    assert!(lb < la + serialized_gap, "vnets should share the link cycle-by-cycle ({la} vs {lb})");
}

#[test]
fn single_consumption_channel_serializes_deliveries() {
    let mut c = cfg(8);
    c.cons_channels = 1;
    let net = Network::new(c);
    let m = Mesh2D::square(8);
    let hot = m.node_at(4, 4);
    // With 4 channels the same experiment overlaps ejection; with 1 the
    // later worm's tail waits for the channel.
    let slowest = |mut net: Network| {
        let a = net.inject(WormSpec::unicast(m.node_at(0, 4), hot, VNet::Req, 16, 1));
        let b = net.inject(WormSpec::unicast(m.node_at(4, 0), hot, VNet::Reply, 16, 2));
        net.run_until_quiescent(20_000).unwrap();
        let ls = latencies(&mut net, hot);
        let mut got: Vec<WormId> = ls.iter().map(|l| l.0).collect();
        got.sort_by_key(|w| w.0);
        assert_eq!(got, [a, b], "both worms delivered at {hot}");
        ls.iter().map(|l| l.1).max().unwrap()
    };
    let l1 = slowest(net);
    let l4 = slowest(Network::new(cfg(8)));
    assert!(l1 > l4, "1 consumption channel ({l1}) slower than 4 ({l4})");
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut net = Network::new(cfg(8));
        let m = Mesh2D::square(8);
        for i in 0..20u64 {
            let src = m.node_at((i % 7) as usize, (i % 5) as usize);
            let dst = m.node_at(((i * 3 + 1) % 8) as usize, ((i * 5 + 2) % 8) as usize);
            if src != dst {
                net.inject(WormSpec::unicast(src, dst, VNet::Req, 8, i));
            }
            net.tick();
        }
        net.run_until_quiescent(50_000).unwrap();
        (
            net.now(),
            net.stats().flit_hops,
            net.stats().flits_consumed,
            net.stats().unicast_latency.mean(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn watchdog_reports_permanently_blocked_gather() {
    let mut c = cfg(8);
    c.iack_mode = IackMode::Block;
    let mut net = Network::new(c);
    let m = Mesh2D::square(8);
    let home = m.node_at(0, 0);
    let s1 = m.node_at(3, 2);
    let s2 = m.node_at(3, 4);
    net.inject(multicast(home, vec![s1, s2], true, 9));
    net.run_until_quiescent(10_000).unwrap();
    // Never post s1's ack: the gather can never finish.
    net.inject(gather(s2, vec![s1, home], 9, 1));
    let err = net.run_until_quiescent(30_000).unwrap_err();
    assert!(err.limit <= 30_000);
}

#[test]
fn quiescence_and_live_worm_accounting() {
    let mut net = Network::new(cfg(4));
    assert!(net.quiescent());
    let m = Mesh2D::square(4);
    net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(3, 3), VNet::Req, 8, 0));
    assert_eq!(net.live_worms(), 1);
    assert!(!net.quiescent());
    net.run_until_quiescent(10_000).unwrap();
    assert_eq!(net.live_worms(), 0);
}

/// A bare network reuses the slot of a retired worm: the worm injected
/// after the first one retires gets the first one's id, and the record
/// read through that id is the new worm's.
#[test]
fn retired_worm_slot_is_reused_by_the_next_inject() {
    let mut net = Network::new(cfg(4));
    let m = Mesh2D::square(4);
    let first = net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(3, 3), VNet::Req, 8, 1));
    net.run_until_quiescent(10_000).unwrap();
    assert_eq!(net.stats().worm_slots_reused, 0);
    let second = net.inject(WormSpec::unicast(m.node_at(1, 2), m.node_at(2, 0), VNet::Reply, 5, 2));
    assert_eq!(second, first, "the retired worm's slot is reused");
    assert_eq!(net.stats().worm_slots_reused, 1);
    assert_eq!(net.worm(second).payload(), 2, "the slot holds the new worm's record");
    net.run_until_quiescent(10_000).unwrap();
    assert_eq!(net.take_deliveries(m.node_at(2, 0)).len(), 1);
}

/// `advance_to` jumps the clock only across provably dead cycles: on a
/// fully idle network it lands exactly on the target, while a jump over a
/// live worm or into the past is refused, leaves the clock alone and
/// records a sticky violation instead.
#[test]
fn advance_to_refuses_a_live_network_and_the_past() {
    let m = Mesh2D::square(4);

    let mut net = Network::new(cfg(4));
    net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(3, 3), VNet::Req, 8, 0));
    net.tick();
    let now = net.now();
    net.advance_to(now + 100);
    assert_eq!(net.now(), now, "refused jump must not move the clock");
    let v = net.violation().expect("jump over a live worm is a violation");
    assert!(v.contains("non-idle"), "{v}");

    let mut net = Network::new(cfg(4));
    net.inject(WormSpec::unicast(m.node_at(0, 0), m.node_at(3, 3), VNet::Req, 8, 0));
    let end = net.run_until_quiescent(10_000).unwrap();
    assert!(net.fully_idle());
    net.advance_to(end + 50);
    assert_eq!(net.now(), end + 50, "idle jump lands on the target");
    assert!(net.violation().is_none());
    net.advance_to(end);
    assert_eq!(net.now(), end + 50, "backward jump must not move the clock");
    let v = net.violation().expect("jump into the past is a violation");
    assert!(v.contains("backwards"), "{v}");
}

#[test]
fn many_random_unicasts_all_deliver() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let mut expected = vec![0usize; 64];
    let mut k = 0u64;
    for x in 0..8 {
        for y in 0..8 {
            let src = m.node_at(x, y);
            let dst = m.node_at(7 - x, 7 - y);
            if src == dst {
                continue;
            }
            net.inject(WormSpec::unicast(src, dst, VNet::Req, 8, k));
            expected[dst.idx()] += 1;
            k += 1;
        }
    }
    net.run_until_quiescent(100_000).unwrap();
    for n in m.iter_nodes() {
        assert_eq!(net.take_deliveries(n).len(), expected[n.idx()], "at {n}");
    }
    assert_eq!(net.stats().deliveries as usize, expected.iter().sum::<usize>());
}

#[test]
fn hot_spot_all_to_one_delivers_everything() {
    let mut net = Network::new(cfg(8));
    let m = Mesh2D::square(8);
    let hot = m.node_at(3, 3);
    let mut count = 0;
    for n in m.iter_nodes() {
        if n != hot {
            net.inject(WormSpec::unicast(n, hot, VNet::Req, 8, n.idx() as u64));
            count += 1;
        }
    }
    net.run_until_quiescent(200_000).unwrap();
    assert_eq!(net.take_deliveries(hot).len(), count);
}

#[test]
fn gather_bounces_when_no_entry_available() {
    // One i-ack buffer, already parked with another transaction's gather:
    // a second gather can neither collect nor park; it must bounce
    // through the node instead of blocking the reply network.
    let mut c = cfg(8);
    c.iack_buffers = 1;
    let mut net = Network::new(c);
    let m = Mesh2D::square(8);
    let home = m.node_at(0, 0);
    let s1 = m.node_at(3, 2);
    let s2 = m.node_at(3, 4);
    // Transaction 1: reserve at s1, never post -> its own gather parks in
    // the single entry.
    net.inject(multicast(home, vec![s1, s2], true, 1));
    net.run_until_quiescent(10_000).unwrap();
    net.take_deliveries(s1);
    net.take_deliveries(s2);
    net.inject(gather(s2, vec![s1, home], 1, 1));
    for _ in 0..300 {
        net.tick();
    }
    assert_eq!(net.stats().parks, 1);
    // Transaction 2 (no reservation): its gather visits s1 too and finds
    // the buffer full -> bounces, burning no network channels.
    net.inject(gather(m.node_at(3, 6), vec![s1, home], 2, 1));
    for _ in 0..500 {
        net.tick();
    }
    assert!(net.stats().bounces > 0, "second gather must bounce");
    // Post both acks: everything completes.
    assert!(net.post_iack(s1, TxnId(1)));
    for _ in 0..300 {
        net.tick();
    }
    assert!(net.post_iack(s1, TxnId(2)));
    net.run_until_quiescent(50_000).unwrap();
    let ds = net.take_deliveries(home);
    assert_eq!(ds.len(), 2);
    assert!(ds.iter().all(|d| d.acks == 2));
}

/// Deliveries leave through one queue in NIC order: two nodes that
/// deliver in the same tick queue behind an earlier, undrained delivery,
/// ascending by node, and the per-node takes keep each node's order.
#[test]
fn delivery_queue_keeps_nic_order_and_per_node_fifo() {
    let mut net = Network::new(cfg(4));
    let uni =
        |s: u16, d: u16, payload| WormSpec::unicast(NodeId(s), NodeId(d), VNet::Req, 6, payload);
    net.inject(uni(4, 5, 1));
    net.run_until_quiescent(1_000).expect("quiesces");
    // One hop each, on disjoint links: all three tails drain in one tick.
    net.inject(uni(6, 5, 2));
    net.inject(uni(3, 2, 3));
    net.inject(uni(0, 1, 4));
    net.run_until_quiescent(1_000).expect("quiesces");
    let first = net.pop_delivery(NodeId(5)).expect("the earlier delivery");
    assert_eq!(first.payload, 1);
    let at_2 = net.take_deliveries(NodeId(2));
    assert_eq!(at_2.iter().map(|d| d.payload).collect::<Vec<_>>(), vec![3]);
    let at_1 = net.next_delivery().expect("node 1 is next in NIC order");
    assert_eq!((at_1.node, at_1.payload), (NodeId(1), 4));
    assert_eq!(at_1.at, at_2[0].at, "nodes 1 and 2 delivered in one tick");
    assert!(first.at < at_1.at);
    let last = net.take_deliveries(NodeId(5));
    assert_eq!(last.iter().map(|d| (d.payload, d.at)).collect::<Vec<_>>(), vec![(2, at_1.at)]);
    assert_eq!(net.next_delivery(), None);
}
