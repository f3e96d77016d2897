//! The router slab's derived state — flit counts, the front ready times,
//! the occupancy mask and the four slot-class masks (allocated outputs,
//! inputs draining to the local port, parked inputs, inputs not in
//! `Normal`) — must equal what its FIFOs, modes and allocations imply
//! after every tick, and every worm's hot record must equal the one its
//! spec and `dest_idx` imply. The scenarios drive every writer of that
//! state: unicast, multicast with absorb and i-reserve, waypoint strips
//! and west-first turns, gathers that park, bounce and block, at 1, 2 and
//! 12 VCs per virtual network (12 gives 120 slots per router, so the masks
//! reach their second word).

use wormdsm_mesh::network::{MeshConfig, Network};
use wormdsm_mesh::nic::IackMode;
use wormdsm_mesh::routing::BaseRouting;
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_mesh::worm::{TxnId, VNet, WormKind, WormSpec};
use wormdsm_sim::Rng;

const VCS_PER_VNET: [usize; 3] = [1, 2, 12];

fn config(k: usize, vcs_per_vnet: usize) -> MeshConfig {
    MeshConfig { vcs_per_vnet, ..MeshConfig::paper_defaults(k) }
}

/// Tick `cycles` times (or until quiescent when `None`), checking the
/// slab and the worm table after every tick, and that every consumption
/// channel has drained (a channel holds a flit only within the tick it
/// arrives; the network records a second flit before the drain as a
/// violation).
fn tick_checked(net: &mut Network, cycles: Option<u64>) {
    let deadline = net.now() + cycles.unwrap_or(200_000);
    while net.now() < deadline && (cycles.is_some() || !net.quiescent()) {
        net.tick();
        let checked = net
            .check_router_slab()
            .and_then(|()| net.check_worm_table())
            .and_then(|()| net.check_consumption_drained());
        if let Err(e) = checked {
            panic!("cycle {}: {e}", net.now());
        }
        assert!(net.violation().is_none(), "{:?}", net.violation());
    }
    assert!(cycles.is_some() || net.quiescent(), "network did not quiesce");
}

fn gather(src: NodeId, dests: Vec<NodeId>, txn: TxnId) -> WormSpec {
    WormSpec {
        src,
        vnet: VNet::Reply,
        kind: WormKind::Gather,
        dests,
        len_flits: 6,
        payload: 2,
        reserve_iack: false,
        txn,
        initial_acks: 1,
        gather_deposit: false,
        deliver: None,
    }
}

#[test]
fn unicast_traffic_keeps_the_slab_consistent() {
    for vcs in VCS_PER_VNET {
        let k = 6;
        let mut net = Network::new(config(k, vcs));
        let mut rng = Rng::new(0x51AB_0001);
        let n = (k * k) as u64;
        for i in 0..80 {
            let src = rng.below(n) as u16;
            let dst = (src + 1 + rng.below(n - 1) as u16) % n as u16;
            let vnet = if rng.chance(0.5) { VNet::Reply } else { VNet::Req };
            let len = rng.range(2, 20) as u16;
            net.inject(WormSpec::unicast(NodeId(src), NodeId(dst), vnet, len, i));
        }
        tick_checked(&mut net, None);
        assert_eq!(net.stats().deliveries, 80, "vcs_per_vnet {vcs}");
    }
}

#[test]
fn multicast_absorb_ireserve_and_gather_keep_the_slab_consistent() {
    for vcs in VCS_PER_VNET {
        let k = 6;
        let mesh = Mesh2D::square(k);
        let home = mesh.node_at(0, 0);
        let dests: Vec<NodeId> = [1, 3, 4].iter().map(|&y| mesh.node_at(3, y)).collect();
        let txn = TxnId(7);
        let mut net = Network::new(config(k, vcs));
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
        tick_checked(&mut net, None);
        for d in &dests[..dests.len() - 1] {
            assert!(net.post_iack(*d, txn));
        }
        let mut gd: Vec<NodeId> = dests.iter().rev().skip(1).copied().collect();
        gd.push(home);
        net.inject(gather(dests[dests.len() - 1], gd, txn));
        tick_checked(&mut net, None);
        let ds = net.take_deliveries(home);
        assert_eq!(ds.len(), 1, "vcs_per_vnet {vcs}");
        assert_eq!(ds[0].acks as usize, dests.len());
    }
}

/// The busiest a consumption channel gets: a node with one channel takes
/// absorb copies of multicasts passing down its column and final copies
/// of unicasts from every direction on both virtual networks. Each flit
/// still finds its channel empty and drains within its tick, which is why
/// a channel needs no depth.
#[test]
fn one_consumption_channel_takes_absorb_copies_and_unicasts_a_flit_a_tick() {
    for vcs in VCS_PER_VNET {
        let k = 6;
        let mesh = Mesh2D::square(k);
        let hot = mesh.node_at(3, 3);
        let mut net = Network::new(MeshConfig { cons_channels: 1, ..config(k, vcs) });
        for (i, y) in [0, 1, 2].into_iter().enumerate() {
            let mut dests = vec![hot, mesh.node_at(3, 5)];
            if y + 1 < 3 {
                dests.insert(0, mesh.node_at(3, y + 1));
            }
            net.inject(WormSpec {
                kind: WormKind::Multicast,
                dests,
                ..WormSpec::unicast(mesh.node_at(3, y), hot, VNet::Req, 8, i as u64)
            });
        }
        let mut unicasts = 0;
        for (x, y) in [(0, 3), (5, 3), (3, 0), (3, 5), (0, 0), (5, 5), (1, 4), (4, 1)] {
            for vnet in [VNet::Req, VNet::Reply] {
                net.inject(WormSpec::unicast(mesh.node_at(x, y), hot, vnet, 12, 10 + unicasts));
                unicasts += 1;
            }
        }
        tick_checked(&mut net, None);
        assert_eq!(net.take_deliveries(hot).len(), 3 + unicasts as usize, "vcs_per_vnet {vcs}");
    }
}

/// West-first routing (`BaseRouting::TurnModel`) with two serpentine
/// multicasts whose deliver masks hold waypoints, among adaptive unicasts:
/// each waypoint strips a header hop without absorbing, and each worm's
/// `turned` flag flips on its first hop that is not west, so the hot
/// records change mid-flight.
#[test]
fn turn_model_waypoints_keep_the_worm_table_consistent() {
    for vcs in VCS_PER_VNET {
        let k = 6;
        let mesh = Mesh2D::square(k);
        let cfg = MeshConfig { routing: BaseRouting::TurnModel, ..config(k, vcs) };
        let mut net = Network::new(cfg);
        let nodes = |pts: &[(usize, usize)]| -> Vec<NodeId> {
            pts.iter().map(|&(x, y)| mesh.node_at(x, y)).collect()
        };
        // West to a waypoint, along Y (the turn), east to a waypoint,
        // along Y again, then to the final destination.
        let serpentines = [
            (
                (5, 1),
                nodes(&[(2, 1), (2, 4), (4, 4), (4, 2), (5, 0)]),
                vec![false, true, false, true, true],
            ),
            ((5, 5), nodes(&[(1, 5), (1, 2), (3, 2), (3, 0)]), vec![false, true, false, true]),
        ];
        let mut ids = Vec::new();
        for (i, ((x, y), dests, mask)) in serpentines.into_iter().enumerate() {
            ids.push(net.inject(WormSpec {
                src: mesh.node_at(x, y),
                vnet: VNet::Req,
                kind: WormKind::Multicast,
                dests,
                len_flits: 7,
                payload: i as u64,
                reserve_iack: false,
                txn: TxnId(0),
                initial_acks: 0,
                gather_deposit: false,
                deliver: Some(mask),
            }));
        }
        let mut rng = Rng::new(0x51AB_0006);
        let n = (k * k) as u64;
        for i in 0..30 {
            let src = rng.below(n) as u16;
            let dst = (src + 1 + rng.below(n - 1) as u16) % n as u16;
            net.inject(WormSpec::unicast(NodeId(src), NodeId(dst), VNet::Req, 5, 10 + i));
        }
        tick_checked(&mut net, None);
        // Two absorbed copies and a final delivery for the first
        // serpentine, one and one for the second, and the unicasts.
        assert_eq!(net.stats().deliveries, 3 + 2 + 30, "vcs_per_vnet {vcs}");
        for (id, last) in ids.into_iter().zip([4, 3]) {
            let hot = net.worm_hot(id);
            assert_eq!(hot.dest_idx, last, "vcs_per_vnet {vcs}: stripped to the last destination");
            assert!(hot.turned && hot.last && hot.delivers);
        }
    }
}

/// A gather reaches its intermediate destinations before their acks are
/// posted, so it parks in an i-ack entry (VCT deferred delivery); the
/// late posts resume it.
#[test]
fn parked_gathers_keep_the_slab_consistent() {
    for vcs in VCS_PER_VNET {
        let k = 6;
        let mesh = Mesh2D::square(k);
        let home = mesh.node_at(0, 0);
        let mids = [mesh.node_at(2, 4), mesh.node_at(2, 2)];
        let txn = TxnId(11);
        let mut net = Network::new(config(k, vcs));
        net.inject(gather(mesh.node_at(2, 5), vec![mids[0], mids[1], home], txn));
        tick_checked(&mut net, Some(200));
        assert!(net.stats().parks > 0, "vcs_per_vnet {vcs}: gather never parked");
        for m in mids {
            assert!(net.post_iack(m, txn));
        }
        tick_checked(&mut net, None);
        assert_eq!(net.take_deliveries(home)[0].acks, 3);
    }
}

/// With a single i-ack entry already taken by another transaction, a
/// gather that finds no posted ack cannot park and bounces through the
/// local node until the entry frees.
#[test]
fn bounced_gathers_keep_the_slab_consistent() {
    for vcs in VCS_PER_VNET {
        let k = 6;
        let mesh = Mesh2D::square(k);
        let home = mesh.node_at(0, 0);
        let mid = mesh.node_at(2, 3);
        let (txn, other) = (TxnId(21), TxnId(22));
        let mut net = Network::new(MeshConfig { iack_buffers: 1, ..config(k, vcs) });
        assert!(net.post_iack(mid, other), "the entry holds the other transaction's ack");
        net.inject(gather(mesh.node_at(2, 5), vec![mid, home], txn));
        tick_checked(&mut net, Some(300));
        assert!(net.stats().bounces > 0, "vcs_per_vnet {vcs}: gather never bounced");
        // The other transaction's gather consumes the entry; then the
        // first gather's ack can be posted.
        net.inject(gather(mesh.node_at(2, 4), vec![mid, home], other));
        tick_checked(&mut net, Some(300));
        assert!(net.post_iack(mid, txn));
        tick_checked(&mut net, None);
        assert_eq!(net.take_deliveries(home).len(), 2, "vcs_per_vnet {vcs}");
    }
}

/// Under `IackMode::Block` a gather waits at the router, holding its
/// channels, until the ack is posted.
#[test]
fn blocked_gathers_keep_the_slab_consistent() {
    for vcs in VCS_PER_VNET {
        let k = 6;
        let mesh = Mesh2D::square(k);
        let home = mesh.node_at(0, 0);
        let mid = mesh.node_at(4, 3);
        let txn = TxnId(31);
        let mut net = Network::new(MeshConfig { iack_mode: IackMode::Block, ..config(k, vcs) });
        net.inject(gather(mesh.node_at(4, 5), vec![mid, home], txn));
        // Unrelated unicasts share the mesh while the gather blocks.
        for i in 0..12u16 {
            let src = NodeId(i * 3);
            let dst = NodeId(35 - i);
            net.inject(WormSpec::unicast(src, dst, VNet::Req, 6, u64::from(i)));
        }
        tick_checked(&mut net, Some(200));
        assert!(net.stats().gather_blocked_cycles > 0, "vcs_per_vnet {vcs}: never blocked");
        assert_eq!(net.stats().parks, 0);
        assert!(net.post_iack(mid, txn));
        tick_checked(&mut net, None);
        assert_eq!(net.take_deliveries(home)[0].acks, 2);
    }
}
