//! The contention-free transaction replay.

use std::collections::HashMap;
use wormdsm_coherence::{BlockId, CostModel, MsgSizes, ProtoMsg};
use wormdsm_core::plan::{AckAction, PlannedWorm};
use wormdsm_core::schemes::InvalidationScheme;
use wormdsm_mesh::routing::{expand_path, BaseRouting, PathRule};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_mesh::worm::{TxnId, WormKind};

/// Timing and sizing parameters of the analytic model (mirrors the
/// simulator's configuration).
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Router pipeline delay per router, cycles.
    pub router_delay: u64,
    /// Header strip delay at an intermediate destination.
    pub strip_delay: u64,
    /// i-ack buffer check delay.
    pub iack_check_delay: u64,
    /// Extra cycles a parked gather pays to resume (drain + re-inject).
    pub park_resume: u64,
    /// Controller/memory costs.
    pub costs: CostModel,
    /// Message sizes.
    pub sizes: MsgSizes,
}

impl Default for NetParams {
    fn default() -> Self {
        Self {
            router_delay: 4,
            strip_delay: 1,
            iack_check_delay: 1,
            park_resume: 8,
            costs: CostModel::default(),
            sizes: MsgSizes::default(),
        }
    }
}

/// Analytic estimate of one invalidation transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Messages the home sends in the request phase.
    pub home_sends: usize,
    /// Messages the home receives in the ack phase.
    pub home_recvs: usize,
    /// Total messages in the transaction (requests + relayed worms + acks
    /// + gathers + sweeps).
    pub total_msgs: usize,
    /// Network traffic in flit-hops.
    pub traffic_flit_hops: u64,
    /// Estimated latency from the home starting the request phase to the
    /// last acknowledgement being processed, in cycles.
    pub latency: f64,
}

/// Hop counts along a canonical conformant path visiting `dests`:
/// per-destination prefix hop counts plus the total path length.
fn prefix_hops(rule: PathRule, mesh: &Mesh2D, src: NodeId, dests: &[NodeId]) -> (Vec<u64>, u64) {
    let shape = flight_shape(rule, mesh, src, dests);
    (shape.prefixes, shape.total)
}

/// Geometry of a worm flight along its canonical conformant path.
struct FlightShape {
    /// Hop count from the source to each destination, in visit order.
    prefixes: Vec<u64>,
    /// Total path hops.
    total: u64,
    /// Per destination: `Some(lagged)` if the worm continues past the node
    /// (an absorb), where `lagged` is true when the outgoing link is east
    /// or south — those output ports see returning credits one cycle later
    /// than west/north, delaying the absorbed copy's completion by one
    /// extra cycle. `None` at the path's end (tail consumption).
    exits: Vec<Option<bool>>,
}

fn flight_shape(rule: PathRule, mesh: &Mesh2D, src: NodeId, dests: &[NodeId]) -> FlightShape {
    use wormdsm_mesh::topology::Direction;
    let path = expand_path(rule, mesh, src, dests)
        .unwrap_or_else(|e| panic!("non-conformant plan path {src} -> {dests:?}: {e}"));
    let mut prefixes = Vec::with_capacity(dests.len());
    let mut exits = Vec::with_capacity(dests.len());
    let mut di = 0;
    for (hop, node) in path.iter().enumerate() {
        while di < dests.len() && *node == dests[di] {
            prefixes.push(hop as u64);
            exits.push(path.get(hop + 1).map(|&next| {
                matches!(mesh.hop_direction(*node, next), Direction::East | Direction::South)
            }));
            di += 1;
        }
        if di == dests.len() {
            break;
        }
    }
    assert_eq!(prefixes.len(), dests.len(), "every destination lies on the path in order");
    FlightShape { prefixes, total: (path.len() - 1) as u64, exits }
}

/// Head arrival latency after `hops` links with `strips` prior
/// intermediate-destination stops: one router pipeline delay per router on
/// the path (source router included — link traversal is folded into the
/// router pipeline) plus strip costs. This is the simulator's exact
/// contention-free law, cross-validated cycle-for-cycle in
/// `tests/full_stack.rs::solo_flights_match_analytic_closed_form`.
fn head_latency(p: &NetParams, hops: u64, strips: u64) -> u64 {
    (hops + 1) * p.router_delay + strips * p.strip_delay
}

/// Tail-drained consumption latency at the worm's *final* destination:
/// the head arrival plus one cycle per body/tail flit (throughput is one
/// flit per cycle on an idle path, independent of buffer depth).
fn delivery_latency(p: &NetParams, hops: u64, strips: u64, len_flits: u64) -> u64 {
    head_latency(p, hops, strips) + len_flits
}

/// Absorb completion latency at an *intermediate* destination: the copy
/// finishes one cycle after the tail clears the node, plus one more when
/// the outgoing link is east or south (`lagged` — those ports see
/// returning credits a cycle later than west/north).
fn absorb_latency(p: &NetParams, hops: u64, strips: u64, len_flits: u64, lagged: bool) -> u64 {
    delivery_latency(p, hops, strips, len_flits) + 1 + u64::from(lagged)
}

/// Latency at one destination of a worm: absorb when the worm continues
/// past the node (`exit` holds the outgoing-link lag), tail consumption at
/// the path's end (`exit` is `None`).
fn dest_latency(p: &NetParams, hops: u64, strips: u64, len_flits: u64, exit: Option<bool>) -> u64 {
    match exit {
        None => delivery_latency(p, hops, strips, len_flits),
        Some(lagged) => absorb_latency(p, hops, strips, len_flits, lagged),
    }
}

/// Exact per-destination solo-flight latencies for an uncontended worm on
/// an otherwise idle mesh: cycles from injection until each destination's
/// delivery (absorb at intermediates, tail consumption at the final stop)
/// completes. Every entry equals the simulator's per-node `Delivery::at`
/// minus the worm's `queued_at`, cycle for cycle; the last is the final
/// consumption. Timing is invariant to `reserve_iack` and
/// deliver masks (waypoints still pay the strip delay), so neither
/// appears here.
pub fn solo_flight_latencies(
    p: &NetParams,
    mesh: &Mesh2D,
    rule: PathRule,
    src: NodeId,
    dests: &[NodeId],
    len_flits: u64,
) -> Vec<u64> {
    let shape = flight_shape(rule, mesh, src, dests);
    shape
        .prefixes
        .iter()
        .enumerate()
        .map(|(j, &h)| dest_latency(p, h, j as u64, len_flits, shape.exits[j]))
        .collect()
}

/// A serial server (the home DC processing the ack stream).
#[derive(Debug, Default)]
struct SerialServer {
    free_at: u64,
}

impl SerialServer {
    fn serve(&mut self, arrival: u64, cost: u64) -> u64 {
        let start = self.free_at.max(arrival);
        self.free_at = start + cost;
        self.free_at
    }
}

/// Dummy protocol messages for sizing.
fn inval_msg() -> ProtoMsg {
    ProtoMsg::Inval { block: BlockId(0), txn: TxnId(0), home: NodeId(0) }
}
fn ack_msg() -> ProtoMsg {
    ProtoMsg::InvAck { block: BlockId(0), txn: TxnId(0), count: 1 }
}

/// Replay state while walking a plan.
struct Replay<'a> {
    p: &'a NetParams,
    mesh: &'a Mesh2D,
    req_rule: PathRule,
    rep_rule: PathRule,
    /// When each sharer's invalidation finished CC processing and its ack
    /// is available (posted / sent / gather-injected).
    ack_ready: HashMap<NodeId, u64>,
    /// Deposit counts available at home-column nodes: node -> ready time.
    deposit_ready: HashMap<NodeId, u64>,
    traffic: u64,
    total_msgs: usize,
}

impl Replay<'_> {
    /// Walk an invalidation worm injected at `t_inj` from `src`; record
    /// per-sharer delivery times. Returns nothing (fills `ack_ready` with
    /// *delivery* times; ack pipeline applied later).
    fn walk_inval_worm(&mut self, src: NodeId, w: &PlannedWorm, t_inj: u64, len: u64) {
        self.total_msgs += 1;
        let shape = flight_shape(self.req_rule, self.mesh, src, &w.dests);
        self.traffic += shape.total * len;
        for (j, &d) in w.dests.iter().enumerate() {
            let delivers = w.deliver.as_ref().is_none_or(|m| m[j]);
            if delivers {
                let t =
                    t_inj + dest_latency(self.p, shape.prefixes[j], j as u64, len, shape.exits[j]);
                self.ack_ready.insert(d, t);
            }
        }
    }

    /// Walk a gather worm injected by `src` at `t_inj`: visits
    /// intermediate destinations (waiting for posted acks/deposits) and
    /// completes at its final destination. Returns (final node, tail
    /// delivery time).
    fn walk_gather(&mut self, src: NodeId, dests: &[NodeId], t_inj: u64) -> (NodeId, u64) {
        self.total_msgs += 1;
        let len = self.p.sizes.gather_len() as u64;
        let (prefixes, total) = prefix_hops(self.rep_rule, self.mesh, src, dests);
        self.traffic += total * len;
        let mut delay = 0u64; // accumulated parking delay
        for (j, &d) in dests.iter().enumerate() {
            if j + 1 == dests.len() {
                let t = t_inj + delay + delivery_latency(self.p, prefixes[j], j as u64, len);
                return (d, t);
            }
            let nominal = t_inj
                + delay
                + head_latency(self.p, prefixes[j], j as u64)
                + self.p.iack_check_delay;
            let posted =
                self.ack_ready.get(&d).copied().or_else(|| self.deposit_ready.get(&d).copied());
            if let Some(ready) = posted {
                if ready > nominal {
                    // Parked: wait for the ack, pay the resume overhead.
                    delay += ready - nominal + self.p.park_resume;
                }
            }
        }
        unreachable!("gather has a final destination")
    }
}

/// Estimate one invalidation transaction under `scheme`.
///
/// `home` is the block's home node, `sharers` the remote sharer set; the
/// request phase starts at t = 0 at the home DC.
pub fn estimate_invalidation(
    p: &NetParams,
    mesh: &Mesh2D,
    routing: BaseRouting,
    scheme: &dyn InvalidationScheme,
    home: NodeId,
    sharers: &[NodeId],
) -> Estimate {
    assert!(!sharers.is_empty());
    let plan = scheme.plan(mesh, home, sharers);
    let costs = p.costs;
    let mut r = Replay {
        p,
        mesh,
        req_rule: routing.request_rule(),
        rep_rule: routing.reply_rule(),
        ack_ready: HashMap::new(),
        deposit_ready: HashMap::new(),
        traffic: 0,
        total_msgs: 0,
    };

    // ---- Request phase: home serializes worm sends through its DC.
    let imsg = inval_msg();
    let mut t_send = 0u64;
    let mut relay_deliveries: Vec<(NodeId, u64)> = Vec::new();
    for w in &plan.request_worms {
        t_send += costs.dc_send;
        let len = match w.kind {
            WormKind::Unicast => p.sizes.unicast_len(&imsg) as u64,
            _ => p.sizes.multicast_len(&imsg, w.delivering()) as u64,
        };
        if w.relay {
            r.total_msgs += 1;
            let shape = flight_shape(r.req_rule, mesh, home, &w.dests);
            r.traffic += shape.total * len;
            for (j, &d) in w.dests.iter().enumerate() {
                let t = t_send + dest_latency(p, shape.prefixes[j], j as u64, len, shape.exits[j]);
                relay_deliveries.push((d, t));
            }
        } else {
            r.walk_inval_worm(home, w, t_send, len);
        }
    }
    let home_sends = plan.request_worms.len();

    // ---- Relays: delegates re-inject column worms.
    for (delegate, t_deliver) in relay_deliveries {
        let worms: Vec<PlannedWorm> = plan
            .relays
            .iter()
            .find(|(n, _)| *n == delegate)
            .map(|(_, ws)| ws.clone())
            .unwrap_or_default();
        let mut t = t_deliver + costs.cc_proc;
        for w in &worms {
            t += costs.cc_send;
            let len = p.sizes.multicast_len(&imsg, w.delivering()) as u64;
            r.walk_inval_worm(delegate, w, t, len);
        }
        // A delegate-sharer invalidates during relay processing.
        if plan.action_for(delegate).is_some() {
            r.ack_ready.insert(delegate, t);
        }
    }

    // ---- Ack phase.
    // Per-sharer CC pipeline: receive + invalidate, then act.
    let mut posted: HashMap<NodeId, u64> = HashMap::new();
    let mut unicast_arrivals: Vec<u64> = Vec::new();
    let mut gathers: Vec<(NodeId, PlannedWorm, u64)> = Vec::new();
    for (s, action) in &plan.actions {
        let delivered = r.ack_ready[s];
        let base = delivered + costs.cc_proc + costs.cache_access;
        match action {
            AckAction::Unicast => {
                let t = base + costs.cc_send;
                let hops = mesh.distance(*s, home) as u64;
                let len = p.sizes.unicast_len(&ack_msg()) as u64;
                r.traffic += hops * len;
                r.total_msgs += 1;
                unicast_arrivals.push(t + delivery_latency(p, hops, 0, len));
            }
            AckAction::Post => {
                posted.insert(*s, base + costs.iack_post);
            }
            AckAction::InitGather(w) => {
                gathers.push((*s, w.clone(), base + costs.cc_send));
            }
        }
    }
    // Make posted acks visible to gather walks.
    r.ack_ready = posted;

    // First-level gathers (direct to home, deposits, or sweep triggers).
    let mut home_gather_arrivals: Vec<u64> = Vec::new();
    let mut sweep_starts: Vec<(NodeId, u64)> = Vec::new();
    for (init, w, t_inj) in &gathers {
        let (final_node, t) = r.walk_gather(*init, &w.dests, *t_inj);
        if final_node == home {
            home_gather_arrivals.push(t);
        } else if w.gather_deposit {
            r.deposit_ready.insert(final_node, t);
        } else {
            // Sweep trigger.
            sweep_starts.push((final_node, t + costs.cc_proc + costs.cc_send));
        }
    }
    // Sweeps.
    for (node, t_inj) in sweep_starts {
        let w = plan.trigger_for(node).expect("trigger has a sweep").clone();
        let (final_node, t) = r.walk_gather(node, &w.dests, t_inj);
        debug_assert_eq!(final_node, home);
        home_gather_arrivals.push(t);
    }

    // ---- Home DC chews through the ack stream.
    let mut arrivals: Vec<u64> = unicast_arrivals;
    arrivals.extend(home_gather_arrivals.iter().copied());
    arrivals.sort_unstable();
    let home_recvs = arrivals.len();
    let mut server = SerialServer { free_at: t_send };
    let mut done = 0u64;
    for a in &arrivals {
        done = server.serve(*a, costs.dc_proc);
    }
    let total_msgs = r.total_msgs;
    let traffic = r.traffic;

    Estimate {
        home_sends,
        home_recvs,
        total_msgs,
        traffic_flit_hops: traffic,
        latency: done as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormdsm_core::schemes::SchemeKind;

    fn scatter(mesh: &Mesh2D) -> Vec<NodeId> {
        [(1, 2), (1, 5), (3, 1), (3, 3), (5, 6), (6, 2)]
            .iter()
            .map(|&(x, y)| mesh.node_at(x, y))
            .collect()
    }

    fn estimate(scheme: SchemeKind, d: usize) -> Estimate {
        let mesh = Mesh2D::square(8);
        let sharers: Vec<NodeId> = scatter(&mesh)[..d].to_vec();
        let s = scheme.build();
        estimate_invalidation(
            &NetParams::default(),
            &mesh,
            scheme.natural_routing(),
            s.as_ref(),
            mesh.node_at(0, 0),
            &sharers,
        )
    }

    #[test]
    fn ui_ua_counts() {
        let e = estimate(SchemeKind::UiUa, 6);
        assert_eq!(e.home_sends, 6);
        assert_eq!(e.home_recvs, 6);
        assert_eq!(e.total_msgs, 12);
    }

    #[test]
    fn mi_ma_col_counts() {
        let e = estimate(SchemeKind::MiMaCol, 6);
        // 4 column groups: 4 worms, 4 gathers.
        assert_eq!(e.home_sends, 4);
        assert_eq!(e.home_recvs, 4);
        assert_eq!(e.total_msgs, 8);
    }

    #[test]
    fn wf_counts() {
        let e = estimate(SchemeKind::MiMaWf, 6);
        assert_eq!(e.home_sends, 1);
        // Sweep + degraded direct gather (see the e2e test): 2 receives.
        assert_eq!(e.home_recvs, 2);
    }

    #[test]
    fn message_count_ordering() {
        let ui = estimate(SchemeKind::UiUa, 6);
        let mi_ua = estimate(SchemeKind::MiUaCol, 6);
        let mi_ma = estimate(SchemeKind::MiMaCol, 6);
        let wf = estimate(SchemeKind::MiMaWf, 6);
        let home = |e: &Estimate| e.home_sends + e.home_recvs;
        assert!(home(&ui) > home(&mi_ua));
        assert!(home(&mi_ua) > home(&mi_ma));
        assert!(home(&mi_ma) > home(&wf));
    }

    #[test]
    fn traffic_multidestination_beats_unicast() {
        // Column sharers: one worm traverses the column once; unicasts
        // retraverse the row prefix d times.
        let mesh = Mesh2D::square(8);
        let sharers: Vec<NodeId> = (1..7).map(|y| mesh.node_at(5, y)).collect();
        let home = mesh.node_at(0, 0);
        let p = NetParams::default();
        let ui = estimate_invalidation(
            &p,
            &mesh,
            BaseRouting::ECube,
            SchemeKind::UiUa.build().as_ref(),
            home,
            &sharers,
        );
        let mi = estimate_invalidation(
            &p,
            &mesh,
            BaseRouting::ECube,
            SchemeKind::MiUaCol.build().as_ref(),
            home,
            &sharers,
        );
        assert!(
            mi.traffic_flit_hops < ui.traffic_flit_hops,
            "multicast {} >= unicast {}",
            mi.traffic_flit_hops,
            ui.traffic_flit_hops
        );
    }

    #[test]
    fn latency_grows_with_sharers() {
        for scheme in SchemeKind::ALL {
            let l2 = estimate(scheme, 2).latency;
            let l6 = estimate(scheme, 6).latency;
            assert!(l6 > l2, "{scheme}: {l6} <= {l2}");
        }
    }

    #[test]
    fn ui_ua_latency_dominated_by_serialization_at_large_d() {
        // On a big mesh with a full column of sharers, UI-UA latency
        // scales with d while MI-MA stays near the path latency.
        let mesh = Mesh2D::square(16);
        let home = mesh.node_at(0, 0);
        let sharers: Vec<NodeId> = (1..16).map(|y| mesh.node_at(8, y)).collect();
        let p = NetParams::default();
        let ui = estimate_invalidation(
            &p,
            &mesh,
            BaseRouting::ECube,
            SchemeKind::UiUa.build().as_ref(),
            home,
            &sharers,
        );
        let ma = estimate_invalidation(
            &p,
            &mesh,
            BaseRouting::ECube,
            SchemeKind::MiMaCol.build().as_ref(),
            home,
            &sharers,
        );
        assert!(ma.latency < ui.latency, "MI-MA {} >= UI-UA {}", ma.latency, ui.latency);
    }
}
