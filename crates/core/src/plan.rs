//! Invalidation transaction plans.
//!
//! An [`InvalPlan`] is everything a grouping scheme decides about one
//! invalidation transaction: the worms the home injects (request phase),
//! the per-sharer acknowledgement actions (ack phase), relay instructions
//! for delegate nodes (tree scheme), and second-phase sweep gathers
//! (two-phase schemes).

use wormdsm_mesh::topology::NodeId;
use wormdsm_mesh::worm::WormKind;
use wormdsm_sim::snap::snap_struct;

/// A worm a scheme wants injected, before the system fills in payload,
/// transaction id, lengths, and virtual network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedWorm {
    /// Worm kind (unicast / multicast / gather).
    pub kind: WormKind,
    /// Ordered, base-routing-conformant destination list.
    pub dests: Vec<NodeId>,
    /// Per-destination delivery mask (None = deliver everywhere); `false`
    /// entries are pure routing waypoints pinning adaptive paths.
    pub deliver: Option<Vec<bool>>,
    /// i-reserve worm: reserve an i-ack buffer entry at every delivering
    /// intermediate destination.
    pub reserve_iack: bool,
    /// Gather deposits its count into the final destination's i-ack buffer
    /// (first-level gather of the two-phase schemes).
    pub gather_deposit: bool,
    /// Acks carried at injection (gather initiators count themselves).
    pub initial_acks: u32,
    /// This request worm carries a `RelayInval` instruction to delegate
    /// nodes (tree scheme) instead of an invalidation.
    pub relay: bool,
}

impl PlannedWorm {
    /// A unicast invalidation to one sharer.
    pub fn unicast(dest: NodeId) -> Self {
        Self {
            kind: WormKind::Unicast,
            dests: vec![dest],
            deliver: None,
            reserve_iack: false,
            gather_deposit: false,
            initial_acks: 0,
            relay: false,
        }
    }

    /// A multicast invalidation worm over `dests`.
    pub fn multicast(dests: Vec<NodeId>, reserve_iack: bool) -> Self {
        Self {
            kind: WormKind::Multicast,
            dests,
            deliver: None,
            reserve_iack,
            gather_deposit: false,
            initial_acks: 0,
            relay: false,
        }
    }

    /// An i-gather worm over `dests` carrying `initial_acks`.
    pub fn gather(dests: Vec<NodeId>, initial_acks: u32, deposit: bool) -> Self {
        Self {
            kind: WormKind::Gather,
            dests,
            deliver: None,
            reserve_iack: false,
            gather_deposit: deposit,
            initial_acks,
            relay: false,
        }
    }

    /// Number of delivering destinations.
    pub fn delivering(&self) -> usize {
        match &self.deliver {
            None => self.dests.len(),
            Some(m) => m.iter().filter(|&&d| d).count(),
        }
    }

    /// Bytes the worm owns on the heap: its destination list and mask.
    pub fn heap_bytes(&self) -> usize {
        use wormdsm_sim::heap::vec_bytes;
        vec_bytes(&self.dests) + self.deliver.as_ref().map_or(0, vec_bytes)
    }
}

/// What a sharer does after invalidating its cached copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckAction {
    /// Send a unicast `InvAck` to the home node.
    Unicast,
    /// Post an i-ack signal into the local router-interface buffer (a
    /// following i-gather worm collects it). Falls back to a unicast ack
    /// if no buffer entry is available.
    Post,
    /// This sharer is the worm path's end: inject the given i-gather worm
    /// (which carries this sharer's own ack as its initial count).
    InitGather(PlannedWorm),
}

/// Complete plan for one invalidation transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvalPlan {
    /// Worms the home node injects (invalidation / i-reserve worms, and
    /// the relay worm of the tree scheme).
    pub request_worms: Vec<PlannedWorm>,
    /// Per-sharer acknowledgement actions. Every sharer appears exactly
    /// once.
    pub actions: Vec<(NodeId, AckAction)>,
    /// Relay instructions: on receiving the relay message, `node` injects
    /// these worms (tree scheme delegates).
    pub relays: Vec<(NodeId, Vec<PlannedWorm>)>,
    /// Sweep triggers: when the `SweepTrigger` gather terminates at
    /// `node`, that node injects the given sweep worm, adding the
    /// delivered ack count to its initial count (two-phase schemes).
    pub triggers: Vec<(NodeId, PlannedWorm)>,
    /// Total acknowledgements the home must observe (= sharer count).
    pub needed: u32,
}

impl InvalPlan {
    /// The action recorded for `node`, if any.
    pub fn action_for(&self, node: NodeId) -> Option<&AckAction> {
        self.actions.iter().find(|(n, _)| *n == node).map(|(_, a)| a)
    }

    /// Messages the home sends in the request phase, for occupancy
    /// accounting.
    pub fn home_sends(&self) -> usize {
        self.request_worms.len()
    }

    /// The sweep worm triggered at `node`, if any.
    pub fn trigger_for(&self, node: NodeId) -> Option<&PlannedWorm> {
        self.triggers.iter().find(|(n, _)| *n == node).map(|(_, w)| w)
    }
}

/// Basic structural validation shared by all schemes' tests: every sharer
/// gets exactly one action; delivering destinations across invalidation
/// worms (request + relays) cover exactly the sharer set.
pub fn validate_plan(plan: &InvalPlan, sharers: &[NodeId]) -> Result<(), String> {
    use std::collections::HashSet;
    let sharer_set: HashSet<NodeId> = sharers.iter().copied().collect();
    if plan.needed as usize != sharers.len() {
        return Err(format!("needed {} != sharer count {}", plan.needed, sharers.len()));
    }
    let mut acted: HashSet<NodeId> = HashSet::new();
    for (n, _) in &plan.actions {
        if !acted.insert(*n) {
            return Err(format!("duplicate action for {n}"));
        }
        if !sharer_set.contains(n) {
            return Err(format!("action for non-sharer {n}"));
        }
    }
    if acted.len() != sharer_set.len() {
        return Err(format!("{} sharers missing actions", sharer_set.len() - acted.len()));
    }
    Ok(())
}

snap_struct!(PlannedWorm {
    kind,
    dests,
    deliver,
    reserve_iack,
    gather_deposit,
    initial_acks,
    relay,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivering_counts_waypoints_out() {
        let mut w = PlannedWorm::multicast(vec![NodeId(1), NodeId(2), NodeId(3)], false);
        assert_eq!(w.delivering(), 3);
        w.deliver = Some(vec![false, true, true]);
        assert_eq!(w.delivering(), 2);
    }

    #[test]
    fn validate_catches_missing_and_duplicate_actions() {
        let sharers = [NodeId(1), NodeId(2)];
        let mut plan = InvalPlan { needed: 2, ..Default::default() };
        plan.actions.push((NodeId(1), AckAction::Unicast));
        assert!(validate_plan(&plan, &sharers).unwrap_err().contains("missing"));
        plan.actions.push((NodeId(1), AckAction::Post));
        assert!(validate_plan(&plan, &sharers).unwrap_err().contains("duplicate"));
        plan.actions.pop();
        plan.actions.push((NodeId(2), AckAction::Post));
        assert!(validate_plan(&plan, &sharers).is_ok());
    }

    #[test]
    fn validate_checks_needed_count() {
        let plan = InvalPlan { needed: 3, ..Default::default() };
        assert!(validate_plan(&plan, &[NodeId(1)]).is_err());
    }

    #[test]
    fn action_lookup() {
        let mut plan = InvalPlan::default();
        plan.actions.push((NodeId(5), AckAction::Unicast));
        assert_eq!(plan.action_for(NodeId(5)), Some(&AckAction::Unicast));
        assert_eq!(plan.action_for(NodeId(6)), None);
    }
}
