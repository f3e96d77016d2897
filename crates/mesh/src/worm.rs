//! Worms (messages) and flits.
//!
//! A *worm* is one wormhole message: a head flit carrying routing
//! information, body flits, and a tail flit. Multidestination worms carry an
//! ordered destination list (the BRCP path); the head is logically
//! "stripped" as each destination is reached, which the model represents by
//! advancing [`Worm::dest_idx`].
//!
//! Flits reference their worm by id; payload lives in the central
//! [`WormTable`] so flits stay two words.

use crate::topology::NodeId;
use wormdsm_sim::snap::{snap_enum, snap_struct};
use wormdsm_sim::{Cycle, InlineVec};

/// Destination list of one worm. Inline up to 16 destinations — one full
/// mesh column plus slack — so the common invalidation worm never heap-
/// allocates; serpentine near-broadcast worms spill once.
pub type DestVec = InlineVec<NodeId, 16>;

/// Per-destination delivery mask (parallel to [`DestVec`]).
pub type DeliverMask = InlineVec<bool, 16>;

/// Worm identifier (index into the [`WormTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WormId(pub u32);

/// Transaction identifier used to match i-reserve reservations, i-ack
/// postings and i-gather collections at router interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(pub u64);

/// Virtual network a worm travels on. Request and reply traffic are kept on
/// logically separate virtual networks (disjoint virtual-channel classes on
/// the same physical links) to break protocol-level request/reply deadlock,
/// as in DASH.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VNet {
    /// Request network (XY e-cube or west-first).
    Req,
    /// Reply network (YX e-cube or east-first).
    Reply,
}

impl VNet {
    /// Dense index for array-indexed per-vnet state.
    pub fn index(self) -> usize {
        match self {
            VNet::Req => 0,
            VNet::Reply => 1,
        }
    }
}

/// Number of virtual networks.
pub const NUM_VNETS: usize = 2;

/// The functional kind of a worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WormKind {
    /// Plain single-destination message.
    Unicast,
    /// Path-based multicast with forward-and-absorb at intermediate
    /// destinations (the paper's invalidation / *i-reserve* worm when
    /// [`WormSpec::reserve_iack`] is set).
    Multicast,
    /// *i-gather* worm: collects i-ack signals from router-interface i-ack
    /// buffers at each intermediate destination and delivers the combined
    /// acknowledgement at the final destination.
    Gather,
}

/// Flit position within a worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit; carries routing info.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases channel state as it drains.
    Tail,
}

/// One flit in flight. Payload-free: all message state lives in the
/// [`WormTable`] entry for `worm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning worm.
    pub worm: WormId,
    /// Head / body / tail.
    pub kind: FlitKind,
    /// Sequence number within the worm (0 = head).
    pub seq: u16,
}

impl Flit {
    /// Flit `seq` of `worm`, a worm of `len` flits.
    #[inline]
    pub fn nth(worm: WormId, seq: u16, len: u16) -> Flit {
        let kind = if seq == 0 {
            FlitKind::Head
        } else if seq + 1 == len {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit { worm, kind, seq }
    }
}

/// Parameters for injecting a worm into the network.
#[derive(Debug, Clone)]
pub struct WormSpec {
    /// Source node.
    pub src: NodeId,
    /// Virtual network.
    pub vnet: VNet,
    /// Worm kind.
    pub kind: WormKind,
    /// Ordered destination list (BRCP order). Must be non-empty; a unicast
    /// worm has exactly one destination.
    pub dests: DestVec,
    /// Total length in flits (head + bodies + tail). Minimum 2.
    pub len_flits: u16,
    /// Opaque payload handed back on delivery (e.g. a protocol-message key).
    pub payload: u64,
    /// For multicast worms: reserve an i-ack buffer entry at each
    /// destination's router interface as the head passes (i-reserve worm).
    pub reserve_iack: bool,
    /// Transaction this worm belongs to (i-ack matching); `TxnId(0)` when
    /// unused.
    pub txn: TxnId,
    /// Acks the worm carries at injection (a gather initiator counts its
    /// own acknowledgement here).
    pub initial_acks: u32,
    /// First-level gather of the two-phase scheme: on final delivery,
    /// deposit the accumulated ack count into the destination's i-ack
    /// buffer instead of delivering a message to the node.
    pub gather_deposit: bool,
    /// Per-destination delivery mask. `None` means every destination
    /// receives the message; `Some(mask)` marks `false` entries as pure
    /// routing *waypoints* — header hops that pin an adaptive path (e.g.
    /// serpentine corner turns) without absorbing anything. The final
    /// destination must always deliver.
    pub deliver: Option<DeliverMask>,
}

impl WormSpec {
    /// Convenience constructor for a unicast message.
    pub fn unicast(src: NodeId, dst: NodeId, vnet: VNet, len_flits: u16, payload: u64) -> Self {
        Self {
            src,
            vnet,
            kind: WormKind::Unicast,
            dests: [dst].into(),
            len_flits,
            payload,
            reserve_iack: false,
            txn: TxnId(0),
            initial_acks: 0,
            gather_deposit: false,
            deliver: None,
        }
    }
}

/// Lifecycle state of a worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WormState {
    /// Waiting in a NIC injection queue.
    Queued,
    /// Flits in the network.
    InFlight,
    /// Gather worm parked in an i-ack buffer (virtual cut-through +
    /// deferred delivery), waiting for the local ack; the field is the node
    /// where it is parked.
    Parked(NodeId),
    /// Fully delivered at its final destination.
    Delivered,
}

/// A worm's dynamic record.
#[derive(Debug, Clone)]
pub struct Worm {
    /// Immutable injection parameters.
    pub spec: WormSpec,
    /// Index of the next destination to reach in `spec.dests`.
    pub dest_idx: usize,
    /// Acks accumulated so far (gather worms).
    pub acks: u32,
    /// Lifecycle state.
    pub state: WormState,
    /// Cycle the worm was handed to the NIC.
    pub queued_at: Cycle,
    /// Cycle the tail drained at the final destination, if delivered.
    pub delivered_at: Option<Cycle>,
    /// For west-first/east-first conformance enforcement: set once the worm
    /// has taken a hop that forbids further west (resp. east) hops.
    pub turned: bool,
    /// Gather bounce in progress: the worm could neither collect nor park
    /// (no i-ack entry available), so it is being consumed at the local
    /// node for re-injection instead of holding network channels.
    pub bounced: bool,
    /// Outstanding consumption-channel reservations (final consumption,
    /// absorb copies, bounces). A worm's table slot may only be recycled
    /// once it is `Delivered` *and* this count is back to zero — absorb
    /// copies at intermediate destinations can drain after the final tail.
    pub copies: u32,
}

impl Worm {
    /// Next destination the head is routing toward.
    pub fn next_dest(&self) -> NodeId {
        self.spec.dests[self.dest_idx]
    }

    /// True when the current destination index is a delivering destination
    /// (false for pure routing waypoints).
    pub fn delivers_here(&self) -> bool {
        self.spec.deliver.as_ref().is_none_or(|m| m[self.dest_idx])
    }

    /// True if `dest_idx` points at the last destination.
    pub fn at_last_dest_idx(&self) -> bool {
        self.dest_idx + 1 == self.spec.dests.len()
    }

    /// End-to-end latency (queue + network), if delivered.
    pub fn latency(&self) -> Option<Cycle> {
        self.delivered_at.map(|d| d - self.queued_at)
    }
}

/// Central store of all worms injected in a simulation run.
///
/// With recycling enabled (see [`WormTable::set_recycle`]), slots of fully
/// retired worms (delivered, all copies drained) are reused by later
/// inserts, so long runs stay at a working-set-sized table instead of
/// growing per message. Off by default: some diagnostics (tests, examples)
/// read a worm's record after delivery, which recycling would invalidate.
#[derive(Debug, Default)]
pub struct WormTable {
    worms: Vec<Worm>,
    /// Retired slots available for reuse (LIFO; deterministic).
    free: Vec<u32>,
    recycle: bool,
}

impl WormTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable slot recycling for retired worms.
    pub fn set_recycle(&mut self, on: bool) {
        self.recycle = on;
    }

    /// Register a new worm; returns its id. Reuses a retired slot when
    /// recycling is enabled, in which case `reused_slot` is set.
    pub fn insert(&mut self, spec: WormSpec, now: Cycle) -> WormId {
        assert!(!spec.dests.is_empty(), "worm must have at least one destination");
        assert!(spec.len_flits >= 2, "worm needs at least head and tail flits");
        if spec.kind == WormKind::Unicast {
            assert_eq!(spec.dests.len(), 1, "unicast worm must have exactly one destination");
        }
        if let Some(mask) = &spec.deliver {
            assert_eq!(mask.len(), spec.dests.len(), "deliver mask length mismatch");
            assert_eq!(mask.last(), Some(&true), "final destination must deliver");
        }
        let initial_acks = spec.initial_acks;
        let id = match self.free.pop() {
            Some(slot) => WormId(slot),
            None => WormId(self.worms.len() as u32),
        };
        let worm = Worm {
            spec,
            dest_idx: 0,
            acks: initial_acks,
            state: WormState::Queued,
            queued_at: now,
            delivered_at: None,
            turned: false,
            bounced: false,
            copies: 0,
        };
        if (id.0 as usize) < self.worms.len() {
            self.worms[id.0 as usize] = worm;
        } else {
            self.worms.push(worm);
        }
        id
    }

    /// True when the next insert will reuse a retired slot.
    pub fn will_reuse_slot(&self) -> bool {
        !self.free.is_empty()
    }

    /// Hand a fully retired worm's slot back for reuse (no-op unless
    /// recycling is enabled). Caller guarantees the worm is `Delivered`
    /// with no outstanding consumption copies and no live references.
    pub fn retire(&mut self, id: WormId) {
        if self.recycle {
            debug_assert_eq!(self.worms[id.0 as usize].state, WormState::Delivered);
            debug_assert_eq!(self.worms[id.0 as usize].copies, 0);
            self.free.push(id.0);
        }
    }

    /// Immutable access.
    pub fn get(&self, id: WormId) -> &Worm {
        &self.worms[id.0 as usize]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: WormId) -> &mut Worm {
        &mut self.worms[id.0 as usize]
    }

    /// Number of worms registered.
    pub fn len(&self) -> usize {
        self.worms.len()
    }

    /// True if no worms were ever registered.
    pub fn is_empty(&self) -> bool {
        self.worms.is_empty()
    }

    /// Iterate over all worms.
    pub fn iter(&self) -> impl Iterator<Item = &Worm> {
        self.worms.iter()
    }
}

snap_struct!(WormId(0));
snap_struct!(TxnId(0));
snap_enum!(VNet { 0 => Req, 1 => Reply });
snap_enum!(WormKind { 0 => Unicast, 1 => Multicast, 2 => Gather });
snap_enum!(FlitKind { 0 => Head, 1 => Body, 2 => Tail });
snap_struct!(Flit { worm, kind, seq });
snap_enum!(WormState { 0 => Queued, 1 => InFlight, 2 => Parked(node), 3 => Delivered });
snap_struct!(WormSpec {
    src,
    vnet,
    kind,
    dests,
    len_flits,
    payload,
    reserve_iack,
    txn,
    initial_acks,
    gather_deposit,
    deliver,
});
snap_struct!(Worm {
    spec,
    dest_idx,
    acks,
    state,
    queued_at,
    delivered_at,
    turned,
    bounced,
    copies,
});

mod snap_impls {
    use super::*;
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for WormTable {
        fn save(&self, w: &mut SnapWriter) {
            // `free` is LIFO slot reuse — its exact order is observable
            // through future worm-id assignment, so it is preserved
            // verbatim.
            self.worms.save(w);
            self.free.save(w);
            w.put_bool(self.recycle);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let worms: Vec<Worm> = Vec::load(r)?;
            let free: Vec<u32> = Vec::load(r)?;
            if free.iter().any(|&s| s as usize >= worms.len()) {
                return Err(SnapError::Corrupt("worm free list out of range".to_string()));
            }
            Ok(Self { worms, free, recycle: r.get_bool()? })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec2(dests: Vec<NodeId>, kind: WormKind) -> WormSpec {
        WormSpec {
            src: NodeId(0),
            vnet: VNet::Req,
            kind,
            dests: dests.into(),
            len_flits: 4,
            payload: 7,
            reserve_iack: false,
            txn: TxnId(1),
            initial_acks: 0,
            gather_deposit: false,
            deliver: None,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = WormTable::new();
        let id = t.insert(spec2(vec![NodeId(3)], WormKind::Unicast), 10);
        let w = t.get(id);
        assert_eq!(w.state, WormState::Queued);
        assert_eq!(w.queued_at, 10);
        assert_eq!(w.next_dest(), NodeId(3));
        assert!(w.at_last_dest_idx());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one destination")]
    fn empty_dests_rejected() {
        let mut t = WormTable::new();
        t.insert(spec2(vec![], WormKind::Multicast), 0);
    }

    #[test]
    #[should_panic(expected = "exactly one destination")]
    fn unicast_multi_dest_rejected() {
        let mut t = WormTable::new();
        t.insert(spec2(vec![NodeId(1), NodeId(2)], WormKind::Unicast), 0);
    }

    fn flits(worm: WormId, len: u16) -> Vec<Flit> {
        (0..len).map(|seq| Flit::nth(worm, seq, len)).collect()
    }

    #[test]
    fn flit_sequence_shape() {
        let fs = flits(WormId(5), 4);
        assert_eq!(fs.len(), 4);
        assert_eq!(fs[0].kind, FlitKind::Head);
        assert_eq!(fs[1].kind, FlitKind::Body);
        assert_eq!(fs[2].kind, FlitKind::Body);
        assert_eq!(fs[3].kind, FlitKind::Tail);
        assert!(fs.iter().all(|f| f.worm == WormId(5)));
        assert_eq!(fs[3].seq, 3);
    }

    #[test]
    fn two_flit_worm_is_head_then_tail() {
        let fs = flits(WormId(0), 2);
        assert_eq!(fs[0].kind, FlitKind::Head);
        assert_eq!(fs[1].kind, FlitKind::Tail);
    }

    #[test]
    fn latency_requires_delivery() {
        let mut t = WormTable::new();
        let id = t.insert(spec2(vec![NodeId(3)], WormKind::Unicast), 10);
        assert_eq!(t.get(id).latency(), None);
        t.get_mut(id).delivered_at = Some(60);
        t.get_mut(id).state = WormState::Delivered;
        assert_eq!(t.get(id).latency(), Some(50));
    }

    #[test]
    fn deliver_mask_marks_waypoints() {
        let mut t = WormTable::new();
        let mut sp = spec2(vec![NodeId(1), NodeId(2), NodeId(3)], WormKind::Multicast);
        sp.deliver = Some([false, true, true].into());
        let id = t.insert(sp, 0);
        assert!(!t.get(id).delivers_here());
        t.get_mut(id).dest_idx = 1;
        assert!(t.get(id).delivers_here());
    }

    #[test]
    #[should_panic(expected = "final destination must deliver")]
    fn waypoint_final_dest_rejected() {
        let mut t = WormTable::new();
        let mut sp = spec2(vec![NodeId(1), NodeId(2)], WormKind::Multicast);
        sp.deliver = Some([true, false].into());
        t.insert(sp, 0);
    }

    #[test]
    fn multidest_progression() {
        let mut t = WormTable::new();
        let id = t.insert(spec2(vec![NodeId(1), NodeId(2), NodeId(3)], WormKind::Multicast), 0);
        assert_eq!(t.get(id).next_dest(), NodeId(1));
        assert!(!t.get(id).at_last_dest_idx());
        t.get_mut(id).dest_idx = 2;
        assert_eq!(t.get(id).next_dest(), NodeId(3));
        assert!(t.get(id).at_last_dest_idx());
    }
}
