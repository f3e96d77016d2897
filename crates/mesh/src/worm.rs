//! Worms (messages) and flits.
//!
//! A *worm* is one wormhole message: a head flit carrying routing
//! information, body flits, and a tail flit. Multidestination worms carry an
//! ordered destination list (the BRCP path); the head is logically
//! "stripped" as each destination is reached, which the model represents by
//! advancing [`WormHot::dest_idx`].
//!
//! Flits reference their worm by id; payload lives in the central
//! [`WormTable`] so a flit is a worm id and its kind. A plain unicast
//! (one destination, no i-ack reserve, initial acks, gather deposit or
//! delivery mask: every reply and every UI-UA invalidation and ack) is
//! held whole in its 56-byte cold record and costs the heap nothing; any
//! other worm boxes its destination list, delivery mask and the rest of
//! its spec once, at injection. The table reuses the slot of every
//! retired worm, so a run's table stays the size of its working set. A
//! worm waiting in a NIC injection queue links to the next worm of that
//! queue through its own slot (see [`crate::nic`]).

use crate::topology::NodeId;
use wormdsm_sim::heap::vec_bytes;
use wormdsm_sim::snap::{snap_enum, snap_struct};
use wormdsm_sim::Cycle;

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
}

impl Flit {
    /// Flit `seq` (0 = head) of `worm`, a worm of `len` flits.
    #[inline]
    pub fn nth(worm: WormId, seq: u16, len: u16) -> Flit {
        let kind = if seq == 0 {
            FlitKind::Head
        } else if seq + 1 == len {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit { worm, kind }
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
    pub dests: Vec<NodeId>,
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
    pub deliver: Option<Vec<bool>>,
}

impl WormSpec {
    /// Bytes the spec owns on the heap: its destination list and delivery
    /// mask.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.dests) + self.deliver.as_ref().map_or(0, vec_bytes)
    }

    /// Convenience constructor for a unicast message.
    pub fn unicast(src: NodeId, dst: NodeId, vnet: VNet, len_flits: u16, payload: u64) -> Self {
        Self {
            src,
            vnet,
            kind: WormKind::Unicast,
            dests: vec![dst],
            len_flits,
            payload,
            reserve_iack: false,
            txn: TxnId(0),
            initial_acks: 0,
            gather_deposit: false,
            deliver: None,
        }
    }

    /// The first rule of [`WormTable::insert`]'s contract this spec
    /// breaks, or a node it names outside a mesh of `nodes` nodes.
    pub fn check(&self, nodes: usize) -> Result<(), String> {
        let deliver = self.deliver.as_deref();
        if let Some(e) = shape_error(self.kind, &self.dests, self.len_flits, deliver) {
            return Err(e.to_string());
        }
        node_error(self.src, &self.dests, nodes)
    }
}

/// A plain unicast worm: one destination, and no i-ack reserve, initial
/// acks, gather deposit or delivery mask. Every reply, every unicast ack
/// and every UI-UA invalidation is one, so the calendar and the worm
/// table hold it without a [`WormSpec`] and its destination list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unicast {
    /// Source node.
    pub src: NodeId,
    /// The one destination.
    pub dest: NodeId,
    /// Virtual network.
    pub vnet: VNet,
    /// Length in flits, at least 2.
    pub len: u16,
    /// Opaque payload handed back on delivery.
    pub payload: u64,
    /// Transaction the worm belongs to; `TxnId(0)` when unused.
    pub txn: TxnId,
}

impl Unicast {
    /// The compact form of `spec`, if it is a plain unicast.
    pub fn of(spec: &WormSpec) -> Option<Self> {
        let plain = spec.kind == WormKind::Unicast
            && spec.dests.len() == 1
            && !spec.reserve_iack
            && spec.initial_acks == 0
            && !spec.gather_deposit
            && spec.deliver.is_none();
        plain.then(|| Self {
            src: spec.src,
            dest: spec.dests[0],
            vnet: spec.vnet,
            len: spec.len_flits,
            payload: spec.payload,
            txn: spec.txn,
        })
    }

    /// The worm's spec.
    pub fn spec(self) -> WormSpec {
        WormSpec {
            txn: self.txn,
            ..WormSpec::unicast(self.src, self.dest, self.vnet, self.len, self.payload)
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

/// What a worm other than a plain [`Unicast`] carries beyond its cold
/// record: the destination list and the spec fields a plain unicast
/// leaves at their defaults.
#[derive(Debug, Clone)]
struct Route {
    kind: WormKind,
    dests: Vec<NodeId>,
    deliver: Option<Vec<bool>>,
    initial_acks: u32,
    reserve_iack: bool,
    gather_deposit: bool,
}

impl Route {
    /// Bytes of the box and its lists.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + vec_bytes(&self.dests)
            + self.deliver.as_ref().map_or(0, vec_bytes)
    }
}

/// `Worm::next` of a worm no other worm queues behind.
const NO_NEXT: u32 = u32::MAX;

/// A worm's cold record: everything injection, destination processing
/// and delivery read. The state the head reads on every router visit is
/// in the worm's [`WormHot`] record instead. A plain unicast lives whole
/// in these 56 bytes; any other worm keeps its destination list and the
/// rest of its spec in one boxed route. The injection parameters are
/// read through accessors, or whole through [`Worm::spec`].
#[derive(Debug, Clone)]
pub struct Worm {
    payload: u64,
    txn: TxnId,
    /// Cycle the worm was handed to the NIC.
    pub queued_at: Cycle,
    /// `None` for a plain unicast.
    route: Option<Box<Route>>,
    /// Acks accumulated so far (gather worms).
    pub acks: u32,
    /// Outstanding consumption-channel reservations (final consumption,
    /// absorb copies, bounces). A worm's table slot may only be recycled
    /// once it is `Delivered` *and* this count is back to zero — absorb
    /// copies at intermediate destinations can drain after the final tail.
    pub copies: u32,
    /// The worm queued behind this one in the same NIC injection queue
    /// ([`NO_NEXT`] at the queue's end, and whenever the worm is not
    /// queued). Not saved: the NICs save their queues as lists and relink
    /// on load.
    next: u32,
    src: NodeId,
    /// A plain unicast's destination; a routed worm's first.
    dest: NodeId,
    len: u16,
    /// Lifecycle state.
    pub state: WormState,
    vnet: VNet,
    /// Gather bounce in progress: the worm could neither collect nor park
    /// (no i-ack entry available), so it is being consumed at the local
    /// node for re-injection instead of holding network channels.
    pub bounced: bool,
}

const _: () = assert!(std::mem::size_of::<Worm>() == 56);

impl Worm {
    /// A freshly queued plain unicast.
    fn unicast(u: Unicast, queued_at: Cycle) -> Self {
        Self {
            payload: u.payload,
            txn: u.txn,
            queued_at,
            route: None,
            acks: 0,
            copies: 0,
            next: NO_NEXT,
            src: u.src,
            dest: u.dest,
            len: u.len,
            state: WormState::Queued,
            vnet: u.vnet,
            bounced: false,
        }
    }

    /// A freshly queued worm of `spec`, which breaks no rule of
    /// [`WormTable::insert`]'s contract: compact if it is a plain unicast.
    fn from_spec(spec: WormSpec, queued_at: Cycle) -> Self {
        if let Some(u) = Unicast::of(&spec) {
            return Self::unicast(u, queued_at);
        }
        let u = Unicast {
            src: spec.src,
            dest: spec.dests[0],
            vnet: spec.vnet,
            len: spec.len_flits,
            payload: spec.payload,
            txn: spec.txn,
        };
        let route = Route {
            kind: spec.kind,
            dests: spec.dests,
            deliver: spec.deliver,
            initial_acks: spec.initial_acks,
            reserve_iack: spec.reserve_iack,
            gather_deposit: spec.gather_deposit,
        };
        Self {
            acks: route.initial_acks,
            route: Some(Box::new(route)),
            ..Self::unicast(u, queued_at)
        }
    }

    /// Source node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Virtual network.
    pub fn vnet(&self) -> VNet {
        self.vnet
    }

    /// Worm kind.
    pub fn kind(&self) -> WormKind {
        self.route.as_ref().map_or(WormKind::Unicast, |r| r.kind)
    }

    /// Ordered destination list.
    pub fn dests(&self) -> &[NodeId] {
        match &self.route {
            Some(r) => &r.dests,
            None => std::slice::from_ref(&self.dest),
        }
    }

    /// Length in flits.
    pub fn len_flits(&self) -> u16 {
        self.len
    }

    /// Opaque payload handed back on delivery.
    pub fn payload(&self) -> u64 {
        self.payload
    }

    /// Transaction the worm belongs to.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The worm deposits its ack count at its final destination instead
    /// of delivering a message (see [`WormSpec::gather_deposit`]).
    pub fn gather_deposit(&self) -> bool {
        self.route.as_ref().is_some_and(|r| r.gather_deposit)
    }

    /// True for a plain unicast, held without a route.
    pub fn is_plain(&self) -> bool {
        self.route.is_none()
    }

    /// The spec the worm was injected with.
    pub fn spec(&self) -> WormSpec {
        match &self.route {
            None => Unicast {
                src: self.src,
                dest: self.dest,
                vnet: self.vnet,
                len: self.len,
                payload: self.payload,
                txn: self.txn,
            }
            .spec(),
            Some(r) => WormSpec {
                src: self.src,
                vnet: self.vnet,
                kind: r.kind,
                dests: r.dests.clone(),
                len_flits: self.len,
                payload: self.payload,
                reserve_iack: r.reserve_iack,
                txn: self.txn,
                initial_acks: r.initial_acks,
                gather_deposit: r.gather_deposit,
                deliver: r.deliver.clone(),
            },
        }
    }

    fn deliver(&self) -> Option<&[bool]> {
        self.route.as_ref().and_then(|r| r.deliver.as_deref())
    }

    /// The first rule of [`WormTable::insert`]'s contract the worm
    /// breaks, or a node it names outside a mesh of `nodes` nodes.
    fn check(&self, nodes: usize) -> Result<(), String> {
        if let Some(e) = shape_error(self.kind(), self.dests(), self.len, self.deliver()) {
            return Err(e.to_string());
        }
        node_error(self.src, self.dests(), nodes)
    }
}

/// A worm's hot record: the 12 bytes head processing, route allocation
/// and the head's hop read. `dest_idx` and `turned` live only here; the
/// other fields are copies of the cold [`Worm`] record's at `dest_idx`,
/// rewritten by [`WormTable`] whenever `dest_idx` changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WormHot {
    /// Index of the next destination to reach in the worm's destination
    /// list.
    pub dest_idx: u32,
    /// The destination at `dest_idx`: the node the head is routing toward.
    pub next_dest: NodeId,
    /// The worm's virtual network.
    pub vnet: VNet,
    /// The worm's kind.
    pub kind: WormKind,
    /// For west-first/east-first conformance enforcement: set once the worm
    /// has taken a hop that forbids further west (resp. east) hops.
    pub turned: bool,
    /// `dest_idx` is the last destination.
    pub last: bool,
    /// The destination at `dest_idx` delivers (false for a pure routing
    /// waypoint).
    pub delivers: bool,
    /// The worm reserves an i-ack entry at each intermediate destination
    /// ([`WormSpec::reserve_iack`]).
    pub reserve: bool,
}

impl WormHot {
    /// The hot record of worm `w` at destination `dest_idx`.
    fn derive(w: &Worm, dest_idx: u32, turned: bool) -> Self {
        let i = dest_idx as usize;
        let dests = w.dests();
        Self {
            dest_idx,
            next_dest: dests[i],
            vnet: w.vnet,
            kind: w.kind(),
            turned,
            last: i + 1 == dests.len(),
            delivers: w.deliver().is_none_or(|m| m[i]),
            reserve: w.route.as_ref().is_some_and(|r| r.reserve_iack),
        }
    }
}

const _: () = assert!(std::mem::size_of::<WormHot>() == 12);

/// The first rule of [`WormTable::insert`]'s contract that a worm of
/// `kind` to `dests`, `len_flits` long and with delivery mask `deliver`,
/// breaks.
fn shape_error(
    kind: WormKind,
    dests: &[NodeId],
    len_flits: u16,
    deliver: Option<&[bool]>,
) -> Option<&'static str> {
    if dests.is_empty() {
        return Some("worm must have at least one destination");
    }
    if dests.len() > u32::MAX as usize {
        return Some("worm has more destinations than a u32 indexes");
    }
    if len_flits < 2 {
        return Some("worm needs at least head and tail flits");
    }
    if kind == WormKind::Unicast && dests.len() != 1 {
        return Some("unicast worm must have exactly one destination");
    }
    if let Some(mask) = deliver {
        if mask.len() != dests.len() {
            return Some("deliver mask length mismatch");
        }
        if mask.last() != Some(&true) {
            return Some("final destination must deliver");
        }
    }
    None
}

/// The first of `dests` and `src` outside a mesh of `nodes` nodes, as an
/// error.
fn node_error(src: NodeId, dests: &[NodeId], nodes: usize) -> Result<(), String> {
    match dests.iter().copied().chain([src]).find(|d| d.idx() >= nodes) {
        Some(d) => Err(format!("node {} outside a {nodes}-node mesh", d.idx())),
        None => Ok(()),
    }
}

/// Central store of all worms injected in a simulation run: one dense
/// [`WormHot`] record and one cold [`Worm`] record per slot, in two
/// parallel vectors indexed by [`WormId`].
///
/// Slots of retired worms (delivered, all copies drained) are reused by
/// later inserts, so a long run's table stays the size of its working set
/// instead of growing per message. A retired worm's record is therefore
/// valid only until the next insert.
#[derive(Debug, Default)]
pub struct WormTable {
    hot: Vec<WormHot>,
    worms: Vec<Worm>,
    /// Retired slots available for reuse (LIFO; deterministic).
    free: Vec<u32>,
}

impl WormTable {
    /// Most slots the table may hold, `2^30 - 1`: a router's FIFO ring
    /// packs a worm id and a flit kind into one `u32`, leaving 30 bits for
    /// the id.
    pub const MAX_SLOTS: usize = (1 << 30) - 1;

    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new worm; returns its id. A plain unicast is stored
    /// compact. Reuses the most recently retired slot, if any. Panics
    /// when `spec` breaks a rule of [`WormSpec::check`], or when no slot
    /// is free and the table already holds [`WormTable::MAX_SLOTS`] worms.
    pub fn insert(&mut self, spec: WormSpec, now: Cycle) -> WormId {
        if let Some(e) =
            shape_error(spec.kind, &spec.dests, spec.len_flits, spec.deliver.as_deref())
        {
            panic!("{e}");
        }
        self.put(Worm::from_spec(spec, now))
    }

    /// Register a plain unicast; as [`WormTable::insert`] with its spec,
    /// without building one.
    pub fn insert_unicast(&mut self, u: Unicast, now: Cycle) -> WormId {
        assert!(u.len >= 2, "worm needs at least head and tail flits");
        self.put(Worm::unicast(u, now))
    }

    /// True when the next insert will reuse a retired slot.
    pub fn will_reuse_slot(&self) -> bool {
        !self.free.is_empty()
    }

    fn put(&mut self, worm: Worm) -> WormId {
        let id = match self.free.pop() {
            Some(slot) => WormId(slot),
            None => {
                assert!(
                    self.worms.len() < Self::MAX_SLOTS,
                    "worm table full: {} slots, none retired",
                    Self::MAX_SLOTS
                );
                WormId(self.worms.len() as u32)
            }
        };
        let hot = WormHot::derive(&worm, 0, false);
        let i = id.0 as usize;
        if i < self.worms.len() {
            self.hot[i] = hot;
            self.worms[i] = worm;
        } else {
            self.hot.push(hot);
            self.worms.push(worm);
        }
        id
    }

    /// Bytes the table holds on the heap, every route box and its lists
    /// included (a retired slot keeps its route until it is reused).
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.hot)
            + vec_bytes(&self.worms)
            + vec_bytes(&self.free)
            + self
                .worms
                .iter()
                .filter_map(|w| w.route.as_deref())
                .map(Route::heap_bytes)
                .sum::<usize>()
    }

    /// Hand a fully retired worm's slot back for reuse. Caller guarantees
    /// the worm is `Delivered` with no outstanding consumption copies and
    /// no live references.
    pub fn retire(&mut self, id: WormId) {
        debug_assert_eq!(self.worms[id.0 as usize].state, WormState::Delivered);
        debug_assert_eq!(self.worms[id.0 as usize].copies, 0);
        self.free.push(id.0);
    }

    /// The hot record of `id`.
    #[inline]
    pub fn hot(&self, id: WormId) -> WormHot {
        self.hot[id.0 as usize]
    }

    /// Strip the header hop: move `id` on to its next destination. Panics
    /// at the last destination.
    pub fn advance(&mut self, id: WormId) {
        let i = id.0 as usize;
        let h = self.hot[i];
        assert!(!h.last, "worm {} advanced past its last destination", id.0);
        self.hot[i] = WormHot::derive(&self.worms[i], h.dest_idx + 1, h.turned);
    }

    /// The worm queued behind `id` in its injection queue.
    #[inline]
    pub(crate) fn next(&self, id: WormId) -> Option<WormId> {
        let next = self.worms[id.0 as usize].next;
        (next != NO_NEXT).then_some(WormId(next))
    }

    /// Link `next` behind `id` in its injection queue.
    #[inline]
    pub(crate) fn set_next(&mut self, id: WormId, next: Option<WormId>) {
        self.worms[id.0 as usize].next = next.map_or(NO_NEXT, |n| n.0);
    }

    /// Set or clear the `turned` flag of `id`.
    #[inline]
    pub fn set_turned(&mut self, id: WormId, turned: bool) {
        self.hot[id.0 as usize].turned = turned;
    }

    /// Immutable access to the cold record.
    pub fn get(&self, id: WormId) -> &Worm {
        &self.worms[id.0 as usize]
    }

    /// Mutable access to the cold record.
    pub fn get_mut(&mut self, id: WormId) -> &mut Worm {
        &mut self.worms[id.0 as usize]
    }

    /// Iterate over all worms' cold records.
    pub fn iter(&self) -> impl Iterator<Item = &Worm> {
        self.worms.iter()
    }

    /// Number of worms registered.
    pub fn len(&self) -> usize {
        self.worms.len()
    }

    /// True if no worms were ever registered.
    pub fn is_empty(&self) -> bool {
        self.worms.is_empty()
    }

    /// Check every slot's hot record against the one its cold record and
    /// `dest_idx` imply, and every destination and source against a mesh
    /// of `nodes` nodes; report the first slot that disagrees.
    pub fn check(&self, nodes: usize) -> Result<(), String> {
        if self.hot.len() != self.worms.len() {
            return Err(format!("{} hot records for {} worms", self.hot.len(), self.worms.len()));
        }
        for (i, (h, w)) in self.hot.iter().zip(&self.worms).enumerate() {
            w.check(nodes).map_err(|e| format!("worm {i}: {e}"))?;
            if h.dest_idx as usize >= w.dests().len() {
                return Err(format!(
                    "worm {i}: dest_idx {} of {} destinations",
                    h.dest_idx,
                    w.dests().len()
                ));
            }
            let want = WormHot::derive(w, h.dest_idx, h.turned);
            if *h != want {
                return Err(format!("worm {i}: hot record {h:?} but its spec implies {want:?}"));
            }
        }
        Ok(())
    }
}

snap_struct!(WormId(0));
snap_struct!(TxnId(0));
snap_enum!(VNet { 0 => Req, 1 => Reply });
snap_enum!(WormKind { 0 => Unicast, 1 => Multicast, 2 => Gather });
snap_enum!(FlitKind { 0 => Head, 1 => Body, 2 => Tail });
snap_struct!(Flit { worm, kind });
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

mod snap_impls {
    use super::*;
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    /// Each worm is one record of spec, dest_idx, acks, state,
    /// queued_at, turned, bounced and copies, with
    /// `dest_idx` and `turned` taken from its hot record; the rest of the
    /// hot record is derived again on load. A plain unicast saves as its
    /// spec too, and loads compact again.
    impl Snap for WormTable {
        fn save(&self, w: &mut SnapWriter) {
            w.put_usize(self.worms.len());
            for (h, c) in self.hot.iter().zip(&self.worms) {
                c.spec().save(w);
                w.put_usize(h.dest_idx as usize);
                w.put_u32(c.acks);
                c.state.save(w);
                w.put_u64(c.queued_at);
                w.put_bool(h.turned);
                w.put_bool(c.bounced);
                w.put_u32(c.copies);
            }
            // `free` is LIFO slot reuse — its exact order is observable
            // through future worm-id assignment, so it is preserved
            // verbatim.
            self.free.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let n = r.get_usize()?;
            if n > WormTable::MAX_SLOTS {
                return Err(SnapError::Corrupt(format!(
                    "worm table of {n} slots, more than the {} it may hold",
                    WormTable::MAX_SLOTS
                )));
            }
            if n > r.remaining() {
                return Err(SnapError::Corrupt(format!(
                    "worm table of {n} slots exceeds {} remaining bytes",
                    r.remaining()
                )));
            }
            let (mut hot, mut worms) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for i in 0..n {
                let spec = WormSpec::load(r)?;
                let dest_idx = r.get_usize()?;
                let acks = r.get_u32()?;
                let state = WormState::load(r)?;
                let queued_at = r.get_u64()?;
                let turned = r.get_bool()?;
                let bounced = r.get_bool()?;
                let copies = r.get_u32()?;
                // The rules `insert` asserts, so the hot record can be
                // derived and the first hop cannot index past the list.
                let deliver = spec.deliver.as_deref();
                if let Some(e) = shape_error(spec.kind, &spec.dests, spec.len_flits, deliver) {
                    return Err(SnapError::Corrupt(format!("worm {i}: {e}")));
                }
                if dest_idx >= spec.dests.len() {
                    return Err(SnapError::Corrupt(format!(
                        "worm {i}: dest_idx {dest_idx} of {} destinations",
                        spec.dests.len()
                    )));
                }
                let c = Worm { acks, state, bounced, copies, ..Worm::from_spec(spec, queued_at) };
                hot.push(WormHot::derive(&c, dest_idx as u32, turned));
                worms.push(c);
            }
            let free: Vec<u32> = Vec::load(r)?;
            if free.iter().any(|&s| s as usize >= worms.len()) {
                return Err(SnapError::Corrupt("worm free list out of range".to_string()));
            }
            // A free slot is reused by the next insert, which overwrites
            // the record (and its queue link); only a retired worm may be
            // there, and only once.
            let mut listed = vec![false; worms.len()];
            for &s in &free {
                let w = &worms[s as usize];
                if w.state != WormState::Delivered
                    || w.copies != 0
                    || std::mem::replace(&mut listed[s as usize], true)
                {
                    return Err(SnapError::Corrupt(format!(
                        "worm free list names slot {s} twice or before it retired"
                    )));
                }
            }
            Ok(Self { hot, worms, free })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    fn spec2(dests: Vec<NodeId>, kind: WormKind) -> WormSpec {
        WormSpec {
            src: NodeId(0),
            vnet: VNet::Req,
            kind,
            dests,
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
        let h = t.hot(id);
        assert_eq!(h.next_dest, NodeId(3));
        assert!(h.last && h.delivers && h.dest_idx == 0 && !h.turned);
        assert_eq!((h.vnet, h.kind), (VNet::Req, WormKind::Unicast));
        assert_eq!(t.len(), 1);
        assert_eq!(t.check(4), Ok(()));
        assert!(t.check(3).unwrap_err().contains("node 3 outside a 3-node mesh"));
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
    }

    #[test]
    fn two_flit_worm_is_head_then_tail() {
        let fs = flits(WormId(0), 2);
        assert_eq!(fs[0].kind, FlitKind::Head);
        assert_eq!(fs[1].kind, FlitKind::Tail);
    }

    /// A worm's latency is read off the delivery log: nothing is logged
    /// until its tail drains, and then one delivery whose `at` is the
    /// drain cycle, the cycle the worm turned `Delivered`.
    #[test]
    fn latency_requires_delivery() {
        use crate::network::{MeshConfig, Network};
        let mut net = Network::new(MeshConfig::paper_defaults(4));
        let dst = NodeId(6);
        let id = net.inject(WormSpec::unicast(NodeId(0), dst, VNet::Req, 8, 1));
        while net.worm(id).state != WormState::Delivered {
            assert!(net.take_deliveries(dst).is_empty(), "logged before its tail drained");
            net.tick();
        }
        let ds = net.take_deliveries(dst);
        assert_eq!(ds.len(), 1);
        assert_eq!((ds[0].worm, ds[0].at), (id, net.now()));
        assert!(ds[0].at - net.worm(id).queued_at > 8, "a latency of at least the worm's length");
    }

    #[test]
    fn deliver_mask_marks_waypoints() {
        let mut t = WormTable::new();
        let mut sp = spec2(vec![NodeId(1), NodeId(2), NodeId(3)], WormKind::Multicast);
        sp.deliver = Some(vec![false, true, true]);
        let id = t.insert(sp, 0);
        assert!(!t.hot(id).delivers);
        t.advance(id);
        assert!(t.hot(id).delivers);
    }

    #[test]
    #[should_panic(expected = "final destination must deliver")]
    fn waypoint_final_dest_rejected() {
        let mut t = WormTable::new();
        let mut sp = spec2(vec![NodeId(1), NodeId(2)], WormKind::Multicast);
        sp.deliver = Some(vec![true, false]);
        t.insert(sp, 0);
    }

    #[test]
    fn multidest_progression() {
        let mut t = WormTable::new();
        let id = t.insert(spec2(vec![NodeId(1), NodeId(2), NodeId(3)], WormKind::Multicast), 0);
        assert_eq!(t.hot(id).next_dest, NodeId(1));
        assert!(!t.hot(id).last);
        t.set_turned(id, true);
        t.advance(id);
        t.advance(id);
        let h = t.hot(id);
        assert_eq!((h.dest_idx, h.next_dest), (2, NodeId(3)));
        assert!(h.last && h.turned, "advancing keeps the turned flag");
        assert_eq!(t.check(4), Ok(()));
    }

    #[test]
    #[should_panic(expected = "past its last destination")]
    fn advance_past_the_last_destination_panics() {
        let mut t = WormTable::new();
        let id = t.insert(spec2(vec![NodeId(3)], WormKind::Unicast), 0);
        t.advance(id);
    }

    /// `check` names a hot record that no longer matches its spec.
    #[test]
    fn check_reports_a_stale_hot_record() {
        let mut t = WormTable::new();
        let id = t.insert(spec2(vec![NodeId(1), NodeId(2)], WormKind::Multicast), 0);
        t.hot[id.0 as usize].dest_idx = 1;
        let e = t.check(4).unwrap_err();
        assert!(e.contains("worm 0: hot record"), "{e}");
    }

    fn saved(t: &WormTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.save(&mut w);
        w.finish()
    }

    fn loaded(bytes: &[u8]) -> Result<WormTable, SnapError> {
        WormTable::load(&mut SnapReader::new(bytes)?)
    }

    /// A table with one three-destination multicast in flight at its
    /// second destination, turned, and one delivered unicast.
    fn table() -> WormTable {
        let mut t = WormTable::new();
        let mut sp = spec2(vec![NodeId(1), NodeId(2), NodeId(3)], WormKind::Multicast);
        sp.deliver = Some(vec![true, false, true]);
        let id = t.insert(sp, 4);
        t.advance(id);
        t.set_turned(id, true);
        let u = t.insert(spec2(vec![NodeId(3)], WormKind::Unicast), 5);
        t.get_mut(u).state = WormState::Delivered;
        t
    }

    #[test]
    fn save_load_rebuilds_the_hot_records() {
        let t = table();
        let u = loaded(&saved(&t)).expect("loads");
        assert_eq!(u.hot, t.hot);
        assert_eq!(saved(&u), saved(&t));
        assert_eq!(u.check(4), Ok(()));
    }

    /// The route of slot `i`, given one with the slot's spec if the slot
    /// holds a plain unicast.
    fn route(t: &mut WormTable, i: usize) -> &mut Route {
        let w = &mut t.worms[i];
        let dest = w.dest;
        w.route.get_or_insert_with(|| {
            Box::new(Route {
                kind: WormKind::Unicast,
                dests: vec![dest],
                deliver: None,
                initial_acks: 0,
                reserve_iack: false,
                gather_deposit: false,
            })
        })
    }

    /// Load a table whose first worm `corrupt` has broken, expecting a
    /// `Corrupt` refusal that contains `want`.
    fn refused(corrupt: impl FnOnce(&mut WormTable), want: &str) {
        let mut t = table();
        corrupt(&mut t);
        match loaded(&saved(&t)) {
            Err(SnapError::Corrupt(e)) => assert!(e.contains(want), "{e}"),
            other => panic!("expected a Corrupt refusal naming {want:?}, got {other:?}"),
        }
    }

    /// A router FIFO entry holds a worm id in 30 bits, so a table of
    /// 2^30 slots or more is refused from its length alone; one just
    /// under the limit still has to fit the bytes that follow.
    #[test]
    fn load_refuses_a_table_of_two_to_the_thirty_slots() {
        for (n, want) in [
            (1u64 << 30, "worm table of 1073741824 slots, more than the 1073741823"),
            (1 << 40, "more than the 1073741823 it may hold"),
            (WormTable::MAX_SLOTS as u64, "exceeds 8 remaining bytes"),
        ] {
            let mut w = SnapWriter::new();
            w.put_u64(n);
            Vec::<u32>::new().save(&mut w);
            match loaded(&w.finish()) {
                Err(SnapError::Corrupt(e)) => assert!(e.contains(want), "{n}: {e}"),
                other => panic!("{n} slots: expected a Corrupt refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn load_refuses_a_dest_idx_past_the_destinations() {
        refused(|t| t.hot[0].dest_idx = 3, "dest_idx 3 of 3 destinations");
    }

    #[test]
    fn load_refuses_an_empty_destination_list() {
        refused(
            |t| {
                let r = route(t, 0);
                r.dests = Vec::new();
                r.deliver = None;
            },
            "at least one destination",
        );
    }

    #[test]
    fn load_refuses_a_deliver_mask_of_another_length() {
        refused(|t| route(t, 0).deliver = Some(vec![true, true]), "mask length");
    }

    #[test]
    fn load_refuses_a_final_waypoint() {
        refused(
            |t| route(t, 0).deliver = Some(vec![true, true, false]),
            "final destination must deliver",
        );
    }

    #[test]
    fn load_refuses_a_unicast_with_several_destinations() {
        refused(|t| route(t, 1).dests = vec![NodeId(2), NodeId(3)], "exactly one destination");
    }

    #[test]
    fn load_refuses_a_worm_shorter_than_two_flits() {
        refused(|t| t.worms[1].len = 1, "head and tail flits");
    }

    #[test]
    fn load_refuses_a_free_slot_of_a_live_or_twice_freed_worm() {
        refused(|t| t.free.push(0), "free list names slot 0");
        refused(
            |t| {
                t.retire(WormId(1));
                t.free.push(1);
            },
            "free list names slot 1 twice",
        );
    }
}
