//! Network interface controller (router interface).
//!
//! Each node's NIC owns, per the paper's router-interface design:
//!
//! * **injection queues** (one per virtual network) feeding the router's
//!   local input port. A queue is a head/tail pair of worm ids, and each
//!   queued worm links to the worm behind it through its slot in the
//!   [`WormTable`]: a queued worm is live and waits in one queue only, so
//!   an empty queue costs 8 bytes and a queued worm nothing more;
//! * **consumption channels** — the multiple parallel ejection channels
//!   whose count bounds deadlock for multidestination worms (4 suffice on a
//!   2D mesh \[39\]) and relieve hot-spot ejection pressure \[2\]. What
//!   bounds deadlock is how full a channel is, not which flits it holds,
//!   so a channel is one 8-byte [`ConsChannel`] record: its owner, how
//!   many of the owner's flits wait for the node, and two flags (absorb
//!   copy, tail arrived);
//! * **i-ack buffers** — the small (2-4 entry) memory-mapped buffer pool
//!   used to post invalidation acknowledgements for i-gather worms and to
//!   park gather worms under virtual cut-through + deferred delivery.
//!
//! Delivered messages leave through one network-wide queue, in NIC order:
//! ascending node, and channel order within a node. That is the order the
//! NIC phase completes them in, so it needs no sorting.
//!
//! Like the router's, NIC state is stored for all nodes at once
//! ([`NicSlab`]), one field per slab. State that is empty almost always
//! costs a node next to nothing: an i-ack entry is stored only while it
//! is occupied (a node with none holds one 4-byte link), and the resume
//! and deposit-retry queues of every node share one node-sorted list
//! each ([`NodeLists`]), whose emptiness per node is one bit. The i-ack
//! buffer state machine — the trickiest part of the VCT deferred-delivery
//! protocol — is written as methods over that entry pool.

use crate::topology::NodeId;
use crate::worm::{Flit, FlitKind, TxnId, VNet, WormId, WormState, WormTable, NUM_VNETS};
use std::collections::VecDeque;
use wormdsm_sim::heap::{deque_bytes, vec_bytes};
use wormdsm_sim::snap::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use wormdsm_sim::{Cycle, NodeLists, Strided};

/// How a gather worm behaves when it reaches a router interface whose i-ack
/// has not been posted yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IackMode {
    /// Hold the worm in the network (hold-and-wait), retrying each cycle.
    Block,
    /// Virtual cut-through + deferred delivery: swallow the worm into the
    /// i-ack buffer entry, release its channels, and re-inject it when the
    /// local ack is posted (paper section 4.3.4).
    VctDefer,
}

/// State of one i-ack buffer entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IackState {
    /// Reserved by a passing i-reserve worm; ack not yet posted.
    Reserved,
    /// Ack(s) posted and waiting for a gather worm; `count` acks worth.
    Posted {
        /// Number of acknowledgements this entry represents.
        count: u32,
    },
    /// A gather worm is parked here waiting for the local ack.
    Parked {
        /// The parked worm.
        worm: WormId,
        /// Flits drained into the buffer so far.
        drained: u16,
        /// Total flits of the worm.
        total: u16,
        /// Ack count posted while parked (None until posted).
        posted: Option<u32>,
    },
}

/// One i-ack buffer entry.
#[derive(Debug, Clone)]
pub struct IackEntry {
    /// Transaction the entry belongs to.
    pub txn: TxnId,
    /// Entry state.
    pub state: IackState,
}

/// Result of posting an i-ack at a NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOutcome {
    /// Stored into an entry (previously reserved or newly allocated).
    Stored,
    /// A parked gather worm absorbed the ack and is ready to resume; the
    /// network layer must re-inject it (the absorbed count is queued on
    /// the node's resume queue).
    ResumeParked(WormId),
    /// A parked gather worm absorbed the ack but its flits are still
    /// draining; it will resume when the tail arrives.
    ResumePending,
    /// No buffer entry available; caller must fall back to a unicast ack.
    NoSpace,
}

impl PostOutcome {
    /// True when the post found no buffer entry and must be retried.
    pub fn is_no_space(&self) -> bool {
        matches!(self, PostOutcome::NoSpace)
    }
}

/// Result a router gets when a gather head checks the local i-ack buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherCheck {
    /// Ack available; `count` acks were absorbed and the entry freed.
    Ready(u32),
    /// Not posted yet.
    NotReady,
}

/// A message handed from the network to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving node.
    pub node: NodeId,
    /// The worm.
    pub worm: WormId,
    /// Source node of the worm.
    pub src: NodeId,
    /// Opaque payload from the [`crate::worm::WormSpec`].
    pub payload: u64,
    /// Accumulated ack count (gather worms; 0 otherwise).
    pub acks: u32,
    /// Cycle the tail drained.
    pub at: Cycle,
    /// Transaction id of the worm.
    pub txn: TxnId,
}

/// Streaming state of a worm being injected into a local input VC.
#[derive(Debug, Clone, Copy)]
pub struct StreamState {
    /// Worm being streamed.
    pub worm: WormId,
    /// Next flit sequence number to push.
    pub next_seq: u16,
    /// Total flits.
    pub len: u16,
}

// --- i-ack buffer state machine, over the shared entry pool ---

/// Pool link meaning "no record".
const NIL: u32 = u32::MAX;

/// One occupied i-ack entry: the entry, its index in its node's buffer,
/// and the record of the node's next occupied entry by index.
#[derive(Debug, Clone)]
struct IackRec {
    entry: IackEntry,
    idx: u8,
    next: u32,
}

/// The i-ack buffers of every node, holding an entry only while it is
/// occupied. Each node's occupied entries form a list through the pool,
/// in ascending entry index, so an entry keeps its index (a parked
/// worm's drain names it) and the lowest free index is the first gap in
/// the list. The buffers are 2-4 entries in the paper's range, so every
/// walk is a few records; a node with no entry costs one link.
#[derive(Debug)]
struct IackPool {
    /// Entries per node.
    per: usize,
    /// Each node's first occupied entry ([`NIL`] when none).
    head: Vec<u32>,
    recs: Vec<IackRec>,
    /// Vacated records, reused last in, first out.
    free: Vec<u32>,
}

impl IackPool {
    fn new(nodes: usize, per: usize) -> Self {
        Self { per, head: vec![NIL; nodes], recs: Vec::new(), free: Vec::new() }
    }

    /// The records of node `n`'s occupied entries, lowest index first.
    fn walk(&self, n: usize) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head[n];
        std::iter::from_fn(move || {
            let r = cur;
            (r != NIL).then(|| {
                cur = self.recs[r as usize].next;
                r
            })
        })
    }

    /// Node `n`'s occupied entries with their indices, lowest first.
    fn entries(&self, n: usize) -> impl Iterator<Item = (usize, &IackEntry)> + '_ {
        self.walk(n).map(|r| {
            let rec = &self.recs[r as usize];
            (usize::from(rec.idx), &rec.entry)
        })
    }

    /// The record of node `n`'s entry for `txn`.
    fn find(&self, n: usize, txn: TxnId) -> Option<u32> {
        self.walk(n).find(|&r| self.recs[r as usize].entry.txn == txn)
    }

    /// The record of entry `idx` of node `n`, if occupied.
    fn at(&self, n: usize, idx: usize) -> Option<u32> {
        self.walk(n).find(|&r| usize::from(self.recs[r as usize].idx) == idx)
    }

    /// The lowest free entry index of node `n`; None when all are held.
    fn free_index(&self, n: usize) -> Option<usize> {
        let mut want = 0;
        for (idx, _) in self.entries(n) {
            if idx != want {
                break;
            }
            want += 1;
        }
        (want < self.per).then_some(want)
    }

    /// Occupy free entry `idx` of node `n` with `entry`.
    fn insert(&mut self, n: usize, idx: usize, entry: IackEntry) {
        let prev =
            self.walk(n).take_while(|&r| usize::from(self.recs[r as usize].idx) < idx).last();
        let next = prev.map_or(self.head[n], |p| self.recs[p as usize].next);
        let rec = IackRec { entry, idx: idx as u8, next };
        let r = match self.free.pop() {
            Some(r) => {
                self.recs[r as usize] = rec;
                r
            }
            None => {
                self.recs.push(rec);
                (self.recs.len() - 1) as u32
            }
        };
        match prev {
            Some(p) => self.recs[p as usize].next = r,
            None => self.head[n] = r,
        }
    }

    /// Free the entry record `r` of node `n` holds.
    fn remove(&mut self, n: usize, r: u32) {
        let next = self.recs[r as usize].next;
        let prev = self.walk(n).find(|&p| self.recs[p as usize].next == r);
        match prev {
            Some(p) => self.recs[p as usize].next = next,
            None => self.head[n] = next,
        }
        self.free.push(r);
    }

    /// Reserve an entry for `txn` at node `n` (i-reserve worm passing
    /// through). Idempotent for retried headers; false when the buffer is
    /// full.
    fn reserve(&mut self, n: usize, txn: TxnId) -> bool {
        if self.find(n, txn).is_some() {
            return true;
        }
        match self.free_index(n) {
            Some(i) => {
                self.insert(n, i, IackEntry { txn, state: IackState::Reserved });
                true
            }
            None => false,
        }
    }

    /// Post `count` acks worth for `txn` at node `n` (local acks and
    /// partial-count deposits from first-level gather worms).
    fn post_count(
        &mut self,
        n: usize,
        resume: &mut NodeLists<(WormId, u32)>,
        txn: TxnId,
        count: u32,
    ) -> PostOutcome {
        let Some(r) = self.find(n, txn) else {
            return match self.free_index(n) {
                Some(i) => {
                    self.insert(n, i, IackEntry { txn, state: IackState::Posted { count } });
                    PostOutcome::Stored
                }
                None => PostOutcome::NoSpace,
            };
        };
        let entry = &mut self.recs[r as usize].entry;
        match &mut entry.state {
            IackState::Reserved => {
                entry.state = IackState::Posted { count };
                PostOutcome::Stored
            }
            IackState::Posted { count: c } => {
                *c += count;
                PostOutcome::Stored
            }
            IackState::Parked { worm, drained, total, posted } => {
                debug_assert!(posted.is_none(), "double post on parked entry");
                *posted = Some(count);
                if drained == total {
                    let w = *worm;
                    self.remove(n, r);
                    resume.push(n, (w, count));
                    PostOutcome::ResumeParked(w)
                } else {
                    PostOutcome::ResumePending
                }
            }
        }
    }

    /// A gather head at node `n` checks for its ack. On `Ready`, the
    /// entry is freed and the count returned.
    fn gather_check(&mut self, n: usize, txn: TxnId) -> GatherCheck {
        if let Some(r) = self.find(n, txn) {
            if let IackState::Posted { count } = self.recs[r as usize].entry.state {
                self.remove(n, r);
                return GatherCheck::Ready(count);
            }
        }
        GatherCheck::NotReady
    }

    /// Try to park gather worm `worm` (of `total` flits) for `txn` at
    /// node `n`. Returns the entry index, or None if no entry can hold it.
    fn park(&mut self, n: usize, txn: TxnId, worm: WormId, total: u16) -> Option<usize> {
        let state = IackState::Parked { worm, drained: 0, total, posted: None };
        match self.find(n, txn) {
            // The entry exists (reserved); it must not already be posted
            // — gather_check would have consumed a posted entry.
            Some(r) => {
                let rec = &mut self.recs[r as usize];
                if rec.entry.state != IackState::Reserved {
                    return None;
                }
                rec.entry.state = state;
                Some(usize::from(rec.idx))
            }
            None => {
                let i = self.free_index(n)?;
                self.insert(n, i, IackEntry { txn, state });
                Some(i)
            }
        }
    }

    /// One flit of a parked worm drained into entry `idx` of node `n`.
    /// Returns the worm (and the ack count it absorbs) if the park
    /// completed *and* the ack was already posted, meaning it must resume.
    fn park_drain(
        &mut self,
        n: usize,
        resume: &mut NodeLists<(WormId, u32)>,
        idx: usize,
        is_tail: bool,
    ) -> Option<(WormId, u32)> {
        let r = self.at(n, idx).expect("parked entry");
        let IackState::Parked { worm, drained, total, posted } =
            &mut self.recs[r as usize].entry.state
        else {
            panic!("park_drain on non-parked entry");
        };
        *drained += 1;
        if is_tail {
            debug_assert_eq!(*drained, *total, "tail drained before all flits");
        }
        if drained == total {
            if let Some(count) = *posted {
                let w = *worm;
                self.remove(n, r);
                resume.push(n, (w, count));
                return Some((w, count));
            }
        }
        None
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.head) + vec_bytes(&self.recs) + vec_bytes(&self.free)
    }

    /// Write the buffers in the layout of a strided slab of
    /// `Option<IackEntry>` (stride `per`, one row a node).
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.per);
        w.put_usize(self.head.len() * self.per);
        for n in 0..self.head.len() {
            let mut held = self.entries(n).peekable();
            for i in 0..self.per {
                // An `Option<IackEntry>`'s encoding.
                match held.next_if(|&(idx, _)| idx == i) {
                    Some((_, e)) => {
                        w.put_u8(1);
                        e.save(w);
                    }
                    None => w.put_u8(0),
                }
            }
        }
    }

    /// Read a [`IackPool::save`] stream into this pool, which must be
    /// empty and have the stream's geometry.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let per = r.get_usize()?;
        let len = r.get_len()?;
        if per != self.per || len != self.head.len() * per {
            return Err(SnapError::Corrupt("nic slab geometry mismatch".into()));
        }
        for n in 0..self.head.len() {
            for i in 0..per {
                if let Some(e) = Option::<IackEntry>::load(r)? {
                    self.insert(n, i, e);
                }
            }
        }
        Ok(())
    }
}

/// Worm id of a free consumption channel's owner and of an empty
/// injection queue's ends.
const NO_WORM: u32 = u32::MAX;

/// One consumption channel: the worm holding it (reserved when its head
/// arrives, released when its tail drains to the node) and how many of
/// that worm's flits are buffered for the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsChannel {
    /// The owning worm's id, [`NO_WORM`] while the channel is free.
    owner: u32,
    /// Flits buffered, waiting for the node to drain them.
    flits: u16,
    /// The channel receives absorb copies (the worm continues in the
    /// network) rather than a final consumption.
    absorb: bool,
    /// The worm's tail is among the buffered flits: the copy completes
    /// when they have all drained.
    tail: bool,
}

const _: () = assert!(std::mem::size_of::<ConsChannel>() == 8);

impl ConsChannel {
    /// A channel no worm holds.
    const FREE: Self = Self { owner: NO_WORM, flits: 0, absorb: false, tail: false };

    /// The worm holding the channel, if any.
    pub fn owner(&self) -> Option<WormId> {
        (self.owner != NO_WORM).then_some(WormId(self.owner))
    }

    /// True if the channel receives absorb copies.
    pub fn absorb(&self) -> bool {
        self.absorb
    }
}

/// One injection queue: its first and last worm ([`NO_WORM`] when
/// empty). The worms in between link through [`WormTable`].
#[derive(Debug, Clone, Copy)]
struct InjectQueue {
    head: u32,
    tail: u32,
}

impl InjectQueue {
    const EMPTY: Self = Self { head: NO_WORM, tail: NO_WORM };
}

/// NIC state for every node, one field per slab. All indices are global
/// node ids.
#[derive(Debug)]
pub struct NicSlab {
    /// Worms waiting to enter the network (stride [`NUM_VNETS`]).
    inject: Strided<InjectQueue>,
    /// Per local-input-VC streaming state (stride `local_vcs`, indexed like
    /// router VCs).
    streaming: Strided<Option<StreamState>>,
    /// Consumption channels (stride `cons_channels`).
    cons: Strided<ConsChannel>,
    /// i-ack buffer entries, held only while occupied.
    iack: IackPool,
    /// Messages delivered to the nodes, awaiting pickup, in NIC order.
    delivered: VecDeque<Delivery>,
    /// Worms whose parked state resolved and must be re-injected on the
    /// reply network, with the ack count each absorbed (handled by the
    /// network layer each cycle).
    resume: NodeLists<(WormId, u32)>,
    /// Ack-count deposits that found the buffer full and retry each cycle
    /// (a pending deposit whose sweep has already parked resolves into the
    /// parked entry without needing a free slot, so retries always drain).
    pending_deposits: NodeLists<(TxnId, u32)>,
}

impl NicSlab {
    /// Create NICs for `nodes` nodes with `cons_channels` consumption
    /// channels, `iack_entries` i-ack buffers, and `local_vcs` local input
    /// virtual channels.
    pub fn new(nodes: usize, cons_channels: usize, iack_entries: usize, local_vcs: usize) -> Self {
        assert!(cons_channels >= 1 && iack_entries >= 1 && local_vcs >= NUM_VNETS);
        Self {
            inject: Strided::new(nodes, NUM_VNETS, || InjectQueue::EMPTY),
            streaming: Strided::new(nodes, local_vcs, || None),
            cons: Strided::new(nodes, cons_channels, || ConsChannel::FREE),
            iack: IackPool::new(nodes, iack_entries),
            delivered: VecDeque::new(),
            resume: NodeLists::new(nodes),
            pending_deposits: NodeLists::new(nodes),
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.resume.nodes()
    }

    /// Queue worm `worm` for injection on `vnet` at node `n`, linking it
    /// behind the queue's last worm in `worms`.
    pub fn enqueue(&mut self, n: usize, vnet: VNet, worm: WormId, worms: &mut WormTable) {
        worms.set_next(worm, None);
        let q = self.inject.at_mut(n, vnet.index());
        if q.tail == NO_WORM {
            q.head = worm.0;
        } else {
            worms.set_next(WormId(q.tail), Some(worm));
        }
        q.tail = worm.0;
    }

    /// Pop the next worm queued for injection on `vnet` at node `n`.
    pub fn pop_inject(&mut self, n: usize, vnet: VNet, worms: &mut WormTable) -> Option<WormId> {
        let q = self.inject.at_mut(n, vnet.index());
        if q.head == NO_WORM {
            return None;
        }
        let id = WormId(q.head);
        match worms.next(id) {
            Some(next) => q.head = next.0,
            None => *q = InjectQueue::EMPTY,
        }
        worms.set_next(id, None);
        Some(id)
    }

    /// The worms queued for injection on virtual network `v` (by index)
    /// at node `n`, first to last.
    fn queued<'a>(
        &self,
        n: usize,
        v: usize,
        worms: &'a WormTable,
    ) -> impl Iterator<Item = WormId> + 'a {
        let q = *self.inject.at(n, v);
        let mut cur = (q.head != NO_WORM).then_some(WormId(q.head));
        std::iter::from_fn(move || {
            let id = cur?;
            cur = if id.0 == q.tail { None } else { worms.next(id) };
            Some(id)
        })
    }

    /// Index of a free consumption channel at node `n`, if any.
    pub fn free_cons(&self, n: usize) -> Option<usize> {
        self.cons.row(n).iter().position(|c| *c == ConsChannel::FREE)
    }

    /// Channel `cc` of node `n` is free and able to accept a new worm.
    #[inline]
    pub fn cons_is_free(&self, n: usize, cc: usize) -> bool {
        *self.cons.at(n, cc) == ConsChannel::FREE
    }

    /// The first consumption channel holding a flit, as an error naming
    /// it. Between ticks every channel is empty (see
    /// [`NicSlab::cons_push`]).
    pub(crate) fn check_cons_drained(&self) -> Result<(), String> {
        let per = self.cons.stride();
        match self.cons.as_slice().iter().enumerate().find(|(_, c)| c.flits > 0) {
            None => Ok(()),
            Some((i, c)) => Err(format!(
                "node {} consumption channel {} holds {} flits between ticks",
                i / per,
                i % per,
                c.flits
            )),
        }
    }

    /// Streaming state of local input VC `vc` at node `n`.
    #[inline]
    pub fn streaming(&self, n: usize, vc: usize) -> Option<StreamState> {
        *self.streaming.at(n, vc)
    }

    /// Set the streaming state of local input VC `vc` at node `n`.
    #[inline]
    pub fn set_streaming(&mut self, n: usize, vc: usize, st: Option<StreamState>) {
        *self.streaming.at_mut(n, vc) = st;
    }

    /// Number of free consumption channels at node `n`.
    pub fn free_cons_count(&self, n: usize) -> usize {
        self.cons.row(n).iter().filter(|c| **c == ConsChannel::FREE).count()
    }

    /// Reserve consumption channel `cc` of node `n` for `worm`.
    pub fn reserve_cons(&mut self, n: usize, cc: usize, worm: WormId, absorb: bool) {
        debug_assert!(self.cons_is_free(n, cc), "consumption channel {cc} not free");
        *self.cons.at_mut(n, cc) = ConsChannel { owner: worm.0, flits: 0, absorb, tail: false };
    }

    /// The worm holding channel `cc` of node `n`, if any.
    #[inline]
    pub fn cons_owner(&self, n: usize, cc: usize) -> Option<WormId> {
        self.cons.at(n, cc).owner()
    }

    /// Buffer `flit` into channel `cc` of node `n`.
    ///
    /// A channel needs room for one flit only: it receives at most one a
    /// cycle (from the one input VC allocated to it), and the NIC drains
    /// it in the same tick (a consume activates the NIC for that tick's
    /// NIC phase), so every channel is empty at every tick boundary. A
    /// flit that finds its channel holding another, or that belongs to any
    /// worm but the channel's owner, means the consumption bookkeeping is
    /// corrupt: it is still counted, and the record as it was before the
    /// flit comes back as the error for the caller to report.
    pub fn cons_push(&mut self, n: usize, cc: usize, flit: Flit) -> Result<(), ConsChannel> {
        let ch = self.cons.at_mut(n, cc);
        let before = *ch;
        ch.flits = ch.flits.saturating_add(1);
        ch.tail |= flit.kind == FlitKind::Tail;
        if before.owner == flit.worm.0 && before.flits == 0 {
            Ok(())
        } else {
            Err(before)
        }
    }

    /// Drain one flit from channel `cc` of node `n` to the node. When it
    /// is the last flit and the tail has arrived, the channel is released
    /// and its record returned: the owner's copy there is complete.
    pub fn cons_pop(&mut self, n: usize, cc: usize) -> Option<ConsChannel> {
        let ch = self.cons.at_mut(n, cc);
        if ch.flits == 0 {
            return None;
        }
        ch.flits -= 1;
        if ch.flits > 0 || !ch.tail {
            return None;
        }
        Some(std::mem::replace(ch, ConsChannel::FREE))
    }

    /// Reserve an i-ack entry for `txn` at node `n` (see [`IackState`]).
    pub fn reserve_iack(&mut self, n: usize, txn: TxnId) -> bool {
        self.iack.reserve(n, txn)
    }

    /// Node `n` posts its local invalidation acknowledgement for `txn`.
    pub fn post_iack(&mut self, n: usize, txn: TxnId) -> PostOutcome {
        self.post_iack_count(n, txn, 1)
    }

    /// Post `count` acks worth for `txn` at node `n`.
    pub fn post_iack_count(&mut self, n: usize, txn: TxnId, count: u32) -> PostOutcome {
        self.iack.post_count(n, &mut self.resume, txn, count)
    }

    /// A gather head at node `n` checks for its ack.
    pub fn gather_check(&mut self, n: usize, txn: TxnId) -> GatherCheck {
        self.iack.gather_check(n, txn)
    }

    /// Try to park gather worm `worm` (of `total` flits) for `txn` at node
    /// `n`. Returns the entry index, or None if no entry can hold it.
    pub fn park(&mut self, n: usize, txn: TxnId, worm: WormId, total: u16) -> Option<usize> {
        self.iack.park(n, txn, worm, total)
    }

    /// One flit of a parked worm drained into entry `idx` of node `n`.
    pub fn park_drain(&mut self, n: usize, idx: usize, is_tail: bool) -> Option<(WormId, u32)> {
        self.iack.park_drain(n, &mut self.resume, idx, is_tail)
    }

    /// Number of free i-ack buffer entries at node `n`.
    pub fn count_free_iack(&self, n: usize) -> usize {
        self.iack.per - self.iack.walk(n).count()
    }

    /// Append a delivery to the delivery queue.
    pub fn push_delivery(&mut self, d: Delivery) {
        self.delivered.push_back(d);
    }

    /// Pop the oldest undrained delivery, to any node.
    pub fn pop_delivery(&mut self) -> Option<Delivery> {
        self.delivered.pop_front()
    }

    /// Pop the oldest undrained delivery to `node`.
    pub fn pop_delivery_to(&mut self, node: NodeId) -> Option<Delivery> {
        let i = self.delivered.iter().position(|d| d.node == node)?;
        self.delivered.remove(i)
    }

    /// Take every undrained delivery to `node`, oldest first, leaving the
    /// other nodes' in order.
    pub fn take_deliveries_to(&mut self, node: NodeId) -> Vec<Delivery> {
        let mut taken = Vec::new();
        self.delivered.retain(|d| {
            let mine = d.node == node;
            if mine {
                taken.push(*d);
            }
            !mine
        });
        taken
    }

    /// Pop the next resolved parked worm awaiting re-injection at node `n`.
    pub fn pop_resume(&mut self, n: usize) -> Option<(WormId, u32)> {
        self.resume.pop_front(n)
    }

    /// Number of pending ack deposits retrying at node `n`.
    pub fn pending_len(&self, n: usize) -> usize {
        self.pending_deposits.len(n)
    }

    /// Pop the next pending ack deposit at node `n`.
    pub fn pop_pending(&mut self, n: usize) -> Option<(TxnId, u32)> {
        self.pending_deposits.pop_front(n)
    }

    /// Requeue a pending ack deposit at node `n`.
    pub fn push_pending(&mut self, n: usize, txn: TxnId, acks: u32) {
        self.pending_deposits.push(n, (txn, acks));
    }

    /// Make `worm` the last worm of node `n`'s `vnet` queue without
    /// linking it (corrupt-state tests).
    #[cfg(test)]
    pub(crate) fn set_queue_tail(&mut self, n: usize, vnet: VNet, worm: WormId) {
        self.inject.at_mut(n, vnet.index()).tail = worm.0;
    }

    /// Hand channel `cc` of node `n` to `worm` behind its owner's back
    /// (corrupt-state tests).
    #[cfg(test)]
    pub(crate) fn set_cons_owner(&mut self, n: usize, cc: usize, worm: WormId) {
        self.cons.at_mut(n, cc).owner = worm.0;
    }

    /// Every worm the NICs name outside the injection queues: streaming,
    /// owning a consumption channel, parked in an i-ack entry, or waiting
    /// to resume. (The loader checks the queued worms as it links them.)
    pub(crate) fn worm_ids(&self) -> impl Iterator<Item = WormId> + '_ {
        let parked = (0..self.nodes()).flat_map(|n| self.iack.entries(n)).filter_map(|(_, e)| {
            match e.state {
                IackState::Parked { worm, .. } => Some(worm),
                _ => None,
            }
        });
        self.streaming
            .as_slice()
            .iter()
            .flatten()
            .map(|st| st.worm)
            .chain(self.cons.as_slice().iter().filter_map(ConsChannel::owner))
            .chain(parked)
            .chain(self.resume.iter().map(|(_, &(w, _))| w))
    }

    /// Every delivery not yet taken by a node.
    pub(crate) fn undrained(&self) -> impl Iterator<Item = &Delivery> {
        self.delivered.iter()
    }

    /// True when node `n` has phase-3 NIC work (queued injections,
    /// streaming, consumption drain, resumes, or pending deposits).
    pub fn has_work(&self, n: usize) -> bool {
        !self.pending_deposits.is_empty(n)
            || !self.resume.is_empty(n)
            || self.streaming.row(n).iter().any(|s| s.is_some())
            || self.inject.row(n).iter().any(|q| q.head != NO_WORM)
            || self.cons.row(n).iter().any(|c| c.flits > 0)
    }

    /// Serialize the NICs. The injection queues are written in the layout
    /// of a strided slab of worm-id queues (stride, length, then each
    /// queue's length and ids, first to last), walking each list through
    /// `worms`.
    pub(crate) fn save_state(&self, w: &mut SnapWriter, worms: &WormTable) {
        w.put_usize(NUM_VNETS);
        w.put_usize(self.inject.as_slice().len());
        for n in 0..self.nodes() {
            for v in 0..NUM_VNETS {
                w.put_usize(self.queued(n, v, worms).count());
                self.queued(n, v, worms).for_each(|id| id.save(w));
            }
        }
        self.streaming.save(w);
        self.cons.save(w);
        self.iack.save(w);
        self.delivered.save(w);
        self.resume.save(w);
        self.pending_deposits.save(w);
    }

    /// Bytes the NICs hold on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.inject.heap_bytes()
            + self.streaming.heap_bytes()
            + self.cons.heap_bytes()
            + self.iack.heap_bytes()
            + deque_bytes(&self.delivered)
            + self.resume.heap_bytes()
            + self.pending_deposits.heap_bytes()
    }

    /// Read a column's stride and length, which must be `stride` and
    /// the `slots` a slab of this geometry holds.
    fn column(r: &mut SnapReader<'_>, stride: usize, slots: usize) -> Result<(), SnapError> {
        if (r.get_usize()?, r.get_len()?) != (stride, slots) {
            return Err(SnapError::Corrupt("nic slab geometry mismatch".into()));
        }
        Ok(())
    }

    /// Load a [`NicSlab::save_state`] stream into this slab, which must
    /// be fresh and have the stream's geometry; every column decodes in
    /// place. The injection queues come back as the worms they hold, each
    /// with its queue (node × [`NUM_VNETS`] + virtual network) and in
    /// queue order, for [`NicSlab::link_queues`] to link once the worm
    /// table is loaded.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
    ) -> Result<Vec<(u32, WormId)>, SnapError> {
        let queues = self.inject.as_slice().len();
        Self::column(r, NUM_VNETS, queues)?;
        let mut queued = Vec::new();
        for q in 0..queues {
            for _ in 0..r.get_len()? {
                queued.push((q as u32, WormId::load(r)?));
            }
        }
        Self::column(r, self.streaming.stride(), self.streaming.as_slice().len())?;
        for s in self.streaming.as_mut_slice() {
            *s = Snap::load(r)?;
        }
        Self::column(r, self.cons.stride(), self.cons.as_slice().len())?;
        for c in self.cons.as_mut_slice() {
            *c = Snap::load(r)?;
        }
        self.iack.load(r)?;
        self.delivered = Snap::load(r)?;
        self.resume.load(r)?;
        self.pending_deposits.load(r)?;
        // Between ticks a channel holds no flit (so no arrived tail
        // either), and a free channel flags nothing.
        let bad =
            self.cons.as_slice().iter().find(|c| {
                c.flits > 0 || c.tail || (c.owner == NO_WORM && **c != ConsChannel::FREE)
            });
        if let Some(c) = bad {
            return Err(SnapError::Corrupt(format!("consumption channel {c:?} between ticks")));
        }
        Ok(queued)
    }

    /// Link the queued worms a stream held (see [`NicSlab::load_state`])
    /// through `worms`. Refuses a worm outside the table, one that is not
    /// waiting to be injected, one that a queue links back to (a cycle),
    /// and one in two queues.
    pub(crate) fn link_queues(
        &mut self,
        queued: &[(u32, WormId)],
        worms: &mut WormTable,
    ) -> Result<(), String> {
        let table = worms.len();
        // The queue each worm waits in.
        let mut queue_of = vec![u32::MAX; table];
        for &(q, id) in queued {
            let (n, vnet) =
                (q as usize / NUM_VNETS, [VNet::Req, VNet::Reply][q as usize % NUM_VNETS]);
            let i = id.0 as usize;
            if i >= table {
                return Err(format!("worm id {i} named outside a table of {table}"));
            }
            match std::mem::replace(&mut queue_of[i], q) {
                u32::MAX => {}
                p if p == q => {
                    return Err(format!(
                        "the {vnet:?} injection queue of node {n} links worm {i} back to itself"
                    ))
                }
                p => {
                    return Err(format!(
                        "worm {i} waits in the injection queues of nodes {} and {n}",
                        p as usize / NUM_VNETS
                    ))
                }
            }
            let state = worms.get(id).state;
            if state != WormState::Queued {
                return Err(format!("worm {i} is queued for injection but {state:?}"));
            }
            self.enqueue(n, vnet, id, worms);
        }
        Ok(())
    }
}

snap_enum!(IackState {
    0 => Reserved,
    1 => Posted { count },
    2 => Parked { worm, drained, total, posted },
});
snap_struct!(IackEntry { txn, state });
snap_struct!(Delivery { node, worm, src, payload, acks, at, txn });
snap_struct!(StreamState { worm, next_seq, len });

/// A channel is saved as its owner (an optional worm id), flit count and
/// two flags.
impl Snap for ConsChannel {
    fn save(&self, w: &mut SnapWriter) {
        self.owner().save(w);
        w.put_u16(self.flits);
        w.put_bool(self.absorb);
        w.put_bool(self.tail);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let owner = Option::<WormId>::load(r)?.map_or(NO_WORM, |w| w.0);
        Ok(Self { owner, flits: r.get_u16()?, absorb: r.get_bool()?, tail: r.get_bool()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::FlitKind;

    fn slab() -> NicSlab {
        NicSlab::new(2, 4, 4, 2)
    }

    fn flit(worm: u32, kind: FlitKind) -> Flit {
        Flit { worm: WormId(worm), kind }
    }

    #[test]
    fn consumption_channel_lifecycle() {
        let mut s = slab();
        let n = &mut s;
        assert_eq!(n.free_cons_count(1), 4);
        let idx = n.free_cons(1).unwrap();
        n.reserve_cons(1, idx, WormId(1), false);
        assert_eq!(n.free_cons_count(1), 3);
        assert_eq!(n.free_cons_count(0), 4, "other nodes untouched");
        assert!(!n.cons_is_free(1, idx));
        assert_eq!(n.cons_owner(1, idx), Some(WormId(1)));
        assert_eq!(n.cons_push(1, idx, flit(1, FlitKind::Head)), Ok(()));
        assert!(n.has_work(1), "a buffered flit is NIC work");
        assert_eq!(n.cons_pop(1, idx), None, "drained, but no tail yet");
        assert!(!n.cons_is_free(1, idx) && !n.has_work(1));
    }

    /// A channel holds one flit between its push and the drain in the
    /// same tick: a second flit before the drain, or a flit of another
    /// worm, is counted and refused with the record it found.
    #[test]
    fn a_channel_refuses_a_second_flit_before_the_drain() {
        let mut s = slab();
        s.reserve_cons(0, 2, WormId(4), true);
        let one = ConsChannel { owner: 4, flits: 1, absorb: true, tail: false };
        assert_eq!(s.cons_push(0, 2, flit(4, FlitKind::Body)), Ok(()));
        assert_eq!(s.cons_push(0, 2, flit(4, FlitKind::Body)), Err(one));
        assert_eq!(s.cons_pop(0, 2), None);
        assert_eq!(s.cons_pop(0, 2), None);
        assert_eq!(s.cons_push(0, 2, flit(4, FlitKind::Body)), Ok(()), "drained, empty again");
        assert_eq!(s.cons_pop(0, 2), None);
        let free = ConsChannel::FREE;
        assert_eq!(s.cons_push(0, 3, flit(4, FlitKind::Body)), Err(free), "no owner");
    }

    /// A channel that drains dry before its tail arrives does not
    /// complete; the tail, the last flit, completes the copy when it
    /// drains, and the completion releases the channel.
    #[test]
    fn tail_completes_when_the_last_flit_drains_and_releases_the_channel() {
        let mut s = slab();
        s.reserve_cons(1, 3, WormId(9), true);
        s.cons_push(1, 3, flit(9, FlitKind::Head)).unwrap();
        assert_eq!(s.cons_pop(1, 3), None, "dry before the tail arrived");
        assert_eq!(s.cons_pop(1, 3), None, "an empty channel drains nothing");
        assert!(!s.cons_is_free(1, 3), "still held by its worm");
        s.cons_push(1, 3, flit(9, FlitKind::Body)).unwrap();
        assert_eq!(s.cons_pop(1, 3), None);
        s.cons_push(1, 3, flit(9, FlitKind::Tail)).unwrap();
        let done = s.cons_pop(1, 3).expect("the tail drained");
        assert_eq!((done.owner(), done.absorb()), (Some(WormId(9)), true));
        assert!(s.cons_is_free(1, 3), "completion releases the channel");
        assert_eq!(s.free_cons_count(1), 4);
        assert!(!s.has_work(1));
    }

    /// A flit of another worm is counted, and the owner it should have
    /// belonged to is reported.
    #[test]
    fn cons_push_reports_a_flit_of_another_worm() {
        let mut s = slab();
        s.reserve_cons(0, 0, WormId(2), false);
        let owner = |r: Result<(), ConsChannel>| r.map_err(|c| c.owner());
        assert_eq!(owner(s.cons_push(0, 0, flit(3, FlitKind::Tail))), Err(Some(WormId(2))));
        assert_eq!(owner(s.cons_push(0, 1, flit(3, FlitKind::Tail))), Err(None), "a free channel");
        assert_eq!(s.cons_pop(0, 1).map(|c| c.owner()), Some(None), "drains unowned");
        assert!(s.cons_is_free(0, 1));
    }

    #[test]
    fn reserve_then_post_then_gather() {
        let mut s = slab();
        let n = &mut s;
        assert!(n.reserve_iack(0, TxnId(9)));
        assert_eq!(n.gather_check(0, TxnId(9)), GatherCheck::NotReady);
        assert_eq!(n.post_iack(0, TxnId(9)), PostOutcome::Stored);
        assert_eq!(n.gather_check(0, TxnId(9)), GatherCheck::Ready(1));
        // Entry freed.
        assert_eq!(n.count_free_iack(0), 4);
        assert_eq!(n.gather_check(0, TxnId(9)), GatherCheck::NotReady);
    }

    #[test]
    fn reserve_is_idempotent() {
        let mut s = slab();
        let n = &mut s;
        assert!(n.reserve_iack(0, TxnId(1)));
        assert!(n.reserve_iack(0, TxnId(1)));
        assert_eq!(n.count_free_iack(0), 3);
    }

    #[test]
    fn post_without_reservation_allocates() {
        let mut s = slab();
        assert_eq!(s.post_iack_count(0, TxnId(5), 3), PostOutcome::Stored);
        assert_eq!(s.gather_check(0, TxnId(5)), GatherCheck::Ready(3));
    }

    #[test]
    fn posts_accumulate() {
        let mut s = slab();
        s.post_iack_count(1, TxnId(5), 2);
        s.post_iack_count(1, TxnId(5), 3);
        assert_eq!(s.gather_check(1, TxnId(5)), GatherCheck::Ready(5));
    }

    #[test]
    fn post_no_space_when_full() {
        let mut s = slab();
        let n = &mut s;
        for t in 0..4 {
            assert!(n.reserve_iack(0, TxnId(t)));
        }
        assert_eq!(n.post_iack(0, TxnId(99)), PostOutcome::NoSpace);
        // But posting for a reserved txn still works.
        assert_eq!(n.post_iack(0, TxnId(2)), PostOutcome::Stored);
    }

    #[test]
    fn park_then_post_resumes() {
        let mut s = slab();
        let n = &mut s;
        assert!(n.reserve_iack(0, TxnId(7)));
        let idx = n.park(0, TxnId(7), WormId(3), 2).unwrap();
        // Drain both flits, then post: resume at post time.
        assert_eq!(n.park_drain(0, idx, false), None);
        assert_eq!(n.park_drain(0, idx, true), None);
        assert_eq!(n.post_iack(0, TxnId(7)), PostOutcome::ResumeParked(WormId(3)));
        assert_eq!(n.pop_resume(0), Some((WormId(3), 1)));
        assert_eq!(n.count_free_iack(0), 4);
    }

    #[test]
    fn post_before_drain_completes_resumes_at_tail() {
        let mut s = slab();
        let n = &mut s;
        assert!(n.reserve_iack(0, TxnId(7)));
        let idx = n.park(0, TxnId(7), WormId(3), 3).unwrap();
        assert_eq!(n.park_drain(0, idx, false), None);
        assert_eq!(n.post_iack(0, TxnId(7)), PostOutcome::ResumePending);
        assert_eq!(n.park_drain(0, idx, false), None);
        assert_eq!(n.park_drain(0, idx, true), Some((WormId(3), 1)));
        assert_eq!(n.pop_resume(0), Some((WormId(3), 1)));
    }

    #[test]
    fn park_without_reservation_uses_free_entry() {
        let mut s = slab();
        let n = &mut s;
        assert!(n.park(0, TxnId(4), WormId(1), 2).is_some());
        assert_eq!(n.count_free_iack(0), 3);
    }

    #[test]
    fn park_fails_when_full_with_other_txns() {
        let mut s = slab();
        let n = &mut s;
        for t in 0..4 {
            assert!(n.reserve_iack(0, TxnId(100 + t)));
        }
        assert!(n.park(0, TxnId(4), WormId(1), 2).is_none());
        // Parking on its own reserved entry still works.
        assert!(n.park(0, TxnId(100), WormId(2), 2).is_some());
    }

    /// `n` worms in a table, each unicast from node 0.
    fn table(n: u64) -> WormTable {
        use crate::worm::WormSpec;
        let mut t = WormTable::new();
        for i in 0..n {
            t.insert(WormSpec::unicast(NodeId(0), NodeId(1), VNet::Req, 2, i), 0);
        }
        t
    }

    #[test]
    fn injection_queues_per_vnet() {
        let mut s = slab();
        let mut t = table(3);
        s.enqueue(0, VNet::Req, WormId(1), &mut t);
        s.enqueue(0, VNet::Reply, WormId(2), &mut t);
        s.enqueue(0, VNet::Req, WormId(0), &mut t);
        assert_eq!(s.pop_inject(0, VNet::Req, &mut t), Some(WormId(1)));
        assert_eq!(s.pop_inject(0, VNet::Req, &mut t), Some(WormId(0)));
        assert_eq!(s.pop_inject(0, VNet::Req, &mut t), None);
        assert_eq!(s.pop_inject(1, VNet::Reply, &mut t), None, "other nodes untouched");
        assert_eq!(s.pop_inject(0, VNet::Reply, &mut t), Some(WormId(2)));
    }

    /// Each (node, vnet) queue stays first-in first-out while worms
    /// retire and their slots come back in other queues.
    #[test]
    fn injection_queues_stay_fifo_across_worm_slot_reuse() {
        use crate::worm::WormSpec;
        let mut s = slab();
        let mut t = table(4);
        for (n, vnet, id) in [(0, VNet::Req, 0), (1, VNet::Req, 1), (0, VNet::Req, 2)] {
            s.enqueue(n, vnet, WormId(id), &mut t);
        }
        // Worm 3 is injected, delivered and retired; the next insert
        // takes its slot and queues behind worm 2.
        t.get_mut(WormId(3)).state = WormState::Delivered;
        t.retire(WormId(3));
        let reused = t.insert(WormSpec::unicast(NodeId(0), NodeId(1), VNet::Req, 2, 9), 0);
        assert_eq!(reused, WormId(3));
        s.enqueue(0, VNet::Req, reused, &mut t);
        assert_eq!(s.pop_inject(0, VNet::Req, &mut t), Some(WormId(0)));
        // Worm 0 streams, delivers and retires; its slot rejoins node 0's
        // queue behind worm 3 and node 1's queue is untouched.
        t.get_mut(WormId(0)).state = WormState::Delivered;
        t.retire(WormId(0));
        let again = t.insert(WormSpec::unicast(NodeId(0), NodeId(1), VNet::Req, 2, 10), 0);
        s.enqueue(0, VNet::Req, again, &mut t);
        let order: Vec<_> = std::iter::from_fn(|| s.pop_inject(0, VNet::Req, &mut t)).collect();
        assert_eq!(order, vec![WormId(2), WormId(3), WormId(0)]);
        assert_eq!(s.pop_inject(1, VNet::Req, &mut t), Some(WormId(1)));
        assert!(!s.has_work(0) && !s.has_work(1));
    }

    /// Saved queues link back in order; a worm outside the table, one
    /// that is not waiting, one its queue names twice (a cycle) and one
    /// in two queues are refused.
    #[test]
    fn link_queues_refuses_dangling_cyclic_and_doubly_queued_worms() {
        // Node 0's two queues, then node 1's.
        let queues = |lists: [&[u32]; 4]| -> Vec<(u32, WormId)> {
            let per_queue = lists.into_iter().enumerate();
            per_queue.flat_map(|(q, l)| l.iter().map(move |&i| (q as u32, WormId(i)))).collect()
        };
        let mut s = slab();
        let mut t = table(4);
        s.link_queues(&queues([&[2, 0], &[], &[], &[3, 1]]), &mut t).expect("links");
        assert_eq!(s.queued(0, 0, &t).collect::<Vec<_>>(), vec![WormId(2), WormId(0)]);
        assert_eq!(s.queued(1, 1, &t).collect::<Vec<_>>(), vec![WormId(3), WormId(1)]);
        let refused = |lists: [&[u32]; 4], want: &str| {
            let mut t = table(4);
            t.get_mut(WormId(3)).state = WormState::InFlight;
            let e = slab().link_queues(&queues(lists), &mut t).unwrap_err();
            assert!(e.contains(want), "{e}");
        };
        refused([&[0, 4], &[], &[], &[]], "worm id 4 named outside a table of 4");
        refused([&[], &[1, 2, 1], &[], &[]], "links worm 1 back to itself");
        refused([&[0], &[], &[1, 0], &[]], "worm 0 waits in the injection queues of nodes 0 and 1");
        refused([&[], &[], &[], &[3]], "worm 3 is queued for injection but InFlight");
    }

    #[test]
    fn has_work_tracks_every_queue() {
        let mut s = slab();
        let mut t = table(2);
        assert!(!s.has_work(0));
        s.enqueue(0, VNet::Req, WormId(1), &mut t);
        assert!(s.has_work(0));
        assert!(!s.has_work(1));
        assert_eq!(s.pop_inject(0, VNet::Req, &mut t), Some(WormId(1)));
        assert!(!s.has_work(0));
        s.push_pending(1, TxnId(3), 2);
        assert!(s.has_work(1));
    }

    /// Deliveries leave in push order; the per-node takes keep each
    /// node's order and leave the rest in place.
    #[test]
    fn delivery_queue_keeps_order_per_node() {
        let mut s = slab();
        let d = |node: u16, payload: u64| Delivery {
            node: NodeId(node),
            worm: WormId(0),
            src: NodeId(0),
            payload,
            acks: 0,
            at: 0,
            txn: TxnId(0),
        };
        for (node, payload) in [(1, 10), (0, 20), (1, 11), (0, 21)] {
            s.push_delivery(d(node, payload));
        }
        assert_eq!(s.pop_delivery_to(NodeId(0)), Some(d(0, 20)));
        assert_eq!(s.take_deliveries_to(NodeId(1)), vec![d(1, 10), d(1, 11)]);
        assert_eq!(s.pop_delivery(), Some(d(0, 21)));
        assert_eq!(s.pop_delivery(), None);
    }
}
