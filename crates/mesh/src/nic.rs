//! Network interface controller (router interface).
//!
//! Each node's NIC owns, per the paper's router-interface design:
//!
//! * **injection queues** (one per virtual network) feeding the router's
//!   local input port,
//! * **consumption channels** — the multiple parallel ejection channels
//!   whose count bounds deadlock for multidestination worms (4 suffice on a
//!   2D mesh \[39\]) and relieve hot-spot ejection pressure \[2\],
//! * **i-ack buffers** — the small (2-4 entry) memory-mapped buffer pool
//!   used to post invalidation acknowledgements for i-gather worms and to
//!   park gather worms under virtual cut-through + deferred delivery,
//! * the **delivered-message queue** consumed by the node model.
//!
//! Like the router, NIC state is stored field-major for all nodes at once
//! ([`NicSlab`]). The i-ack buffer state machine — the trickiest part of
//! the VCT deferred-delivery protocol — is written as functions over one
//! node's entry row.

use crate::topology::NodeId;
use crate::worm::{Flit, TxnId, VNet, WormId, NUM_VNETS};
use std::collections::VecDeque;
use wormdsm_sim::snap::{snap_enum, snap_struct};
use wormdsm_sim::{Cycle, Strided};

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

/// How a worm was delivered to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// Consumed at its final destination.
    Final,
    /// Absorbed copy at an intermediate destination (forward-and-absorb).
    Absorb,
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
    /// Final consumption vs. absorbed copy.
    pub kind: DeliveryKind,
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

// --- i-ack buffer state machine, over one node's entry row ---

fn find_in(iack: &[Option<IackEntry>], txn: TxnId) -> Option<usize> {
    iack.iter().position(|e| e.as_ref().is_some_and(|e| e.txn == txn))
}

fn free_in(iack: &[Option<IackEntry>]) -> Option<usize> {
    iack.iter().position(|e| e.is_none())
}

/// Reserve an entry for `txn` (i-reserve worm passing through). Idempotent
/// for retried headers; false when the buffer is full.
fn reserve_in(iack: &mut [Option<IackEntry>], txn: TxnId) -> bool {
    if find_in(iack, txn).is_some() {
        return true;
    }
    match free_in(iack) {
        Some(i) => {
            iack[i] = Some(IackEntry { txn, state: IackState::Reserved });
            true
        }
        None => false,
    }
}

/// Post `count` acks worth for `txn` (local acks and partial-count deposits
/// from first-level gather worms).
fn post_count_in(
    iack: &mut [Option<IackEntry>],
    resume_q: &mut VecDeque<(WormId, u32)>,
    txn: TxnId,
    count: u32,
) -> PostOutcome {
    if let Some(i) = find_in(iack, txn) {
        let entry = iack[i].as_mut().expect("found");
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
                    iack[i] = None;
                    resume_q.push_back((w, count));
                    PostOutcome::ResumeParked(w)
                } else {
                    PostOutcome::ResumePending
                }
            }
        }
    } else {
        match free_in(iack) {
            Some(i) => {
                iack[i] = Some(IackEntry { txn, state: IackState::Posted { count } });
                PostOutcome::Stored
            }
            None => PostOutcome::NoSpace,
        }
    }
}

/// A gather head checks for its ack. On `Ready`, the entry is freed and the
/// count returned.
fn gather_check_in(iack: &mut [Option<IackEntry>], txn: TxnId) -> GatherCheck {
    if let Some(i) = find_in(iack, txn) {
        let entry = iack[i].as_ref().expect("found");
        if let IackState::Posted { count } = entry.state {
            iack[i] = None;
            return GatherCheck::Ready(count);
        }
    }
    GatherCheck::NotReady
}

/// Try to park gather worm `worm` (of `total` flits) for `txn`. Returns the
/// entry index, or None if no entry can hold it.
fn park_in(iack: &mut [Option<IackEntry>], txn: TxnId, worm: WormId, total: u16) -> Option<usize> {
    let idx = match find_in(iack, txn) {
        Some(i) => {
            // Entry exists (reserved); it must not already be posted —
            // gather_check would have consumed a posted entry.
            match iack[i].as_ref().expect("found").state {
                IackState::Reserved => Some(i),
                _ => None,
            }
        }
        None => free_in(iack),
    }?;
    iack[idx] =
        Some(IackEntry { txn, state: IackState::Parked { worm, drained: 0, total, posted: None } });
    Some(idx)
}

/// One flit of a parked worm drained into entry `idx`. Returns the worm
/// (and the ack count it absorbs) if the park completed *and* the ack was
/// already posted, meaning it must resume.
fn park_drain_in(
    iack: &mut [Option<IackEntry>],
    resume_q: &mut VecDeque<(WormId, u32)>,
    idx: usize,
    is_tail: bool,
) -> Option<(WormId, u32)> {
    let entry = iack[idx].as_mut().expect("parked entry");
    let IackState::Parked { worm, drained, total, posted } = &mut entry.state else {
        panic!("park_drain on non-parked entry");
    };
    *drained += 1;
    if is_tail {
        debug_assert_eq!(*drained, *total, "tail drained before all flits");
    }
    if drained == total {
        if let Some(count) = *posted {
            let w = *worm;
            iack[idx] = None;
            resume_q.push_back((w, count));
            return Some((w, count));
        }
    }
    None
}

/// NIC state for every node, field-major. All indices are global node ids.
#[derive(Debug)]
pub struct NicSlab {
    cons_cap: usize,
    /// Worms waiting to enter the network (stride [`NUM_VNETS`]).
    inject_q: Strided<VecDeque<WormId>>,
    /// Per local-input-VC streaming state (stride `local_vcs`, indexed like
    /// router VCs).
    streaming: Strided<Option<StreamState>>,
    /// Consumption-channel owners (stride `cons_channels`; a worm reserves
    /// a channel at header time and holds it until its tail drains).
    cons_owner: Strided<Option<WormId>>,
    /// True while the channel receives absorb copies (worm continues in the
    /// network) rather than a final consumption.
    cons_absorb: Strided<bool>,
    /// Buffered flits waiting for the node to drain them.
    cons_fifo: Strided<VecDeque<Flit>>,
    /// i-ack buffer entries (None = free; stride `iack_entries`).
    iack: Strided<Option<IackEntry>>,
    /// Messages delivered to the node, awaiting pickup.
    delivered: Vec<VecDeque<Delivery>>,
    /// Worms whose parked state resolved and must be re-injected on the
    /// reply network, with the ack count each absorbed (handled by the
    /// network layer each cycle).
    resume_q: Vec<VecDeque<(WormId, u32)>>,
    /// Ack-count deposits that found the buffer full and retry each cycle
    /// (a pending deposit whose sweep has already parked resolves into the
    /// parked entry without needing a free slot, so retries always drain).
    pending_deposits: Vec<VecDeque<(TxnId, u32)>>,
}

impl NicSlab {
    /// Create NICs for `nodes` nodes with `cons_channels` consumption
    /// channels of `cons_cap` flits each, `iack_entries` i-ack buffers, and
    /// `local_vcs` local input virtual channels.
    pub fn new(
        nodes: usize,
        cons_channels: usize,
        cons_cap: usize,
        iack_entries: usize,
        local_vcs: usize,
    ) -> Self {
        assert!(cons_channels >= 1 && iack_entries >= 1 && local_vcs >= NUM_VNETS);
        Self {
            cons_cap,
            inject_q: Strided::new(nodes, NUM_VNETS, VecDeque::new),
            streaming: Strided::new(nodes, local_vcs, || None),
            cons_owner: Strided::new(nodes, cons_channels, || None),
            cons_absorb: Strided::new(nodes, cons_channels, || false),
            cons_fifo: Strided::new(nodes, cons_channels, VecDeque::new),
            iack: Strided::new(nodes, iack_entries, || None),
            delivered: (0..nodes).map(|_| VecDeque::new()).collect(),
            resume_q: (0..nodes).map(|_| VecDeque::new()).collect(),
            pending_deposits: (0..nodes).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.delivered.len()
    }

    /// Queue a worm for injection at node `n`.
    pub fn enqueue(&mut self, n: usize, vnet: VNet, worm: WormId) {
        self.inject_q.at_mut(n, vnet.index()).push_back(worm);
    }

    /// Index of a free consumption channel at node `n`, if any.
    pub fn free_cons(&self, n: usize) -> Option<usize> {
        (0..self.cons_owner.stride()).find(|&c| self.cons_is_free(n, c))
    }

    /// Channel `cc` of node `n` is free and able to accept a new worm.
    #[inline]
    pub fn cons_is_free(&self, n: usize, cc: usize) -> bool {
        self.cons_owner.at(n, cc).is_none() && self.cons_fifo.at(n, cc).is_empty()
    }

    /// Channel `cc` of node `n` has space for one more flit.
    #[inline]
    pub fn cons_has_space(&self, n: usize, cc: usize) -> bool {
        self.cons_fifo.at(n, cc).len() < self.cons_cap
    }

    /// Pop the next worm queued for injection on `vnet` at node `n`.
    pub fn pop_inject(&mut self, n: usize, vnet: VNet) -> Option<WormId> {
        self.inject_q.at_mut(n, vnet.index()).pop_front()
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
        (0..self.cons_owner.stride()).filter(|&c| self.cons_is_free(n, c)).count()
    }

    /// Reserve consumption channel `cc` of node `n` for `worm`.
    pub fn reserve_cons(&mut self, n: usize, cc: usize, worm: WormId, absorb: bool) {
        debug_assert!(self.cons_is_free(n, cc), "consumption channel {cc} not free");
        *self.cons_owner.at_mut(n, cc) = Some(worm);
        *self.cons_absorb.at_mut(n, cc) = absorb;
    }

    /// The worm holding channel `cc` of node `n`, if any.
    #[inline]
    pub fn cons_owner(&self, n: usize, cc: usize) -> Option<WormId> {
        *self.cons_owner.at(n, cc)
    }

    /// True if channel `cc` of node `n` is receiving absorb copies.
    #[inline]
    pub fn cons_absorb(&self, n: usize, cc: usize) -> bool {
        *self.cons_absorb.at(n, cc)
    }

    /// Release channel `cc` of node `n` (tail drained to the node).
    pub fn release_cons(&mut self, n: usize, cc: usize) {
        *self.cons_owner.at_mut(n, cc) = None;
        *self.cons_absorb.at_mut(n, cc) = false;
    }

    /// Buffer a flit into channel `cc` of node `n`.
    pub fn cons_push(&mut self, n: usize, cc: usize, flit: Flit) {
        debug_assert!(self.cons_has_space(n, cc), "consumption overflow");
        self.cons_fifo.at_mut(n, cc).push_back(flit);
    }

    /// Drain one flit from channel `cc` of node `n`.
    pub fn cons_pop(&mut self, n: usize, cc: usize) -> Option<Flit> {
        self.cons_fifo.at_mut(n, cc).pop_front()
    }

    /// Reserve an i-ack entry for `txn` at node `n` (see [`IackState`]).
    pub fn reserve_iack(&mut self, n: usize, txn: TxnId) -> bool {
        reserve_in(self.iack.row_mut(n), txn)
    }

    /// Node `n` posts its local invalidation acknowledgement for `txn`.
    pub fn post_iack(&mut self, n: usize, txn: TxnId) -> PostOutcome {
        self.post_iack_count(n, txn, 1)
    }

    /// Post `count` acks worth for `txn` at node `n`.
    pub fn post_iack_count(&mut self, n: usize, txn: TxnId, count: u32) -> PostOutcome {
        post_count_in(self.iack.row_mut(n), &mut self.resume_q[n], txn, count)
    }

    /// A gather head at node `n` checks for its ack.
    pub fn gather_check(&mut self, n: usize, txn: TxnId) -> GatherCheck {
        gather_check_in(self.iack.row_mut(n), txn)
    }

    /// Try to park gather worm `worm` (of `total` flits) for `txn` at node
    /// `n`. Returns the entry index, or None if no entry can hold it.
    pub fn park(&mut self, n: usize, txn: TxnId, worm: WormId, total: u16) -> Option<usize> {
        park_in(self.iack.row_mut(n), txn, worm, total)
    }

    /// One flit of a parked worm drained into entry `idx` of node `n`.
    pub fn park_drain(&mut self, n: usize, idx: usize, is_tail: bool) -> Option<(WormId, u32)> {
        park_drain_in(self.iack.row_mut(n), &mut self.resume_q[n], idx, is_tail)
    }

    /// Number of free i-ack buffer entries at node `n`.
    pub fn count_free_iack(&self, n: usize) -> usize {
        self.iack.row(n).iter().filter(|e| e.is_none()).count()
    }

    /// The delivered-message queue of node `n`.
    pub fn delivered(&self, n: usize) -> &VecDeque<Delivery> {
        &self.delivered[n]
    }

    /// The delivered-message queue of node `n`, mutable (node-model drain).
    pub fn delivered_mut(&mut self, n: usize) -> &mut VecDeque<Delivery> {
        &mut self.delivered[n]
    }

    /// Append a delivery to node `n`'s delivered queue.
    pub fn push_delivery(&mut self, n: usize, d: Delivery) {
        self.delivered[n].push_back(d);
    }

    /// Pop the next resolved parked worm awaiting re-injection at node `n`.
    pub fn pop_resume(&mut self, n: usize) -> Option<(WormId, u32)> {
        self.resume_q[n].pop_front()
    }

    /// Number of pending ack deposits retrying at node `n`.
    pub fn pending_len(&self, n: usize) -> usize {
        self.pending_deposits[n].len()
    }

    /// Pop the next pending ack deposit at node `n`.
    pub fn pop_pending(&mut self, n: usize) -> Option<(TxnId, u32)> {
        self.pending_deposits[n].pop_front()
    }

    /// Requeue a pending ack deposit at node `n`.
    pub fn push_pending(&mut self, n: usize, txn: TxnId, acks: u32) {
        self.pending_deposits[n].push_back((txn, acks));
    }

    /// True when node `n` has phase-3 NIC work (queued injections,
    /// streaming, consumption drain, resumes, or pending deposits).
    pub fn has_work(&self, n: usize) -> bool {
        !self.pending_deposits[n].is_empty()
            || !self.resume_q[n].is_empty()
            || self.streaming.row(n).iter().any(|s| s.is_some())
            || self.inject_q.row(n).iter().any(|q| !q.is_empty())
            || self.cons_fifo.row(n).iter().any(|f| !f.is_empty())
    }
}

snap_enum!(IackState {
    0 => Reserved,
    1 => Posted { count },
    2 => Parked { worm, drained, total, posted },
});
snap_struct!(IackEntry { txn, state });
snap_enum!(DeliveryKind { 0 => Final, 1 => Absorb });
snap_struct!(Delivery { node, worm, src, payload, kind, acks, at, txn });
snap_struct!(StreamState { worm, next_seq, len });

mod snap_impls {
    use super::{NicSlab, NUM_VNETS};
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for NicSlab {
        fn save(&self, w: &mut SnapWriter) {
            w.put_usize(self.cons_cap);
            self.inject_q.save(w);
            self.streaming.save(w);
            self.cons_owner.save(w);
            self.cons_absorb.save(w);
            self.cons_fifo.save(w);
            self.iack.save(w);
            self.delivered.save(w);
            self.resume_q.save(w);
            self.pending_deposits.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let cons_cap = r.get_len()?;
            let s = Self {
                cons_cap,
                inject_q: Snap::load(r)?,
                streaming: Snap::load(r)?,
                cons_owner: Snap::load(r)?,
                cons_absorb: Snap::load(r)?,
                cons_fifo: Snap::load(r)?,
                iack: Snap::load(r)?,
                delivered: Snap::load(r)?,
                resume_q: Snap::load(r)?,
                pending_deposits: Snap::load(r)?,
            };
            let nodes = s.delivered.len();
            let cons = s.cons_owner.stride();
            let rows_ok = s.inject_q.rows() == nodes
                && s.inject_q.stride() == NUM_VNETS
                && s.streaming.rows() == nodes
                && s.cons_owner.rows() == nodes
                && s.cons_absorb.rows() == nodes
                && s.cons_absorb.stride() == cons
                && s.cons_fifo.rows() == nodes
                && s.cons_fifo.stride() == cons
                && s.iack.rows() == nodes
                && s.resume_q.len() == nodes
                && s.pending_deposits.len() == nodes;
            if !rows_ok {
                return Err(SnapError::Corrupt("nic slab geometry mismatch".into()));
            }
            if s.cons_fifo.as_slice().iter().any(|q| q.len() > cons_cap) {
                return Err(SnapError::Corrupt("nic consumption FIFO exceeds cons_cap".into()));
            }
            Ok(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::FlitKind;

    fn slab() -> NicSlab {
        NicSlab::new(2, 4, 8, 4, 2)
    }

    fn flit(seq: u16) -> Flit {
        Flit { worm: WormId(1), kind: if seq == 0 { FlitKind::Head } else { FlitKind::Body }, seq }
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
        n.cons_push(1, idx, flit(0));
        assert!(n.cons_has_space(1, idx));
        // Drain and release.
        assert_eq!(n.cons_pop(1, idx), Some(flit(0)));
        n.release_cons(1, idx);
        assert!(n.cons_is_free(1, idx));
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

    #[test]
    fn injection_queues_per_vnet() {
        let mut s = slab();
        s.enqueue(0, VNet::Req, WormId(1));
        s.enqueue(0, VNet::Reply, WormId(2));
        let n = &mut s;
        assert_eq!(n.pop_inject(0, VNet::Req), Some(WormId(1)));
        assert_eq!(n.pop_inject(0, VNet::Req), None);
        assert_eq!(n.pop_inject(0, VNet::Reply), Some(WormId(2)));
    }

    #[test]
    fn has_work_tracks_every_queue() {
        let mut s = slab();
        assert!(!s.has_work(0));
        s.enqueue(0, VNet::Req, WormId(1));
        assert!(s.has_work(0));
        assert!(!s.has_work(1));
        assert_eq!(s.pop_inject(0, VNet::Req), Some(WormId(1)));
        assert!(!s.has_work(0));
        s.push_pending(1, TxnId(3), 2);
        assert!(s.has_work(1));
    }
}
