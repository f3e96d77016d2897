//! Protocol messages and the payload table.
//!
//! Worm payloads are opaque `u64` keys into a [`MsgTable`]; the protocol
//! layer allocates a message, injects a worm carrying its key, and decodes
//! the key on delivery. Multidestination invalidation worms deliver the
//! *same* message to every sharer; the per-sharer acknowledgement action is
//! looked up in the transaction table instead.
//!
//! The table is bounded by the messages still in use, not by the run's
//! length: keys carry a generation, and the owner collects every message
//! no holder names (see [`MsgTable::collect`]), so freed slots are reused
//! and a stale key is refused rather than aliased. A burst of worms that
//! carries one message stores it once: pushing the newest message again
//! returns its key (UI-UA's unicast invalidations of one transaction, or
//! a scheme's column worms, share one slot).

use crate::addr::BlockId;
use wormdsm_mesh::topology::NodeId;
use wormdsm_mesh::worm::TxnId;
use wormdsm_sim::snap::{snap_enum, Snap, SnapError, SnapReader, SnapWriter};

/// Coherence protocol message types.
///
/// `Req`-network messages go home-ward or owner-ward; `Reply`-network
/// messages carry data, grants, and acknowledgements (the DASH-style
/// two-network split that breaks request/reply deadlock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoMsg {
    /// Read miss: requester -> home. (Req net)
    ReadReq {
        /// Missing block.
        block: BlockId,
        /// Requesting node.
        requester: NodeId,
    },
    /// Data reply with read permission: home -> requester. (Reply net)
    ReadReply {
        /// The block.
        block: BlockId,
    },
    /// Write miss (no copy): requester -> home. (Req net)
    WriteReq {
        /// The block.
        block: BlockId,
        /// Requesting node.
        requester: NodeId,
    },
    /// Ownership upgrade (Shared copy held): requester -> home. (Req net)
    UpgradeReq {
        /// The block.
        block: BlockId,
        /// Requesting node.
        requester: NodeId,
    },
    /// Invalidation request: home -> sharer(s); carried by unicast worms
    /// (UI) or multidestination i-reserve worms (MI). (Req net)
    Inval {
        /// The block.
        block: BlockId,
        /// Invalidation transaction.
        txn: TxnId,
        /// Home node acks must reach.
        home: NodeId,
    },
    /// Unicast invalidation acknowledgement: sharer -> home. (Reply net)
    InvAck {
        /// The block.
        block: BlockId,
        /// Invalidation transaction.
        txn: TxnId,
        /// Number of acknowledgements this message carries (relays of
        /// deposit fallbacks may carry more than one).
        count: u32,
    },
    /// Relay instruction to a tree-scheme delegate: inject the column
    /// invalidation worms planned for this transaction. (Req net)
    RelayInval {
        /// The block.
        block: BlockId,
        /// Invalidation transaction.
        txn: TxnId,
        /// Home node.
        home: NodeId,
    },
    /// Terminates a first-level gather at the sweep-trigger node of the
    /// two-phase schemes: the receiving node injects the planned sweep
    /// gather, seeding it with this worm's ack count. (Reply net)
    SweepTrigger {
        /// The block.
        block: BlockId,
        /// Invalidation transaction.
        txn: TxnId,
    },
    /// Combined acknowledgement carried by an i-gather worm; the count
    /// rides in the worm itself. (Reply net)
    GatherAck {
        /// The block.
        block: BlockId,
        /// Invalidation transaction.
        txn: TxnId,
    },
    /// Write permission grant (with data when `with_data`): home ->
    /// writer. (Reply net)
    WriteGrant {
        /// The block.
        block: BlockId,
        /// Whether a data copy rides along (write miss vs upgrade).
        with_data: bool,
    },
    /// Fetch request for a dirty block: home -> owner; `for_write` asks
    /// the owner to invalidate (ownership transfer) rather than downgrade.
    /// (Req net)
    Fetch {
        /// The block.
        block: BlockId,
        /// Node that misses.
        requester: NodeId,
        /// Read miss (false) or write miss (true).
        for_write: bool,
    },
    /// Dirty data forwarded by the owner straight to the requester.
    /// (Reply net)
    OwnerData {
        /// The block.
        block: BlockId,
        /// True when ownership transferred (requester installs Modified).
        exclusive: bool,
    },
    /// Sharing/ownership writeback: owner -> home after a Fetch.
    /// (Reply net)
    FetchWb {
        /// The block.
        block: BlockId,
        /// The node the data was forwarded to.
        requester: NodeId,
        /// True when the owner invalidated (write fetch).
        was_write: bool,
    },
    /// Dirty eviction writeback: owner -> home. (Req net; it initiates a
    /// transaction.)
    Writeback {
        /// The block.
        block: BlockId,
        /// Evicting node.
        owner: NodeId,
    },
    /// Writeback acknowledgement: home -> evictor (releases the writeback
    /// buffer slot). (Reply net)
    WritebackAck {
        /// The block.
        block: BlockId,
    },
    /// Barrier arrival: participant -> barrier home. (Req net)
    BarrierArrive {
        /// Barrier identifier.
        barrier: u16,
        /// Number of arrivals that release the barrier.
        participants: u32,
    },
    /// Barrier release: barrier home -> participant. (Reply net)
    BarrierRelease {
        /// Barrier identifier.
        barrier: u16,
    },
    /// Lock request: node -> lock home. (Req net)
    LockReq {
        /// Lock identifier.
        lock: u16,
        /// Requesting node.
        requester: NodeId,
    },
    /// Lock grant: lock home -> holder. (Reply net)
    LockGrant {
        /// Lock identifier.
        lock: u16,
    },
    /// Lock release: holder -> lock home. (Req net)
    LockRelease {
        /// Lock identifier.
        lock: u16,
    },
}

impl ProtoMsg {
    /// The node the message names in its fields, if any (the requester,
    /// home or owner; no message names more than one).
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            ProtoMsg::ReadReq { requester, .. }
            | ProtoMsg::WriteReq { requester, .. }
            | ProtoMsg::UpgradeReq { requester, .. }
            | ProtoMsg::Fetch { requester, .. }
            | ProtoMsg::FetchWb { requester, .. }
            | ProtoMsg::LockReq { requester, .. } => Some(requester),
            ProtoMsg::Inval { home, .. } | ProtoMsg::RelayInval { home, .. } => Some(home),
            ProtoMsg::Writeback { owner, .. } => Some(owner),
            ProtoMsg::ReadReply { .. }
            | ProtoMsg::InvAck { .. }
            | ProtoMsg::SweepTrigger { .. }
            | ProtoMsg::GatherAck { .. }
            | ProtoMsg::WriteGrant { .. }
            | ProtoMsg::OwnerData { .. }
            | ProtoMsg::WritebackAck { .. }
            | ProtoMsg::BarrierArrive { .. }
            | ProtoMsg::BarrierRelease { .. }
            | ProtoMsg::LockGrant { .. }
            | ProtoMsg::LockRelease { .. } => None,
        }
    }

    /// True for messages that carry a data block.
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            ProtoMsg::ReadReply { .. }
                | ProtoMsg::OwnerData { .. }
                | ProtoMsg::FetchWb { .. }
                | ProtoMsg::Writeback { .. }
                | ProtoMsg::WriteGrant { with_data: true, .. }
        )
    }
}

/// Low bits of a payload key that select the table slot; the bits above
/// hold the sequence number of the stored message (the key's generation).
const SLOT_BITS: u32 = 28;

/// Mask of a key's slot bits.
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// The most stored messages a table restores with: half the generations
/// a key can carry, so a restored run never runs out of them.
const MAX_RESTORED_SEQ: u64 = u64::MAX >> (SLOT_BITS + 1);

/// Messages the table holds before its first collection, and the floor
/// of every later collection threshold.
const MIN_COLLECT: usize = 1024;

/// Payload table mapping worm payload keys to protocol messages: a slab
/// bounded by the messages still referenced.
///
/// Keys follow the transaction slab's id pattern: `key = (seq << 28) |
/// slot`, where `seq` counts every stored message and starts at 1, so no
/// key is 0 and a stale key from a collected message never aliases the
/// newer message in its slot — [`MsgTable::get`] panics on it, naming it,
/// and [`MsgTable::check`] refuses it.
///
/// [`MsgTable::push`] stores a message only when it differs from the
/// newest one (the key of generation `seq`) or that one has been
/// collected; otherwise it returns the newest key again. Messages are
/// immutable values, so every holder of a shared key decodes the same
/// message. The rule reads only the slots and `seq`, so a restored table
/// shares a key exactly when the saved one would.
///
/// The table does not know who holds a key. Its owner calls
/// [`MsgTable::collect`] with every key still held (at a point where no
/// handler holds one in a local) once [`MsgTable::collect_due`] says the
/// live count has doubled since the last collection, so collection costs
/// amortised O(1) per message. Collection vacates every unheld slot,
/// drops trailing vacancies, and leaves the free list holding every
/// vacant slot, highest first, so `push` reuses the lowest. Slots are
/// vacated only by collection, so that rule holds at every point, and a
/// snapshot needs only the slots, `seq` and the threshold to hand out the
/// same keys after a restore.
#[derive(Debug)]
pub struct MsgTable {
    /// Each slot's key and message; `None` = vacant.
    slots: Vec<Option<(u64, ProtoMsg)>>,
    /// Vacant slots, highest first (derived from `slots`).
    free: Vec<u32>,
    /// Messages stored so far: the generation of the newest key.
    seq: u64,
    /// The slot holding the newest key while it is held (derived from
    /// `slots` and `seq`).
    newest: Option<u32>,
    /// `collect_due` once the live count reaches this.
    collect_at: usize,
}

impl Default for MsgTable {
    fn default() -> Self {
        Self { slots: Vec::new(), free: Vec::new(), seq: 0, newest: None, collect_at: MIN_COLLECT }
    }
}

impl MsgTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a message, returning its payload key: the newest key again
    /// when that message is still held and equals `m`, else a new key in
    /// the lowest vacant slot.
    pub fn push(&mut self, m: ProtoMsg) -> u64 {
        if let Some((key, newest)) = self.newest.and_then(|s| self.slots[s as usize]) {
            if newest == m {
                return key;
            }
        }
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                assert!(
                    (self.slots.len() as u64) <= SLOT_MASK,
                    "message table full: {} messages held",
                    self.len()
                );
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.seq += 1;
        assert!(
            self.seq >> (64 - SLOT_BITS) == 0,
            "message keys exhausted after {} messages",
            self.seq
        );
        let key = (self.seq << SLOT_BITS) | slot as u64;
        self.slots[slot] = Some((key, m));
        self.newest = Some(slot as u32);
        key
    }

    /// Decode a payload key. Panics, naming the key, when it is stale or
    /// past the table.
    pub fn get(&self, key: u64) -> ProtoMsg {
        match self.slots.get((key & SLOT_MASK) as usize) {
            Some(&Some((k, m))) if k == key => m,
            _ => self.refuse(key),
        }
    }

    #[cold]
    fn refuse(&self, key: u64) -> ! {
        panic!("{}", self.check(key).expect_err("a key that get refuses"))
    }

    /// Why `key` names no message in the table, if it does not: its slot
    /// is past the table, or the slot is vacant or holds a newer message.
    pub fn check(&self, key: u64) -> Result<(), String> {
        let slot = (key & SLOT_MASK) as usize;
        match self.slots.get(slot) {
            None => Err(format!(
                "message key {key:#x}: slot {slot} past a table of {} slots",
                self.slots.len()
            )),
            Some(Some((k, _))) if *k == key => Ok(()),
            Some(_) => Err(format!("message key {key:#x} is stale: slot {slot} holds another")),
        }
    }

    /// True once the live count has doubled since the last collection
    /// (or reached the first threshold).
    pub fn collect_due(&self) -> bool {
        self.len() >= self.collect_at
    }

    /// Vacate every slot whose key `held` does not yield. `held` must
    /// yield every key that may still be decoded; keys the table does not
    /// hold are ignored.
    pub fn collect(&mut self, held: impl IntoIterator<Item = u64>) {
        let mut keep = vec![false; self.slots.len()];
        for key in held {
            if self.check(key).is_ok() {
                keep[(key & SLOT_MASK) as usize] = true;
            }
        }
        for (slot, keep) in self.slots.iter_mut().zip(keep) {
            if !keep {
                *slot = None;
            }
        }
        while self.slots.last() == Some(&None) {
            self.slots.pop();
        }
        self.rebuild_derived();
        self.collect_at = (2 * self.len()).max(MIN_COLLECT);
    }

    /// Derive the free list from the slots' occupancy, and the newest
    /// slot from the one key of generation `seq`, if still held.
    fn rebuild_derived(&mut self) {
        self.free.clear();
        self.free.extend(
            (0..self.slots.len() as u32).rev().filter(|&s| self.slots[s as usize].is_none()),
        );
        self.newest = self
            .slots
            .iter()
            .position(|s| matches!(s, Some((k, _)) if k >> SLOT_BITS == self.seq))
            .map(|s| s as u32);
    }

    /// Number of messages held (pushed and not yet collected): every slot
    /// the free list does not name.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Bytes the table holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        use wormdsm_sim::heap::vec_bytes;
        vec_bytes(&self.slots) + vec_bytes(&self.free)
    }

    /// True if no message is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every message held, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &ProtoMsg> {
        self.slots.iter().flatten().map(|(_, m)| m)
    }

    /// Number of slots, occupied or vacant.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

snap_enum!(ProtoMsg {
    0 => ReadReq { block, requester },
    1 => ReadReply { block },
    2 => WriteReq { block, requester },
    3 => UpgradeReq { block, requester },
    4 => Inval { block, txn, home },
    5 => InvAck { block, txn, count },
    6 => RelayInval { block, txn, home },
    7 => SweepTrigger { block, txn },
    8 => GatherAck { block, txn },
    9 => WriteGrant { block, with_data },
    10 => Fetch { block, requester, for_write },
    11 => OwnerData { block, exclusive },
    12 => FetchWb { block, requester, was_write },
    13 => Writeback { block, owner },
    14 => WritebackAck { block },
    15 => BarrierArrive { barrier, participants },
    16 => BarrierRelease { barrier },
    17 => LockReq { lock, requester },
    18 => LockGrant { lock },
    19 => LockRelease { lock },
});

/// The slots (a vacant one costs one byte), the stored-message count
/// `seq` and the collection threshold; the free list and the newest slot
/// are derived again on load. The
/// threshold is set by a collection to twice the messages it kept (at
/// least `MIN_COLLECT`), and only pushes follow until the next one, so a
/// table that a run produced has `MIN_COLLECT <= collect_at <=
/// max(MIN_COLLECT, 2 * len)`; the loader refuses any other.
impl Snap for MsgTable {
    fn save(&self, w: &mut SnapWriter) {
        self.slots.save(w);
        w.put_u64(self.seq);
        w.put_usize(self.collect_at);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let slots: Vec<Option<(u64, ProtoMsg)>> = Snap::load(r)?;
        let seq = r.get_u64()?;
        let collect_at = r.get_usize()?;
        if seq > MAX_RESTORED_SEQ {
            return Err(SnapError::Corrupt(format!("message table: {seq} messages stored")));
        }
        if slots.last() == Some(&None) {
            return Err(SnapError::Corrupt("message table ends in a vacant slot".to_string()));
        }
        for (slot, &(key, _)) in
            slots.iter().enumerate().filter_map(|(i, s)| Some((i, s.as_ref()?)))
        {
            let generation = key >> SLOT_BITS;
            if (key & SLOT_MASK) as usize != slot || generation == 0 || generation > seq {
                return Err(SnapError::Corrupt(format!(
                    "message table: key {key:#x} in slot {slot} after {seq} messages"
                )));
            }
        }
        let mut t = Self { slots, free: Vec::new(), seq, newest: None, collect_at };
        t.rebuild_derived();
        if collect_at < MIN_COLLECT || collect_at > (2 * t.len()).max(MIN_COLLECT) {
            return Err(SnapError::Corrupt(format!(
                "message table: collection threshold {collect_at} with {} messages held",
                t.len()
            )));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = MsgTable::new();
        let a = t.push(ProtoMsg::ReadReq { block: BlockId(1), requester: NodeId(2) });
        let b = t.push(ProtoMsg::WriteGrant { block: BlockId(1), with_data: true });
        assert_ne!(a, b);
        assert_eq!(t.get(a), ProtoMsg::ReadReq { block: BlockId(1), requester: NodeId(2) });
        assert_eq!(t.get(b), ProtoMsg::WriteGrant { block: BlockId(1), with_data: true });
        assert_eq!(t.len(), 2);
    }

    /// Collection frees the unheld messages, trims trailing vacancies and
    /// reuses the lowest vacant slot first; a key from a freed slot is
    /// refused even once the slot holds a newer message.
    #[test]
    fn collection_frees_unheld_messages_and_reuses_the_lowest_slot() {
        let m = |b| ProtoMsg::ReadReply { block: BlockId(b) };
        let mut t = MsgTable::new();
        let k: Vec<u64> = (0..5).map(|b| t.push(m(b))).collect();
        t.collect([k[1], k[3], k[3], 0, u64::MAX]);
        assert_eq!((t.len(), t.slots()), (2, 4), "slot 4 is trimmed");
        assert!(t.check(k[0]).unwrap_err().contains("is stale"));
        assert!(t.check(k[4]).unwrap_err().contains("past a table of 4 slots"));
        let reused = t.push(m(9));
        assert_eq!(reused & SLOT_MASK, 0, "lowest vacant slot first");
        assert_ne!(reused, k[0], "a new generation");
        assert!(t.check(k[0]).unwrap_err().contains("is stale"));
        assert_eq!((t.get(reused), t.get(k[3])), (m(9), m(3)));
        assert_eq!(t.push(m(8)) & SLOT_MASK, 2);
        assert_eq!(t.push(m(7)) & SLOT_MASK, 4, "then the table grows");
    }

    #[test]
    #[should_panic(expected = "is stale")]
    fn get_panics_on_a_stale_key() {
        let mut t = MsgTable::new();
        let k = t.push(ProtoMsg::ReadReply { block: BlockId(1) });
        t.push(ProtoMsg::ReadReply { block: BlockId(2) });
        t.collect([]);
        t.push(ProtoMsg::ReadReply { block: BlockId(3) });
        t.get(k);
    }

    /// Collection runs once the live count has doubled since the last one,
    /// and never below the first threshold.
    #[test]
    fn collection_is_due_when_the_live_count_doubles() {
        let mut t = MsgTable::new();
        let keys: Vec<u64> = (0..MIN_COLLECT as u64)
            .map(|b| t.push(ProtoMsg::ReadReply { block: BlockId(b) }))
            .collect();
        assert!(t.collect_due());
        t.collect(keys.iter().copied().take(MIN_COLLECT / 2 + 10));
        assert!(!t.collect_due());
        for b in 0..MIN_COLLECT / 2 + 9 {
            t.push(ProtoMsg::ReadReply { block: BlockId(b as u64) });
        }
        assert!(!t.collect_due());
        t.push(ProtoMsg::ReadReply { block: BlockId(0) });
        assert!(
            t.collect_due(),
            "{} live, {} after the last collection",
            t.len(),
            MIN_COLLECT / 2 + 10
        );
    }

    fn save(t: &MsgTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.save(&mut w);
        w.finish()
    }

    fn load(bytes: &[u8]) -> Result<MsgTable, SnapError> {
        MsgTable::load(&mut SnapReader::new(bytes).unwrap())
    }

    /// Pushing the newest message again returns its key; any other
    /// message in between ends the sharing.
    #[test]
    fn a_repeated_message_shares_the_newest_key() {
        let (a, b) = (ProtoMsg::LockGrant { lock: 1 }, ProtoMsg::LockGrant { lock: 2 });
        let mut t = MsgTable::new();
        let ka = t.push(a);
        assert_eq!(t.push(a), ka);
        assert_eq!((t.len(), t.seq), (1, 1), "stored once");
        let kb = t.push(b);
        let ka2 = t.push(a);
        assert!(ka2 != ka && ka2 != kb, "an older equal message is not reused");
        assert_eq!((t.len(), t.seq), (3, 3));
        assert_eq!((t.get(ka), t.get(kb), t.get(ka2)), (a, b, a));
    }

    /// Sharing survives a collection that keeps the newest message, and
    /// ends at one that vacates it, even when an older message is kept.
    #[test]
    fn sharing_follows_the_newest_message_through_collection() {
        let (a, b) = (ProtoMsg::LockGrant { lock: 1 }, ProtoMsg::LockGrant { lock: 2 });
        let mut t = MsgTable::new();
        let ka = t.push(a);
        let kb = t.push(b);
        t.collect([kb]);
        assert_eq!(t.push(b), kb, "the newest message was kept");
        let ka2 = t.push(a);
        t.collect([kb]);
        assert!(t.check(ka2).is_err());
        let ka3 = t.push(a);
        assert!(ka3 != ka && ka3 != ka2, "the newest message was vacated");
        assert_eq!(ka3, 4 << SLOT_BITS, "a new key in the lowest vacant slot");
        assert_eq!((t.get(kb), t.get(ka3)), (b, a));
    }

    /// A reference model of the table: every key the table returns names
    /// the message pushed with it, a push shares a key exactly when the
    /// newest stored message equals it and is still held, and a table
    /// saved and loaded at any point hands out the same keys as the one
    /// never saved.
    #[test]
    fn the_table_agrees_with_a_reference_model_across_restores() {
        use std::collections::BTreeMap;
        use wormdsm_sim::rng::Rng;
        let alphabet = |i: u64| match i % 3 {
            0 => ProtoMsg::Inval { block: BlockId(i / 3), txn: TxnId(1), home: NodeId(0) },
            1 => ProtoMsg::ReadReply { block: BlockId(i / 3) },
            _ => ProtoMsg::LockGrant { lock: (i / 3) as u16 },
        };
        let mut shared = 0;
        for seed in 0..40 {
            let mut rng = Rng::new(seed);
            let mut t = MsgTable::new();
            let mut back: Option<MsgTable> = None;
            // The model: every live key's message, and the newest key.
            let mut live: BTreeMap<u64, ProtoMsg> = BTreeMap::new();
            let (mut newest, mut generation) = (None::<u64>, 0);
            for step in 0..600 {
                match rng.below(40) {
                    0 => {
                        let held: Vec<u64> =
                            live.keys().copied().filter(|_| rng.chance(0.5)).collect();
                        live.retain(|k, _| held.contains(k));
                        t.collect(held.iter().copied().chain([0, u64::MAX]));
                        if let Some(b) = back.as_mut() {
                            b.collect(held);
                        }
                    }
                    1 => back = Some(load(&save(&t)).expect("a table a run produced loads")),
                    _ => {
                        let m = alphabet(rng.below(6));
                        let key = t.push(m);
                        let reuse = newest.filter(|k| live.get(k) == Some(&m));
                        if let Some(k) = reuse {
                            assert_eq!(key, k, "seed {seed} step {step}: the newest key shared");
                            shared += 1;
                        } else {
                            generation += 1;
                            assert_eq!(key >> SLOT_BITS, generation, "seed {seed} step {step}");
                            assert!(live.insert(key, m).is_none(), "seed {seed} step {step}");
                        }
                        newest = Some(key);
                        if let Some(b) = back.as_mut() {
                            assert_eq!(b.push(m), key, "seed {seed} step {step}: restored");
                        }
                    }
                }
                assert_eq!(t.len(), live.len(), "seed {seed} step {step}");
                for (&k, &m) in &live {
                    assert_eq!(t.get(k), m);
                    if let Some(b) = &back {
                        assert_eq!(b.get(k), m);
                    }
                }
                if let Some(b) = &back {
                    assert_eq!(save(b), save(&t), "seed {seed} step {step}");
                }
            }
        }
        assert!(shared > 1000, "the alphabet repeats often enough to share keys: {shared}");
    }

    /// A restored table hands out the same keys as the one saved, and the
    /// loader refuses keys its slots or message count cannot have
    /// produced.
    #[test]
    fn snapshot_keeps_key_assignment_and_refuses_impossible_keys() {
        let m = ProtoMsg::LockGrant { lock: 3 };
        let mut t = MsgTable::new();
        let k: Vec<u64> = (0..6).map(|lock| t.push(ProtoMsg::LockGrant { lock })).collect();
        t.collect([k[0], k[2], k[5]]);
        let bytes = save(&t);
        let mut back = load(&bytes).unwrap();
        assert_eq!(save(&back), bytes);
        for lock in [5, 5, 3, 3, 3] {
            let m = ProtoMsg::LockGrant { lock };
            assert_eq!(back.push(m), t.push(m));
        }
        assert_eq!(back.collect_due(), t.collect_due());

        let encode = |slots: &[Option<(u64, ProtoMsg)>], seq: u64, collect_at: usize| {
            let mut w = SnapWriter::new();
            slots.to_vec().save(&mut w);
            w.put_u64(seq);
            w.put_usize(collect_at);
            w.finish()
        };
        let corrupt = |slots: Vec<Option<(u64, ProtoMsg)>>, seq: u64| {
            load(&encode(&slots, seq, MIN_COLLECT)).unwrap_err().to_string()
        };
        let key = |generation: u64, slot: u64| (generation << SLOT_BITS) | slot;
        assert!(corrupt(vec![Some((key(1, 0), m)), None], 1).contains("vacant slot"));
        assert!(corrupt(vec![Some((key(1, 1), m))], 1).contains("in slot 0"));
        assert!(corrupt(vec![Some((key(0, 0), m))], 1).contains("in slot 0"));
        assert!(corrupt(vec![Some((key(2, 0), m))], 1).contains("after 1 messages"));
        assert!(corrupt(vec![], u64::MAX).contains("messages stored"));

        // The collection threshold lies in [MIN_COLLECT, max(MIN_COLLECT,
        // 2 * held)]: a larger one would switch collection off, a smaller
        // one would collect on every step.
        let held: Vec<_> = (1..=700).map(|g| Some((key(g, g - 1), m))).collect();
        let threshold = |collect_at| load(&encode(&held, 700, collect_at)).map(|_| ());
        assert!(threshold(MIN_COLLECT).is_ok());
        assert!(threshold(1400).is_ok());
        for bad in [0, MIN_COLLECT - 1, 1401, usize::MAX] {
            let err = threshold(bad).unwrap_err().to_string();
            assert!(err.contains("collection threshold"), "{bad}: {err}");
        }
        assert!(load(&encode(&[], 0, MIN_COLLECT + 1)).is_err());
    }

    #[test]
    fn data_classification() {
        assert!(ProtoMsg::ReadReply { block: BlockId(0) }.carries_data());
        assert!(ProtoMsg::WriteGrant { block: BlockId(0), with_data: true }.carries_data());
        assert!(!ProtoMsg::WriteGrant { block: BlockId(0), with_data: false }.carries_data());
        assert!(
            !ProtoMsg::Inval { block: BlockId(0), txn: TxnId(1), home: NodeId(0) }.carries_data()
        );
        assert!(!ProtoMsg::InvAck { block: BlockId(0), txn: TxnId(1), count: 1 }.carries_data());
        assert!(ProtoMsg::Writeback { block: BlockId(0), owner: NodeId(1) }.carries_data());
    }
}
