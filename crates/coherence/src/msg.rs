//! Protocol messages and the payload table.
//!
//! Worm payloads are opaque `u64` keys into a [`MsgTable`]; the protocol
//! layer allocates a message, injects a worm carrying its key, and decodes
//! the key on delivery. Multidestination invalidation worms deliver the
//! *same* message to every sharer; the per-sharer acknowledgement action is
//! looked up in the transaction table instead.

use crate::addr::BlockId;
use wormdsm_mesh::topology::NodeId;
use wormdsm_mesh::worm::TxnId;
use wormdsm_sim::snap::{snap_enum, snap_struct};

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

/// Payload table mapping worm payload keys to protocol messages.
#[derive(Debug, Default)]
pub struct MsgTable {
    msgs: Vec<ProtoMsg>,
}

impl MsgTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a message, returning its payload key.
    pub fn push(&mut self, m: ProtoMsg) -> u64 {
        self.msgs.push(m);
        (self.msgs.len() - 1) as u64
    }

    /// Decode a payload key.
    pub fn get(&self, key: u64) -> ProtoMsg {
        self.msgs[key as usize]
    }

    /// Number of messages allocated so far.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if no messages were allocated.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
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
snap_struct!(MsgTable { msgs });

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
