//! Fully-mapped directory.
//!
//! One entry per memory block, kept for its home node: a state plus a
//! presence-bit vector identifying every node with a valid cached copy
//! \[44\]. The paper's
//! schemes slice the presence bits column-wise to form multidestination
//! worm headers, so the entry exposes per-column views.

use crate::addr::BlockId;
use std::collections::VecDeque;
use wormdsm_mesh::topology::NodeId;
use wormdsm_sim::snap::{snap_enum, snap_struct};
use wormdsm_sim::FlatMap;

/// Directory entry state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// Not cached anywhere; memory is the only copy.
    Uncached,
    /// One or more read-only copies; presence bits identify them.
    Shared,
    /// Exclusive dirty copy at `owner`.
    Exclusive(NodeId),
    /// An invalidation / ownership transfer is in flight; further requests
    /// queue behind it.
    Waiting,
}

/// A queued request waiting for a `Waiting` entry to settle (tagged by the
/// opaque message key the protocol layer uses to re-dispatch it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedReq {
    /// Requesting node.
    pub node: NodeId,
    /// Opaque protocol-message key to replay.
    pub msg_key: u64,
}

/// A fully-mapped directory entry.
#[derive(Debug, Clone)]
pub struct DirEntry {
    /// Current state.
    pub state: DirState,
    /// Presence bits, one per node.
    presence: Vec<u64>,
    /// Requests queued while `Waiting`.
    pub queue: VecDeque<QueuedReq>,
}

impl DirEntry {
    fn new(nodes: usize) -> Self {
        Self {
            state: DirState::Uncached,
            presence: vec![0; nodes.div_ceil(64)],
            queue: VecDeque::new(),
        }
    }

    /// Set the presence bit for `n`.
    pub fn set_presence(&mut self, n: NodeId) {
        self.presence[n.idx() / 64] |= 1 << (n.idx() % 64);
    }

    /// Clear the presence bit for `n`.
    pub fn clear_presence(&mut self, n: NodeId) {
        self.presence[n.idx() / 64] &= !(1 << (n.idx() % 64));
    }

    /// True if `n`'s presence bit is set.
    pub fn has_presence(&self, n: NodeId) -> bool {
        (self.presence[n.idx() / 64] >> (n.idx() % 64)) & 1 == 1
    }

    /// Clear every presence bit.
    pub fn clear_all(&mut self) {
        self.presence.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of presence bits set.
    pub fn sharer_count(&self) -> usize {
        self.presence.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// All sharers, ascending node id.
    pub fn sharers(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.sharer_count());
        for (wi, &w) in self.presence.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(NodeId((wi * 64 + b) as u16));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Sharers other than `exclude` (the writer requesting ownership).
    pub fn sharers_except(&self, exclude: NodeId) -> Vec<NodeId> {
        self.sharers().into_iter().filter(|&n| n != exclude).collect()
    }
}

/// The directory entries of every home node in one map keyed by block,
/// allocated lazily (an absent entry is `Uncached`). A block's home is
/// fixed by its id (`MemGeometry::home_of`), so one map serves every home:
/// a large mesh pays for the blocks it touches, not for a map per node.
///
/// Entries live in an open-addressed [`FlatMap`]: directory lookups sit on
/// the per-transaction hot path (every read miss, write miss, and ack
/// touches the home's entry), and block ids are sparse `u64`s, so a dense
/// index is infeasible but SipHash is overkill. Entries are never removed.
#[derive(Debug, Default)]
pub struct Directory {
    entries: FlatMap<DirEntry>,
    nodes: usize,
}

impl Directory {
    /// Directory for a system of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self { entries: FlatMap::new(), nodes }
    }

    /// Entry for `b`, created Uncached if absent.
    pub fn entry_mut(&mut self, b: BlockId) -> &mut DirEntry {
        let nodes = self.nodes;
        self.entries.get_or_insert_with(b.0, || DirEntry::new(nodes))
    }

    /// Entry for `b` if it exists.
    pub fn entry(&self, b: BlockId) -> Option<&DirEntry> {
        self.entries.get(b.0)
    }

    /// State of `b` (Uncached when no entry exists).
    pub fn state(&self, b: BlockId) -> DirState {
        self.entries.get(b.0).map_or(DirState::Uncached, |e| e.state)
    }

    /// Every materialized entry with its block, in no particular order
    /// (audits such as `DsmSystem::verify_coherence` pick their own).
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &DirEntry)> {
        self.entries.iter().map(|(b, e)| (BlockId(b), e))
    }

    /// Node count the presence bits cover.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Message key of every queued request, in no particular order.
    pub fn queued_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().flat_map(|(_, e)| e.queue.iter().map(|q| q.msg_key))
    }

    /// Number of materialized entries (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes the directory holds on the heap: the entry map and each
    /// entry's presence bits and request queue.
    pub fn heap_bytes(&self) -> usize {
        use wormdsm_sim::heap::{deque_bytes, vec_bytes};
        self.entries.heap_bytes()
            + self
                .entries
                .iter()
                .map(|(_, e)| vec_bytes(&e.presence) + deque_bytes(&e.queue))
                .sum::<usize>()
    }

    /// True when no entry was ever touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

snap_enum!(DirState { 0 => Uncached, 1 => Shared, 2 => Exclusive(owner), 3 => Waiting });
snap_struct!(QueuedReq { node, msg_key });
snap_struct!(DirEntry { state, presence, queue });

mod snap_impls {
    use super::{DirEntry, Directory};
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for Directory {
        fn save(&self, w: &mut SnapWriter) {
            w.put_usize(self.nodes);
            self.entries.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            // Not `get_len`: no per-node bytes follow the count.
            let nodes = r.get_usize()?;
            let entries: wormdsm_sim::FlatMap<DirEntry> = Snap::load(r)?;
            let words = nodes.div_ceil(64);
            for (_, e) in entries.iter() {
                if e.presence.len() != words {
                    return Err(SnapError::Corrupt(format!(
                        "directory entry presence width {} != {} for {} nodes",
                        e.presence.len(),
                        words,
                        nodes
                    )));
                }
            }
            Ok(Directory { entries, nodes })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_bits_roundtrip() {
        let mut e = DirEntry::new(256);
        for i in [0u16, 63, 64, 127, 255] {
            e.set_presence(NodeId(i));
        }
        assert_eq!(e.sharer_count(), 5);
        assert!(e.has_presence(NodeId(64)));
        assert!(!e.has_presence(NodeId(1)));
        assert_eq!(e.sharers(), vec![NodeId(0), NodeId(63), NodeId(64), NodeId(127), NodeId(255)]);
        e.clear_presence(NodeId(64));
        assert!(!e.has_presence(NodeId(64)));
        assert_eq!(e.sharer_count(), 4);
        e.clear_all();
        assert_eq!(e.sharer_count(), 0);
    }

    #[test]
    fn sharers_except_excludes_writer() {
        let mut e = DirEntry::new(64);
        e.set_presence(NodeId(3));
        e.set_presence(NodeId(7));
        assert_eq!(e.sharers_except(NodeId(3)), vec![NodeId(7)]);
        assert_eq!(e.sharers_except(NodeId(9)).len(), 2);
    }

    #[test]
    fn directory_lazy_entries() {
        let mut d = Directory::new(16);
        assert_eq!(d.state(BlockId(5)), DirState::Uncached);
        assert!(d.is_empty());
        d.entry_mut(BlockId(5)).state = DirState::Shared;
        d.entry_mut(BlockId(5)).set_presence(NodeId(2));
        assert_eq!(d.state(BlockId(5)), DirState::Shared);
        assert_eq!(d.len(), 1);
        assert_eq!(d.entry(BlockId(5)).unwrap().sharer_count(), 1);
    }

    #[test]
    fn queue_holds_requests_in_order() {
        let mut d = Directory::new(4);
        let e = d.entry_mut(BlockId(1));
        e.state = DirState::Waiting;
        e.queue.push_back(QueuedReq { node: NodeId(1), msg_key: 10 });
        e.queue.push_back(QueuedReq { node: NodeId(2), msg_key: 11 });
        assert_eq!(e.queue.pop_front(), Some(QueuedReq { node: NodeId(1), msg_key: 10 }));
    }

    /// The node count may exceed the bytes that follow it: an empty
    /// directory of a large mesh saves a few bytes and loads back.
    #[test]
    fn empty_directory_of_many_nodes_round_trips() {
        use wormdsm_sim::snap::{Snap, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        Directory::new(1 << 16).save(&mut w);
        let bytes = w.finish();
        let back = Directory::load(&mut SnapReader::new(&bytes).unwrap()).unwrap();
        assert_eq!((back.nodes, back.len()), (1 << 16, 0));
    }
}
