//! Every node's processor cache in one table: direct-mapped, write-back,
//! MSI line states.

use crate::addr::BlockId;
use wormdsm_mesh::topology::NodeId;
use wormdsm_sim::snap::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use wormdsm_sim::FlatMap;

/// Line state in a processor cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Valid read-only copy.
    Shared,
    /// Exclusive dirty copy (single writer).
    Modified,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockId,
    state: LineState,
}

/// Result of inserting a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// The victim slot was free or held the same block.
    None,
    /// A clean (Shared) line was silently dropped.
    Clean(BlockId),
    /// A dirty (Modified) line must be written back.
    Dirty(BlockId),
}

/// The direct-mapped, write-back caches of every node, indexed by node
/// and block id.
///
/// Direct mapping keeps conflict behaviour deterministic and matches the
/// simple SRAM caches of the paper's era; the set count is configurable so
/// experiments can vary pressure. Every node has the same set count.
///
/// Only occupied sets are stored, all nodes' in one map keyed by
/// `(set << 16) | node`: the caches cost memory in proportion to the
/// lines they hold, not to nodes times sets, and not a map per node (a
/// k=64 mesh of 2048-set caches holds a few lines per node, most nodes
/// none). The node sits in the low bits, so the lines of one block at
/// many sharers differ in the bits every hash mixes first. Saving sorts
/// the lines, and no result folds over the map, so its internal order is
/// not observable.
#[derive(Debug, Clone)]
pub struct Caches {
    sets: u64,
    lines: FlatMap<Line>,
}

impl Caches {
    /// Most sets a cache may have: the set index and a 16-bit node id
    /// share one 64-bit key.
    pub const MAX_SETS: usize = 1 << 48;

    /// Empty caches of `sets` direct-mapped slots each (a power of two,
    /// at most [`Caches::MAX_SETS`]).
    pub fn new(sets: usize) -> Self {
        assert!(sets.is_power_of_two() && sets <= Self::MAX_SETS, "{sets} cache sets");
        Self { sets: sets as u64, lines: FlatMap::new() }
    }

    /// Slots per node.
    pub fn sets(&self) -> usize {
        self.sets as usize
    }

    fn set(&self, b: BlockId) -> u64 {
        b.0 & (self.sets - 1)
    }

    fn key(&self, node: NodeId, b: BlockId) -> u64 {
        (self.set(b) << 16) | u64::from(node.0)
    }

    /// The line `node` holds for `b`, if its set holds `b` itself.
    fn line_mut(&mut self, node: NodeId, b: BlockId) -> Option<&mut Line> {
        let key = self.key(node, b);
        self.lines.get_mut(key).filter(|l| l.block == b)
    }

    /// Current state of `b` at `node`, if present.
    pub fn state(&self, node: NodeId, b: BlockId) -> Option<LineState> {
        self.lines.get(self.key(node, b)).filter(|l| l.block == b).map(|l| l.state)
    }

    /// True if a read of `b` at `node` hits.
    pub fn read_hit(&self, node: NodeId, b: BlockId) -> bool {
        self.state(node, b).is_some()
    }

    /// True if a write of `b` at `node` hits with write permission.
    pub fn write_hit(&self, node: NodeId, b: BlockId) -> bool {
        self.state(node, b) == Some(LineState::Modified)
    }

    /// Non-mutating presence probe: the state of `b` at `node` without
    /// any lookup side effects, ever. `read_hit`/`write_hit` model
    /// processor accesses and may one day perturb replacement state;
    /// `probe` is the contract for protocol decisions (e.g.
    /// upgrade-vs-write-miss detection) that must merely *inspect* the
    /// cache.
    pub fn probe(&self, node: NodeId, b: BlockId) -> Option<LineState> {
        self.state(node, b)
    }

    /// Install `b` in `state` at `node`, returning what was evicted.
    pub fn insert(&mut self, node: NodeId, b: BlockId, state: LineState) -> Evicted {
        match self.lines.insert(self.key(node, b), Line { block: b, state }) {
            None => Evicted::None,
            Some(l) if l.block == b => Evicted::None,
            Some(l) => match l.state {
                LineState::Shared => Evicted::Clean(l.block),
                LineState::Modified => Evicted::Dirty(l.block),
            },
        }
    }

    /// Upgrade `node`'s Shared line of `b` to Modified. Returns false if
    /// the block is no longer present (it raced with an invalidation).
    pub fn upgrade(&mut self, node: NodeId, b: BlockId) -> bool {
        self.line_mut(node, b).map(|l| l.state = LineState::Modified).is_some()
    }

    /// Invalidate `b` at `node`. Returns the state it had, if present.
    pub fn invalidate(&mut self, node: NodeId, b: BlockId) -> Option<LineState> {
        let state = self.state(node, b)?;
        self.lines.remove(self.key(node, b));
        Some(state)
    }

    /// Downgrade `node`'s line of `b` from Modified to Shared (sharing
    /// writeback). Returns false if absent.
    pub fn downgrade(&mut self, node: NodeId, b: BlockId) -> bool {
        self.line_mut(node, b).map(|l| l.state = LineState::Shared).is_some()
    }

    /// Valid lines over all nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Bytes the line table holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.lines.heap_bytes()
    }

    /// True when no node holds a line.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Every valid line as `(node, block, state)`, in no particular order.
    pub fn lines(&self) -> impl Iterator<Item = (NodeId, BlockId, LineState)> + '_ {
        self.lines.iter().map(|(k, l)| (NodeId(k as u16), l.block, l.state))
    }

    /// Save the cache sections of nodes `0..nodes` in node order, calling
    /// `after(node, w)` behind each so a caller can interleave the rest of
    /// its per-node record. A section is the set count, then the node's
    /// lines in ascending set order: it costs bytes in proportion to the
    /// lines held, like the table's memory does. Each line's set is
    /// `block & (sets-1)`, so no set index is stored, and the map's own
    /// layout is not saved.
    pub fn save_sections(
        &self,
        nodes: usize,
        w: &mut SnapWriter,
        mut after: impl FnMut(usize, &mut SnapWriter),
    ) {
        // Node-major, then set: the key with the node rotated to the top.
        let mut lines: Vec<(u64, Line)> = self.lines.iter().map(|(k, l)| (k, *l)).collect();
        lines.sort_unstable_by_key(|&(k, _)| k.rotate_right(16));
        let mut rest = &lines[..];
        for node in 0..nodes {
            let held = rest.iter().take_while(|(k, _)| (k & 0xFFFF) as usize == node).count();
            let (mine, tail) = rest.split_at(held);
            rest = tail;
            w.put_usize(self.sets as usize);
            w.put_usize(mine.len());
            mine.iter().for_each(|(_, l)| l.save(w));
            after(node, w);
        }
        debug_assert!(rest.is_empty(), "a line of a node past {nodes}");
    }

    /// Load `node`'s section of a [`Caches::save_sections`] stream into
    /// this table, refusing a set count other than this table's and a
    /// set filled twice.
    pub fn load_section(&mut self, node: NodeId, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        // Not `get_len`: no per-set bytes follow the count.
        let sets = r.get_usize()?;
        if sets as u64 != self.sets {
            return Err(SnapError::Corrupt(format!(
                "node {} cache has {sets} sets, configuration has {}",
                node.idx(),
                self.sets
            )));
        }
        for l in Vec::<Line>::load(r)? {
            let key = self.key(node, l.block);
            if self.lines.insert(key, l).is_some() {
                return Err(SnapError::Corrupt(format!(
                    "node {} cache set {} holds two lines",
                    node.idx(),
                    self.set(l.block)
                )));
            }
        }
        Ok(())
    }
}

snap_enum!(LineState { 0 => Shared, 1 => Modified });
snap_struct!(Line { block, state });

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    #[test]
    fn miss_then_hit() {
        let mut c = Caches::new(64);
        let b = BlockId(5);
        assert!(!c.read_hit(A, b));
        assert_eq!(c.insert(A, b, LineState::Shared), Evicted::None);
        assert!(c.read_hit(A, b));
        assert!(!c.write_hit(A, b));
        assert!(c.upgrade(A, b));
        assert!(c.write_hit(A, b));
    }

    #[test]
    fn conflict_eviction_clean_and_dirty() {
        let mut c = Caches::new(4);
        // Blocks 1 and 5 conflict (same slot mod 4).
        c.insert(A, BlockId(1), LineState::Shared);
        assert_eq!(c.insert(A, BlockId(5), LineState::Shared), Evicted::Clean(BlockId(1)));
        assert!(!c.read_hit(A, BlockId(1)));
        c.upgrade(A, BlockId(5));
        assert_eq!(c.insert(A, BlockId(9), LineState::Shared), Evicted::Dirty(BlockId(5)));
    }

    /// Two nodes filling the same set hold their lines side by side: an
    /// insert, upgrade, downgrade or invalidation at one leaves the other
    /// untouched.
    #[test]
    fn nodes_on_the_same_set_do_not_interfere() {
        let mut c = Caches::new(4);
        assert_eq!(c.insert(A, BlockId(1), LineState::Modified), Evicted::None);
        assert_eq!(c.insert(B, BlockId(5), LineState::Shared), Evicted::None);
        assert_eq!(c.insert(NodeId(u16::MAX), BlockId(1), LineState::Shared), Evicted::None);
        assert_eq!(c.len(), 3);
        assert_eq!(c.state(A, BlockId(1)), Some(LineState::Modified));
        assert_eq!(c.state(B, BlockId(1)), None, "B's set holds block 5");
        assert!(c.downgrade(A, BlockId(1)));
        assert!(c.upgrade(B, BlockId(5)));
        assert_eq!(c.state(A, BlockId(1)), Some(LineState::Shared));
        assert_eq!(c.state(B, BlockId(5)), Some(LineState::Modified));
        assert_eq!(c.invalidate(A, BlockId(1)), Some(LineState::Shared));
        assert_eq!(c.state(NodeId(u16::MAX), BlockId(1)), Some(LineState::Shared));
        assert_eq!(c.insert(B, BlockId(9), LineState::Shared), Evicted::Dirty(BlockId(5)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_same_block_is_not_eviction() {
        let mut c = Caches::new(4);
        c.insert(A, BlockId(1), LineState::Shared);
        assert_eq!(c.insert(A, BlockId(1), LineState::Modified), Evicted::None);
        assert_eq!(c.state(A, BlockId(1)), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_returns_prior_state() {
        let mut c = Caches::new(4);
        c.insert(A, BlockId(2), LineState::Modified);
        assert_eq!(c.invalidate(A, BlockId(2)), Some(LineState::Modified));
        assert_eq!(c.invalidate(A, BlockId(2)), None);
        // Invalidating an absent block (spurious inval) is a no-op.
        assert_eq!(c.invalidate(A, BlockId(77)), None);
    }

    #[test]
    fn upgrade_fails_after_invalidation_race() {
        let mut c = Caches::new(4);
        c.insert(A, BlockId(2), LineState::Shared);
        c.invalidate(A, BlockId(2));
        assert!(!c.upgrade(A, BlockId(2)));
    }

    #[test]
    fn downgrade_modified_to_shared() {
        let mut c = Caches::new(4);
        c.insert(A, BlockId(3), LineState::Modified);
        assert!(c.downgrade(A, BlockId(3)));
        assert_eq!(c.state(A, BlockId(3)), Some(LineState::Shared));
        assert!(!c.downgrade(A, BlockId(9)));
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = Caches::new(8);
        assert!(c.is_empty());
        c.insert(A, BlockId(0), LineState::Shared);
        c.insert(A, BlockId(1), LineState::Shared);
        c.insert(B, BlockId(1), LineState::Modified);
        assert_eq!(c.len(), 3);
        let mut lines: Vec<_> = c.lines().collect();
        lines.sort_by_key(|&(n, b, _)| (n, b));
        assert_eq!(
            lines,
            vec![
                (A, BlockId(0), LineState::Shared),
                (A, BlockId(1), LineState::Shared),
                (B, BlockId(1), LineState::Modified)
            ]
        );
    }

    /// The sections of `nodes` nodes, with `marker(node)` behind each.
    fn saved(c: &Caches, nodes: usize) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_sections(nodes, &mut w, |n, w| w.put_u8(n as u8));
        w.finish()
    }

    fn load(sets: usize, nodes: usize, bytes: &[u8]) -> Result<Caches, SnapError> {
        let mut c = Caches::new(sets);
        let mut r = SnapReader::new(bytes)?;
        for n in 0..nodes {
            c.load_section(NodeId(n as u16), &mut r)?;
            assert_eq!(r.get_u8()?, n as u8, "the caller's record follows each section");
        }
        assert!(r.is_done());
        Ok(c)
    }

    /// Lines in set 0, the last set and scattered sets at three nodes,
    /// plus sets emptied by `invalidate`: each section holds the set
    /// count and that node's lines in ascending set order, the bytes grow
    /// with the lines held, not the set count, and they load back into
    /// caches that answer every query the same way and save the same
    /// bytes.
    #[test]
    fn save_streams_only_occupied_sets_and_load_restores_them() {
        const SETS: u64 = 64;
        let mut c = Caches::new(SETS as usize);
        let empty = saved(&c, 3).len();
        for (i, b) in [0, SETS - 1, 5, 3 * SETS + 17, SETS + 40, 9, 3 * SETS + 30, 22, SETS + 5]
            .into_iter()
            .enumerate()
        {
            let state = if i % 2 == 0 { LineState::Shared } else { LineState::Modified };
            c.insert(NodeId((i % 3) as u16), BlockId(b), state);
            c.insert(NodeId(2), BlockId(b), state);
        }
        // Empty two sets again; block SETS + 5 replaced block 5 at node 2.
        for b in [9, 3 * SETS + 30] {
            assert!(c.invalidate(NodeId(2), BlockId(b)).is_some());
        }
        assert_eq!(c.len(), 3 + 3 + 6);
        assert_eq!(empty, saved(&Caches::new(1 << 20), 3).len(), "set count costs no bytes");

        let bytes = saved(&c, 3);
        let back = load(SETS as usize, 3, &bytes).unwrap();
        assert_eq!((back.sets(), back.len()), (c.sets(), c.len()));
        for n in 0..3 {
            for b in 0..4 * SETS {
                let (n, b) = (NodeId(n), BlockId(b));
                assert_eq!(back.state(n, b), c.state(n, b), "block {b} at node {}", n.idx());
            }
        }
        assert_eq!(saved(&back, 3), bytes);

        // Node 0's section: the set count, then blocks 0, 3*SETS+17 and
        // 3*SETS+30 in set order 0, 17, 30.
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.get_usize().unwrap(), SETS as usize);
        let lines = Vec::<Line>::load(&mut r).unwrap();
        let blocks: Vec<u64> = lines.iter().map(|l| l.block.0).collect();
        assert_eq!(blocks, vec![0, 3 * SETS + 17, 3 * SETS + 30]);
    }

    /// Empty caches save the same bytes at any set count and load back
    /// from them, however few bytes follow the count.
    #[test]
    fn empty_caches_of_any_size_round_trip() {
        for sets in [1, 64, 1 << 20, 1 << 40] {
            let bytes = saved(&Caches::new(sets), 2);
            let back = load(sets, 2, &bytes).unwrap();
            assert_eq!((back.sets(), back.len()), (sets, 0));
            assert_eq!(saved(&back, 2), bytes);
        }
    }

    #[test]
    #[should_panic(expected = "cache sets")]
    fn more_sets_than_the_key_holds_are_refused() {
        Caches::new(Caches::MAX_SETS * 2);
    }

    /// A one-node stream with `sets` and the given blocks, each held Shared.
    fn encoded(sets: usize, blocks: &[u64]) -> Vec<u8> {
        let lines: Vec<Line> =
            blocks.iter().map(|&b| Line { block: BlockId(b), state: LineState::Shared }).collect();
        let mut w = SnapWriter::new();
        w.put_usize(sets);
        lines.save(&mut w);
        w.put_u8(0);
        w.finish()
    }

    #[test]
    fn load_refuses_bad_set_counts_and_doubly_filled_sets() {
        assert!(load(8, 1, &encoded(8, &[11, 16])).is_ok());
        for (bytes, want) in [
            (encoded(16, &[]), "node 0 cache has 16 sets, configuration has 8"),
            (encoded(3, &[]), "node 0 cache has 3 sets"),
            (encoded(8, &[11, 16, 3]), "node 0 cache set 3 holds two lines"),
        ] {
            let err = load(8, 1, &bytes).unwrap_err().to_string();
            assert!(err.contains(want), "{err}");
        }
    }
}
