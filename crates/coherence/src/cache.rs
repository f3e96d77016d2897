//! Per-node processor cache: direct-mapped, write-back, MSI line states.

use crate::addr::BlockId;
use wormdsm_sim::snap::{snap_enum, snap_struct};
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

/// A direct-mapped, write-back cache indexed by block id.
///
/// Direct mapping keeps conflict behaviour deterministic and matches the
/// simple SRAM caches of the paper's era; the set count is configurable so
/// experiments can vary pressure.
///
/// Only occupied sets are stored: a map from set index to its line, so a
/// cache costs memory in proportion to the lines it holds, not to its set
/// count (a k=64 mesh of 2048-set caches holds a few lines per node). The
/// map is never iterated, so its internal order is not observable.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    lines: FlatMap<Line>,
}

impl Cache {
    /// Cache with `sets` direct-mapped slots (must be a power of two).
    pub fn new(sets: usize) -> Self {
        assert!(sets.is_power_of_two() && sets >= 1);
        Self { sets, lines: FlatMap::new() }
    }

    /// Number of slots.
    pub fn sets(&self) -> usize {
        self.sets
    }

    fn slot(&self, b: BlockId) -> u64 {
        b.0 & (self.sets as u64 - 1)
    }

    /// The line held for `b`, if its set holds `b` itself.
    fn line_mut(&mut self, b: BlockId) -> Option<&mut Line> {
        self.lines.get_mut(self.slot(b)).filter(|l| l.block == b)
    }

    /// Current state of `b` if present.
    pub fn state(&self, b: BlockId) -> Option<LineState> {
        self.lines.get(self.slot(b)).filter(|l| l.block == b).map(|l| l.state)
    }

    /// True if a read hits.
    pub fn read_hit(&self, b: BlockId) -> bool {
        self.state(b).is_some()
    }

    /// True if a write hits with write permission.
    pub fn write_hit(&self, b: BlockId) -> bool {
        self.state(b) == Some(LineState::Modified)
    }

    /// Non-mutating presence probe: the state of `b` without any lookup
    /// side effects, ever. `read_hit`/`write_hit` model processor accesses
    /// and may one day perturb replacement state; `probe` is the contract
    /// for protocol decisions (e.g. upgrade-vs-write-miss detection) that
    /// must merely *inspect* the cache.
    pub fn probe(&self, b: BlockId) -> Option<LineState> {
        self.state(b)
    }

    /// Install `b` in `state`, returning what was evicted.
    pub fn insert(&mut self, b: BlockId, state: LineState) -> Evicted {
        match self.lines.insert(self.slot(b), Line { block: b, state }) {
            None => Evicted::None,
            Some(l) if l.block == b => Evicted::None,
            Some(l) => match l.state {
                LineState::Shared => Evicted::Clean(l.block),
                LineState::Modified => Evicted::Dirty(l.block),
            },
        }
    }

    /// Upgrade an existing Shared line to Modified. Returns false if the
    /// block is no longer present (it raced with an invalidation).
    pub fn upgrade(&mut self, b: BlockId) -> bool {
        self.line_mut(b).map(|l| l.state = LineState::Modified).is_some()
    }

    /// Invalidate `b`. Returns the state it had, if present.
    pub fn invalidate(&mut self, b: BlockId) -> Option<LineState> {
        let state = self.state(b)?;
        self.lines.remove(self.slot(b));
        Some(state)
    }

    /// Downgrade Modified -> Shared (sharing writeback). Returns false if
    /// absent.
    pub fn downgrade(&mut self, b: BlockId) -> bool {
        self.line_mut(b).map(|l| l.state = LineState::Shared).is_some()
    }

    /// Count of valid lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }
}

snap_enum!(LineState { 0 => Shared, 1 => Modified });
snap_struct!(Line { block, state });

mod snap_impls {
    use super::{Cache, FlatMap, Line};
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    /// The dense encoding of a `Vec<Option<Line>>` with one entry per set,
    /// in ascending set order: the set count, then each set's line or its
    /// absence.
    impl Snap for Cache {
        fn save(&self, w: &mut SnapWriter) {
            w.put_usize(self.sets);
            for set in 0..self.sets as u64 {
                self.lines.get(set).copied().save(w);
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let sets = r.get_len()?;
            if !sets.is_power_of_two() {
                return Err(SnapError::Corrupt(format!(
                    "cache set count {sets} is not a power of two"
                )));
            }
            let mut lines = FlatMap::new();
            for set in 0..sets as u64 {
                if let Some(l) = Option::<Line>::load(r)? {
                    lines.insert(set, l);
                }
            }
            Ok(Cache { sets, lines })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(64);
        let b = BlockId(5);
        assert!(!c.read_hit(b));
        assert_eq!(c.insert(b, LineState::Shared), Evicted::None);
        assert!(c.read_hit(b));
        assert!(!c.write_hit(b));
        assert!(c.upgrade(b));
        assert!(c.write_hit(b));
    }

    #[test]
    fn conflict_eviction_clean_and_dirty() {
        let mut c = Cache::new(4);
        // Blocks 1 and 5 conflict (same slot mod 4).
        c.insert(BlockId(1), LineState::Shared);
        assert_eq!(c.insert(BlockId(5), LineState::Shared), Evicted::Clean(BlockId(1)));
        assert!(!c.read_hit(BlockId(1)));
        c.upgrade(BlockId(5));
        assert_eq!(c.insert(BlockId(9), LineState::Shared), Evicted::Dirty(BlockId(5)));
    }

    #[test]
    fn reinsert_same_block_is_not_eviction() {
        let mut c = Cache::new(4);
        c.insert(BlockId(1), LineState::Shared);
        assert_eq!(c.insert(BlockId(1), LineState::Modified), Evicted::None);
        assert_eq!(c.state(BlockId(1)), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_returns_prior_state() {
        let mut c = Cache::new(4);
        c.insert(BlockId(2), LineState::Modified);
        assert_eq!(c.invalidate(BlockId(2)), Some(LineState::Modified));
        assert_eq!(c.invalidate(BlockId(2)), None);
        // Invalidating an absent block (spurious inval) is a no-op.
        assert_eq!(c.invalidate(BlockId(77)), None);
    }

    #[test]
    fn upgrade_fails_after_invalidation_race() {
        let mut c = Cache::new(4);
        c.insert(BlockId(2), LineState::Shared);
        c.invalidate(BlockId(2));
        assert!(!c.upgrade(BlockId(2)));
    }

    #[test]
    fn downgrade_modified_to_shared() {
        let mut c = Cache::new(4);
        c.insert(BlockId(3), LineState::Modified);
        assert!(c.downgrade(BlockId(3)));
        assert_eq!(c.state(BlockId(3)), Some(LineState::Shared));
        assert!(!c.downgrade(BlockId(9)));
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = Cache::new(8);
        assert_eq!(c.occupancy(), 0);
        c.insert(BlockId(0), LineState::Shared);
        c.insert(BlockId(1), LineState::Shared);
        assert_eq!(c.occupancy(), 2);
    }

    fn saved(value: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        w.finish()
    }

    fn load(bytes: &[u8]) -> Result<Cache, SnapError> {
        Cache::load(&mut SnapReader::new(bytes)?)
    }

    /// Lines in set 0, the last set and scattered sets, plus sets emptied
    /// by `invalidate`: the sparse cache saves exactly the bytes of the
    /// dense `Vec<Option<Line>>` with one slot per set, and loads
    /// back into a cache that answers every query the same way.
    #[test]
    fn save_streams_the_dense_encoding_and_load_restores_it() {
        const SETS: u64 = 64;
        let mut c = Cache::new(SETS as usize);
        let mut dense: Vec<Option<Line>> = vec![None; SETS as usize];
        let mut put = |c: &mut Cache, b: u64, state| {
            c.insert(BlockId(b), state);
            dense[(b % SETS) as usize] = Some(Line { block: BlockId(b), state });
        };
        for (i, b) in [0, SETS - 1, 5, 3 * SETS + 17, SETS + 40, 9, 3 * SETS + 30, 22, SETS + 5]
            .into_iter()
            .enumerate()
        {
            put(&mut c, b, if i % 2 == 0 { LineState::Shared } else { LineState::Modified });
        }
        // Empty two sets again; block SETS + 5 replaced block 5 above.
        for b in [9, 3 * SETS + 30] {
            assert!(c.invalidate(BlockId(b)).is_some());
            dense[(b % SETS) as usize] = None;
        }
        assert_eq!(c.occupancy(), 6);

        let bytes = saved(&c);
        assert_eq!(bytes, saved(&dense));

        let back = load(&bytes).unwrap();
        assert_eq!((back.sets(), back.occupancy()), (c.sets(), c.occupancy()));
        for b in 0..4 * SETS {
            assert_eq!(back.state(BlockId(b)), c.state(BlockId(b)), "block {b}");
        }
        assert_eq!(saved(&back), bytes);
    }

    #[test]
    fn load_refuses_bad_set_counts_and_option_tags() {
        let err = load(&saved(&vec![None::<Line>; 3])).unwrap_err().to_string();
        assert!(err.contains("not a power of two"), "{err}");

        let mut w = SnapWriter::new();
        w.put_usize(4);
        for tag in [0, 2, 0, 0] {
            w.put_u8(tag);
        }
        let err = load(&w.finish()).unwrap_err().to_string();
        assert!(err.contains("Option tag 2"), "{err}");
    }
}
