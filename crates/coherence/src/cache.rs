//! Per-node processor cache: direct-mapped, write-back, MSI line states.

use crate::addr::BlockId;
use wormdsm_sim::snap::{snap_enum, snap_struct};

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
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Option<Line>>,
}

impl Cache {
    /// Cache with `sets` direct-mapped slots (must be a power of two).
    pub fn new(sets: usize) -> Self {
        assert!(sets.is_power_of_two() && sets >= 1);
        Self { sets: vec![None; sets] }
    }

    /// Number of slots.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    fn slot(&self, b: BlockId) -> usize {
        (b.0 as usize) & (self.sets.len() - 1)
    }

    /// Current state of `b` if present.
    pub fn state(&self, b: BlockId) -> Option<LineState> {
        let l = self.sets[self.slot(b)]?;
        (l.block == b).then_some(l.state)
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
        let l = self.sets[self.slot(b)]?;
        (l.block == b).then_some(l.state)
    }

    /// Install `b` in `state`, returning what was evicted.
    pub fn insert(&mut self, b: BlockId, state: LineState) -> Evicted {
        let s = self.slot(b);
        let evicted = match self.sets[s] {
            None => Evicted::None,
            Some(l) if l.block == b => Evicted::None,
            Some(l) => match l.state {
                LineState::Shared => Evicted::Clean(l.block),
                LineState::Modified => Evicted::Dirty(l.block),
            },
        };
        self.sets[s] = Some(Line { block: b, state });
        evicted
    }

    /// Upgrade an existing Shared line to Modified. Returns false if the
    /// block is no longer present (it raced with an invalidation).
    pub fn upgrade(&mut self, b: BlockId) -> bool {
        let s = self.slot(b);
        match &mut self.sets[s] {
            Some(l) if l.block == b => {
                l.state = LineState::Modified;
                true
            }
            _ => false,
        }
    }

    /// Invalidate `b`. Returns the state it had, if present.
    pub fn invalidate(&mut self, b: BlockId) -> Option<LineState> {
        let s = self.slot(b);
        match self.sets[s] {
            Some(l) if l.block == b => {
                self.sets[s] = None;
                Some(l.state)
            }
            _ => None,
        }
    }

    /// Downgrade Modified -> Shared (sharing writeback). Returns false if
    /// absent.
    pub fn downgrade(&mut self, b: BlockId) -> bool {
        let s = self.slot(b);
        match &mut self.sets[s] {
            Some(l) if l.block == b => {
                l.state = LineState::Shared;
                true
            }
            _ => false,
        }
    }

    /// Count of valid lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|l| l.is_some()).count()
    }
}

snap_enum!(LineState { 0 => Shared, 1 => Modified });
snap_struct!(Line { block, state });

mod snap_impls {
    use super::{Cache, Line};
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for Cache {
        fn save(&self, w: &mut SnapWriter) {
            self.sets.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let sets: Vec<Option<Line>> = Snap::load(r)?;
            if !sets.len().is_power_of_two() {
                return Err(SnapError::Corrupt(format!(
                    "cache set count {} is not a power of two",
                    sets.len()
                )));
            }
            Ok(Cache { sets })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
