//! Randomized property tests on the coherence substrate: the cache table
//! behaves like a model map per node, directory presence bits behave like a model set,
//! home mapping is total and balanced.
//!
//! Cases are generated from the workspace's deterministic [`Rng`] with
//! fixed seeds, so every run exercises the same cases.

use std::collections::HashMap;
use wormdsm_coherence::{Addr, BlockId, Caches, DirEntry, Evicted, LineState, MemGeometry};
use wormdsm_mesh::topology::NodeId;
use wormdsm_sim::Rng;

/// Nodes sharing the cache table under test.
const NODES: usize = 3;

/// Operations against the cache table under test, each at a node.
#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64, bool), // block, modified
    Invalidate(u64),
    Upgrade(u64),
    Downgrade(u64),
}

fn cache_ops(rng: &mut Rng) -> Vec<(NodeId, CacheOp)> {
    let n = rng.range(1, 199) as usize;
    (0..n)
        .map(|_| {
            let node = NodeId(rng.index(NODES) as u16);
            let b = rng.below(64);
            let op = match rng.index(4) {
                0 => CacheOp::Insert(b, rng.chance(0.5)),
                1 => CacheOp::Invalidate(b),
                2 => CacheOp::Upgrade(b),
                _ => CacheOp::Downgrade(b),
            };
            (node, op)
        })
        .collect()
}

#[test]
fn cache_matches_reference_model() {
    let mut rng = Rng::new(0xC0DE_0001);
    for _ in 0..64 {
        let ops = cache_ops(&mut rng);
        // Reference: a map (node, slot) -> (block, state), 16
        // direct-mapped slots per node.
        let sets = 16usize;
        let mut cache = Caches::new(sets);
        let mut model: HashMap<(NodeId, usize), (u64, LineState)> = HashMap::new();
        for (node, op) in ops {
            match op {
                CacheOp::Insert(b, modified) => {
                    let state = if modified { LineState::Modified } else { LineState::Shared };
                    let slot = (node, b as usize % sets);
                    let expect = match model.get(&slot) {
                        None => Evicted::None,
                        Some(&(ob, _)) if ob == b => Evicted::None,
                        Some(&(ob, LineState::Shared)) => Evicted::Clean(BlockId(ob)),
                        Some(&(ob, LineState::Modified)) => Evicted::Dirty(BlockId(ob)),
                    };
                    let got = cache.insert(node, BlockId(b), state);
                    assert_eq!(got, expect);
                    model.insert(slot, (b, state));
                }
                CacheOp::Invalidate(b) => {
                    let slot = (node, b as usize % sets);
                    let expect = match model.get(&slot) {
                        Some(&(ob, st)) if ob == b => Some(st),
                        _ => None,
                    };
                    assert_eq!(cache.invalidate(node, BlockId(b)), expect);
                    if expect.is_some() {
                        model.remove(&slot);
                    }
                }
                CacheOp::Upgrade(b) => {
                    let slot = (node, b as usize % sets);
                    let present = matches!(model.get(&slot), Some(&(ob, _)) if ob == b);
                    assert_eq!(cache.upgrade(node, BlockId(b)), present);
                    if present {
                        model.insert(slot, (b, LineState::Modified));
                    }
                }
                CacheOp::Downgrade(b) => {
                    let slot = (node, b as usize % sets);
                    let present = matches!(model.get(&slot), Some(&(ob, _)) if ob == b);
                    assert_eq!(cache.downgrade(node, BlockId(b)), present);
                    if present {
                        model.insert(slot, (b, LineState::Shared));
                    }
                }
            }
            // Line count agreement after each step.
            assert_eq!(cache.len(), model.len());
        }
        // Every line of every node agrees with the model at the end.
        for ((node, _), &(b, st)) in &model {
            assert_eq!(cache.state(*node, BlockId(b)), Some(st));
        }
    }
}

#[test]
fn presence_bits_match_reference_set() {
    let mut rng = Rng::new(0xC0DE_0002);
    for _ in 0..64 {
        let nodes = rng.range(1, 299) as usize;
        let op_count = rng.range(1, 199) as usize;
        let mut e = DirEntry::new_for_test(nodes);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..op_count {
            let set = rng.chance(0.5);
            let n = NodeId(rng.below(300) as u16 % nodes as u16);
            if set {
                e.set_presence(n);
                model.insert(n);
            } else {
                e.clear_presence(n);
                model.remove(&n);
            }
        }
        assert_eq!(e.sharer_count(), model.len());
        assert_eq!(e.sharers(), model.iter().copied().collect::<Vec<_>>());
        for i in 0..nodes as u16 {
            assert_eq!(e.has_presence(NodeId(i)), model.contains(&NodeId(i)));
        }
    }
}

#[test]
fn home_mapping_total_and_block_roundtrip() {
    let mut rng = Rng::new(0xC0DE_0003);
    for _ in 0..256 {
        let nodes = rng.range(1, 255) as usize;
        let addr = rng.below(1_000_000_000);
        let g = MemGeometry::new(32, nodes);
        let b = g.block_of(Addr(addr));
        let home = g.home_of(b);
        assert!(home.idx() < nodes);
        // Base address maps back to the same block.
        assert_eq!(g.block_of(g.base_of(b)), b);
        // All addresses within a block share it.
        assert_eq!(g.block_of(Addr(addr | 31)), g.block_of(Addr(addr & !31)));
    }
}

/// Local shim: `DirEntry` construction is private to the directory; build
/// entries through a directory.
trait EntryForTest {
    fn new_for_test(nodes: usize) -> DirEntry;
}

impl EntryForTest for DirEntry {
    fn new_for_test(nodes: usize) -> DirEntry {
        let mut d = wormdsm_coherence::Directory::new(nodes);
        d.entry_mut(BlockId(0)).clone()
    }
}
