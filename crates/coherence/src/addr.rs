//! Addresses, blocks, and home mapping.

use wormdsm_mesh::topology::NodeId;
use wormdsm_sim::snap::snap_struct;

/// A byte address in the shared space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

/// A cache-block identifier (address >> block bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl core::fmt::Display for BlockId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

/// Memory-system geometry: block size and home interleaving.
#[derive(Debug, Clone, Copy)]
pub struct MemGeometry {
    /// log2 of the cache-block size in bytes (paper-era systems used 16-64
    /// byte blocks; default 32).
    pub block_bits: u32,
    /// Number of nodes blocks are interleaved across.
    pub nodes: usize,
}

impl MemGeometry {
    /// Geometry with `block_bytes` blocks across `nodes` nodes.
    pub fn new(block_bytes: u64, nodes: usize) -> Self {
        assert!(block_bytes.is_power_of_two() && block_bytes >= 4);
        assert!(nodes >= 1);
        Self { block_bits: block_bytes.trailing_zeros(), nodes }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        1 << self.block_bits
    }

    /// Block containing `a`.
    pub fn block_of(&self, a: Addr) -> BlockId {
        BlockId(a.0 >> self.block_bits)
    }

    /// First byte address of `b`.
    pub fn base_of(&self, b: BlockId) -> Addr {
        Addr(b.0 << self.block_bits)
    }

    /// Home node of `b` (low-order block-interleaving, the common choice
    /// in CC-NUMA machines of the era).
    pub fn home_of(&self, b: BlockId) -> NodeId {
        NodeId((b.0 % self.nodes as u64) as u16)
    }
}

snap_struct!(Addr(0));
snap_struct!(BlockId(0));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_roundtrip() {
        let g = MemGeometry::new(32, 64);
        assert_eq!(g.block_bytes(), 32);
        assert_eq!(g.block_of(Addr(0)), BlockId(0));
        assert_eq!(g.block_of(Addr(31)), BlockId(0));
        assert_eq!(g.block_of(Addr(32)), BlockId(1));
        assert_eq!(g.base_of(BlockId(3)), Addr(96));
    }

    #[test]
    fn homes_interleave_across_all_nodes() {
        let g = MemGeometry::new(32, 16);
        let mut seen = std::collections::HashSet::new();
        for b in 0..16 {
            seen.insert(g.home_of(BlockId(b)));
        }
        assert_eq!(seen.len(), 16);
        assert_eq!(g.home_of(BlockId(16)), g.home_of(BlockId(0)));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_block_rejected() {
        MemGeometry::new(48, 4);
    }
}
