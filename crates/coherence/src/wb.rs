//! Writeback buffers.
//!
//! A dirty line evicted from a cache sits in the node's writeback buffer
//! until the home acknowledges the writeback. A `Fetch` arriving for a
//! block in flight (the classic "window of vulnerability" \[23\]) is served
//! from this buffer instead of failing.
//!
//! The buffers of every node share one table: a writeback is rare and
//! short-lived, so almost every node's buffer is empty, and a node with
//! nothing in flight costs one occupancy bit instead of a vector header.

use crate::addr::BlockId;
use wormdsm_sim::snap::{SnapError, SnapReader, SnapWriter};
use wormdsm_sim::NodeLists;

/// Every node's writeback buffer: blocks with a `Writeback` in flight.
#[derive(Debug, Clone)]
pub struct WbBuffer {
    pending: NodeLists<BlockId>,
}

impl WbBuffer {
    /// Empty buffers for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self { pending: NodeLists::new(nodes) }
    }

    /// Record that `b`'s writeback left node `n`.
    pub fn insert(&mut self, n: usize, b: BlockId) {
        debug_assert!(!self.contains(n, b), "duplicate writeback for {b}");
        self.pending.push(n, b);
    }

    /// True if node `n`'s writeback of `b` is still unacknowledged.
    pub fn contains(&self, n: usize, b: BlockId) -> bool {
        !self.pending.is_empty(n) && self.pending.get(n).contains(&b)
    }

    /// Home acknowledged node `n`'s writeback of `b`; release the slot.
    /// Returns false if `b` was not pending (stale ack).
    pub fn release(&mut self, n: usize, b: BlockId) -> bool {
        match self.pending.get(n).iter().position(|&x| x == b) {
            Some(i) => {
                self.pending.swap_remove(n, i);
                true
            }
            None => false,
        }
    }

    /// Number of writebacks node `n` has in flight.
    pub fn len(&self, n: usize) -> usize {
        self.pending.len(n)
    }

    /// True when node `n` has nothing in flight.
    pub fn is_empty(&self, n: usize) -> bool {
        self.pending.is_empty(n)
    }

    /// Bytes the buffers hold on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.pending.heap_bytes()
    }

    /// Write node `n`'s buffer as a per-node buffer's `Vec` of blocks.
    pub fn save_node(&self, n: usize, w: &mut SnapWriter) {
        self.pending.save_list(n, w);
    }

    /// Read a [`WbBuffer::save_node`] stream into node `n`'s buffer,
    /// which must be empty.
    pub fn load_node(&mut self, n: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        debug_assert!(self.is_empty(n), "loading into a non-empty writeback buffer");
        self.pending.load_list(n, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_release() {
        let mut w = WbBuffer::new(2);
        assert!(w.is_empty(1));
        w.insert(1, BlockId(3));
        w.insert(1, BlockId(9));
        assert!(w.contains(1, BlockId(3)));
        assert!(!w.contains(0, BlockId(3)), "other nodes untouched");
        assert_eq!(w.len(1), 2);
        assert!(w.release(1, BlockId(3)));
        assert!(!w.contains(1, BlockId(3)));
        assert!(!w.release(1, BlockId(3)), "double release is reported");
        assert_eq!(w.len(1), 1);
        assert!(w.is_empty(0));
    }
}
