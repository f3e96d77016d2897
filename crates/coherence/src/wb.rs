//! Writeback buffer.
//!
//! A dirty line evicted from a cache sits in the node's writeback buffer
//! until the home acknowledges the writeback. A `Fetch` arriving for a
//! block in flight (the classic "window of vulnerability" \[23\]) is served
//! from this buffer instead of failing.

use crate::addr::BlockId;
use wormdsm_sim::snap::snap_struct;

/// Per-node writeback buffer: blocks with a `Writeback` in flight.
#[derive(Debug, Default, Clone)]
pub struct WbBuffer {
    pending: Vec<BlockId>,
}

impl WbBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `b`'s writeback left this node.
    pub fn insert(&mut self, b: BlockId) {
        debug_assert!(!self.contains(b), "duplicate writeback for {b}");
        self.pending.push(b);
    }

    /// True if `b`'s writeback is still unacknowledged.
    pub fn contains(&self, b: BlockId) -> bool {
        self.pending.contains(&b)
    }

    /// Home acknowledged `b`'s writeback; release the slot. Returns false
    /// if `b` was not pending (stale ack).
    pub fn release(&mut self, b: BlockId) -> bool {
        match self.pending.iter().position(|&x| x == b) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Number of writebacks in flight.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

snap_struct!(WbBuffer { pending });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_release() {
        let mut w = WbBuffer::new();
        assert!(w.is_empty());
        w.insert(BlockId(3));
        w.insert(BlockId(9));
        assert!(w.contains(BlockId(3)));
        assert_eq!(w.len(), 2);
        assert!(w.release(BlockId(3)));
        assert!(!w.contains(BlockId(3)));
        assert!(!w.release(BlockId(3)), "double release is reported");
        assert_eq!(w.len(), 1);
    }
}
