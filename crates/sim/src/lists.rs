//! Small per-node lists stored for every node at once.
//!
//! Several pieces of per-node state are short lists that are empty almost
//! always: a node's writebacks in flight, its pending writes, the parked
//! gathers ready to resume at its NIC. Giving each node its own `Vec` or
//! `VecDeque` costs a 24- or 32-byte header per node even when nothing is
//! queued, which at 4,096 nodes is more than the lists ever hold.
//! [`NodeLists`] keeps every node's entries in one vector sorted by node,
//! so a node's list is one contiguous slice found by binary search, plus
//! one occupancy bit per node so the common "is this node's list empty"
//! question is a single bit test.
//!
//! Each node's list behaves exactly like the `Vec` it replaces: pushes
//! append, [`NodeLists::remove`] keeps order and [`NodeLists::swap_remove`]
//! moves the node's last entry into the gap. Snapshots write the lists in
//! the layout of a `Vec` of per-node `Vec`s.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::ops::Range;

/// One short list per node, all nodes' entries in one node-sorted vector.
#[derive(Debug, Clone)]
pub struct NodeLists<T> {
    /// Owner of each entry of `items`, ascending.
    owner: Vec<u32>,
    /// Every node's entries, each node's in list order.
    items: Vec<T>,
    /// One bit per node: its list is non-empty.
    occupied: Vec<u64>,
    nodes: usize,
}

impl<T> NodeLists<T> {
    /// Empty lists for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self { owner: Vec::new(), items: Vec::new(), occupied: vec![0; nodes.div_ceil(64)], nodes }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// True when node `n`'s list is empty (one bit test).
    #[inline]
    pub fn is_empty(&self, n: usize) -> bool {
        self.occupied[n / 64] & (1 << (n % 64)) == 0
    }

    /// Where node `n`'s entries sit in `items`.
    #[inline]
    fn range(&self, n: usize) -> Range<usize> {
        if self.is_empty(n) {
            return 0..0;
        }
        let n = n as u32;
        let lo = self.owner.partition_point(|&o| o < n);
        let hi = lo + self.owner[lo..].partition_point(|&o| o == n);
        lo..hi
    }

    /// Node `n`'s list.
    #[inline]
    pub fn get(&self, n: usize) -> &[T] {
        &self.items[self.range(n)]
    }

    /// Length of node `n`'s list.
    pub fn len(&self, n: usize) -> usize {
        self.range(n).len()
    }

    /// Append `v` to node `n`'s list.
    pub fn push(&mut self, n: usize, v: T) {
        assert!(n < self.nodes, "node {n} of {}", self.nodes);
        let at = self.owner.partition_point(|&o| o <= n as u32);
        self.owner.insert(at, n as u32);
        self.items.insert(at, v);
        self.occupied[n / 64] |= 1 << (n % 64);
    }

    /// Remove entry `i` of node `n`'s list, keeping the order of the
    /// rest. Panics when the list is shorter.
    pub fn remove(&mut self, n: usize, i: usize) -> T {
        let r = self.range(n);
        assert!(i < r.len(), "entry {i} of a {}-entry list", r.len());
        self.owner.remove(r.start + i);
        if r.len() == 1 {
            self.occupied[n / 64] &= !(1 << (n % 64));
        }
        self.items.remove(r.start + i)
    }

    /// Remove entry `i` of node `n`'s list, moving the list's last entry
    /// into its place (`Vec::swap_remove` on the node's list).
    pub fn swap_remove(&mut self, n: usize, i: usize) -> T {
        let r = self.range(n);
        assert!(i < r.len(), "entry {i} of a {}-entry list", r.len());
        self.items.swap(r.start + i, r.end - 1);
        self.remove(n, r.len() - 1)
    }

    /// Remove and return the first entry of node `n`'s list.
    pub fn pop_front(&mut self, n: usize) -> Option<T> {
        (!self.is_empty(n)).then(|| self.remove(n, 0))
    }

    /// Every entry as `(node, entry)`, by node, each node's in list order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.owner.iter().map(|&o| o as usize).zip(&self.items)
    }

    /// Bytes this structure holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        crate::heap::vec_bytes(&self.owner)
            + crate::heap::vec_bytes(&self.items)
            + crate::heap::vec_bytes(&self.occupied)
    }
}

impl<T: Snap> NodeLists<T> {
    /// Write node `n`'s list as a `Vec` would be written.
    pub fn save_list(&self, n: usize, w: &mut SnapWriter) {
        let list = self.get(n);
        w.put_usize(list.len());
        list.iter().for_each(|v| v.save(w));
    }

    /// Read a list written by [`NodeLists::save_list`] (or as a `Vec` or
    /// `VecDeque`) and append it to node `n`'s list.
    pub fn load_list(&mut self, n: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let len = r.get_len()?;
        for _ in 0..len {
            self.push(n, T::load(r)?);
        }
        Ok(())
    }

    /// Write every node's list in the layout of a `Vec` of per-node
    /// `Vec`s: the node count, then each list.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.nodes);
        for n in 0..self.nodes {
            self.save_list(n, w);
        }
    }

    /// Read a [`NodeLists::save`] stream into these lists, which must be
    /// empty. Refuses a node count other than theirs.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        debug_assert!(self.items.is_empty(), "loading into non-empty node lists");
        let nodes = r.get_len()?;
        if nodes != self.nodes {
            return Err(SnapError::Corrupt(format!(
                "{nodes} per-node lists for {} nodes",
                self.nodes
            )));
        }
        for n in 0..nodes {
            self.load_list(n, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Random pushes, ordered removes and swap-removes agree with one
    /// plain `Vec` per node, list for list.
    #[test]
    fn lists_behave_like_one_vec_per_node() {
        let mut rng = Rng::new(7);
        let nodes = 70;
        let mut lists = NodeLists::new(nodes);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        for step in 0..5_000u32 {
            let n = rng.index(nodes);
            match rng.index(3) {
                0 => {
                    lists.push(n, step);
                    model[n].push(step);
                }
                1 if !model[n].is_empty() => {
                    let i = rng.index(model[n].len());
                    assert_eq!(lists.remove(n, i), model[n].remove(i));
                }
                2 if !model[n].is_empty() => {
                    let i = rng.index(model[n].len());
                    assert_eq!(lists.swap_remove(n, i), model[n].swap_remove(i));
                }
                _ => assert_eq!(lists.pop_front(n), None),
            }
            assert_eq!(lists.get(n), &model[n][..]);
            assert_eq!(lists.is_empty(n), model[n].is_empty());
        }
        for (n, m) in model.iter().enumerate() {
            assert_eq!(lists.get(n), &m[..], "node {n}");
            assert_eq!(lists.len(n), m.len());
        }
        assert_eq!(lists.iter().count(), model.iter().map(Vec::len).sum::<usize>());
    }

    /// The stream is the one a `Vec<Vec<T>>` writes, and loads back.
    #[test]
    fn lists_save_as_a_vec_of_vecs() {
        let mut lists = NodeLists::new(3);
        for (n, v) in [(2, 5u32), (0, 1), (2, 6), (0, 2)] {
            lists.push(n, v);
        }
        let mut w = SnapWriter::new();
        lists.save(&mut w);
        let mut want = SnapWriter::new();
        vec![vec![1u32, 2], vec![], vec![5, 6]].save(&mut want);
        let (got, want) = (w.finish(), want.finish());
        assert_eq!(got, want);
        let mut r = SnapReader::new(&got).unwrap();
        let mut back = NodeLists::<u32>::new(3);
        back.load(&mut r).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), lists.iter().collect::<Vec<_>>());
        let mut r = SnapReader::new(&got).unwrap();
        let e = NodeLists::<u32>::new(4).load(&mut r).unwrap_err();
        assert!(e.to_string().contains("3 per-node lists for 4 nodes"), "{e}");
    }
}
