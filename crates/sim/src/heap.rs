//! Heap-byte accounting.
//!
//! Each state-holding type reports the bytes it keeps on the heap through
//! a `heap_bytes` method built from these helpers: a container counts its
//! whole capacity (what the allocator handed out), not just its live
//! length, because capacity is what stays resident after a peak.

use std::collections::VecDeque;

/// Bytes of `v`'s buffer: its capacity times the element size. Heap
/// memory the elements own themselves is not included.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Bytes of `v`'s ring buffer (see [`vec_bytes`]).
pub fn deque_bytes<T>(v: &VecDeque<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}
