//! Strided per-node slabs.
//!
//! The network model keeps per-node state for thousands of nodes. Storing
//! it as a `Vec` of fat per-node structs scatters it across the heap:
//! every node visit is a pointer chase through cold fields. A
//! [`Strided`] slab stores one `T` per (node, index) pair contiguously —
//! `data[row * stride + i]` is element `i` of row `row` — in one
//! allocation. `T` is one field (the NIC's queues and channel owners) or
//! a small record of the fields a visit reads together; the router keeps
//! its per-slot input and output records in flat vectors of the same
//! shape.

/// Owning strided slab: `rows x stride` elements of `T`, row-major.
#[derive(Debug, Clone)]
pub struct Strided<T> {
    data: Vec<T>,
    stride: usize,
}

impl<T> Strided<T> {
    /// Build a slab of `rows` rows of `stride` elements, filling every
    /// element from `fill`.
    pub fn new(rows: usize, stride: usize, mut fill: impl FnMut() -> T) -> Self {
        assert!(stride > 0, "strided slab needs a positive stride");
        let mut data = Vec::with_capacity(rows * stride);
        data.resize_with(rows * stride, &mut fill);
        Self { data, stride }
    }

    /// Elements per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.stride
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.stride..(r + 1) * self.stride]
    }

    /// Element `i` of row `r`.
    #[inline]
    pub fn at(&self, r: usize, i: usize) -> &T {
        debug_assert!(i < self.stride);
        &self.data[r * self.stride + i]
    }

    /// Element `i` of row `r`, mutable.
    #[inline]
    pub fn at_mut(&mut self, r: usize, i: usize) -> &mut T {
        debug_assert!(i < self.stride);
        &mut self.data[r * self.stride + i]
    }

    /// The whole slab as a flat slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole slab as a flat mutable slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Bytes of the slab's buffer. Heap memory the elements own
    /// themselves is not included.
    pub fn heap_bytes(&self) -> usize {
        crate::heap::vec_bytes(&self.data)
    }
}

impl<T: crate::snap::Snap> crate::snap::Snap for Strided<T> {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        w.put_usize(self.stride);
        self.data.save(w);
    }
    fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        let stride = r.get_usize()?;
        let data = Vec::load(r)?;
        if stride == 0 || data.len() % stride != 0 {
            return Err(crate::snap::SnapError::Corrupt(format!(
                "strided slab: {} elements with stride {stride}",
                data.len()
            )));
        }
        Ok(Self { data, stride })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_contiguous_and_indexable() {
        let mut c = 0u32;
        let s = Strided::new(3, 4, || {
            c += 1;
            c
        });
        assert_eq!(s.rows(), 3);
        assert_eq!(s.stride(), 4);
        assert_eq!(s.row(0), &[1, 2, 3, 4]);
        assert_eq!(s.row(2), &[9, 10, 11, 12]);
        assert_eq!(*s.at(1, 2), 7);
        assert_eq!(s.as_slice().len(), 12);
    }

    #[test]
    fn mutation_through_rows_and_elements() {
        let mut s = Strided::new(2, 3, || 0i32);
        s.row_mut(1)[0] = 5;
        *s.at_mut(0, 2) = -1;
        assert_eq!(s.as_slice(), &[0, 0, -1, 5, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "positive stride")]
    fn zero_stride_rejected() {
        Strided::new(3, 0, || 0u8);
    }
}
