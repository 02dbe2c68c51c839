//! The [`Mat`] type: an owned, row-major, dense `f32` matrix, and the
//! borrowed row-block view [`MatRef`] that lets kernels slice operands
//! without copying.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// A borrowed, row-major, dense `f32` matrix view.
///
/// `MatRef` is what the tiled kernels consume: a row block of a [`Mat`]
/// (`q.rows_view(r0, r1)`) is a `MatRef` borrowing the parent's storage, so
/// tiling never copies operands — the allocation the old
/// [`Mat::slice_rows`]-based tile loops paid on every tile.
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatRef<'a> {
    /// View over raw row-major storage. Panics if the slice length is not
    /// `rows * cols`.
    #[track_caller]
    pub fn from_slice(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "MatRef::from_slice: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        MatRef { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    #[track_caller]
    pub fn row(&self, r: usize) -> &'a [f32] {
        debug_assert!(r < self.rows, "MatRef::row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sub-view of rows `[start, end)` (no copy).
    #[inline]
    #[track_caller]
    pub fn rows_view(&self, start: usize, end: usize) -> MatRef<'a> {
        assert!(
            start <= end && end <= self.rows,
            "MatRef::rows_view: invalid range {start}..{end} of {} rows",
            self.rows
        );
        MatRef {
            rows: end - start,
            cols: self.cols,
            data: &self.data[start * self.cols..end * self.cols],
        }
    }

    /// An owning copy.
    pub fn to_mat(&self) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.to_vec(),
        }
    }
}

impl<'a> From<&'a Mat> for MatRef<'a> {
    fn from(m: &'a Mat) -> Self {
        m.view()
    }
}

/// An owned, row-major, dense `f32` matrix.
///
/// `Mat` is the workhorse of the whole reproduction: query/key/value
/// partitions, attention probabilities, gradients and parameter shards are
/// all `Mat`s. Element `(r, c)` lives at `data[r * cols + c]`.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mat({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Mat {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major vector. Panics if `data.len() != rows * cols`.
    #[track_caller]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of payload (`4 * len`), used by the memory trackers.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume and return the backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    #[track_caller]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "Mat::get out of bounds");
        self.data[r * self.cols + c]
    }

    #[inline]
    #[track_caller]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "Mat::set out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    #[track_caller]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "Mat::row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    #[track_caller]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "Mat::row_mut out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrowed view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// Borrowed view of rows `[start, end)` — the no-copy counterpart of
    /// [`Mat::slice_rows`].
    #[inline]
    #[track_caller]
    pub fn rows_view(&self, start: usize, end: usize) -> MatRef<'_> {
        assert!(
            start <= end && end <= self.rows,
            "Mat::rows_view: invalid range {start}..{end} of {} rows",
            self.rows
        );
        MatRef {
            rows: end - start,
            cols: self.cols,
            data: &self.data[start * self.cols..end * self.cols],
        }
    }

    /// Resize to `rows × cols` zeros, reusing the backing allocation when
    /// its capacity suffices. This is the primitive behind
    /// [`Scratch`](crate::Scratch): after a warm-up round, scratch matrices
    /// cycle through shapes without touching the heap.
    pub fn reshape_in_place(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self[row0 + r] += alpha * src[r]` for every row of `src` — in-place
    /// accumulation of a row block scaled by `alpha`, without materialising
    /// the scaled operand.
    #[track_caller]
    pub fn axpy_rows(&mut self, row0: usize, alpha: f32, src: &Mat) {
        assert_eq!(self.cols, src.cols, "Mat::axpy_rows: col mismatch");
        assert!(
            row0 + src.rows <= self.rows,
            "Mat::axpy_rows: rows {}..{} out of {}",
            row0,
            row0 + src.rows,
            self.rows
        );
        let dst = &mut self.data[row0 * self.cols..(row0 + src.rows) * self.cols];
        for (d, s) in dst.iter_mut().zip(&src.data) {
            *d += alpha * s;
        }
    }

    /// Copy of rows `[start, end)` as a new matrix.
    #[track_caller]
    pub fn slice_rows(&self, start: usize, end: usize) -> Mat {
        assert!(
            start <= end && end <= self.rows,
            "Mat::slice_rows: invalid range {start}..{end} of {} rows",
            self.rows
        );
        Mat {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gather an arbitrary set of rows into a new matrix.
    #[track_caller]
    pub fn gather_rows(&self, idx: &[usize]) -> Mat {
        let mut out = Mat::zeros(idx.len(), self.cols);
        for (dst, &src) in idx.iter().enumerate() {
            assert!(
                src < self.rows,
                "Mat::gather_rows: index {src} out of bounds"
            );
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Scatter-add `src`'s rows into `self` at positions `idx`
    /// (`self[idx[k]] += src[k]`). The inverse of [`Mat::gather_rows`] for
    /// gradient accumulation.
    #[track_caller]
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Mat) {
        assert_eq!(idx.len(), src.rows, "scatter_add_rows: index/src mismatch");
        assert_eq!(self.cols, src.cols, "scatter_add_rows: col mismatch");
        for (k, &dst) in idx.iter().enumerate() {
            assert!(
                dst < self.rows,
                "scatter_add_rows: index {dst} out of bounds"
            );
            let row = src.row(k);
            let out = self.row_mut(dst);
            for (o, s) in out.iter_mut().zip(row) {
                *o += s;
            }
        }
    }

    /// Overwrite rows `[start, start + src.rows)` with `src`.
    #[track_caller]
    pub fn set_rows(&mut self, start: usize, src: &Mat) {
        assert_eq!(self.cols, src.cols, "Mat::set_rows: col mismatch");
        assert!(
            start + src.rows <= self.rows,
            "Mat::set_rows: rows {}..{} out of {}",
            start,
            start + src.rows,
            self.rows
        );
        self.data[start * self.cols..(start + src.rows) * self.cols].copy_from_slice(&src.data);
    }

    /// Stack matrices vertically (all must share `cols`). Takes owned
    /// matrices or any handle that borrows one (`&Mat`, `Arc<Mat>`).
    #[track_caller]
    pub fn vstack<M: Borrow<Mat>>(parts: &[M]) -> Mat {
        assert!(!parts.is_empty(), "Mat::vstack: empty input");
        let cols = parts[0].borrow().cols;
        let rows: usize = parts.iter().map(|p| p.borrow().rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            let p = p.borrow();
            assert_eq!(p.cols, cols, "Mat::vstack: col mismatch");
            data.extend_from_slice(&p.data);
        }
        Mat { rows, cols, data }
    }

    /// Stack matrices horizontally (all must share `rows`).
    #[track_caller]
    pub fn hstack(parts: &[Mat]) -> Mat {
        assert!(!parts.is_empty(), "Mat::hstack: empty input");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Mat::zeros(rows, cols);
        let mut off = 0;
        for p in parts {
            assert_eq!(p.rows, rows, "Mat::hstack: row mismatch");
            for r in 0..rows {
                out.data[r * cols + off..r * cols + off + p.cols].copy_from_slice(p.row(r));
            }
            off += p.cols;
        }
        out
    }

    /// Copy of columns `[start, end)` as a new matrix.
    #[track_caller]
    pub fn slice_cols(&self, start: usize, end: usize) -> Mat {
        assert!(
            start <= end && end <= self.cols,
            "Mat::slice_cols: invalid range {start}..{end} of {} cols",
            self.cols
        );
        let mut out = Mat::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Split into `parts` equal row blocks. Panics unless `rows % parts == 0`.
    #[track_caller]
    pub fn chunk_rows(&self, parts: usize) -> Vec<Mat> {
        assert!(parts > 0, "chunk_rows: parts must be > 0");
        assert_eq!(
            self.rows % parts,
            0,
            "chunk_rows: {} rows not divisible by {} parts",
            self.rows,
            parts
        );
        let step = self.rows / parts;
        (0..parts)
            .map(|i| self.slice_rows(i * step, (i + 1) * step))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Mat::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(m.nbytes(), 48);
    }

    #[test]
    fn eye_is_identity() {
        let i = Mat::eye(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_checks_len() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn slice_and_stack_roundtrip() {
        let m = Mat::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let parts = m.chunk_rows(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].row(0), m.row(2));
        let back = Mat::vstack(&parts);
        assert_eq!(back, m);
    }

    #[test]
    fn hstack_and_slice_cols_roundtrip() {
        let m = Mat::from_fn(4, 6, |r, c| (r * 6 + c) as f32);
        let a = m.slice_cols(0, 2);
        let b = m.slice_cols(2, 6);
        assert_eq!(Mat::hstack(&[a, b]), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.5);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn gather_scatter_are_inverse_on_disjoint_indices() {
        let m = Mat::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let idx = [4usize, 0, 2];
        let g = m.gather_rows(&idx);
        assert_eq!(g.row(0), m.row(4));
        let mut acc = Mat::zeros(5, 2);
        acc.scatter_add_rows(&idx, &g);
        for &i in &idx {
            assert_eq!(acc.row(i), m.row(i));
        }
        assert_eq!(acc.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn views_borrow_without_copying() {
        let m = Mat::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let v = m.view();
        assert_eq!((v.rows(), v.cols()), m.shape());
        let blk = m.rows_view(2, 5);
        assert_eq!(blk.rows(), 3);
        assert_eq!(blk.row(0), m.row(2));
        assert_eq!(blk.rows_view(1, 3).row(0), m.row(3));
        assert_eq!(blk.to_mat(), m.slice_rows(2, 5));
        // Views alias the parent storage.
        assert_eq!(v.as_slice().as_ptr(), m.as_slice().as_ptr());
    }

    #[test]
    fn reshape_in_place_reuses_capacity() {
        let mut m = Mat::from_fn(8, 8, |_, _| 1.0);
        let cap = m.data.capacity();
        let ptr = m.data.as_ptr();
        m.reshape_in_place(4, 6);
        assert_eq!(m.shape(), (4, 6));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.data.capacity(), cap);
        assert_eq!(m.data.as_ptr(), ptr);
        // Growing past capacity still works (may reallocate).
        m.reshape_in_place(16, 16);
        assert_eq!(m.shape(), (16, 16));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn axpy_rows_accumulates_scaled_block() {
        let mut acc = Mat::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let src = Mat::from_fn(2, 2, |r, c| (r + c) as f32 + 1.0);
        acc.axpy_rows(1, 2.0, &src);
        assert_eq!(acc.row(0), &[0.0, 1.0]);
        assert_eq!(acc.row(1), &[2.0 + 2.0, 3.0 + 4.0]);
        assert_eq!(acc.row(2), &[4.0 + 4.0, 5.0 + 6.0]);
        assert_eq!(acc.row(3), &[6.0, 7.0]);
    }

    #[test]
    fn set_rows_writes_block() {
        let mut m = Mat::zeros(4, 2);
        let blk = Mat::from_fn(2, 2, |r, c| (r + c) as f32 + 1.0);
        m.set_rows(1, &blk);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        assert_eq!(m.row(2), &[2.0, 3.0]);
        assert_eq!(m.row(3), &[0.0, 0.0]);
    }
}
