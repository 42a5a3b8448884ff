//! Row-major dense matrix.
//!
//! Coded computing slices data matrices into contiguous *row blocks* (one
//! per worker, then into chunks within a worker), so the representation is
//! row-major: a row block is a contiguous range of the storage, and the
//! kernels take row ranges instead of copies.

use crate::error::LinalgError;
use crate::multivector::{matvec_multi_block, MultiVector};
use crate::vector::{max_abs_diff_slices, Vector};
use std::sync::Arc;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generating function over `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from nested `Vec` rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "row {i} has inconsistent length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix that takes ownership of a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element accessor.
    #[must_use]
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r` as a slice.
    #[must_use]
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable view of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copies the row range `[begin, end)` into an owned matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `begin <= end <= rows`.
    #[must_use]
    pub fn row_block(&self, begin: usize, end: usize) -> Matrix {
        assert!(begin <= end && end <= self.rows, "row range out of bounds");
        Matrix {
            rows: end - begin,
            cols: self.cols,
            data: self.data[begin * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Flat immutable view of the underlying storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning its flat row-major buffer.
    #[must_use]
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Flat mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = self · x` (matrix–vector product).
    ///
    /// The single-vector product is the `count == 1` degenerate case of
    /// the batch-first kernel behind [`Matrix::matvec_multi_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &Vector) -> Vector {
        self.matvec_rows(x, 0, self.rows)
    }

    /// Matrix–vector product restricted to the row range `[begin, end)`.
    ///
    /// Workers computing a chunk of their partition call this so only the
    /// assigned rows are touched. Implemented as the single-member case
    /// of the stacked kernel: four rows share one pass over `x` (16
    /// independent accumulators), each row keeping `dot_slices`' four
    /// lanes and tail in its order, so results are bit-identical to the
    /// historical per-row loop.
    #[must_use]
    pub fn matvec_rows(&self, x: &Vector, begin: usize, end: usize) -> Vector {
        assert_eq!(x.len(), self.cols, "matvec_rows: dimension mismatch");
        assert!(
            begin <= end && end <= self.rows,
            "matvec_rows: range out of bounds"
        );
        let mut out = vec![0.0; end - begin];
        matvec_multi_block(&self.data, self.cols, begin, end, x.as_slice(), 1, &mut out);
        Vector::from(out)
    }

    /// Stacked matrix–vector product: `self · xᵀ` for every member of a
    /// [`MultiVector`], over all rows.
    ///
    /// Returns a `rows × count` matrix (output-row-major, member-minor),
    /// matching the chunk-major × member-minor layout the coded reply
    /// path ships over the wire.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != self.cols()`.
    #[must_use]
    pub fn matvec_multi(&self, xs: &MultiVector) -> Matrix {
        self.matvec_multi_rows(xs, 0, self.rows)
    }

    /// Stacked matrix–vector product restricted to rows `[begin, end)`.
    ///
    /// This is the batch-first primitive of the kernel layer: the
    /// cache-blocked kernel tiles members in
    /// [`RHS_TILE`](crate::multivector::RHS_TILE)-wide groups inside
    /// row blocks sized by
    /// [`row_block_for`](crate::multivector::row_block_for), so each
    /// matrix row is loaded once per member tile instead of once per
    /// member. Each member's column of the result is bit-identical to
    /// `self.matvec_rows(member, begin, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != self.cols()` or the row range is out of
    /// bounds.
    #[must_use]
    pub fn matvec_multi_rows(&self, xs: &MultiVector, begin: usize, end: usize) -> Matrix {
        assert_eq!(xs.len(), self.cols, "matvec_multi_rows: dimension mismatch");
        assert!(
            begin <= end && end <= self.rows,
            "matvec_multi_rows: range out of bounds"
        );
        let count = xs.count();
        let mut out = vec![0.0; (end - begin) * count];
        matvec_multi_block(
            &self.data,
            self.cols,
            begin,
            end,
            xs.as_slice(),
            count,
            &mut out,
        );
        Matrix::from_flat(end - begin, count, out)
    }

    /// Dense matrix–matrix product `self · other`.
    ///
    /// Uses the classic i-k-j loop order so the inner loop streams over
    /// contiguous rows of `other` (cache-friendly for row-major storage).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let out_row_start = i * other.cols;
            for k in 0..self.cols {
                let a_ik = self.data[i * self.cols + k];
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                let out_row = &mut out.data[out_row_start..out_row_start + other.cols];
                for (o, b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Vertically stacks matrices (all must share the column count).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when column counts differ, and
    /// [`LinalgError::InvalidArgument`] for an empty input list.
    pub fn vstack(blocks: &[&Matrix]) -> Result<Matrix, LinalgError> {
        let first = blocks
            .first()
            .ok_or_else(|| LinalgError::InvalidArgument("vstack of zero blocks".into()))?;
        let cols = first.cols;
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            if b.cols != cols {
                return Err(LinalgError::ShapeMismatch {
                    expected: format!("{cols} columns"),
                    found: format!("{} columns", b.cols),
                });
            }
            data.extend_from_slice(&b.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "matrix axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Maximum absolute element difference against another same-shape
    /// matrix; NaN if any difference is NaN.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        max_abs_diff_slices(&self.data, &other.data)
    }

    /// Number of bytes this matrix occupies when shipped over the simulated
    /// network (8 bytes per element; headers are modelled separately by the
    /// cluster communication layer).
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        (self.data.len() as u64) * 8
    }
}

/// A matrix that can be handed to a holder of one shared allocation:
/// an owned [`Matrix`] or an [`Arc`] is kept without copying the data, a
/// borrowed `Arc` is cloned (no copy), and a borrowed `Matrix` is copied
/// once.
///
/// `impl Into<Arc<Matrix>>` would cover every case but the borrowed
/// `Arc`, which deref coercion does not reach through a generic bound.
pub trait IntoShared {
    /// The shared allocation.
    fn into_shared(self) -> Arc<Matrix>;
}

impl IntoShared for Matrix {
    fn into_shared(self) -> Arc<Matrix> {
        Arc::new(self)
    }
}

impl IntoShared for Arc<Matrix> {
    fn into_shared(self) -> Arc<Matrix> {
        self
    }
}

impl IntoShared for &Arc<Matrix> {
    fn into_shared(self) -> Arc<Matrix> {
        Arc::clone(self)
    }
}

impl IntoShared for &Matrix {
    fn into_shared(self) -> Arc<Matrix> {
        Arc::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
            vec![10.0, 11.0, 12.0],
        ])
    }

    #[test]
    fn identity_matvec_is_noop() {
        let x = Vector::from(vec![1.0, -2.0, 3.0]);
        let y = Matrix::identity(3).matvec(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn matvec_matches_manual() {
        let y = sample().matvec(&Vector::from(vec![1.0, 0.0, -1.0]));
        assert_eq!(y.as_slice(), &[-2.0, -2.0, -2.0, -2.0]);
    }

    #[test]
    fn matvec_rows_matches_full() {
        let m = sample();
        let x = Vector::from(vec![0.5, 1.0, -0.25]);
        let full = m.matvec(&x);
        let part = m.matvec_rows(&x, 1, 3);
        assert_eq!(part.as_slice(), &full.as_slice()[1..3]);
    }

    #[test]
    fn matmul_against_identity_and_manual() {
        let m = sample();
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id), m);

        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(vec![vec![19.0, 22.0], vec![43.0, 50.0]])
        );
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 4));
        assert_eq!(m.transpose().get(0, 3), 10.0);
    }

    #[test]
    fn vstack_roundtrip() {
        let m = sample();
        let top = m.row_block(0, 2);
        let bottom = m.row_block(2, 4);
        let stacked = Matrix::vstack(&[&top, &bottom]).unwrap();
        assert_eq!(stacked, m);
    }

    #[test]
    fn vstack_rejects_mismatched_columns() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        let err = Matrix::vstack(&[&a, &b]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn vstack_rejects_empty() {
        assert!(matches!(
            Matrix::vstack(&[]),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn axpy_and_scale() {
        let mut m = Matrix::identity(2);
        let n = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        m.axpy(2.0, &n);
        assert_eq!(m, Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]));
        m.scale(0.5);
        assert_eq!(m, Matrix::from_rows(vec![vec![0.5, 1.0], vec![1.0, 0.5]]));
    }

    #[test]
    fn frobenius_and_diff() {
        let m = Matrix::from_rows(vec![vec![3.0, 0.0], vec![0.0, 4.0]]);
        let n = Matrix::zeros(2, 2);
        assert_eq!(m.max_abs_diff(&n), 4.0);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let m = Matrix::from_rows(vec![vec![3.0, 0.0], vec![0.0, 4.0]]);
        let mut bad = m.clone();
        bad.set(0, 1, f64::NAN);
        assert!(bad.max_abs_diff(&m).is_nan());
        assert!(m.max_abs_diff(&bad).is_nan());
    }

    #[test]
    fn payload_bytes_counts_elements() {
        assert_eq!(sample().payload_bytes(), 4 * 3 * 8);
    }

    #[test]
    #[should_panic(expected = "row range out of bounds")]
    fn row_block_bounds_checked() {
        let _ = sample().row_block(2, 5);
    }

    #[test]
    fn into_shared_copies_only_a_borrowed_matrix() {
        let shared = Arc::new(sample());
        assert!(Arc::ptr_eq(&(&shared).into_shared(), &shared));
        assert!(Arc::ptr_eq(&Arc::clone(&shared).into_shared(), &shared));
        let copied = (&*shared).into_shared();
        assert!(!Arc::ptr_eq(&copied, &shared));
        assert_eq!(*copied, sample());
        assert_eq!(*sample().into_shared(), sample());
    }

    #[test]
    fn from_flat_roundtrip() {
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn matvec_multi_columns_match_single_bitwise() {
        let m = Matrix::from_fn(23, 13, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.5 - 2.0);
        let vs: Vec<Vector> = (0..6)
            .map(|i| Vector::from_fn(13, |j| ((i * 5 + j) % 9) as f64 * 0.25 - 1.0))
            .collect();
        let refs: Vec<&Vector> = vs.iter().collect();
        let xs = MultiVector::from_vectors(&refs);
        let stacked = m.matvec_multi(&xs);
        assert_eq!(stacked.shape(), (23, 6));
        for (i, v) in vs.iter().enumerate() {
            let single = m.matvec(v);
            for r in 0..23 {
                assert_eq!(
                    stacked.get(r, i),
                    single.as_slice()[r],
                    "row {r} member {i}"
                );
            }
        }
    }

    #[test]
    fn matvec_multi_rows_matches_full() {
        let m = Matrix::from_fn(19, 8, |r, c| (r + c) as f64);
        let xs = MultiVector::from_fn(3, 8, |i, j| (i * 8 + j) as f64 * 0.1);
        let full = m.matvec_multi(&xs);
        let part = m.matvec_multi_rows(&xs, 4, 11);
        for r in 4..11 {
            for c in 0..3 {
                assert_eq!(part.get(r - 4, c), full.get(r, c));
            }
        }
    }
}
