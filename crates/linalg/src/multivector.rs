//! Contiguous multi-RHS storage and the cache-blocked batch kernels.
//!
//! Batched serving stacks `m` right-hand sides onto one dispatch round,
//! and the hot kernel of the whole stack is "many dot products of the
//! same matrix rows against those `m` vectors". Storing the stack as
//! `m` separate heap vectors (the pre-batch-first shape) costs a
//! pointer chase per member per row and defeats blocking; storing it as
//! one row-major `count × len` buffer — the `dft_batch`-over-row-major
//! API shape — makes every per-member view a cheap contiguous slice and
//! lets the matvec kernel tile over members so each matrix row is
//! loaded once per [`RHS_TILE`] members instead of once per member.
//!
//! The batched entry point (`matvec_multi_block`, surfaced as
//! [`crate::Matrix::matvec_multi_rows`]) is the primitive; the
//! single-vector kernels are the `count == 1` degenerate case and
//! produce bit-identical results to the historical per-row
//! `dot_slices` loop, which is what keeps batched and unbatched
//! pipelines comparable at machine precision.
//!
//! A single member (`count == 1`, or the last member of an odd count)
//! is walked four rows at a time: one pass over `x` feeds four rows'
//! `dot_slices` lanes, 16 independent add chains instead of one row's
//! four dependent ones, so the product is throughput-bound rather than
//! latency-bound. Each row still sums its own lanes `j mod 4` and tail
//! exactly as `dot_slices` does, so the grouping changes no bit.

use crate::vector::{dot_slices, Vector};

/// Number of right-hand sides processed per kernel tile: each matrix
/// row element is loaded once and multiplied into this many
/// accumulators, so the A-side memory traffic of a stacked matvec drops
/// by this factor versus per-member passes.
pub const RHS_TILE: usize = 4;

/// Target number of matrix *elements* per row block: blocks are sized
/// so a block of A rows (~256 KiB) stays cache-resident while every RHS
/// tile streams over it.
pub const ROW_BLOCK_ELEMS: usize = 32 * 1024;

/// Rows per cache block for a matrix with `cols` columns.
#[must_use]
pub fn row_block_for(cols: usize) -> usize {
    (ROW_BLOCK_ELEMS / cols.max(1)).clamp(4, 512)
}

/// A contiguous stack of `count` equal-length right-hand sides.
///
/// Stored row-major (`count × len`): member `i` is the slice
/// `data[i*len .. (i+1)*len]`. One allocation for the whole batch, so a
/// dispatch round ships a single buffer and workers index members
/// without pointer chasing.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVector {
    count: usize,
    len: usize,
    data: Vec<f64>,
}

impl MultiVector {
    /// Creates a zero stack of `count` members of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` (a stacked operation needs at least one
    /// right-hand side; the single-vector case is `count == 1`).
    #[must_use]
    pub fn zeros(count: usize, len: usize) -> Self {
        assert!(count > 0, "a MultiVector needs at least one member");
        MultiVector {
            count,
            len,
            data: vec![0.0; count * len],
        }
    }

    /// Builds a stack from a generating function over `(member, index)`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn from_fn(count: usize, len: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut mv = MultiVector::zeros(count, len);
        for m in 0..count {
            for i in 0..len {
                mv.data[m * len + i] = f(m, i);
            }
        }
        mv
    }

    /// Stacks copies of the given vectors.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or the vectors have differing lengths.
    #[must_use]
    pub fn from_vectors(xs: &[&Vector]) -> Self {
        assert!(!xs.is_empty(), "a MultiVector needs at least one member");
        let len = xs[0].len();
        let mut mv = MultiVector::zeros(xs.len(), len);
        for (m, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), len, "member {m} has inconsistent length");
            mv.member_mut(m).copy_from_slice(x.as_slice());
        }
        mv
    }

    /// Builds a stack that takes ownership of a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `data.len() != count * len`.
    #[must_use]
    pub fn from_flat(count: usize, len: usize, data: Vec<f64>) -> Self {
        assert!(count > 0, "a MultiVector needs at least one member");
        assert_eq!(data.len(), count * len, "flat buffer length mismatch");
        MultiVector { count, len, data }
    }

    /// A single-member stack copied from `x` — the degenerate case every
    /// unbatched call site passes through.
    #[must_use]
    pub fn single(x: &Vector) -> Self {
        MultiVector {
            count: 1,
            len: x.len(),
            data: x.as_slice().to_vec(),
        }
    }

    /// Number of stacked right-hand sides.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Length of each member.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the members have zero length (the stack itself is never
    /// empty — `count >= 1` by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Member `m` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `m >= count`.
    #[must_use]
    #[inline]
    pub fn member(&self, m: usize) -> &[f64] {
        assert!(m < self.count, "member index out of range");
        &self.data[m * self.len..(m + 1) * self.len]
    }

    /// Mutable view of member `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= count`.
    #[inline]
    pub fn member_mut(&mut self, m: usize) -> &mut [f64] {
        assert!(m < self.count, "member index out of range");
        &mut self.data[m * self.len..(m + 1) * self.len]
    }

    /// Iterates over the member slices in order.
    pub fn members(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.len.max(1)).take(self.count)
    }

    /// Flat view of the whole stack.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Bytes shipped when this stack crosses the simulated network.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        (self.data.len() as u64) * 8
    }
}

/// Four simultaneous dot products of `row` against `x0..x3`.
///
/// Each member keeps the exact [`dot_slices`] accumulation structure
/// (four lane accumulators over column quads, scalar tail, lanes summed
/// left to right), so every member's result is bit-identical to a
/// standalone `dot_slices(row, x_m)` call while `row` is loaded once
/// for all four members.
#[inline]
fn dot_rhs4(row: &[f64], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64], out: &mut [f64]) {
    debug_assert!(out.len() >= 4);
    let n = row.len();
    let quads = n / 4;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut b0, mut b1, mut b2, mut b3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c0, mut c1, mut c2, mut c3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut d0, mut d1, mut d2, mut d3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for i in 0..quads {
        let j = i * 4;
        let (r0, r1, r2, r3) = (row[j], row[j + 1], row[j + 2], row[j + 3]);
        a0 += r0 * x0[j];
        a1 += r1 * x0[j + 1];
        a2 += r2 * x0[j + 2];
        a3 += r3 * x0[j + 3];
        b0 += r0 * x1[j];
        b1 += r1 * x1[j + 1];
        b2 += r2 * x1[j + 2];
        b3 += r3 * x1[j + 3];
        c0 += r0 * x2[j];
        c1 += r1 * x2[j + 1];
        c2 += r2 * x2[j + 2];
        c3 += r3 * x2[j + 3];
        d0 += r0 * x3[j];
        d1 += r1 * x3[j + 1];
        d2 += r2 * x3[j + 2];
        d3 += r3 * x3[j + 3];
    }
    let (mut ta, mut tb, mut tc, mut td) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for j in quads * 4..n {
        let r = row[j];
        ta += r * x0[j];
        tb += r * x1[j];
        tc += r * x2[j];
        td += r * x3[j];
    }
    out[0] = a0 + a1 + a2 + a3 + ta;
    out[1] = b0 + b1 + b2 + b3 + tb;
    out[2] = c0 + c1 + c2 + c3 + tc;
    out[3] = d0 + d1 + d2 + d3 + td;
}

/// Two simultaneous dot products — the `count % RHS_TILE >= 2` remainder
/// tile, with the same per-member lane structure as [`dot_rhs4`].
#[inline]
fn dot_rhs2(row: &[f64], x0: &[f64], x1: &[f64], out: &mut [f64]) {
    debug_assert!(out.len() >= 2);
    let n = row.len();
    let quads = n / 4;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut b0, mut b1, mut b2, mut b3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for i in 0..quads {
        let j = i * 4;
        let (r0, r1, r2, r3) = (row[j], row[j + 1], row[j + 2], row[j + 3]);
        a0 += r0 * x0[j];
        a1 += r1 * x0[j + 1];
        a2 += r2 * x0[j + 2];
        a3 += r3 * x0[j + 3];
        b0 += r0 * x1[j];
        b1 += r1 * x1[j + 1];
        b2 += r2 * x1[j + 2];
        b3 += r3 * x1[j + 3];
    }
    let (mut ta, mut tb) = (0.0f64, 0.0f64);
    for j in quads * 4..n {
        let r = row[j];
        ta += r * x0[j];
        tb += r * x1[j];
    }
    out[0] = a0 + a1 + a2 + a3 + ta;
    out[1] = b0 + b1 + b2 + b3 + tb;
}

/// Dot products of four consecutive rows (`rows`, `4 × x.len()`
/// row-major) against one `x`.
///
/// Each row keeps the exact [`dot_slices`] accumulation structure (four
/// lane accumulators over column quads, scalar tail, lanes summed left
/// to right), so every result is bit-identical to a standalone
/// `dot_slices(row, x)` call. A lone `dot_slices` is latency-bound on
/// its four dependent add chains; here the 16 chains are independent,
/// so the adds pipeline and `x` is loaded once for four rows.
#[inline]
fn dot_rows4(rows: &[f64], x: &[f64]) -> [f64; 4] {
    let n = x.len();
    debug_assert_eq!(rows.len(), 4 * n);
    let (r0, rest) = rows.split_at(n);
    let (r1, rest) = rest.split_at(n);
    let (r2, r3) = rest.split_at(n);
    // Exact-size column quads: the loads need no bounds checks.
    let quads = x
        .chunks_exact(4)
        .zip(r0.chunks_exact(4))
        .zip(r1.chunks_exact(4))
        .zip(r2.chunks_exact(4))
        .zip(r3.chunks_exact(4));
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut b0, mut b1, mut b2, mut b3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c0, mut c1, mut c2, mut c3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut d0, mut d1, mut d2, mut d3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for ((((xq, q0), q1), q2), q3) in quads {
        a0 += q0[0] * xq[0];
        a1 += q0[1] * xq[1];
        a2 += q0[2] * xq[2];
        a3 += q0[3] * xq[3];
        b0 += q1[0] * xq[0];
        b1 += q1[1] * xq[1];
        b2 += q1[2] * xq[2];
        b3 += q1[3] * xq[3];
        c0 += q2[0] * xq[0];
        c1 += q2[1] * xq[1];
        c2 += q2[2] * xq[2];
        c3 += q2[3] * xq[3];
        d0 += q3[0] * xq[0];
        d1 += q3[1] * xq[1];
        d2 += q3[2] * xq[2];
        d3 += q3[3] * xq[3];
    }
    let (mut ta, mut tb, mut tc, mut td) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for j in n / 4 * 4..n {
        let xj = x[j];
        ta += r0[j] * xj;
        tb += r1[j] * xj;
        tc += r2[j] * xj;
        td += r3[j] * xj;
    }
    [
        a0 + a1 + a2 + a3 + ta,
        b0 + b1 + b2 + b3 + tb,
        c0 + c1 + c2 + c3 + tc,
        d0 + d1 + d2 + d3 + td,
    ]
}

/// The cache-blocked stacked matvec kernel over raw storage.
///
/// Computes rows `[begin, end)` of `A · xᵀ` for every member of the
/// stack: `out` receives an `(end − begin) × count` row-major block
/// (row-major over output rows, member-minor within a row — the
/// chunk-major × member-minor order the coded reply path ships).
///
/// Blocking: rows are walked in [`row_block_for`]-sized blocks and
/// members in [`RHS_TILE`]-wide tiles inside each block, so the A block
/// stays L1/L2-resident across all member tiles and each row element is
/// loaded once per tile rather than once per member. A lone member (the
/// `count == 1` product, or an odd count's last member) takes each
/// block's rows four at a time through `dot_rows4`, and the block's
/// last `< 4` rows through [`dot_slices`]. Every member's value keeps
/// the exact `dot_slices` accumulation order (per row: lanes `j mod 4`,
/// then the tail, summed left to right), so every grouping is
/// bit-identical to the sequential per-row loop.
///
/// # Panics
///
/// Panics (in debug) on inconsistent buffer shapes; callers validate.
pub(crate) fn matvec_multi_block(
    a: &[f64],
    cols: usize,
    begin: usize,
    end: usize,
    rhs: &[f64],
    count: usize,
    out: &mut [f64],
) {
    debug_assert!(count >= 1);
    debug_assert_eq!(rhs.len(), count * cols);
    debug_assert_eq!(out.len(), (end - begin) * count);
    let row_block = row_block_for(cols);
    let mut block = begin;
    while block < end {
        let block_end = (block + row_block).min(end);
        let mut m = 0;
        // Full 4-wide member tiles.
        while m + RHS_TILE <= count {
            let x0 = &rhs[m * cols..(m + 1) * cols];
            let x1 = &rhs[(m + 1) * cols..(m + 2) * cols];
            let x2 = &rhs[(m + 2) * cols..(m + 3) * cols];
            let x3 = &rhs[(m + 3) * cols..(m + 4) * cols];
            for r in block..block_end {
                let row = &a[r * cols..(r + 1) * cols];
                let o = (r - begin) * count + m;
                dot_rhs4(row, x0, x1, x2, x3, &mut out[o..o + RHS_TILE]);
            }
            m += RHS_TILE;
        }
        // 2-wide remainder tile.
        if count - m >= 2 {
            let x0 = &rhs[m * cols..(m + 1) * cols];
            let x1 = &rhs[(m + 1) * cols..(m + 2) * cols];
            for r in block..block_end {
                let row = &a[r * cols..(r + 1) * cols];
                let o = (r - begin) * count + m;
                dot_rhs2(row, x0, x1, &mut out[o..o + 2]);
            }
            m += 2;
        }
        // Single remainder member (the whole product when `count == 1`):
        // four rows per pass over `x`, then `dot_slices` for the block's
        // last `< 4` rows.
        if m < count {
            let x = &rhs[m * cols..(m + 1) * cols];
            let mut r = block;
            while r + 4 <= block_end {
                let rows = &a[r * cols..(r + 4) * cols];
                let y = dot_rows4(rows, x);
                for (i, v) in y.into_iter().enumerate() {
                    out[(r + i - begin) * count + m] = v;
                }
                r += 4;
            }
            for r in r..block_end {
                let row = &a[r * cols..(r + 1) * cols];
                out[(r - begin) * count + m] = dot_slices(row, x);
            }
        }
        block = block_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn naive_reference(a: &Matrix, xs: &MultiVector, begin: usize, end: usize) -> Vec<f64> {
        // Deliberately independent of dot_slices: plain left-to-right sum.
        let mut out = Vec::with_capacity((end - begin) * xs.count());
        for r in begin..end {
            for m in 0..xs.count() {
                let mut s = 0.0;
                for (av, xv) in a.row(r).iter().zip(xs.member(m)) {
                    s += av * xv;
                }
                out.push(s);
            }
        }
        out
    }

    fn sample(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 37 + c * 11) % 19) as f64 * 0.25 - 2.0
        })
    }

    fn stack(count: usize, len: usize) -> MultiVector {
        MultiVector::from_fn(count, len, |m, i| {
            ((m * 13 + i * 7) % 17) as f64 * 0.1 - 0.8
        })
    }

    #[test]
    fn accessors_and_roundtrip() {
        let mv = stack(3, 5);
        assert_eq!(mv.count(), 3);
        assert_eq!(mv.len(), 5);
        assert!(!mv.is_empty());
        let vs: Vec<Vector> = mv.members().map(Vector::from).collect();
        assert_eq!(vs.len(), 3);
        let refs: Vec<&Vector> = vs.iter().collect();
        assert_eq!(MultiVector::from_vectors(&refs), mv);
        assert_eq!(mv.payload_bytes(), 3 * 5 * 8);
        assert_eq!(mv.members().count(), 3);
        assert_eq!(mv.members().next().unwrap(), mv.member(0));
    }

    #[test]
    fn single_matches_member() {
        let v = Vector::from_fn(7, |i| i as f64 * 0.5);
        let mv = MultiVector::single(&v);
        assert_eq!(mv.count(), 1);
        assert_eq!(mv.member(0), v.as_slice());
    }

    #[test]
    fn from_flat_roundtrip() {
        let mv = MultiVector::from_flat(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(mv.member(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_rejected() {
        let _ = MultiVector::zeros(0, 4);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn mismatched_member_lengths_rejected() {
        let a = Vector::zeros(3);
        let b = Vector::zeros(4);
        let _ = MultiVector::from_vectors(&[&a, &b]);
    }

    #[test]
    fn kernel_matches_naive_across_tile_remainders() {
        // Member counts cover every remainder mod RHS_TILE, and column
        // counts cover every unroll remainder mod 4.
        for &count in &[1usize, 2, 3, 4, 5, 6, 7, 8, 9] {
            for &cols in &[1usize, 3, 4, 7, 8, 33] {
                let a = sample(11, cols);
                let xs = stack(count, cols);
                let mut out = vec![0.0; 11 * count];
                matvec_multi_block(a.as_slice(), cols, 0, 11, xs.as_slice(), count, &mut out);
                let expect = naive_reference(&a, &xs, 0, 11);
                crate::assert_slices_close(&out, &expect, 1e-12);
            }
        }
    }

    #[test]
    fn kernel_row_ranges_and_blocks() {
        // Rows span multiple cache blocks for tiny cols.
        let cols = 5;
        let rows = 2 * row_block_for(cols) + 3;
        let a = sample(rows, cols);
        let xs = stack(6, cols);
        for (begin, end) in [(0, rows), (1, rows - 1), (rows / 2, rows / 2)] {
            let mut out = vec![0.0; (end - begin) * 6];
            matvec_multi_block(a.as_slice(), cols, begin, end, xs.as_slice(), 6, &mut out);
            crate::assert_slices_close(&out, &naive_reference(&a, &xs, begin, end), 1e-12);
        }
    }

    #[test]
    fn single_member_is_bitwise_dot_slices() {
        // 43 rows: ten four-row groups and three leftover rows; the
        // ranges also start and end off a multiple of four.
        for &cols in &[4usize, 5, 6, 7, 13, 48, 64] {
            let a = sample(43, cols);
            let xs = stack(1, cols);
            for (begin, end) in [(0, 43), (1, 42), (2, 7), (5, 5)] {
                let mut out = vec![0.0; end - begin];
                matvec_multi_block(a.as_slice(), cols, begin, end, xs.as_slice(), 1, &mut out);
                for (i, &got) in out.iter().enumerate() {
                    let r = begin + i;
                    assert_eq!(
                        got.to_bits(),
                        dot_slices(a.row(r), xs.member(0)).to_bits(),
                        "row {r} of [{begin}, {end}), cols {cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_member_is_bitwise_dot_slices() {
        // The tiled kernels preserve the exact dot_slices accumulation
        // order per member, so stacked == standalone bit-for-bit. Odd
        // counts send their last member through the four-row path.
        for &cols in &[4usize, 5, 6, 7, 29, 48, 64] {
            let a = sample(17, cols);
            for count in 1..=7usize {
                let xs = stack(count, cols);
                let mut out = vec![0.0; 17 * count];
                matvec_multi_block(a.as_slice(), cols, 0, 17, xs.as_slice(), count, &mut out);
                for r in 0..17 {
                    for m in 0..count {
                        assert_eq!(
                            out[r * count + m].to_bits(),
                            dot_slices(a.row(r), xs.member(m)).to_bits(),
                            "row {r} member {m} of {count}, cols {cols}"
                        );
                    }
                }
            }
        }
    }
}
