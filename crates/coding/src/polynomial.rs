//! Polynomial codes for bilinear computations (`A·B` and `Aᵀ·diag(w)·A`).
//!
//! Following Yu–Maddah-Ali–Avestimehr (NIPS '17) as used in §5 of the S²C²
//! paper: `A` is split into `a` row blocks and `B` into `b` column blocks;
//! worker `i` stores
//!
//! ```text
//! Ã_i = Σ_j α_i^j     · A_j          B̃_i = Σ_l α_i^(l·a) · B_l
//! ```
//!
//! and computes `Ã_i · B̃_i`, which equals the degree-`(a·b − 1)` matrix
//! polynomial `Σ_q α_i^q · X_q` with `X_(j+l·a) = A_j·B_l`. Any `a·b`
//! responses therefore recover every block product by interpolation.
//!
//! Two deliberate differences from the paper's exposition:
//!
//! * evaluation points are Chebyshev-spaced on `[−1, 1]` instead of the
//!   integers `0..n` — integer nodes make the interpolation Vandermonde
//!   catastrophically ill-conditioned in `f64` beyond a handful of nodes;
//! * an optional diagonal *middle* factor `diag(w)` is threaded through
//!   worker computation so Hessians `Aᵀ·diag(w)·A` (the paper's §6.3
//!   workload) reuse the same codec: `diag(w)` commutes into the block sums,
//!   so the polynomial structure — and hence decoding — is unchanged.
//!
//! Chunked work assignment mirrors the MDS codec: each worker's `Ã_i` is
//! split into row chunks; a chunk index decodes once *any* `a·b` workers
//! have computed it, which is the hook S²C² scheduling uses.

use crate::chunks::{group_blocks_by_chunk, ChunkLayout, MultiChunkResult};
use crate::error::CodingError;
use s2c2_linalg::structured::{chebyshev_points, vandermonde};
use s2c2_linalg::{LuFactors, Matrix, Vector};

/// Polynomial code parameters: `n` workers, `a × b` block grid, any
/// `a·b` responses decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyParams {
    /// Total number of workers (= encoded partition pairs).
    pub n: usize,
    /// Row blocks of `A`.
    pub a: usize,
    /// Column blocks of `B`.
    pub b: usize,
}

impl PolyParams {
    /// Creates the parameter triple.
    ///
    /// # Panics
    ///
    /// Panics unless `a·b ≤ n` and all are positive (use
    /// [`PolynomialCode::new`] for the fallible form).
    #[must_use]
    pub fn new(n: usize, a: usize, b: usize) -> Self {
        assert!(a > 0 && b > 0 && a * b <= n, "require 0 < a*b <= n");
        PolyParams { n, a, b }
    }

    /// Recovery threshold: responses needed to decode (`a·b`).
    #[must_use]
    pub fn recovery_threshold(&self) -> usize {
        self.a * self.b
    }

    /// Straggler tolerance (`n − a·b`).
    #[must_use]
    pub fn straggler_tolerance(&self) -> usize {
        self.n - self.a * self.b
    }
}

/// Geometry of an encoded `(A, B)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyLayout {
    /// Chunk layout over `A`'s rows (`data_partitions = a`).
    pub row: ChunkLayout,
    /// Original column count of `B`.
    pub original_cols: usize,
    /// `B`'s columns after zero-padding (divisible by `b`).
    pub padded_cols: usize,
    /// Column blocks of `B` (= `b`).
    pub col_partitions: usize,
}

impl PolyLayout {
    /// Columns per encoded `B` partition.
    #[must_use]
    pub fn cols_per_partition(&self) -> usize {
        self.padded_cols / self.col_partitions
    }

    /// Flattened values in one chunk response
    /// (`rows_per_chunk × cols_per_partition`).
    #[must_use]
    pub fn values_per_chunk(&self) -> usize {
        self.row.rows_per_chunk() * self.cols_per_partition()
    }
}

/// A constructed polynomial code (evaluation points materialized).
#[derive(Debug, Clone)]
pub struct PolynomialCode {
    params: PolyParams,
    points: Vec<f64>,
}

impl PolynomialCode {
    /// Builds the code with Chebyshev evaluation points.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParams`] unless `0 < a·b ≤ n`.
    pub fn new(params: PolyParams) -> Result<Self, CodingError> {
        if params.a == 0 || params.b == 0 || params.a * params.b > params.n {
            return Err(CodingError::InvalidParams(format!(
                "require 0 < a*b <= n, got (n={}, a={}, b={})",
                params.n, params.a, params.b
            )));
        }
        Ok(PolynomialCode {
            params,
            points: chebyshev_points(params.n, -1.0, 1.0),
        })
    }

    /// Code parameters.
    #[must_use]
    pub fn params(&self) -> PolyParams {
        self.params
    }

    /// Evaluation point of worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn point(&self, i: usize) -> f64 {
        self.points[i]
    }

    /// Encodes a pair of matrices for distributed multiplication.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParams`] when inner dimensions disagree or a
    /// dimension is zero.
    pub fn encode_pair(
        &self,
        a: &Matrix,
        b: &Matrix,
        chunks_per_partition: usize,
    ) -> Result<EncodedPair, CodingError> {
        if a.cols() != b.rows() {
            return Err(CodingError::InvalidParams(format!(
                "inner dimensions disagree: A is {}x{}, B is {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        if b.cols() == 0 {
            return Err(CodingError::InvalidParams("B has zero columns".into()));
        }
        let row = ChunkLayout::new(a.rows(), self.params.a, chunks_per_partition)?;
        let padded_cols = b.cols().div_ceil(self.params.b) * self.params.b;
        let layout = PolyLayout {
            row,
            original_cols: b.cols(),
            padded_cols,
            col_partitions: self.params.b,
        };
        let prow = row.partition_rows();
        let pcol = layout.cols_per_partition();
        let m = a.cols();

        // Encoded A partitions: Ã_i = Σ_j α_i^j · A_j (zero-padded blocks).
        let mut a_parts = Vec::with_capacity(self.params.n);
        for i in 0..self.params.n {
            let alpha = self.points[i];
            let mut part = Matrix::zeros(prow, m);
            let mut coeff = 1.0;
            for j in 0..self.params.a {
                if coeff != 0.0 {
                    for r in 0..prow {
                        let src_row = j * prow + r;
                        if src_row < a.rows() {
                            let dst = part.row_mut(r);
                            for (d, s) in dst.iter_mut().zip(a.row(src_row)) {
                                *d += coeff * s;
                            }
                        }
                    }
                }
                coeff *= alpha;
            }
            a_parts.push(part);
        }

        // Encoded B partitions: B̃_i = Σ_l α_i^(l·a) · B_l.
        let mut b_parts = Vec::with_capacity(self.params.n);
        for i in 0..self.params.n {
            let alpha_a = self.points[i].powi(self.params.a as i32);
            let mut part = Matrix::zeros(m, pcol);
            let mut coeff = 1.0;
            for l in 0..self.params.b {
                if coeff != 0.0 {
                    for r in 0..m {
                        let dst = part.row_mut(r);
                        for (c, d) in dst.iter_mut().enumerate() {
                            let src_col = l * pcol + c;
                            if src_col < b.cols() {
                                *d += coeff * b.get(r, src_col);
                            }
                        }
                    }
                }
                coeff *= alpha_a;
            }
            b_parts.push(part);
        }

        Ok(EncodedPair {
            params: self.params,
            layout,
            a_parts,
            b_parts,
        })
    }

    /// Decodes the full product `A·(diag(w))·B` from per-chunk replies,
    /// each a one-member block of [`PolyLayout::values_per_chunk`]
    /// values.
    ///
    /// Each chunk needs at least `a·b` replies; of those the decoder
    /// keeps the `a·b` with the lowest worker ids and ignores the rest.
    /// Returns the product truncated to the original row/column counts.
    ///
    /// # Errors
    ///
    /// Same failure modes as
    /// [`MdsCode::decode_matvec_multi`](crate::mds::MdsCode::decode_matvec_multi):
    /// [`CodingError::InvalidParams`] if `layout` is not an `a × b` grid.
    pub fn decode_product(
        &self,
        layout: &PolyLayout,
        responses: &[MultiChunkResult],
    ) -> Result<Matrix, CodingError> {
        let PolyParams { a, b, .. } = self.params;
        if (layout.row.data_partitions, layout.col_partitions) != (a, b) {
            return Err(CodingError::InvalidParams(format!(
                "layout is a {} x {} grid, the code is {a} x {b}",
                layout.row.data_partitions, layout.col_partitions
            )));
        }
        let need = self.params.recovery_threshold();
        let rpc = layout.row.rows_per_chunk();
        let pcol = layout.cols_per_partition();
        let vpc = layout.values_per_chunk();
        let groups = group_blocks_by_chunk(responses, self.params.n, &layout.row, 1, vpc)?;

        let mut out = Matrix::zeros(layout.row.padded_rows, layout.padded_cols);
        for chunk in 0..layout.row.chunks_per_partition {
            let got = groups.replies(chunk).count();
            if got < need {
                return Err(CodingError::NotEnoughResponses { chunk, got, need });
            }
            // The `need` lowest worker ids: the grouping yields them first.
            let kept = || groups.replies(chunk).take(need);

            // Interpolation system: V[i][q] = α_(worker_i)^q.
            let pts: Vec<f64> = kept().map(|r| self.points[r.worker]).collect();
            let v = vandermonde(&pts, need);
            let lu = LuFactors::factor(&v).map_err(|_| CodingError::DecodeSingular { chunk })?;

            // RHS rows are the flattened responses; columns are entries.
            let mut rhs = Matrix::zeros(need, vpc);
            for (ri, r) in kept().enumerate() {
                rhs.row_mut(ri).copy_from_slice(&r.values);
            }
            let solved = lu.solve_matrix(&rhs); // row q = flattened X_q

            // Scatter block products into the output.
            for j in 0..self.params.a {
                let row_range = layout.row.output_range(j, chunk);
                for l in 0..self.params.b {
                    let q = j + l * self.params.a;
                    for rr in 0..rpc {
                        for cc in 0..pcol {
                            out.set(
                                row_range.start + rr,
                                l * pcol + cc,
                                solved.get(q, rr * pcol + cc),
                            );
                        }
                    }
                }
            }
        }

        // Truncate padding.
        Ok(Matrix::from_fn(
            layout.row.original_rows,
            layout.original_cols,
            |r, c| out.get(r, c),
        ))
    }
}

/// The result of encoding an `(A, B)` pair: per-worker partition pairs.
#[derive(Debug, Clone)]
pub struct EncodedPair {
    params: PolyParams,
    layout: PolyLayout,
    a_parts: Vec<Matrix>,
    b_parts: Vec<Matrix>,
}

impl EncodedPair {
    /// Code parameters used for the encoding.
    #[must_use]
    pub fn params(&self) -> PolyParams {
        self.params
    }

    /// Pair geometry.
    #[must_use]
    pub fn layout(&self) -> &PolyLayout {
        &self.layout
    }

    /// Worker `i`'s encoded `A` partition.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn a_part(&self, i: usize) -> &Matrix {
        &self.a_parts[i]
    }

    /// Worker `i`'s encoded `B` partition.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn b_part(&self, i: usize) -> &Matrix {
        &self.b_parts[i]
    }

    /// Bytes stored per worker (both partitions).
    #[must_use]
    pub fn bytes_per_worker(&self) -> u64 {
        self.a_parts.first().map_or(0, Matrix::payload_bytes)
            + self.b_parts.first().map_or(0, Matrix::payload_bytes)
    }

    /// Worker `i` computes `Ã_i[chunk] · diag(w)? · B̃_i` — the numeric
    /// work for one assigned chunk — and replies with its row-major
    /// flattening as a one-member block.
    ///
    /// `middle` is the optional diagonal weight vector (the Hessian's
    /// `diag(w)`); `None` computes the plain product.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or a `middle` of the wrong length.
    #[must_use]
    pub fn worker_compute_chunk(
        &self,
        worker: usize,
        chunk: usize,
        middle: Option<&Vector>,
    ) -> MultiChunkResult {
        let range = self.layout.row.chunk_range_in_partition(chunk);
        let a_part = &self.a_parts[worker];
        let b_part = &self.b_parts[worker];
        let m = a_part.cols();
        if let Some(w) = middle {
            assert_eq!(w.len(), m, "middle weight length mismatch");
        }
        let rpc = range.len();
        let pcol = b_part.cols();
        let mut values = vec![0.0; rpc * pcol];
        for (local, r) in range.clone().enumerate() {
            let arow = a_part.row(r);
            let out_row = &mut values[local * pcol..(local + 1) * pcol];
            for (t, &av) in arow.iter().enumerate().take(m) {
                let mut a_val = av;
                if let Some(w) = middle {
                    a_val *= w.as_slice()[t];
                }
                if a_val == 0.0 {
                    continue;
                }
                for (o, b) in out_row.iter_mut().zip(b_part.row(t)) {
                    *o += a_val * b;
                }
            }
        }
        MultiChunkResult::new(worker, chunk, 1, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r as u64 * 37 + c as u64 * 13 + salt * 7) % 19) as f64 - 9.0) / 3.0
        })
    }

    fn reference_product(a: &Matrix, w: Option<&Vector>, b: &Matrix) -> Matrix {
        match w {
            None => a.matmul(b),
            Some(w) => {
                let mut scaled = b.clone();
                for r in 0..scaled.rows() {
                    let f = w.as_slice()[r];
                    for v in scaled.row_mut(r) {
                        *v *= f;
                    }
                }
                a.matmul(&scaled)
            }
        }
    }

    fn full_responses(
        enc: &EncodedPair,
        workers: &[usize],
        middle: Option<&Vector>,
    ) -> Vec<MultiChunkResult> {
        let chunks = enc.layout().row.chunks_per_partition;
        workers
            .iter()
            .flat_map(|&w| (0..chunks).map(move |c| enc.worker_compute_chunk(w, c, middle)))
            .collect()
    }

    #[test]
    fn params_helpers() {
        let p = PolyParams::new(5, 2, 2);
        assert_eq!(p.recovery_threshold(), 4);
        assert_eq!(p.straggler_tolerance(), 1);
    }

    #[test]
    #[should_panic(expected = "require 0 < a*b <= n")]
    fn params_rejects_overfull_grid() {
        let _ = PolyParams::new(3, 2, 2);
    }

    #[test]
    fn paper_example_5_nodes_2x2() {
        // §5's illustration: n = 5, a = b = 2, decode from any 4.
        let a = data(12, 6, 1);
        let b = data(6, 8, 2);
        let code = PolynomialCode::new(PolyParams::new(5, 2, 2)).unwrap();
        let enc = code.encode_pair(&a, &b, 3).unwrap();
        let expect = reference_product(&a, None, &b);
        // Every 4-subset of 5 workers decodes.
        for skip in 0..5 {
            let workers: Vec<usize> = (0..5).filter(|&w| w != skip).collect();
            let resp = full_responses(&enc, &workers, None);
            let got = code.decode_product(enc.layout(), &resp).unwrap();
            assert!(
                got.max_abs_diff(&expect) < 1e-8,
                "skip={skip}: max diff {}",
                got.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn hessian_configuration_12_nodes_3x3() {
        // Fig 12's setup: 12 nodes, A split 3 ways each direction, any 9
        // responses decode the Hessian A^T diag(w) A.
        let a = data(18, 10, 3); // stands for A^T: 18 rows = features
        let b = data(10, 18, 4); // stands for A
        let w = Vector::from_fn(10, |i| 0.5 + (i as f64) * 0.1);
        let code = PolynomialCode::new(PolyParams::new(12, 3, 3)).unwrap();
        let enc = code.encode_pair(&a, &b, 2).unwrap();
        let expect = reference_product(&a, Some(&w), &b);
        let workers: Vec<usize> = (3..12).collect(); // slowest 3 ignored
        let resp = full_responses(&enc, &workers, Some(&w));
        let got = code.decode_product(enc.layout(), &resp).unwrap();
        assert!(
            got.max_abs_diff(&expect) < 1e-7,
            "diff {}",
            got.max_abs_diff(&expect)
        );
    }

    #[test]
    fn mixed_chunk_coverage_decodes() {
        // Chunks covered by different 4-subsets — the S2C2 schedule shape.
        let a = data(16, 5, 5);
        let b = data(5, 6, 6);
        let code = PolynomialCode::new(PolyParams::new(5, 2, 2)).unwrap();
        let enc = code.encode_pair(&a, &b, 2).unwrap();
        let mut resp = Vec::new();
        for w in [0usize, 1, 2, 3] {
            resp.push(enc.worker_compute_chunk(w, 0, None));
        }
        for w in [1usize, 2, 3, 4] {
            resp.push(enc.worker_compute_chunk(w, 1, None));
        }
        let got = code.decode_product(enc.layout(), &resp).unwrap();
        let expect = reference_product(&a, None, &b);
        assert!(got.max_abs_diff(&expect) < 1e-8);
    }

    #[test]
    fn padding_both_dimensions() {
        // 13 rows (pads to 16 for a=2,chunks=4... actually 2*4=8 -> 16) and
        // 7 cols (pads to 8 for b=2).
        let a = data(13, 4, 7);
        let b = data(4, 7, 8);
        let code = PolynomialCode::new(PolyParams::new(6, 2, 2)).unwrap();
        let enc = code.encode_pair(&a, &b, 4).unwrap();
        assert_eq!(enc.layout().row.padded_rows, 16);
        assert_eq!(enc.layout().padded_cols, 8);
        let resp = full_responses(&enc, &[0, 2, 3, 5], None);
        let got = code.decode_product(enc.layout(), &resp).unwrap();
        assert_eq!(got.shape(), (13, 7));
        let expect = reference_product(&a, None, &b);
        assert!(got.max_abs_diff(&expect) < 1e-8);
    }

    #[test]
    fn asymmetric_grid() {
        let a = data(12, 5, 9);
        let b = data(5, 9, 10);
        let code = PolynomialCode::new(PolyParams::new(7, 3, 2)).unwrap();
        let enc = code.encode_pair(&a, &b, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2, 4, 5, 6], None);
        let got = code.decode_product(enc.layout(), &resp).unwrap();
        let expect = reference_product(&a, None, &b);
        assert!(got.max_abs_diff(&expect) < 1e-7);
    }

    #[test]
    fn not_enough_responses_reported() {
        let a = data(8, 3, 11);
        let b = data(3, 4, 12);
        let code = PolynomialCode::new(PolyParams::new(5, 2, 2)).unwrap();
        let enc = code.encode_pair(&a, &b, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2], None);
        let err = code.decode_product(enc.layout(), &resp).unwrap_err();
        assert!(matches!(
            err,
            CodingError::NotEnoughResponses { need: 4, .. }
        ));
    }

    #[test]
    fn decode_rejects_a_layout_of_another_grid() {
        // A (5, 2×2) code over 12 × 4 in 2 chunks: 3 rows per chunk and
        // 2 columns per partition. The foreign layouts keep both, so
        // every reply passes the payload check; a foreign row split used
        // to panic in `output_range` or return a wrong product.
        let a = data(12, 3, 17);
        let b = data(3, 4, 18);
        let code = PolynomialCode::new(PolyParams::new(5, 2, 2)).unwrap();
        let enc = code.encode_pair(&a, &b, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2, 3], None);
        let got = code.decode_product(enc.layout(), &resp).unwrap();
        assert!(got.max_abs_diff(&reference_product(&a, None, &b)) < 1e-8);
        let layout = *enc.layout();
        let foreign = [
            ChunkLayout::new(12, 1, 4).unwrap(),
            ChunkLayout::new(18, 3, 2).unwrap(),
        ];
        for row in foreign {
            let foreign = PolyLayout { row, ..layout };
            assert_eq!(foreign.values_per_chunk(), layout.values_per_chunk());
            assert!(matches!(
                code.decode_product(&foreign, &resp),
                Err(CodingError::InvalidParams(_))
            ));
        }
        // One column partition of the same width: the scatter used to
        // write past the padded columns.
        let foreign = PolyLayout {
            padded_cols: 2,
            col_partitions: 1,
            ..layout
        };
        assert_eq!(foreign.values_per_chunk(), layout.values_per_chunk());
        assert!(matches!(
            code.decode_product(&foreign, &resp),
            Err(CodingError::InvalidParams(_))
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = data(8, 3, 13);
        let b = data(4, 4, 14);
        let code = PolynomialCode::new(PolyParams::new(5, 2, 2)).unwrap();
        assert!(matches!(
            code.encode_pair(&a, &b, 2),
            Err(CodingError::InvalidParams(_))
        ));
    }

    #[test]
    fn middle_diagonal_equivalent_to_scaling() {
        // worker_compute_chunk with diag(w) == computing on pre-scaled B.
        let a = data(8, 4, 15);
        let b = data(4, 6, 16);
        let w = Vector::from_fn(4, |i| 1.0 + i as f64 * 0.5);
        let code = PolynomialCode::new(PolyParams::new(4, 2, 2)).unwrap();
        let enc = code.encode_pair(&a, &b, 2).unwrap();
        let mut b_scaled = b.clone();
        for r in 0..4 {
            let f = w.as_slice()[r];
            for v in b_scaled.row_mut(r) {
                *v *= f;
            }
        }
        let enc_scaled = code.encode_pair(&a, &b_scaled, 2).unwrap();
        for worker in 0..4 {
            for chunk in 0..2 {
                let with_mid = enc.worker_compute_chunk(worker, chunk, Some(&w));
                let pre_scaled = enc_scaled.worker_compute_chunk(worker, chunk, None);
                for (x, y) in with_mid.values.iter().zip(pre_scaled.values.iter()) {
                    assert!((x - y).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn evaluation_points_distinct() {
        let code = PolynomialCode::new(PolyParams::new(12, 3, 3)).unwrap();
        for i in 0..12 {
            for j in i + 1..12 {
                assert_ne!(code.point(i), code.point(j));
            }
        }
    }
}
