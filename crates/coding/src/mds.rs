//! Systematic `(n, k)`-MDS codes for linear (matrix–vector) computations.
//!
//! The data matrix `A` is split into `k` row blocks `A_0 … A_{k−1}`; worker
//! `i < k` stores `A_i` unchanged (systematic part) and worker `i ≥ k`
//! stores the combination `Σ_j P[i−k][j] · A_j` (parity part). The code is
//! MDS iff every square submatrix of `P` is nonsingular, in which case
//! *any* `k` of the `n` per-chunk results reconstruct that chunk of `A·x`.
//!
//! **Parity construction.** Over the reals, the classic structured MDS
//! generators (Vandermonde, Cauchy) have *exponentially* ill-conditioned
//! submatrices — a 10×10 Cauchy block is Hilbert-like (κ ≈ 10¹³) and
//! destroys `f64` decoding at the paper's `(50, 40)` scale. Following the
//! established practice for real-number erasure codes (Chen & Dongarra,
//! *Numerically stable real-number codes based on random matrices*), the
//! parity block is a **seeded random matrix**: every square submatrix is
//! nonsingular with probability 1, submatrix condition numbers stay small
//! (tens, not 10¹³), and the fixed per-`(n,k)` seed keeps encodings
//! deterministic and reproducible. The conditioning ablation
//! (`figures -- ablations`, `ablation_conditioning.csv`) quantifies this
//! choice against Cauchy and Vandermonde parities.
//!
//! Because the code is systematic, decoding a chunk with `m` missing
//! systematic blocks solves only an `m × m` system (`m ≤ n − k` ≤ 10 in
//! every configuration the paper evaluates).

use crate::chunks::{
    group_blocks_by_chunk, group_by_chunk, ChunkLayout, MultiChunkResult, WorkerChunkResult,
};
use crate::error::CodingError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2c2_linalg::multivector::ROW_BLOCK_ELEMS;
use s2c2_linalg::parallel::{host_threads, par_for_each_mut, should_spawn};
use s2c2_linalg::{LuFactors, Matrix, MultiVector, Vector};

/// `(n, k)` MDS code parameters: `n` workers, any `k` responses decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdsParams {
    /// Total number of coded partitions (= workers).
    pub n: usize,
    /// Number of data partitions; any `k` of `n` responses decode.
    pub k: usize,
}

impl MdsParams {
    /// Creates the parameter pair.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k <= n` (use [`MdsCode::new`] for a fallible
    /// constructor; this one is for literals in examples and experiments).
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0 && k <= n, "require 0 < k <= n, got ({n},{k})");
        MdsParams { n, k }
    }

    /// Number of stragglers the code tolerates (`n − k`).
    #[must_use]
    pub fn straggler_tolerance(&self) -> usize {
        self.n - self.k
    }

    /// Storage overhead factor relative to uncoded even partitioning
    /// (`n/k`, e.g. 1.2 for (12,10)).
    #[must_use]
    pub fn storage_overhead(&self) -> f64 {
        self.n as f64 / self.k as f64
    }
}

/// The matrix an encoding reads its systematic rows from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// `A` itself: systematic row `r` is row `r` of the matrix.
    Rows(&'a Matrix),
    /// `Aᵀ`: systematic row `r` is column `r` of the matrix.
    Columns(&'a Matrix),
}

impl Source<'_> {
    /// `(rows, cols)` of the matrix being encoded.
    fn shape(self) -> (usize, usize) {
        match self {
            Source::Rows(a) => (a.rows(), a.cols()),
            Source::Columns(a) => (a.cols(), a.rows()),
        }
    }
}

/// Rows `[begin, end)` of every coded partition, in worker order: the
/// unit of work one encoding thread fills.
struct RowRange<'a> {
    begin: usize,
    end: usize,
    parts: Vec<&'a mut [f64]>,
}

/// A constructed `(n, k)` MDS code (generator rows materialized).
#[derive(Debug, Clone)]
pub struct MdsCode {
    params: MdsParams,
    /// Parity block: `(n − k) × k` seeded random matrix (see module docs).
    parity: Matrix,
}

impl MdsCode {
    /// Builds the code with the default deterministic parity seed.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParams`] unless `0 < k ≤ n`.
    pub fn new(params: MdsParams) -> Result<Self, CodingError> {
        Self::with_seed(params, 0x5C2C_0DE5)
    }

    /// Builds the code with an explicit parity seed.
    ///
    /// Different seeds give different (equally valid) codes; encoders and
    /// decoders must agree on the seed. Exposed for tests that want to
    /// exercise many code instances.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParams`] unless `0 < k ≤ n`.
    pub fn with_seed(params: MdsParams, seed: u64) -> Result<Self, CodingError> {
        if params.k == 0 || params.k > params.n {
            return Err(CodingError::InvalidParams(format!(
                "require 0 < k <= n, got (n={}, k={})",
                params.n, params.k
            )));
        }
        // Mix (n, k) into the seed so each configuration gets an
        // independent parity block even under the same user seed.
        let mixed = seed
            ^ (params.n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (params.k as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut rng = StdRng::seed_from_u64(mixed);
        let rows = params.n - params.k;
        // Uniform in [-1, 1] \ {0}: a.s. every square submatrix is
        // nonsingular, magnitudes stay O(1).
        let parity = Matrix::from_fn(rows, params.k, |_, _| loop {
            let v: f64 = rng.gen_range(-1.0..=1.0);
            if v.abs() > 1e-3 {
                break v;
            }
        });
        Ok(MdsCode { params, parity })
    }

    /// Code parameters.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.params
    }

    /// Generator row for worker `i` (length `k`): unit vector for
    /// systematic workers, the worker's row of the seeded random parity
    /// block (see the module docs) for parity workers.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn generator_row(&self, i: usize) -> Vec<f64> {
        assert!(i < self.params.n, "worker index out of range");
        let k = self.params.k;
        if i < k {
            let mut row = vec![0.0; k];
            row[i] = 1.0;
            row
        } else {
            (0..k).map(|j| self.parity.get(i - k, j)).collect()
        }
    }

    /// Encodes a data matrix into `n` coded partitions with
    /// `chunks_per_partition`-way over-decomposition.
    ///
    /// Systematic partitions are plain row blocks of (zero-padded) `A`;
    /// parity partitions are sums of all `k` blocks weighted by the
    /// worker's row of the seeded random parity block.
    ///
    /// The partitions are allocated once on the caller's thread and
    /// filled in place, row range by row range, on every host core once
    /// the matrix is large enough; the result is bit-identical for any
    /// core count.
    ///
    /// # Errors
    ///
    /// Propagates layout errors for degenerate shapes.
    pub fn encode(
        &self,
        a: &Matrix,
        chunks_per_partition: usize,
    ) -> Result<EncodedMatrix, CodingError> {
        self.encode_with_threads(Source::Rows(a), chunks_per_partition, host_threads())
    }

    /// Encodes `Aᵀ` without materializing it: bit-identical to
    /// `self.encode(&a.transpose(), chunks_per_partition)`.
    ///
    /// The systematic partitions are filled by a blocked transposition
    /// straight from `a`'s rows, then the parity pass of [`Self::encode`]
    /// runs over them unchanged — so the backward product of a gradient
    /// method costs one encoding and no `rows × cols` temporary.
    ///
    /// # Errors
    ///
    /// Propagates layout errors for degenerate shapes.
    pub fn encode_transpose(
        &self,
        a: &Matrix,
        chunks_per_partition: usize,
    ) -> Result<EncodedMatrix, CodingError> {
        self.encode_with_threads(Source::Columns(a), chunks_per_partition, host_threads())
    }

    /// The encoder behind [`Self::encode`] and [`Self::encode_transpose`]
    /// on up to `threads` OS threads; every output bit is the same for
    /// any `threads`.
    fn encode_with_threads(
        &self,
        source: Source<'_>,
        chunks_per_partition: usize,
        threads: usize,
    ) -> Result<EncodedMatrix, CodingError> {
        let (rows, cols) = source.shape();
        let layout = ChunkLayout::new(rows, self.params.k, chunks_per_partition)?;
        let prow = layout.partition_rows();
        let n = self.params.n;
        let mut partitions: Vec<Matrix> = (0..n).map(|_| Matrix::zeros(prow, cols)).collect();

        // One work item per contiguous range of partition rows, holding
        // that range of every partition; the ranges split as `par_map`
        // splits, so each thread owns exactly one.
        let threads = if should_spawn(prow, n * cols, threads) {
            threads
        } else {
            1
        };
        let span = prow.div_ceil(threads).max(1);
        let mut ranges: Vec<RowRange<'_>> = (0..prow)
            .step_by(span)
            .map(|begin| RowRange {
                begin,
                end: (begin + span).min(prow),
                parts: Vec::with_capacity(n),
            })
            .collect();
        for part in &mut partitions {
            let mut rest = part.as_mut_slice();
            for range in &mut ranges {
                let (head, tail) =
                    std::mem::take(&mut rest).split_at_mut((range.end - range.begin) * cols);
                range.parts.push(head);
                rest = tail;
            }
        }
        par_for_each_mut(&mut ranges, threads, |range| {
            self.fill_range(source, rows, prow, cols, range);
        });
        drop(ranges);

        Ok(EncodedMatrix {
            params: self.params,
            layout,
            partitions,
        })
    }

    /// Fills one row range of every partition: the systematic rows from
    /// `source` (rows at or past `rows`, the original count, stay zero
    /// padding), then the parity rows from those systematic rows.
    fn fill_range(
        &self,
        source: Source<'_>,
        rows: usize,
        prow: usize,
        cols: usize,
        range: &mut RowRange<'_>,
    ) {
        let k = self.params.k;
        let (begin, end) = (range.begin, range.end);
        let (sys, parity) = range.parts.split_at_mut(k);
        // Local rows [0, valid(j)) of systematic block j hold data.
        let valid = |j: usize| rows.saturating_sub(j * prow + begin).min(end - begin);

        match source {
            Source::Rows(a) => {
                for (j, dst) in sys.iter_mut().enumerate() {
                    let first = (j * prow + begin).min(rows) * cols;
                    let len = valid(j) * cols;
                    dst[..len].copy_from_slice(&a.as_slice()[first..first + len]);
                }
            }
            Source::Columns(a) => {
                // Systematic row r of block j is column j·prow + r of `a`.
                // Eight rows of `a` at a time: each destination row then
                // receives a whole cache line per visit while the eight
                // source rows' current lines stay resident.
                const TILE: usize = 8;
                let a_cols = a.cols();
                for t0 in (0..cols).step_by(TILE) {
                    let t1 = (t0 + TILE).min(cols);
                    for (j, dst) in sys.iter_mut().enumerate() {
                        let first_col = j * prow + begin;
                        for r in 0..valid(j) {
                            let row = &mut dst[r * cols..(r + 1) * cols];
                            for (t, d) in (t0..t1).zip(&mut row[t0..t1]) {
                                *d = a.as_slice()[t * a_cols + first_col + r];
                            }
                        }
                    }
                }
            }
        }

        // Parity: one cache-blocked pass over the systematic rows instead
        // of a full sweep per parity node. Row blocks are sized so the
        // source rows plus every parity destination block stay resident,
        // so each data element is read from memory once rather than
        // `n − k` times. Per output element the k contributions still
        // accumulate in ascending-j order, identical to a per-partition
        // sweep; padding rows contribute nothing (they are skipped, not
        // added as zeros).
        if parity.is_empty() {
            return;
        }
        let block_rows = (ROW_BLOCK_ELEMS / (cols.max(1) * (parity.len() + 1))).clamp(1, prow);
        let mut b = 0;
        while b < end - begin {
            let bend = (b + block_rows).min(end - begin);
            for (j, src_rows) in sys.iter().enumerate() {
                for r in b..bend.min(valid(j)) {
                    let src = &src_rows[r * cols..(r + 1) * cols];
                    for (p, part) in parity.iter_mut().enumerate() {
                        let w = self.parity.get(p, j);
                        for (d, s) in part[r * cols..(r + 1) * cols].iter_mut().zip(src) {
                            *d += w * s;
                        }
                    }
                }
            }
            b = bend;
        }
    }

    /// Decodes the full `A·x` product from per-chunk worker results.
    ///
    /// Every chunk index must be covered by at least `k` distinct workers;
    /// extra responses beyond `k` are ignored (the fastest-`k` rule).
    /// Returns the product truncated to the original (unpadded) row count.
    ///
    /// # Errors
    ///
    /// * [`CodingError::NotEnoughResponses`] if any chunk has < `k` results.
    /// * [`CodingError::MalformedResponse`] / [`CodingError::DuplicateResponse`]
    ///   for inconsistent inputs.
    pub fn decode_matvec(
        &self,
        layout: &ChunkLayout,
        responses: &[WorkerChunkResult],
    ) -> Result<Vector, CodingError> {
        let rpc = layout.rows_per_chunk();
        let per_chunk = group_by_chunk(responses, self.params.n, layout, rpc)?
            .into_iter()
            .map(|rs| {
                rs.into_iter()
                    .map(|r| (r.worker, r.values.as_slice()))
                    .collect()
            })
            .collect();
        let mut out = self.decode_stacked(layout, per_chunk, 1)?;
        out.truncate(layout.original_rows);
        Ok(Vector::from(out))
    }

    /// Decodes `A·x_m` for every member of a stacked batch from
    /// contiguous per-chunk blocks — the batch-first counterpart of
    /// [`Self::decode_matvec`].
    ///
    /// All blocks must carry the same member count; coverage rules are
    /// as for single decoding (every chunk needs ≥ `k` distinct
    /// workers, fastest-`k` preferred). The LU system of a chunk is
    /// factored once and back-substituted over the whole stacked block,
    /// and each member's output is bit-identical to decoding that
    /// member's responses alone.
    ///
    /// Returns one output vector per member, truncated to the original
    /// row count.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_matvec`]; additionally
    /// [`CodingError::MalformedResponse`] for blocks with inconsistent
    /// member counts.
    pub fn decode_matvec_multi(
        &self,
        layout: &ChunkLayout,
        responses: &[MultiChunkResult],
    ) -> Result<Vec<Vector>, CodingError> {
        let Some(first) = responses.first() else {
            return Err(CodingError::NotEnoughResponses {
                chunk: 0,
                got: 0,
                need: self.params.k,
            });
        };
        let members = first.members;
        let rpc = layout.rows_per_chunk();
        let per_chunk = group_blocks_by_chunk(responses, self.params.n, layout, members, rpc)?
            .into_iter()
            .map(|rs| {
                rs.into_iter()
                    .map(|r| (r.worker, r.values.as_slice()))
                    .collect()
            })
            .collect();
        let out = self.decode_stacked(layout, per_chunk, members)?;
        let padded = layout.padded_rows;
        Ok((0..members)
            .map(|mem| {
                let mut v = out[mem * padded..(mem + 1) * padded].to_vec();
                v.truncate(layout.original_rows);
                Vector::from(v)
            })
            .collect())
    }

    /// The shared stacked decode core.
    ///
    /// `per_chunk[chunk]` holds `(worker, values)` pairs whose values are
    /// `rows_per_chunk × members` blocks (chunk-row-major, member-minor);
    /// the return buffer is member-major (`members × padded_rows`).
    /// Single decoding is the `members == 1` case, with identical
    /// operation order.
    fn decode_stacked(
        &self,
        layout: &ChunkLayout,
        per_chunk: Vec<Vec<(usize, &[f64])>>,
        members: usize,
    ) -> Result<Vec<f64>, CodingError> {
        let k = self.params.k;
        let rpc = layout.rows_per_chunk();
        let padded = layout.padded_rows;
        let width = rpc * members;

        let mut out = vec![0.0; members * padded];
        for (chunk, mut resps) in per_chunk.into_iter().enumerate() {
            if resps.len() < k {
                return Err(CodingError::NotEnoughResponses {
                    chunk,
                    got: resps.len(),
                    need: k,
                });
            }
            // Deterministic preference for systematic responses: they decode
            // for free, minimizing the solve size.
            resps.sort_by_key(|r| r.0);
            resps.truncate(k);

            // Place systematic results directly; collect missing blocks.
            let mut have = vec![false; k];
            for &(w, vals) in &resps {
                if w < k {
                    have[w] = true;
                    let dst = layout.output_range(w, chunk);
                    for (col, &v) in vals[..width].iter().enumerate() {
                        out[(col % members) * padded + dst.start + col / members] = v;
                    }
                }
            }
            let missing: Vec<usize> = (0..k).filter(|j| !have[*j]).collect();
            if missing.is_empty() {
                continue;
            }
            let parity_resps: Vec<(usize, &[f64])> =
                resps.iter().copied().filter(|r| r.0 >= k).collect();
            debug_assert!(parity_resps.len() >= missing.len());

            // Build the m×m generator subsystem over the missing
            // coordinates and factor it once for the whole stacked block.
            let m = missing.len();
            let sys = Matrix::from_fn(m, m, |pi, mj| {
                self.parity.get(parity_resps[pi].0 - k, missing[mj])
            });
            let lu = LuFactors::factor(&sys).map_err(|_| CodingError::DecodeSingular { chunk })?;

            // RHS: parity values minus contributions from known blocks —
            // one column per (chunk row, member) pair, built flat and
            // handed to the solver in one piece.
            let mut rhs = Vec::with_capacity(m * width);
            for &(pw, vals) in &parity_resps {
                let prow_idx = pw - k;
                for (col, &pv) in vals[..width].iter().enumerate() {
                    let base = (col % members) * padded + col / members;
                    let mut v = pv;
                    for j in 0..k {
                        if have[j] {
                            let known = out[base + layout.output_range(j, chunk).start];
                            v -= self.parity.get(prow_idx, j) * known;
                        }
                    }
                    rhs.push(v);
                }
            }
            let solved = lu.solve_matrix(&Matrix::from_flat(m, width, rhs));
            for (mi, &j) in missing.iter().enumerate() {
                let dst = layout.output_range(j, chunk);
                for col in 0..width {
                    out[(col % members) * padded + dst.start + col / members] = solved.get(mi, col);
                }
            }
        }
        Ok(out)
    }

    /// Estimated floating-point operations to decode one iteration given
    /// `missing` systematic blocks per chunk on average — used by the
    /// cluster engine to charge master-side decode time.
    #[must_use]
    pub fn decode_flops_estimate(&self, layout: &ChunkLayout, avg_missing: f64) -> f64 {
        let m = avg_missing.max(0.0);
        let rpc = layout.rows_per_chunk() as f64;
        let chunks = layout.chunks_per_partition as f64;
        // LU factor m^3/3 + per-column triangular solves m^2 each,
        // + RHS adjustment m·k·rpc.
        chunks * (m.powi(3) / 3.0 + rpc * m.powi(2) + m * self.params.k as f64 * rpc)
    }
}

/// The result of encoding: `n` coded partitions plus the shared layout.
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    params: MdsParams,
    layout: ChunkLayout,
    partitions: Vec<Matrix>,
}

impl EncodedMatrix {
    /// Code parameters used for the encoding.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.params
    }

    /// Chunk/padding geometry.
    #[must_use]
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// Coded partition stored by worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn partition(&self, i: usize) -> &Matrix {
        &self.partitions[i]
    }

    /// All partitions, indexed by worker.
    #[must_use]
    pub fn partitions(&self) -> &[Matrix] {
        &self.partitions
    }

    /// Per-worker stored bytes (each worker holds one partition).
    #[must_use]
    pub fn bytes_per_worker(&self) -> u64 {
        self.partitions.first().map_or(0, Matrix::payload_bytes)
    }

    /// Computes worker `i`'s result for `chunk` given input `x` — the
    /// numeric work a worker performs when assigned that chunk.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or mismatched `x` length.
    #[must_use]
    pub fn worker_compute_chunk(
        &self,
        worker: usize,
        chunk: usize,
        x: &Vector,
    ) -> WorkerChunkResult {
        let range = self.layout.chunk_range_in_partition(chunk);
        let values = self.partitions[worker]
            .matvec_rows(x, range.start, range.end)
            .into_vec();
        WorkerChunkResult::new(worker, chunk, values)
    }

    /// Computes worker `i`'s results for every chunk in `chunks`.
    #[must_use]
    pub fn worker_compute_chunks(
        &self,
        worker: usize,
        chunks: &[usize],
        x: &Vector,
    ) -> Vec<WorkerChunkResult> {
        chunks
            .iter()
            .map(|&c| self.worker_compute_chunk(worker, c, x))
            .collect()
    }

    /// Multi-RHS variant of [`Self::worker_compute_chunk`]: computes the
    /// chunk's rows against every member of a stacked batch in one
    /// cache-blocked pass over the stored partition — the stacked matvec
    /// a batch round dispatches, where `m` small jobs sharing this
    /// encoding ride one task. The kernel
    /// ([`Matrix::matvec_multi_rows`]) tiles members so each partition
    /// row is loaded once per member tile instead of once per member.
    ///
    /// Returns one contiguous [`MultiChunkResult`] block
    /// (`rows_per_chunk × members`, member-minor) — the wire format the
    /// stacked decoder consumes directly. Every member's column is
    /// bit-identical to [`Self::worker_compute_chunk`] on that member
    /// alone (same dot-product evaluation order), which is what keeps
    /// batched and unbatched decode outputs comparable at machine
    /// precision.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or mismatched input length.
    #[must_use]
    pub fn worker_compute_chunk_multi(
        &self,
        worker: usize,
        chunk: usize,
        xs: &MultiVector,
    ) -> MultiChunkResult {
        let range = self.layout.chunk_range_in_partition(chunk);
        let block = self.partitions[worker].matvec_multi_rows(xs, range.start, range.end);
        MultiChunkResult::new(worker, chunk, xs.count(), block.into_flat())
    }

    /// Computes worker `i`'s stacked blocks for every chunk in `chunks`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::worker_compute_chunk_multi`].
    #[must_use]
    pub fn worker_compute_chunks_multi(
        &self,
        worker: usize,
        chunks: &[usize],
        xs: &MultiVector,
    ) -> Vec<MultiChunkResult> {
        chunks
            .iter()
            .map(|&c| self.worker_compute_chunk_multi(worker, c, xs))
            .collect()
    }

    /// Thread-parallel variant of [`Self::worker_compute_chunk`]: the
    /// chunk's rows are split across `threads` OS threads via
    /// [`s2c2_linalg::parallel::par_matvec_rows`], so one simulated
    /// worker's matvec stops being single-threaded on the hot path.
    /// Numerically identical to the sequential form.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, mismatched `x` length, or
    /// `threads == 0`.
    #[must_use]
    pub fn worker_compute_chunk_par(
        &self,
        worker: usize,
        chunk: usize,
        x: &Vector,
        threads: usize,
    ) -> WorkerChunkResult {
        let range = self.layout.chunk_range_in_partition(chunk);
        let values = s2c2_linalg::parallel::par_matvec_rows(
            &self.partitions[worker],
            x,
            range.start,
            range.end,
            threads,
        )
        .into_vec();
        WorkerChunkResult::new(worker, chunk, values)
    }

    /// Thread-parallel variant of [`Self::worker_compute_chunks`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::worker_compute_chunk_par`].
    #[must_use]
    pub fn worker_compute_chunks_par(
        &self,
        worker: usize,
        chunks: &[usize],
        x: &Vector,
        threads: usize,
    ) -> Vec<WorkerChunkResult> {
        chunks
            .iter()
            .map(|&c| self.worker_compute_chunk_par(worker, c, x, threads))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_linalg::assert_slices_close;

    fn data_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 23) as f64 - 11.0)
    }

    fn full_responses(
        enc: &EncodedMatrix,
        workers: &[usize],
        x: &Vector,
    ) -> Vec<WorkerChunkResult> {
        let chunks: Vec<usize> = (0..enc.layout().chunks_per_partition).collect();
        workers
            .iter()
            .flat_map(|&w| enc.worker_compute_chunks(w, &chunks, x))
            .collect()
    }

    #[test]
    fn params_helpers() {
        let p = MdsParams::new(12, 10);
        assert_eq!(p.straggler_tolerance(), 2);
        assert!((p.storage_overhead() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn parallel_worker_compute_matches_sequential() {
        let a = data_matrix(960, 14);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let x = Vector::from_fn(14, |i| 0.5 + (i as f64).cos());
        let chunks = vec![0usize, 2];
        let seq = enc.worker_compute_chunks(1, &chunks, &x);
        for threads in [1, 2, 4] {
            let par = enc.worker_compute_chunks_par(1, &chunks, &x, threads);
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(seq.iter()) {
                assert_eq!(p.worker, s.worker);
                assert_eq!(p.chunk, s.chunk);
                assert_slices_close(&p.values, &s.values, 1e-12);
            }
        }
    }

    #[test]
    fn multi_rhs_compute_matches_single_bitwise() {
        let a = data_matrix(96, 9);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        // 5 members exercises a full RHS tile plus a remainder.
        let vs: Vec<Vector> = (0..5)
            .map(|j| Vector::from_fn(9, |i| (i as f64 * 0.3 + j as f64).sin()))
            .collect();
        let refs: Vec<&Vector> = vs.iter().collect();
        let xs = MultiVector::from_vectors(&refs);
        for worker in 0..6 {
            for chunk in 0..3 {
                let stacked = enc.worker_compute_chunk_multi(worker, chunk, &xs);
                assert_eq!(stacked.worker, worker);
                assert_eq!(stacked.chunk, chunk);
                assert_eq!(stacked.members, 5);
                for (j, x) in vs.iter().enumerate() {
                    let single = enc.worker_compute_chunk(worker, chunk, x);
                    // Bit-identical, not merely close: the stacked kernel
                    // preserves the single path's dot-product order.
                    assert_eq!(stacked.member_values(j), single.values);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn multi_rhs_rejects_mismatched_input_length() {
        let a = data_matrix(24, 3);
        let code = MdsCode::new(MdsParams::new(3, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let xs = MultiVector::zeros(2, 5);
        let _ = enc.worker_compute_chunk_multi(0, 0, &xs);
    }

    #[test]
    fn stacked_decode_matches_single_decode_bitwise() {
        let a = data_matrix(72, 6);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let vs: Vec<Vector> = (0..4)
            .map(|j| Vector::from_fn(6, |i| (i as f64 * 0.7 - j as f64).cos()))
            .collect();
        let refs: Vec<&Vector> = vs.iter().collect();
        let xs = MultiVector::from_vectors(&refs);
        // Mixed coverage with parity workers involved (worker 1 missing).
        let workers = [0usize, 2, 3, 4];
        let blocks: Vec<MultiChunkResult> = workers
            .iter()
            .flat_map(|&w| enc.worker_compute_chunks_multi(w, &[0, 1, 2], &xs))
            .collect();
        let outs = code.decode_matvec_multi(enc.layout(), &blocks).unwrap();
        assert_eq!(outs.len(), 4);
        for (j, x) in vs.iter().enumerate() {
            // Per-member single decode over the same responses.
            let singles: Vec<WorkerChunkResult> = blocks
                .iter()
                .map(|b| WorkerChunkResult::new(b.worker, b.chunk, b.member_values(j)))
                .collect();
            let single = code.decode_matvec(enc.layout(), &singles).unwrap();
            // The stacked core performs identical per-member operations.
            assert_eq!(outs[j].as_slice(), single.as_slice());
            assert_slices_close(outs[j].as_slice(), a.matvec(x).as_slice(), 1e-8);
        }
    }

    #[test]
    fn stacked_decode_empty_reports_not_enough() {
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let layout = ChunkLayout::new(40, 2, 2).unwrap();
        let err = code.decode_matvec_multi(&layout, &[]).unwrap_err();
        assert_eq!(
            err,
            CodingError::NotEnoughResponses {
                chunk: 0,
                got: 0,
                need: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "require 0 < k <= n")]
    fn params_rejects_bad_k() {
        let _ = MdsParams::new(3, 4);
    }

    #[test]
    fn invalid_params_error() {
        assert!(MdsCode::new(MdsParams { n: 3, k: 0 }).is_err());
        assert!(MdsCode::new(MdsParams { n: 3, k: 4 }).is_err());
    }

    #[test]
    fn generator_rows_systematic_and_parity() {
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        assert_eq!(code.generator_row(0), vec![1.0, 0.0]);
        assert_eq!(code.generator_row(1), vec![0.0, 1.0]);
        // Parity rows are dense rows of the seeded random parity block.
        assert!(code.generator_row(2).iter().all(|&v| v != 0.0));
        assert_ne!(code.generator_row(2), code.generator_row(3));
    }

    /// The sequential encoder the row-range split replaced, written
    /// element by element: systematic blocks copied, each parity element
    /// accumulated over `j` ascending from zero, padding rows skipped.
    fn reference_encode(code: &MdsCode, a: &Matrix, chunks: usize) -> Vec<Matrix> {
        let MdsParams { n, k } = code.params();
        let prow = ChunkLayout::new(a.rows(), k, chunks)
            .unwrap()
            .partition_rows();
        let row = |r: usize| (r < a.rows()).then(|| a.row(r));
        let systematic = (0..k).map(|i| {
            Matrix::from_fn(prow, a.cols(), |r, c| {
                row(i * prow + r).map_or(0.0, |s| s[c])
            })
        });
        let parity = (0..n - k).map(|p| {
            Matrix::from_fn(prow, a.cols(), |r, c| {
                let mut acc = 0.0;
                for j in 0..k {
                    if let Some(s) = row(j * prow + r) {
                        acc += code.parity.get(p, j) * s[c];
                    }
                }
                acc
            })
        });
        systematic.chain(parity).collect()
    }

    fn bits(parts: &[Matrix]) -> Vec<Vec<u64>> {
        parts
            .iter()
            .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn encode_is_the_sequential_encode_at_every_thread_count() {
        // (rows, cols, n, k, chunks): rows not divisible by k·chunks,
        // n = k, one column, one row — each past the spawn cutoff in at
        // least one orientation, and partitions with fewer rows than
        // threads.
        let cases = [
            (50, 7, 6, 4, 3),
            (1_001, 37, 7, 5, 3),
            (600, 60, 4, 4, 3),
            (40_000, 1, 6, 4, 5),
            (3, 9_000, 5, 3, 2),
        ];
        for (rows, cols, n, k, chunks) in cases {
            let a = Matrix::from_fn(rows, cols, |r, c| {
                ((r * 31 + c * 17) % 23) as f64 / 7.0 - 1.5
            });
            let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
            let expect_a = bits(&reference_encode(&code, &a, chunks));
            let expect_at = bits(&reference_encode(&code, &a.transpose(), chunks));
            for threads in [1, 2, 3, 7] {
                let label = format!("{rows} x {cols}, ({n}, {k}, {chunks}), {threads} threads");
                let enc = code
                    .encode_with_threads(Source::Rows(&a), chunks, threads)
                    .unwrap();
                assert_eq!(bits(enc.partitions()), expect_a, "A, {label}");
                let enc = code
                    .encode_with_threads(Source::Columns(&a), chunks, threads)
                    .unwrap();
                assert_eq!(bits(enc.partitions()), expect_at, "Aᵀ, {label}");
            }
        }
    }

    #[test]
    fn encode_transpose_is_encode_of_the_transpose() {
        let a = data_matrix(97, 130);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let direct = code.encode_transpose(&a, 3).unwrap();
        let via = code.encode(&a.transpose(), 3).unwrap();
        assert_eq!(direct.layout(), via.layout());
        assert_eq!(bits(direct.partitions()), bits(via.partitions()));
        // ... and it decodes to Aᵀ·x.
        let x = Vector::from_fn(97, |i| (i as f64 * 0.1).sin());
        let resp = full_responses(&direct, &[1, 3, 4, 5], &x);
        let y = code.decode_matvec(direct.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.transpose().matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn encode_systematic_partitions_match_blocks() {
        let a = data_matrix(40, 6);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        assert_eq!(enc.partition(0), &a.row_block(0, 20));
        assert_eq!(enc.partition(1), &a.row_block(20, 40));
        // Parity for (4,2) first parity node: weighted sum of both blocks.
        let g = code.generator_row(2);
        let mut expect = a.row_block(0, 20);
        expect.scale(g[0]);
        expect.axpy(g[1], &a.row_block(20, 40));
        assert!(enc.partition(2).max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn decode_from_systematic_workers_only() {
        let a = data_matrix(60, 5);
        let x = Vector::from_fn(5, |i| 1.0 + i as f64);
        let code = MdsCode::new(MdsParams::new(5, 3)).unwrap();
        let enc = code.encode(&a, 4).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn decode_from_any_k_of_n() {
        let a = data_matrix(48, 7);
        let x = Vector::from_fn(7, |i| (i as f64 * 0.7).cos());
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let expect = a.matvec(&x);
        // Every 4-subset of 6 workers must decode.
        for w0 in 0..6 {
            for w1 in w0 + 1..6 {
                for w2 in w1 + 1..6 {
                    for w3 in w2 + 1..6 {
                        let resp = full_responses(&enc, &[w0, w1, w2, w3], &x);
                        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
                        assert_slices_close(y.as_slice(), expect.as_slice(), 1e-8);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_mixed_coverage_per_chunk() {
        // Different chunks covered by different worker subsets — the exact
        // situation S2C2 scheduling creates.
        let a = data_matrix(36, 4);
        let x = Vector::from_fn(4, |i| i as f64 - 1.5);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let mut resp = Vec::new();
        // chunk 0: workers 0,1 (systematic); chunk 1: 0,3; chunk 2: 2,3.
        for (chunk, ws) in [(0usize, [0usize, 1]), (1, [0, 3]), (2, [2, 3])] {
            for w in ws {
                resp.push(enc.worker_compute_chunk(w, chunk, &x));
            }
        }
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn decode_with_padding() {
        // 50 rows with k=4, chunks=3 pads to 60.
        let a = data_matrix(50, 3);
        let x = Vector::from_fn(3, |i| 2.0 - i as f64);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        assert_eq!(enc.layout().padded_rows, 60);
        let resp = full_responses(&enc, &[1, 2, 4, 5], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_eq!(y.len(), 50);
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn paper_configurations_roundtrip() {
        // The exact (n,k) pairs used in the paper's evaluation.
        let x_cols = 8;
        for (n, k) in [
            (12usize, 10usize),
            (12, 9),
            (12, 6),
            (10, 7),
            (9, 7),
            (8, 7),
            (50, 40),
        ] {
            let a = data_matrix(2 * n * k, x_cols);
            let x = Vector::from_fn(x_cols, |i| (i as f64).sin() + 1.5);
            let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
            let enc = code.encode(&a, 2).unwrap();
            // Slowest n-k workers ignored: use the *last* k workers (worst
            // case: all parity workers involved).
            let workers: Vec<usize> = (n - k..n).collect();
            let resp = full_responses(&enc, &workers, &x);
            let y = code.decode_matvec(enc.layout(), &resp).unwrap();
            assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        }
    }

    #[test]
    fn not_enough_responses_is_reported() {
        let a = data_matrix(40, 3);
        let x = Vector::filled(3, 1.0);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let mut resp = full_responses(&enc, &[0, 1], &x);
        // Remove one response from chunk 1.
        resp.retain(|r| !(r.chunk == 1 && r.worker == 1));
        let err = code.decode_matvec(enc.layout(), &resp).unwrap_err();
        assert_eq!(
            err,
            CodingError::NotEnoughResponses {
                chunk: 1,
                got: 1,
                need: 2
            }
        );
    }

    #[test]
    fn extra_responses_are_ignored() {
        let a = data_matrix(40, 3);
        let x = Vector::filled(3, 0.5);
        let code = MdsCode::new(MdsParams::new(5, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2, 3, 4], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn n_equals_k_degenerates_to_uncoded() {
        let a = data_matrix(30, 4);
        let x = Vector::filled(4, 2.0);
        let code = MdsCode::new(MdsParams::new(3, 3)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn decode_flops_estimate_monotone_in_missing() {
        let code = MdsCode::new(MdsParams::new(10, 7)).unwrap();
        let layout = ChunkLayout::new(700, 7, 10).unwrap();
        let f0 = code.decode_flops_estimate(&layout, 0.0);
        let f1 = code.decode_flops_estimate(&layout, 1.0);
        let f3 = code.decode_flops_estimate(&layout, 3.0);
        assert!(f0 <= f1 && f1 < f3);
    }
}
