//! Systematic `(n, k)`-MDS codes for linear (matrix–vector) computations.
//!
//! The data matrix `A` is split into `k` row blocks `A_0 … A_{k−1}`; worker
//! `i < k` stores `A_i` unchanged (systematic part) and worker `i ≥ k`
//! stores the combination `Σ_j P[i−k][j] · A_j` (parity part). The code is
//! MDS iff every square submatrix of `P` is nonsingular, in which case
//! *any* `k` of the `n` per-chunk results reconstruct that chunk of `A·x`.
//!
//! **One copy of the data.** An [`EncodedMatrix`] holds the source matrix
//! by [`Arc`] and stores only the `n − k` parity partitions: a systematic
//! worker's partition is `A`'s own rows (or, for an encoding of `Aᵀ`,
//! `A`'s own columns), read in place. Every response and every partition
//! is bit-identical to what a materialized copy would give.
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

use crate::chunks::{group_blocks_by_chunk, ChunkLayout, MultiChunkResult};
use crate::error::CodingError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2c2_linalg::multivector::ROW_BLOCK_ELEMS;
use s2c2_linalg::parallel::{host_threads, par_for_each_mut, par_map, should_spawn};
use s2c2_linalg::{IntoShared, LuFactors, Matrix, MultiVector, Vector};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

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

/// The matrix an encoding's systematic partitions are, held by
/// reference count: the encoding stores no copy of it.
#[derive(Debug, Clone)]
enum Source {
    /// `A` itself: systematic row `r` is row `r` of the matrix.
    Rows(Arc<Matrix>),
    /// `Aᵀ`: systematic row `r` is column `r` of the matrix.
    Columns(Arc<Matrix>),
}

impl Source {
    /// `(rows, cols)` of the matrix being encoded.
    fn shape(&self) -> (usize, usize) {
        match self {
            Source::Rows(a) => (a.rows(), a.cols()),
            Source::Columns(a) => (a.cols(), a.rows()),
        }
    }
}

/// Rows `[begin, end)` of every parity partition, in worker order: the
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
    /// The encoding keeps `a` itself as its systematic partitions — row
    /// blocks of (zero-padded) `A`, read in place — and stores only the
    /// `n − k` parity partitions: sums of all `k` blocks weighted by the
    /// worker's row of the seeded random parity block. An owned or
    /// shared matrix is kept without a copy; a borrowed one is copied
    /// once ([`IntoShared`]).
    ///
    /// The parity partitions are allocated once on the caller's thread
    /// and filled in place, row range by row range, on every host core
    /// once the matrix is large enough; the result is bit-identical for
    /// any core count.
    ///
    /// # Errors
    ///
    /// Propagates layout errors for degenerate shapes.
    pub fn encode(
        &self,
        a: impl IntoShared,
        chunks_per_partition: usize,
    ) -> Result<EncodedMatrix, CodingError> {
        self.encode_with_threads(
            Source::Rows(a.into_shared()),
            chunks_per_partition,
            host_threads(),
        )
    }

    /// Encodes `Aᵀ` without materializing it: every partition is
    /// bit-identical to `self.encode(&a.transpose(), chunks_per_partition)`'s.
    ///
    /// The encoding keeps `a` as its systematic partitions (systematic
    /// row `r` is column `r` of `a`) and stores only the parity
    /// partitions, which one pass fills from tiles of `a`'s rows
    /// transposed into a small per-thread scratch — so the backward
    /// product of a gradient method costs one encoding, no `rows × cols`
    /// temporary and no second copy of the data.
    ///
    /// # Errors
    ///
    /// Propagates layout errors for degenerate shapes.
    pub fn encode_transpose(
        &self,
        a: impl IntoShared,
        chunks_per_partition: usize,
    ) -> Result<EncodedMatrix, CodingError> {
        self.encode_with_threads(
            Source::Columns(a.into_shared()),
            chunks_per_partition,
            host_threads(),
        )
    }

    /// The encoder behind [`Self::encode`] and [`Self::encode_transpose`]
    /// on up to `threads` OS threads; every output bit is the same for
    /// any `threads`.
    fn encode_with_threads(
        &self,
        source: Source,
        chunks_per_partition: usize,
        threads: usize,
    ) -> Result<EncodedMatrix, CodingError> {
        let (rows, cols) = source.shape();
        let layout = ChunkLayout::new(rows, self.params.k, chunks_per_partition)?;
        let prow = layout.partition_rows();
        let n = self.params.n;
        let mut parity: Vec<Matrix> = (self.params.k..n)
            .map(|_| Matrix::zeros(prow, cols))
            .collect();

        // One work item per contiguous range of partition rows, holding
        // that range of every parity partition; the ranges split as
        // `par_map` splits, so each thread owns exactly one.
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
                parts: Vec::with_capacity(parity.len()),
            })
            .collect();
        for part in &mut parity {
            let mut rest = part.as_mut_slice();
            for range in &mut ranges {
                let (head, tail) =
                    std::mem::take(&mut rest).split_at_mut((range.end - range.begin) * cols);
                range.parts.push(head);
                rest = tail;
            }
        }
        par_for_each_mut(&mut ranges, threads, |range| {
            self.fill_range(&source, rows, prow, cols, range);
        });
        drop(ranges);

        Ok(EncodedMatrix {
            params: self.params,
            layout,
            source,
            parity,
        })
    }

    /// Fills one row range of every parity partition from the systematic
    /// rows in `source` (rows at or past `rows`, the original count, are
    /// zero padding and contribute nothing: they are skipped, not added
    /// as zeros). Per output element the `k` contributions accumulate in
    /// ascending-`j` order from zero, whatever the orientation, so both
    /// equal the element-by-element sequential encode bit for bit.
    fn fill_range(
        &self,
        source: &Source,
        rows: usize,
        prow: usize,
        cols: usize,
        range: &mut RowRange<'_>,
    ) {
        let k = self.params.k;
        let (begin, end) = (range.begin, range.end);
        let parity = &mut range.parts;
        if parity.is_empty() {
            return;
        }
        // Local rows [0, valid(j)) of systematic block j hold data.
        let valid = |j: usize| rows.saturating_sub(j * prow + begin).min(end - begin);

        match source {
            Source::Rows(a) => {
                // One cache-blocked pass over A's rows instead of a full
                // sweep per parity node. Row blocks are sized so the
                // source rows plus every parity destination block stay
                // resident, so each data element is read from memory
                // once rather than `n − k` times.
                let block_rows =
                    (ROW_BLOCK_ELEMS / (cols.max(1) * (parity.len() + 1))).clamp(1, prow);
                let mut b = 0;
                while b < end - begin {
                    let bend = (b + block_rows).min(end - begin);
                    for j in 0..k {
                        for r in b..bend.min(valid(j)) {
                            let src = a.row(j * prow + begin + r);
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
            Source::Columns(a) => {
                // Systematic row r of block j is column j·prow + begin + r
                // of `a`. A tile of `a`'s rows (the parity partitions'
                // columns [t0, t0 + tile)) is transposed into `scratch`,
                // block-major, then every parity row's tile accumulates
                // from it. `a` is read once, row by row; the scratch
                // holds about ROW_BLOCK_ELEMS values.
                let m = end - begin;
                let tile = (ROW_BLOCK_ELEMS / (k * m).max(1)).clamp(1, cols.max(1));
                let mut scratch = vec![0.0; k * m * tile];
                for t0 in (0..cols).step_by(tile) {
                    let tb = tile.min(cols - t0);
                    for ti in 0..tb {
                        let row = a.row(t0 + ti);
                        // valid(j) only falls as j grows.
                        for j in (0..k).take_while(|&j| valid(j) > 0) {
                            let first = j * prow + begin;
                            for (r, &v) in row[first..first + valid(j)].iter().enumerate() {
                                scratch[(j * m + r) * tile + ti] = v;
                            }
                        }
                    }
                    for r in 0..m {
                        for (p, part) in parity.iter_mut().enumerate() {
                            let dst = &mut part[r * cols + t0..r * cols + t0 + tb];
                            for j in (0..k).filter(|&j| r < valid(j)) {
                                let w = self.parity.get(p, j);
                                let src = &scratch[(j * m + r) * tile..][..tb];
                                for (d, s) in dst.iter_mut().zip(src) {
                                    *d += w * s;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Decodes `A·x_m` for every member of a stacked batch from
    /// per-chunk worker replies; a single input is decoded from
    /// one-member blocks.
    ///
    /// Every chunk index must be covered by at least `k` distinct
    /// workers, and every block must carry the same member count. Of a
    /// chunk's replies the decoder keeps the `k` with the lowest worker
    /// ids — systematic first, since those decode for free — whatever
    /// order they arrived in, and ignores the rest: one pass files the
    /// replies into a `(chunk, worker)` slot table, and reading a chunk's
    /// slots upward yields them in that order. Systematic blocks are
    /// copied into place. For the missing ones, the right-hand side of a
    /// parity reply is its block minus `P[p][j] · block_j` for every kept
    /// systematic `j`, ascending, over the whole contiguous block; the
    /// generator subsystem is LU-factored once per erasure pattern (the
    /// missing blocks and the parity workers kept) per call, and solved
    /// row-wise over the whole stacked block
    /// ([`LuFactors::solve_matrix`]). Every step is a plain multiply and
    /// subtract, never a fused `mul_add`, in the order decoding each
    /// value alone would take, so each member's output is bit-identical
    /// to decoding that member's one-member blocks alone, on every host.
    ///
    /// Returns one output vector per member, truncated to the original
    /// row count.
    ///
    /// # Errors
    ///
    /// * [`CodingError::InvalidParams`] if `layout` does not split the
    ///   rows into this code's `k` data partitions.
    /// * [`CodingError::NotEnoughResponses`] if any chunk has < `k` results.
    /// * [`CodingError::MalformedResponse`] / [`CodingError::DuplicateResponse`]
    ///   for inconsistent inputs, including mixed member counts.
    pub fn decode_matvec_multi(
        &self,
        layout: &ChunkLayout,
        responses: &[MultiChunkResult],
    ) -> Result<Vec<Vector>, CodingError> {
        let k = self.params.k;
        if layout.data_partitions != k {
            return Err(CodingError::InvalidParams(format!(
                "layout has {} data partitions, the code has k = {k}",
                layout.data_partitions
            )));
        }
        let Some(first) = responses.first() else {
            return Err(CodingError::NotEnoughResponses {
                chunk: 0,
                got: 0,
                need: k,
            });
        };
        let members = first.members;
        let rpc = layout.rows_per_chunk();
        let prow = layout.partition_rows();
        let padded = layout.padded_rows;
        let width = rpc * members;
        let groups = group_blocks_by_chunk(responses, self.params.n, layout, members, rpc)?;

        // Member-major: member `m`'s padded output is
        // `out[m * padded..(m + 1) * padded]`.
        let mut out = vec![0.0; members * padded];
        // Reused across chunks: the kept replies split into systematic
        // and parity ones, the chunk's erasure pattern (the missing
        // blocks, then the parity workers kept), the right-hand side,
        // and one factorization per pattern met so far.
        let mut known: Vec<&MultiChunkResult> = Vec::with_capacity(k);
        let mut parity: Vec<&MultiChunkResult> = Vec::new();
        let mut pattern: Vec<usize> = Vec::new();
        let mut factored: Vec<(Vec<usize>, LuFactors)> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();
        for chunk in 0..layout.chunks_per_partition {
            let got = groups.replies(chunk).count();
            if got < k {
                return Err(CodingError::NotEnoughResponses {
                    chunk,
                    got,
                    need: k,
                });
            }
            // Block `j`'s rows of this chunk start at `j · prow + first`
            // of the padded output.
            let first = chunk * rpc;
            known.clear();
            parity.clear();
            for r in groups.replies(chunk).take(k) {
                if r.worker < k {
                    known.push(r);
                } else {
                    parity.push(r);
                }
            }
            for r in &known {
                scatter_block(
                    &mut out,
                    padded,
                    members,
                    r.worker * prow + first,
                    &r.values,
                );
            }
            if parity.is_empty() {
                continue;
            }

            // `known` ascends, so the missing blocks are its gaps.
            let m = parity.len();
            pattern.clear();
            let mut ids = known.iter().map(|r| r.worker).peekable();
            for j in 0..k {
                if ids.next_if_eq(&j).is_none() {
                    pattern.push(j);
                }
            }
            debug_assert_eq!(pattern.len(), m);
            pattern.extend(parity.iter().map(|r| r.worker));
            let at = match factored.iter().position(|(key, _)| *key == pattern) {
                Some(at) => at,
                None => {
                    let sys = Matrix::from_fn(m, m, |pi, mj| {
                        self.parity.get(pattern[m + pi] - k, pattern[mj])
                    });
                    let lu = LuFactors::factor(&sys)
                        .map_err(|_| CodingError::DecodeSingular { chunk })?;
                    factored.push((pattern.clone(), lu));
                    factored.len() - 1
                }
            };

            // RHS: each parity block minus the known blocks' share of
            // it, one contiguous `rpc × members` row per parity reply.
            rhs.clear();
            for r in &parity {
                let weights = self.parity.row(r.worker - k);
                let start = rhs.len();
                rhs.extend_from_slice(&r.values);
                let row = &mut rhs[start..];
                for s in &known {
                    let w = weights[s.worker];
                    for (d, &v) in row.iter_mut().zip(&s.values) {
                        *d -= w * v;
                    }
                }
            }
            let b = Matrix::from_flat(m, width, std::mem::take(&mut rhs));
            let solved = factored[at].1.solve_matrix(&b);
            rhs = b.into_flat();
            for (mi, &j) in pattern[..m].iter().enumerate() {
                scatter_block(&mut out, padded, members, j * prow + first, solved.row(mi));
            }
        }
        if members == 1 {
            out.truncate(layout.original_rows);
            return Ok(vec![Vector::from(out)]);
        }
        Ok(out
            .chunks_exact(padded)
            .map(|member| Vector::from(member[..layout.original_rows].to_vec()))
            .collect())
    }
}

/// Writes one `rows × members` reply block (member-minor) into every
/// member's padded output, starting at padded row `first`.
fn scatter_block(out: &mut [f64], padded: usize, members: usize, first: usize, block: &[f64]) {
    if members == 1 {
        out[first..first + block.len()].copy_from_slice(block);
        return;
    }
    for (row, values) in block.chunks_exact(members).enumerate() {
        for (m, &v) in values.iter().enumerate() {
            out[m * padded + first + row] = v;
        }
    }
}

/// The result of encoding: the source matrix (the `k` systematic
/// partitions, read in place), the `n − k` parity partitions and the
/// shared layout.
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    params: MdsParams,
    layout: ChunkLayout,
    source: Source,
    /// Parity partition `i` belongs to worker `k + i`.
    parity: Vec<Matrix>,
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

    /// Columns of every coded partition: the length of an input.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.source.shape().1
    }

    /// The matrix the encoding was made from (`A` for [`MdsCode::encode`],
    /// `A` again, not `Aᵀ`, for [`MdsCode::encode_transpose`]): the
    /// encoding holds it, so it lives as long as the encoding does.
    #[must_use]
    pub fn source(&self) -> &Arc<Matrix> {
        match &self.source {
            Source::Rows(a) | Source::Columns(a) => a,
        }
    }

    /// Coded partition stored by worker `i`: borrowed for a parity
    /// worker, materialized from the source (zero padding included) for
    /// a systematic one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn partition(&self, i: usize) -> Cow<'_, Matrix> {
        let k = self.params.k;
        if i >= k {
            return Cow::Borrowed(&self.parity[i - k]);
        }
        let first = i * self.layout.partition_rows();
        let rows = self.layout.original_rows;
        let at = |r: usize| (first + r < rows).then_some(first + r);
        Cow::Owned(match &self.source {
            Source::Rows(a) => Matrix::from_fn(self.layout.partition_rows(), a.cols(), |r, c| {
                at(r).map_or(0.0, |row| a.get(row, c))
            }),
            Source::Columns(a) => {
                Matrix::from_fn(self.layout.partition_rows(), a.rows(), |r, c| {
                    at(r).map_or(0.0, |col| a.get(c, col))
                })
            }
        })
    }

    /// The storage the cost model charges each worker: one
    /// `partition_rows × cols` partition of 8-byte values. This is
    /// modelled per-worker storage, not host memory: the encoding itself
    /// holds only the parity partitions beside the shared source.
    #[must_use]
    pub fn bytes_per_worker(&self) -> u64 {
        (self.layout.partition_rows() * self.cols() * 8) as u64
    }

    /// Computes worker `worker`'s reply for `chunk` against every member
    /// of `xs` — the numeric work a worker performs when assigned that
    /// chunk; a single input goes in as [`MultiVector::single`]. A parity
    /// worker reads its stored partition and a systematic worker of an
    /// encoding of `A` reads `A`'s rows, both with the cache-blocked
    /// kernel of [`Matrix::matvec_multi_rows`], which tiles members so
    /// each row is loaded once per member tile instead of once per
    /// member; rows of zero padding answer `0.0`. A systematic worker of
    /// an encoding of `Aᵀ` goes through the column kernel of
    /// [`Self::compute_pairs`].
    ///
    /// Returns one contiguous [`MultiChunkResult`] block
    /// (`rows_per_chunk × members`, member-minor), the format the
    /// decoder consumes as is. Every member's column is bit-identical to
    /// that member's one-member block and to `dot_slices` over the
    /// materialized partition row (same dot-product evaluation order),
    /// which keeps batched and unbatched decode outputs equal bit for
    /// bit.
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
        let k = self.params.k;
        let values = match &self.source {
            _ if worker >= k => {
                let range = self.layout.chunk_range_in_partition(chunk);
                self.parity[worker - k]
                    .matvec_multi_rows(xs, range.start, range.end)
                    .into_flat()
            }
            Source::Rows(a) => {
                let range = self.layout.output_range(worker, chunk);
                let rows = self.layout.original_rows;
                let mut values = a
                    .matvec_multi_rows(xs, range.start.min(rows), range.end.min(rows))
                    .into_flat();
                values.resize(range.len() * xs.count(), 0.0);
                values
            }
            Source::Columns(a) => {
                return self
                    .column_blocks(a, &[(worker, chunk)], xs, 1)
                    .swap_remove(0)
            }
        };
        MultiChunkResult::new(worker, chunk, xs.count(), values)
    }

    /// Computes worker `worker`'s blocks for every chunk in `chunks`
    /// ([`Self::compute_pairs`] on one thread).
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
        let pairs: Vec<(usize, usize)> = chunks.iter().map(|&c| (worker, c)).collect();
        self.compute_pairs(&pairs, xs, 1)
    }

    /// Computes the block of every `(worker, chunk)` pair, in the order
    /// given, on up to `threads` OS threads once the work is large
    /// enough; every block is bit-identical to
    /// [`Self::worker_compute_chunk_multi`]'s for any `threads`.
    ///
    /// The systematic pairs of an encoding of `Aᵀ` are the columns of
    /// `A` they cover, and all of them are computed by one row-streaming
    /// pass over `A` (the column kernel), split between threads by
    /// column range: `A` is read once per call, not once per pair.
    /// Every other pair is an independent row-block product.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::worker_compute_chunk_multi`].
    #[must_use]
    pub fn compute_pairs(
        &self,
        pairs: &[(usize, usize)],
        xs: &MultiVector,
        threads: usize,
    ) -> Vec<MultiChunkResult> {
        let work = pairs.len() * self.layout.rows_per_chunk();
        let threads = if should_spawn(work, self.cols(), threads) {
            threads
        } else {
            1
        };
        let Source::Columns(a) = &self.source else {
            return par_map(pairs, threads, |&(w, c)| {
                self.worker_compute_chunk_multi(w, c, xs)
            });
        };
        let k = self.params.k;
        let (systematic, parity): (Vec<_>, Vec<_>) =
            pairs.iter().copied().partition(|&(w, _)| w < k);
        let mut systematic = self.column_blocks(a, &systematic, xs, threads).into_iter();
        let mut parity = par_map(&parity, threads, |&(w, c)| {
            self.worker_compute_chunk_multi(w, c, xs)
        })
        .into_iter();
        pairs
            .iter()
            .filter_map(|&(w, _)| {
                if w < k {
                    systematic.next()
                } else {
                    parity.next()
                }
            })
            .collect()
    }

    /// The column kernel: the blocks of systematic `pairs` of an
    /// encoding of `Aᵀ`, whose rows are columns of `a`.
    ///
    /// One pass streams `a`'s rows; each thread owns a contiguous range
    /// of the needed columns and keeps, per column and member, the four
    /// lane accumulators of `dot_slices` (over row index mod 4) plus its
    /// tail, summed `s0 + s1 + s2 + s3 + tail` at the end — the
    /// evaluation order of `dot_slices` over the materialized column, so
    /// every value is bit-identical to it at any thread count.
    fn column_blocks(
        &self,
        a: &Matrix,
        pairs: &[(usize, usize)],
        xs: &MultiVector,
        threads: usize,
    ) -> Vec<MultiChunkResult> {
        assert_eq!(xs.len(), a.rows(), "column kernel: dimension mismatch");
        let count = xs.count();
        let cols = a.cols();
        // The columns the pairs read, as sorted disjoint runs.
        let mut wanted: Vec<Range<usize>> = pairs
            .iter()
            .map(|&(w, c)| {
                let range = self.layout.output_range(w, c);
                range.start.min(cols)..range.end.min(cols)
            })
            .filter(|range| !range.is_empty())
            .collect();
        wanted.sort_by_key(|range| range.start);
        // A gap narrower than a cache line of values is computed rather
        // than skipped: its lines are read anyway, and one run sweeps
        // faster than two.
        const GAP: usize = 8;
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(wanted.len());
        for range in wanted {
            match runs.last_mut() {
                Some(last) if range.start <= last.end + GAP => last.end = last.end.max(range.end),
                _ => runs.push(range),
            }
        }
        // Split the runs' columns into equal contiguous parts.
        let total: usize = runs.iter().map(ExactSizeIterator::len).sum();
        let share = total.div_ceil(threads).max(1);
        let mut parts: Vec<Vec<Range<usize>>> = Vec::new();
        let mut part = Vec::new();
        let mut room = share;
        for run in &runs {
            let mut start = run.start;
            while start < run.end {
                let end = run.end.min(start + room);
                part.push(start..end);
                room -= end - start;
                start = end;
                if room == 0 {
                    parts.push(std::mem::take(&mut part));
                    room = share;
                }
            }
        }
        if !part.is_empty() {
            parts.push(part);
        }
        // Per needed column in run order, `count` member values; at most
        // `threads` parts, so each runs on a thread of its own.
        let sums = par_map(&parts, threads, |part| column_dots(a, part, xs)).concat();
        let mut firsts = Vec::with_capacity(runs.len());
        let mut first = 0;
        for run in &runs {
            firsts.push(first);
            first += run.len();
        }
        pairs
            .iter()
            .map(|&(w, c)| {
                let range = self.layout.output_range(w, c);
                let mut values = Vec::with_capacity(range.len() * count);
                for col in range {
                    if col < cols {
                        let i = runs.partition_point(|run| run.end <= col);
                        let at = (firsts[i] + col - runs[i].start) * count;
                        values.extend_from_slice(&sums[at..at + count]);
                    } else {
                        values.resize(values.len() + count, 0.0);
                    }
                }
                MultiChunkResult::new(w, c, count, values)
            })
            .collect()
    }
}

/// `xᵀ·a[:, run]` for every member of `xs` and every column of `runs`,
/// by one pass over `a`'s rows: per column and member, `dot_slices`'s
/// four lane accumulators (row index mod 4) and its tail, summed in its
/// order. Returns `count` values per column, in run order.
fn column_dots(a: &Matrix, runs: &[Range<usize>], xs: &MultiVector) -> Vec<f64> {
    let count = xs.count();
    let width: usize = runs.iter().map(ExactSizeIterator::len).sum();
    let quads = a.rows() / 4;
    // Member-major; per member the lanes s0, s1, s2, s3 and the tail,
    // `width` columns each.
    let mut acc = vec![0.0; count * 5 * width];
    for (m, lanes) in acc.chunks_exact_mut(5 * width).enumerate() {
        let x = xs.member(m);
        let (s0, rest) = lanes.split_at_mut(width);
        let (s1, rest) = rest.split_at_mut(width);
        let (s2, rest) = rest.split_at_mut(width);
        let (s3, tail) = rest.split_at_mut(width);
        // Rows 4q .. 4q + 3 feed lanes 0 .. 3 in one sweep of the runs.
        for q in 0..quads {
            let t = 4 * q;
            let (x0, x1, x2, x3) = (x[t], x[t + 1], x[t + 2], x[t + 3]);
            let (r0, r1, r2, r3) = (a.row(t), a.row(t + 1), a.row(t + 2), a.row(t + 3));
            let mut at = 0;
            for run in runs {
                let n = run.len();
                let (d0, d1) = (&mut s0[at..at + n], &mut s1[at..at + n]);
                let (d2, d3) = (&mut s2[at..at + n], &mut s3[at..at + n]);
                let (v0, v1) = (&r0[run.clone()], &r1[run.clone()]);
                let (v2, v3) = (&r2[run.clone()], &r3[run.clone()]);
                for i in 0..n {
                    d0[i] += v0[i] * x0;
                    d1[i] += v1[i] * x1;
                    d2[i] += v2[i] * x2;
                    d3[i] += v3[i] * x3;
                }
                at += n;
            }
        }
        for (t, &xt) in x.iter().enumerate().skip(4 * quads) {
            let row = a.row(t);
            let mut at = 0;
            for run in runs {
                for (d, v) in tail[at..at + run.len()].iter_mut().zip(&row[run.clone()]) {
                    *d += v * xt;
                }
                at += run.len();
            }
        }
    }
    let mut out = Vec::with_capacity(width * count);
    for i in 0..width {
        for lanes in acc.chunks_exact(5 * width) {
            let lane = |l: usize| lanes[l * width + i];
            out.push(lane(0) + lane(1) + lane(2) + lane(3) + lane(4));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_linalg::assert_slices_close;

    fn data_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 23) as f64 - 11.0)
    }

    /// One-member blocks from `workers` for every chunk.
    fn full_responses(enc: &EncodedMatrix, workers: &[usize], x: &Vector) -> Vec<MultiChunkResult> {
        let chunks: Vec<usize> = (0..enc.layout().chunks_per_partition).collect();
        let xs = MultiVector::single(x);
        workers
            .iter()
            .flat_map(|&w| enc.worker_compute_chunks_multi(w, &chunks, &xs))
            .collect()
    }

    /// Decodes one-member blocks to their one output vector.
    fn decode(
        code: &MdsCode,
        layout: &ChunkLayout,
        responses: &[MultiChunkResult],
    ) -> Result<Vector, CodingError> {
        code.decode_matvec_multi(layout, responses)
            .map(|mut ys| ys.swap_remove(0))
    }

    #[test]
    fn params_helpers() {
        let p = MdsParams::new(12, 10);
        assert_eq!(p.straggler_tolerance(), 2);
        assert!((p.storage_overhead() - 1.2).abs() < 1e-12);
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
                    let single =
                        enc.worker_compute_chunk_multi(worker, chunk, &MultiVector::single(x));
                    let column: Vec<f64> =
                        stacked.values.iter().skip(j).step_by(5).copied().collect();
                    // Bit-identical, not merely close: the stacked kernel
                    // preserves the one-member block's dot-product order.
                    assert_eq!(column, single.values);
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
            // The same workers' one-member blocks for this member alone.
            let single = decode(&code, enc.layout(), &full_responses(&enc, &workers, x)).unwrap();
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

    /// Every partition of `enc`, systematic ones materialized.
    fn partitions(enc: &EncodedMatrix) -> Vec<Matrix> {
        (0..enc.params().n)
            .map(|i| enc.partition(i).into_owned())
            .collect()
    }

    fn bits(parts: &[Matrix]) -> Vec<(usize, usize, Vec<u64>)> {
        parts
            .iter()
            .map(|m| {
                let values = m.as_slice().iter().map(|v| v.to_bits()).collect();
                (m.rows(), m.cols(), values)
            })
            .collect()
    }

    #[test]
    fn encode_is_the_sequential_encode_at_every_thread_count() {
        // (rows, cols, n, k, chunks): rows not divisible by k·chunks
        // (tail padding; transposed, (50, 7) leaves partition 3 all
        // zero), n = k, one column, one row — each past the spawn cutoff
        // in at least one orientation, and partitions with fewer rows
        // than threads.
        let cases = [
            (50, 7, 6, 4, 3),
            (1_001, 37, 7, 5, 3),
            (600, 60, 4, 4, 3),
            (40_000, 1, 6, 4, 5),
            (3, 9_000, 5, 3, 2),
            (130, 97, 9, 6, 4),
        ];
        for (rows, cols, n, k, chunks) in cases {
            let a = Arc::new(Matrix::from_fn(rows, cols, |r, c| {
                ((r * 31 + c * 17) % 23) as f64 / 7.0 - 1.5
            }));
            let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
            let expect_a = bits(&reference_encode(&code, &a, chunks));
            let expect_at = bits(&reference_encode(&code, &a.transpose(), chunks));
            for threads in [1, 2, 3, 7] {
                let label = format!("{rows} x {cols}, ({n}, {k}, {chunks}), {threads} threads");
                let source = Source::Rows(Arc::clone(&a));
                let enc = code.encode_with_threads(source, chunks, threads).unwrap();
                assert_eq!(bits(&partitions(&enc)), expect_a, "A, {label}");
                let source = Source::Columns(Arc::clone(&a));
                let enc = code.encode_with_threads(source, chunks, threads).unwrap();
                assert_eq!(bits(&partitions(&enc)), expect_at, "Aᵀ, {label}");
            }
        }
    }

    #[test]
    fn an_encoding_stores_parity_only_and_shares_its_source() {
        let a = Arc::new(data_matrix(50, 7));
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        for enc in [
            code.encode(Arc::clone(&a), 3).unwrap(),
            code.encode(&a, 3).unwrap(),
            code.encode_transpose(Arc::clone(&a), 3).unwrap(),
            code.encode_transpose(&a, 3).unwrap(),
        ] {
            assert_eq!(enc.parity.len(), 2);
            assert!(Arc::ptr_eq(enc.source(), &a));
            assert!(matches!(enc.partition(4), Cow::Borrowed(_)));
            assert!(matches!(enc.partition(0), Cow::Owned(_)));
        }
        // Borrowing a plain matrix is the one copy.
        let copied = code.encode(&*a, 3).unwrap();
        assert!(!Arc::ptr_eq(copied.source(), &a));
        assert_eq!(**copied.source(), *a);
        assert_eq!(Arc::strong_count(&a), 1);
    }

    #[test]
    fn columns_kernel_matches_materialized_rows() {
        use s2c2_linalg::vector::dot_slices;
        // Rows of A (the dot length) cover every remainder mod 4; 29
        // columns under (7, 4) with 3 chunks pad to 36, so worker 3
        // holds 2 real rows and 7 of padding (its chunk 2 all padding).
        for rows in [40, 41, 42, 43] {
            let a = Matrix::from_fn(rows, 29, |r, c| ((r * 13 + c * 7) % 17) as f64 / 3.0 - 2.5);
            let at = a.transpose();
            let code = MdsCode::new(MdsParams::new(7, 4)).unwrap();
            let enc = code.encode_transpose(&a, 3).unwrap();
            let rpc = enc.layout().rows_per_chunk();
            // Out of order, adjacent and scattered chunks, parity mixed in.
            let pairs = [
                (2, 1),
                (0, 0),
                (5, 2),
                (0, 2),
                (3, 0),
                (1, 1),
                (0, 1),
                (6, 0),
                (3, 2),
                (2, 2),
            ];
            for members in [1, 2, 4, 5] {
                let xs = MultiVector::from_fn(members, rows, |m, t| {
                    ((m * 5 + t * 3) % 11) as f64 / 4.0 - 1.2
                });
                let expect = |(w, c): (usize, usize)| -> Vec<u64> {
                    let mut values = Vec::new();
                    for r in 0..rpc {
                        let row = enc.partition(w).row(c * rpc + r).to_vec();
                        if w < 4 {
                            let e = w * enc.layout().partition_rows() + c * rpc + r;
                            let source = if e < 29 {
                                at.row(e).to_vec()
                            } else {
                                vec![0.0; rows]
                            };
                            assert_eq!(row, source);
                        }
                        values.extend((0..members).map(|m| dot_slices(&row, xs.member(m))));
                    }
                    values.iter().map(|v| v.to_bits()).collect()
                };
                let label = format!("{rows} rows, {members} members");
                for threads in [1, 3] {
                    let got = enc.compute_pairs(&pairs, &xs, threads);
                    for (block, &pair) in got.iter().zip(&pairs) {
                        assert_eq!((block.worker, block.chunk), pair);
                        let bits: Vec<u64> = block.values.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, expect(pair), "{pair:?}, {threads} threads, {label}");
                    }
                }
                for &(w, c) in &pairs {
                    let block = enc.worker_compute_chunk_multi(w, c, &xs);
                    let bits: Vec<u64> = block.values.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, expect((w, c)), "({w}, {c}) alone, {label}");
                }
                let chunks = enc.worker_compute_chunks_multi(1, &[2, 0, 1], &xs);
                for (block, c) in chunks.iter().zip([2, 0, 1]) {
                    let bits: Vec<u64> = block.values.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, expect((1, c)), "worker 1 chunk {c}, {label}");
                }
            }
        }
    }

    #[test]
    fn compute_pairs_is_per_pair_compute_on_rows() {
        let a = data_matrix(50, 9);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let xs = MultiVector::from_fn(3, 9, |m, i| (m * 9 + i) as f64 * 0.1 - 1.0);
        let pairs: Vec<(usize, usize)> = (0..6)
            .rev()
            .flat_map(|w| (0..3).map(move |c| (w, c)))
            .collect();
        let each: Vec<MultiChunkResult> = pairs
            .iter()
            .map(|&(w, c)| enc.worker_compute_chunk_multi(w, c, &xs))
            .collect();
        for threads in [1, 2, 5] {
            assert_eq!(enc.compute_pairs(&pairs, &xs, threads), each);
        }
        // Worker 3's last chunk is padding: 50 rows in 4 × 15.
        let padding = enc.worker_compute_chunk_multi(3, 2, &xs);
        assert!(padding.values.iter().all(|&v| v.to_bits() == 0));
    }

    #[test]
    fn encode_transpose_is_encode_of_the_transpose() {
        let a = data_matrix(97, 130);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        for threads in [1, 3] {
            let source = Source::Columns(Arc::new(a.clone()));
            let direct = code.encode_with_threads(source, 3, threads).unwrap();
            let via = code.encode(a.transpose(), 3).unwrap();
            assert_eq!(direct.layout(), via.layout());
            assert_eq!(direct.cols(), via.cols());
            let expect = bits(&reference_encode(&code, &a.transpose(), 3));
            assert_eq!(bits(&partitions(&direct)), expect, "{threads} threads");
            assert_eq!(bits(&partitions(&via)), expect, "{threads} threads");
        }
        let direct = code.encode_transpose(&a, 3).unwrap();
        // ... and it decodes to Aᵀ·x.
        let x = Vector::from_fn(97, |i| (i as f64 * 0.1).sin());
        let resp = full_responses(&direct, &[1, 3, 4, 5], &x);
        let y = decode(&code, direct.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.transpose().matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn encode_systematic_partitions_match_blocks() {
        let a = data_matrix(40, 6);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        assert_eq!(*enc.partition(0), a.row_block(0, 20));
        assert_eq!(*enc.partition(1), a.row_block(20, 40));
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
        let y = decode(&code, enc.layout(), &resp).unwrap();
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
                        let y = decode(&code, enc.layout(), &resp).unwrap();
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
        let xs = MultiVector::single(&x);
        let mut resp = Vec::new();
        // chunk 0: workers 0,1 (systematic); chunk 1: 0,3; chunk 2: 2,3.
        for (chunk, ws) in [(0usize, [0usize, 1]), (1, [0, 3]), (2, [2, 3])] {
            for w in ws {
                resp.push(enc.worker_compute_chunk_multi(w, chunk, &xs));
            }
        }
        let y = decode(&code, enc.layout(), &resp).unwrap();
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
        let y = decode(&code, enc.layout(), &resp).unwrap();
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
            let y = decode(&code, enc.layout(), &resp).unwrap();
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
        let err = decode(&code, enc.layout(), &resp).unwrap_err();
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
        let y = decode(&code, enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn n_equals_k_degenerates_to_uncoded() {
        let a = data_matrix(30, 4);
        let x = Vector::filled(4, 2.0);
        let code = MdsCode::new(MdsParams::new(3, 3)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2], &x);
        let y = decode(&code, enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn decode_rejects_a_layout_of_another_k() {
        // A (4, 2) code over 12 rows in 2 chunks: 3 rows per chunk. Both
        // foreign layouts have 3 rows per chunk too, so every block
        // passes the payload check; one used to panic in
        // `output_range`, the other to return 18 rows, 6 of them zeros.
        let a = data_matrix(12, 3);
        let x = Vector::filled(3, 1.0);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2], &x);
        let y = decode(&code, enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
        for (rows, partitions, chunks) in [(12, 1, 4), (18, 3, 2)] {
            let foreign = ChunkLayout::new(rows, partitions, chunks).unwrap();
            assert_eq!(foreign.rows_per_chunk(), 3);
            let got = decode(&code, &foreign, &resp);
            assert!(
                matches!(got, Err(CodingError::InvalidParams(_))),
                "({rows}, {partitions}, {chunks}): {got:?}"
            );
        }
    }
}
