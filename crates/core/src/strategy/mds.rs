//! Conventional `(n, k)`-MDS coded computation (Lee et al.), the paper's
//! primary coded baseline — and, as its degenerate `(n, n)` case, the
//! uncoded even split of §2.
//!
//! Every worker computes its *entire* coded partition every iteration; the
//! master uses the fastest `k` responses and ignores the rest. Robust to
//! `n − k` stragglers, but (a) each worker does `1/k`-of-the-data work
//! regardless of cluster health, and (b) the slowest `n − k` workers'
//! effort is always wasted — the two inefficiencies S²C² removes.
//!
//! This module also owns the numeric tail every coded-matvec scheduler
//! shares (compute the chosen responses, decode, charge the decode) and
//! the exact product [`MatvecStrategy::product`] computes from the
//! systematic partitions; the round itself is planned by
//! [`round::plan_round`](crate::strategy::round::plan_round).

use crate::alloc::{allocate_full, ChunkAssignment};
use crate::error::S2c2Error;
use crate::strategy::round::{plan_round, Feedback, RoundCost, WorkUnit};
use crate::strategy::{check_input, IterationOutcome, MatvecStrategy};
use s2c2_cluster::ClusterSim;
use s2c2_coding::cache::CachedEncoding;
use s2c2_coding::chunks::WorkerChunkResult;
use s2c2_coding::mds::{EncodedMatrix, MdsCode, MdsParams};
use s2c2_linalg::parallel::{host_threads, par_map, should_spawn};
use s2c2_linalg::{Matrix, Vector};
use std::sync::{Arc, Mutex, PoisonError};

/// Master-side cost of decoding one chunk from `k` responses of which
/// `missing` are parity (each systematic response is a free decode): LU
/// on the `missing` unknown systematic blocks, then per right-hand side
/// the triangular solves and the adjustment by the `k` received blocks.
/// With `rhs` stacked right-hand sides the factorization is shared. The
/// serve engine charges its rounds by the same formula.
#[must_use]
pub fn chunk_decode_flops(missing: usize, k: usize, rows_per_chunk: usize, rhs: usize) -> f64 {
    let (m, rpc, rhs) = (missing as f64, rows_per_chunk as f64, rhs as f64);
    m.powi(3) / 3.0 + rhs * (rpc * m.powi(2)) + rhs * (m * k as f64 * rpc)
}

/// An MDS-encoded matrix plus the numeric tail every coded-matvec
/// scheduler shares.
///
/// The encoding is shared, not owned: schedulers built over one
/// [`CachedEncoding`] (an MDS and an S²C² job over the same data, say)
/// compute against one allocation, never a copy. What a job computed
/// itself is its own: the last exact product stays with this job alone.
pub(crate) struct CodedMatvec {
    pub(crate) shared: Arc<CachedEncoding>,
    /// The last product [`Self::product`] computed; replaced by the next.
    kept: Mutex<Option<KeptProduct>>,
}

/// `(worker, chunk)` pairs.
type Pairs = Vec<(usize, usize)>;

/// An exact product and the input it was computed for.
struct KeptProduct {
    /// The bits of the input.
    x: Vec<u64>,
    /// Every systematic worker's response to that input for every chunk,
    /// in worker-then-chunk order: `A·x` over the padded rows.
    padded: Vec<f64>,
}

impl KeptProduct {
    fn is_for(&self, x: &Vector) -> bool {
        self.x
            .iter()
            .copied()
            .eq(x.as_slice().iter().map(|v| v.to_bits()))
    }
}

impl CodedMatvec {
    /// Encodes `a` into a fresh encoding of its own.
    pub(crate) fn new(
        a: &Matrix,
        params: MdsParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        let code = MdsCode::new(params)?;
        let encoded = code.encode(a, chunks_per_partition)?;
        Ok(Self::over(Arc::new(CachedEncoding { code, encoded })))
    }

    /// Computes against an existing (possibly shared) encoding.
    pub(crate) fn over(shared: Arc<CachedEncoding>) -> Self {
        CodedMatvec {
            shared,
            kept: Mutex::new(None),
        }
    }

    /// [`S2c2Error::InvalidConfig`] unless `x` has one entry per column.
    pub(crate) fn check_input(&self, x: &Vector) -> Result<(), S2c2Error> {
        check_input(x, self.encoded().partition(0).cols())
    }

    pub(crate) fn code(&self) -> &MdsCode {
        &self.shared.code
    }

    pub(crate) fn encoded(&self) -> &EncodedMatrix {
        &self.shared.encoded
    }

    /// The conventional assignment: every worker, its whole partition.
    pub(crate) fn full_assignment(&self) -> ChunkAssignment {
        let p = self.code().params();
        allocate_full(p.n, p.k, self.encoded().layout().chunks_per_partition)
    }

    /// The exact `A·x`, on every host core once the matrix is large
    /// enough: every systematic worker's response for every chunk,
    /// padding rows included, truncated to the original rows. The job
    /// keeps it, so a following round on bit-identical `x` serves its
    /// systematic responses from it.
    pub(crate) fn product(&self, x: &Vector) -> Result<Vector, S2c2Error> {
        self.product_with_threads(x, host_threads())
    }

    /// [`Self::product`] on up to `threads` OS threads; the result is the
    /// same for any `threads`.
    pub(super) fn product_with_threads(
        &self,
        x: &Vector,
        threads: usize,
    ) -> Result<Vector, S2c2Error> {
        self.check_input(x)?;
        let layout = *self.encoded().layout();
        let chunks = layout.chunks_per_partition;
        let pairs: Pairs = (0..self.code().params().k)
            .flat_map(|w| (0..chunks).map(move |chunk| (w, chunk)))
            .collect();
        let threads = if should_spawn(layout.padded_rows, x.len(), threads) {
            threads
        } else {
            1
        };
        let encoded = self.encoded();
        let padded = par_map(&pairs, threads, |&(w, chunk)| {
            encoded.worker_compute_chunk(w, chunk, x).values
        })
        .concat();
        let product = Vector::from(padded[..layout.original_rows].to_vec());
        // The entry is replaced whole, so a panic elsewhere cannot leave
        // it half-written.
        *self.kept.lock().unwrap_or_else(PoisonError::into_inner) = Some(KeptProduct {
            x: x.as_slice().iter().map(|v| v.to_bits()).collect(),
            padded,
        });
        Ok(product)
    }

    /// Runs one round of `assignment` on the simulator's current
    /// iteration: plans it, computes exactly the responses the plan
    /// uses (on every host core once the round is large enough),
    /// decodes, and charges the decode. A systematic response to the
    /// input of the product this job last computed is not computed
    /// again: it is that product's rows.
    pub(crate) fn run_round(
        &self,
        assignment: &ChunkAssignment,
        sim: &ClusterSim,
        x: &Vector,
        margin: f64,
        reassign: bool,
        expected_speeds: Option<&[f64]>,
    ) -> Result<(IterationOutcome, Feedback), S2c2Error> {
        let threads = host_threads();
        let (outcome, feedback, _) = self.run_round_with_threads(
            assignment,
            sim,
            x,
            margin,
            reassign,
            expected_speeds,
            threads,
        )?;
        Ok((outcome, feedback))
    }

    /// [`Self::run_round`] computing its responses on up to `threads`
    /// OS threads; every output is the same for any `threads`. Also
    /// returns the `(worker, chunk)` pairs it computed, chunk-major.
    #[expect(
        clippy::too_many_arguments,
        reason = "run_round's arguments plus the thread count tests pin"
    )]
    pub(super) fn run_round_with_threads(
        &self,
        assignment: &ChunkAssignment,
        sim: &ClusterSim,
        x: &Vector,
        margin: f64,
        reassign: bool,
        expected_speeds: Option<&[f64]>,
        threads: usize,
    ) -> Result<(IterationOutcome, Feedback, Pairs), S2c2Error> {
        let layout = *self.encoded().layout();
        let k = self.code().params().k;
        let rpc = layout.rows_per_chunk();
        let cost = RoundCost {
            broadcast_bytes: (x.len() * 8) as u64,
            fixed_elems: 0,
            rows_per_chunk: rpc,
            elems_per_row: x.len(),
            reply_bytes_per_row: 8,
            unit: WorkUnit::Rows,
        };
        let plan = plan_round(assignment, k, sim, &cost, margin, reassign, expected_speeds)?;

        // (worker, chunk) in chunk-major order: the order decode expects.
        let mut pairs: Pairs = Vec::new();
        let mut decode_flops = 0.0;
        for (chunk, workers) in plan.chosen.iter().enumerate() {
            pairs.extend(workers.iter().map(|&w| (w, chunk)));
            let parity = workers.iter().filter(|&&w| w >= k).count();
            decode_flops += chunk_decode_flops(parity, k, rpc, 1);
        }
        // A systematic worker's response is rows of the exact product,
        // the same dot products over the same stored rows, so the kept
        // product serves it bit for bit when its input is this `x`.
        let kept = self.kept.lock().unwrap_or_else(PoisonError::into_inner);
        let kept = kept.as_ref().filter(|p| p.is_for(x));
        let served = |w: usize, chunk: usize| {
            kept.filter(|_| w < k)
                .map(|p| &p.padded[layout.output_range(w, chunk)])
        };
        let computed: Pairs = pairs
            .iter()
            .copied()
            .filter(|&(w, chunk)| served(w, chunk).is_none())
            .collect();
        let threads = if should_spawn(computed.len() * rpc, x.len(), threads) {
            threads
        } else {
            1
        };
        let encoded = self.encoded();
        let mut fresh = par_map(&computed, threads, |&(w, chunk)| {
            encoded.worker_compute_chunk(w, chunk, x)
        })
        .into_iter();
        // `fresh` holds the unserved pairs in chunk-major order, so it
        // yields exactly one response for each.
        let responses: Vec<WorkerChunkResult> = pairs
            .iter()
            .filter_map(|&(w, chunk)| match served(w, chunk) {
                Some(values) => Some(WorkerChunkResult::new(w, chunk, values.to_vec())),
                None => fresh.next(),
            })
            .collect();
        let result = self.code().decode_matvec(&layout, &responses)?;
        let (metrics, feedback) = plan.finish(sim.decode_time(decode_flops));
        Ok((IterationOutcome { result, metrics }, feedback, computed))
    }
}

/// Conventional MDS coded computation.
pub struct MdsStrategy {
    coded: CodedMatvec,
    name: String,
}

impl MdsStrategy {
    /// Encodes `a` with an `(n, k)` code and
    /// `chunks_per_partition`-way chunking.
    ///
    /// # Errors
    ///
    /// Propagates invalid code parameters or degenerate shapes.
    pub fn new(
        a: &Matrix,
        params: MdsParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        Ok(Self::conventional(CodedMatvec::new(
            a,
            params,
            chunks_per_partition,
        )?))
    }

    /// Conventional MDS over an existing (possibly shared) encoding:
    /// no data is copied or re-encoded.
    pub(crate) fn from_encoding(encoding: Arc<CachedEncoding>) -> Self {
        Self::conventional(CodedMatvec::over(encoding))
    }

    fn conventional(coded: CodedMatvec) -> Self {
        let p = coded.code().params();
        MdsStrategy {
            name: format!("mds({},{})", p.n, p.k),
            coded,
        }
    }

    /// The uncoded even-split baseline (§2's strawman): every worker
    /// owns `1/n` of the rows and the master waits for everyone — the
    /// degenerate `(n, n)` code (identity generator, no parity), which
    /// gives exactly the "speed of the slowest node" behaviour. The
    /// chunking only matters for metric granularity here.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures for degenerate shapes.
    pub fn uncoded(a: &Matrix, n: usize, chunks_per_partition: usize) -> Result<Self, S2c2Error> {
        Ok(MdsStrategy {
            coded: CodedMatvec::new(a, MdsParams::new(n, n), chunks_per_partition)?,
            name: "uncoded".into(),
        })
    }

    /// The code parameters in use.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.coded.code().params()
    }
}

impl MatvecStrategy for MdsStrategy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        x: &Vector,
    ) -> Result<IterationOutcome, S2c2Error> {
        self.coded.check_input(x)?;
        sim.begin_iteration(iteration);
        // Conventional coded computing never reassigns (and plain
        // uncoded has no recovery mechanism at all).
        let assignment = self.coded.full_assignment();
        let (outcome, _) = self
            .coded
            .run_round(&assignment, sim, x, 0.15, false, None)?;
        Ok(outcome)
    }

    fn product(&self, x: &Vector) -> Result<Vector, S2c2Error> {
        self.coded.product(x)
    }

    fn storage_bytes_per_worker(&self) -> u64 {
        self.coded.encoded().bytes_per_worker()
    }

    fn encoding(&self) -> Option<&Arc<CachedEncoding>> {
        Some(&self.coded.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    fn data() -> (Matrix, Vector) {
        let a = Matrix::from_fn(600, 8, |r, c| ((r * 5 + c * 11) % 13) as f64 - 6.0);
        let x = Vector::from_fn(8, |i| (i as f64 * 0.4).sin() + 1.2);
        (a, x)
    }

    fn run_with_stragglers(params: MdsParams, stragglers: &[usize]) -> IterationOutcome {
        let (a, x) = data();
        let mut s = MdsStrategy::new(&a, params, 5).unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(params.n)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(stragglers, 0.0)
                .build(),
        );
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        out
    }

    #[test]
    fn tolerates_up_to_n_minus_k_stragglers_flat() {
        // (12,10): latency with 0, 1, 2 stragglers should be ~equal.
        let base = run_with_stragglers(MdsParams::new(12, 10), &[])
            .metrics
            .latency;
        let one = run_with_stragglers(MdsParams::new(12, 10), &[0])
            .metrics
            .latency;
        let two = run_with_stragglers(MdsParams::new(12, 10), &[0, 1])
            .metrics
            .latency;
        assert!(
            (one / base - 1.0).abs() < 0.05,
            "1 straggler: {one} vs {base}"
        );
        assert!(
            (two / base - 1.0).abs() < 0.05,
            "2 stragglers: {two} vs {base}"
        );
    }

    #[test]
    fn collapses_past_tolerance() {
        // (12,10) with 3 stragglers: must wait for a straggler -> ~5x.
        let base = run_with_stragglers(MdsParams::new(12, 10), &[])
            .metrics
            .latency;
        let three = run_with_stragglers(MdsParams::new(12, 10), &[0, 1, 2])
            .metrics
            .latency;
        assert!(
            three / base > 3.5,
            "3 stragglers blow up (12,10): {}",
            three / base
        );
    }

    #[test]
    fn conservative_code_pays_overhead_when_healthy() {
        // (12,6) does 1/6-of-data work per worker vs (12,10)'s 1/10.
        let relaxed = run_with_stragglers(MdsParams::new(12, 10), &[])
            .metrics
            .latency;
        let conservative = run_with_stragglers(MdsParams::new(12, 6), &[])
            .metrics
            .latency;
        let ratio = conservative / relaxed;
        assert!(
            (1.4..=1.9).contains(&ratio),
            "expected ~10/6 = 1.67x overhead, got {ratio}"
        );
    }

    #[test]
    fn wasted_work_is_n_minus_k_partitions() {
        let out = run_with_stragglers(MdsParams::new(10, 7), &[9]);
        // Aggregate waste: 3 of 10 full partitions.
        let total_computed: usize = out.metrics.computed_rows.iter().sum();
        let total_wasted = out.metrics.total_wasted_rows();
        let frac = total_wasted as f64 / total_computed as f64;
        assert!(
            (frac - 0.3).abs() < 0.01,
            "waste fraction {frac}, expected 0.3"
        );
    }

    #[test]
    fn round_is_bit_identical_at_every_thread_count() {
        use crate::alloc::allocate_chunks;
        use crate::strategy::round::round_bits;
        use s2c2_linalg::parallel::should_spawn;

        // 2 880 × 24 rows of work crosses the spawn cutoff; the two
        // stragglers force a parity decode, and under the equal-speed
        // allocation a cancel and a redo.
        let a = Matrix::from_fn(12 * 6 * 40, 24, |r, c| {
            ((r * 7 + c * 13) % 29) as f64 / 7.0 - 2.0
        });
        let x = Vector::from_fn(24, |i| (i as f64 * 0.3).cos());
        assert!(should_spawn(a.rows(), x.len(), 2));
        let coded = CodedMatvec::new(&a, MdsParams::new(12, 6), 6).unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[0, 1], 0.0)
                .build(),
        );
        sim.begin_iteration(0);
        let equal_speeds = allocate_chunks(&[1.0; 12], 6, 6).unwrap();
        for (assignment, reassign) in [(coded.full_assignment(), false), (equal_speeds, true)] {
            let bits = |threads| {
                let (out, feedback, _) = coded
                    .run_round_with_threads(&assignment, &sim, &x, 0.15, reassign, None, threads)
                    .unwrap();
                round_bits(out.result.as_slice(), &out.metrics, &feedback)
            };
            let one = bits(1);
            for threads in [2, 3, 7] {
                assert_eq!(bits(threads), one, "{threads} threads, reassign {reassign}");
            }
        }
    }

    #[test]
    fn a_kept_product_serves_only_the_very_same_input() {
        // Stragglers 0 and 1 push the fastest-k rule onto parity workers,
        // so the round chooses systematic and parity responses alike.
        let a = Matrix::from_fn(1_001, 24, |r, c| ((r * 5 + c * 11) % 23) as f64 / 5.0 - 2.0);
        let x = Vector::from_fn(24, |i| if i == 3 { 0.0 } else { (i as f64 * 0.7).sin() });
        let coded = CodedMatvec::new(&a, MdsParams::new(12, 6), 7).unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[0, 1], 0.0)
                .build(),
        );
        sim.begin_iteration(0);
        let assignment = coded.full_assignment();
        let computed = |x: &Vector| {
            let (out, _, computed) = coded
                .run_round_with_threads(&assignment, &sim, x, 0.15, false, None, 2)
                .unwrap();
            s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(x).as_slice(), 1e-9);
            computed
        };
        // Nothing kept yet: the round computes every pair it chose.
        let every = computed(&x);
        let parity: Vec<(usize, usize)> = every.iter().copied().filter(|&(w, _)| w >= 6).collect();
        assert!(!parity.is_empty() && parity.len() < every.len());
        coded.product(&x).unwrap();
        assert_eq!(computed(&x), parity);
        // −0.0 for +0.0, or one ulp up: not the input the product was
        // computed for, however close.
        let mut signed = x.clone();
        signed[3] = -0.0;
        let mut ulp = x.clone();
        ulp[5] = f64::from_bits(x[5].to_bits() + 1);
        assert_eq!(computed(&signed), every);
        assert_eq!(computed(&ulp), every);
        // Rounds leave the kept product alone; the next product replaces it.
        assert_eq!(computed(&x), parity);
        coded.product(&ulp).unwrap();
        assert_eq!(computed(&x), every);
        assert_eq!(computed(&ulp), parity);
    }

    #[test]
    fn name_includes_params() {
        let (a, _) = data();
        let s = MdsStrategy::new(&a, MdsParams::new(12, 6), 2).unwrap();
        assert_eq!(s.name(), "mds(12,6)");
    }

    fn uncoded_data() -> (Matrix, Vector) {
        let a = Matrix::from_fn(240, 5, |r, c| ((r + 2 * c) % 9) as f64 - 4.0);
        let x = Vector::from_fn(5, |i| 0.5 + i as f64);
        (a, x)
    }

    #[test]
    fn uncoded_computes_exact_product() {
        let (a, x) = uncoded_data();
        let mut s = MdsStrategy::uncoded(&a, 6, 4).unwrap();
        assert_eq!(s.name(), "uncoded");
        let spec = ClusterSpec::builder(6).build();
        let mut sim = ClusterSim::new(spec);
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn uncoded_latency_tracks_slowest_worker() {
        let (a, x) = uncoded_data();
        let mut s = MdsStrategy::uncoded(&a, 6, 4).unwrap();
        // No straggler run.
        let mut fast_sim = ClusterSim::new(ClusterSpec::builder(6).compute_bound().build());
        let fast = s.run_iteration(&mut fast_sim, 0, &x).unwrap();
        // One 5x straggler: uncoded must be ~5x slower.
        let mut slow_sim = ClusterSim::new(
            ClusterSpec::builder(6)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[2], 0.0)
                .build(),
        );
        let slow = s.run_iteration(&mut slow_sim, 0, &x).unwrap();
        let ratio = slow.metrics.latency / fast.metrics.latency;
        assert!(ratio > 3.5, "uncoded gated on the straggler: ratio {ratio}");
    }

    #[test]
    fn uncoded_no_waste_when_all_results_used() {
        let (a, x) = uncoded_data();
        let mut s = MdsStrategy::uncoded(&a, 4, 3).unwrap();
        let mut sim = ClusterSim::new(ClusterSpec::builder(4).build());
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        assert_eq!(out.metrics.total_wasted_rows(), 0);
    }

    #[test]
    fn uncoded_storage_is_one_nth() {
        let (a, _x) = uncoded_data();
        let s = MdsStrategy::uncoded(&a, 6, 4).unwrap();
        assert_eq!(s.storage_bytes_per_worker(), a.payload_bytes() / 6);
    }
}
