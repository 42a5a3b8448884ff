//! Polynomial-coded bilinear computation, conventional and S²C²-scheduled
//! (§5, Fig 12).
//!
//! The workload is the Hessian-style product `Aᵀ·diag(w)·A` (encoded once
//! as a polynomial-code pair). Two schedulers share the execution shape:
//!
//! * [`PolyConventional`] — every node computes its full encoded product;
//!   the master takes the fastest `a·b` responses.
//! * [`PolyS2c2`] — Algorithm 1 assigns row chunks of each node's encoded
//!   `Ã_i` proportional to predicted speed (coverage `a·b` per chunk
//!   index), with the same timeout/reassignment machinery as the MDS
//!   variant.
//!
//! Timing honours the paper's observation that the `diag(w)·B̃_i` scaling
//! pass is *not* reduced by S²C² (every node scales its full `B̃_i`), which
//! is why measured gains (19%) sit below the ideal `(n − ab)/ab`.

use crate::alloc::{allocate_chunks_with_fixed_cost, allocate_full, ChunkAssignment};
use crate::error::S2c2Error;
use crate::speed_tracker::{PredictorSource, SpeedTracker};
use crate::strategy::round::{plan_round, Feedback, RoundCost, WorkUnit};
use crate::strategy::s2c2::AdaptiveScheduler;
use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::ClusterSim;
use s2c2_coding::polynomial::{EncodedPair, PolyParams, PolynomialCode};
use s2c2_linalg::parallel::{host_threads, par_map, should_spawn};
use s2c2_linalg::{Matrix, Vector};

/// Result of one bilinear iteration.
#[derive(Debug, Clone)]
pub struct BilinearOutcome {
    /// The decoded product (e.g. the Hessian), truncated to original shape.
    pub result: Matrix,
    /// Round accounting.
    pub metrics: RoundMetrics,
}

/// A scheduler for iterated polynomial-coded bilinear jobs.
pub trait BilinearStrategy: Send {
    /// Human-readable name.
    fn name(&self) -> String;

    /// Runs iteration `iteration` with middle weight vector `w`.
    ///
    /// # Errors
    ///
    /// Surfaces scheduling and decode failures.
    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        w: &Vector,
    ) -> Result<BilinearOutcome, S2c2Error>;
}

/// A polynomial-encoded pair plus the numeric tail the two schedulers
/// share.
struct PolyShared {
    code: PolynomialCode,
    enc: EncodedPair,
}

impl PolyShared {
    fn new(
        a_t: &Matrix,
        a: &Matrix,
        params: PolyParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        let code = PolynomialCode::new(params)?;
        let enc = code.encode_pair(a_t, a, chunks_per_partition)?;
        Ok(PolyShared { code, enc })
    }

    /// The conventional assignment: every node, its whole encoded product.
    fn full_assignment(&self) -> ChunkAssignment {
        let p = self.code.params();
        allocate_full(
            p.n,
            p.recovery_threshold(),
            self.enc.layout().row.chunks_per_partition,
        )
    }

    /// What a round with inner dimension `m` charges: every node scales
    /// its full `B̃ᵢ` by `diag(w)` (`m·pcol` elements, not reduced by
    /// S²C²), then pays `m·pcol` elements per product row and sends
    /// `pcol` values back for each.
    fn cost(&self, m: usize) -> RoundCost {
        let layout = self.enc.layout();
        let pcol = layout.cols_per_partition();
        RoundCost {
            broadcast_bytes: (m * 8) as u64,
            fixed_elems: m * pcol,
            rows_per_chunk: layout.row.rows_per_chunk(),
            elems_per_row: m * pcol,
            reply_bytes_per_row: (pcol * 8) as u64,
            unit: WorkUnit::Elements,
        }
    }

    /// Runs one round of `assignment` with `k = a·b`: plans it, computes
    /// exactly the products the plan uses (on every host core once the
    /// round is large enough), interpolates.
    fn run_round(
        &self,
        assignment: &ChunkAssignment,
        sim: &ClusterSim,
        w: &Vector,
        margin: f64,
        reassign: bool,
        expected_speeds: Option<&[f64]>,
    ) -> Result<(BilinearOutcome, Feedback), S2c2Error> {
        let threads = host_threads();
        self.run_round_with_threads(
            assignment,
            sim,
            w,
            margin,
            reassign,
            expected_speeds,
            threads,
        )
    }

    /// [`Self::run_round`] computing its products on up to `threads` OS
    /// threads; every output is the same for any `threads`.
    #[expect(
        clippy::too_many_arguments,
        reason = "run_round's arguments plus the thread count tests pin"
    )]
    fn run_round_with_threads(
        &self,
        assignment: &ChunkAssignment,
        sim: &ClusterSim,
        w: &Vector,
        margin: f64,
        reassign: bool,
        expected_speeds: Option<&[f64]>,
        threads: usize,
    ) -> Result<(BilinearOutcome, Feedback), S2c2Error> {
        let need = self.code.params().recovery_threshold();
        let layout = *self.enc.layout();
        let cost = self.cost(w.len());
        let plan = plan_round(
            assignment,
            need,
            sim,
            &cost,
            margin,
            reassign,
            expected_speeds,
        )?;

        // (worker, chunk) in chunk-major order: the order decode expects.
        let pairs: Vec<(usize, usize)> = plan
            .chosen
            .iter()
            .enumerate()
            .flat_map(|(chunk, workers)| workers.iter().map(move |&wk| (wk, chunk)))
            .collect();
        let rows = pairs.len() * cost.rows_per_chunk;
        let threads = if should_spawn(rows, cost.elems_per_row, threads) {
            threads
        } else {
            1
        };
        let responses = par_map(&pairs, threads, |&(wk, chunk)| {
            self.enc.worker_compute_chunk(wk, chunk, Some(w))
        });
        let result = self.code.decode_product(&layout, &responses)?;
        // Interpolation solve: need^3/3 LU + need^2 per decoded value.
        let c = layout.row.chunks_per_partition as f64;
        let vpc = layout.values_per_chunk() as f64;
        let nd = need as f64;
        let decode_time = sim.decode_time(c * (nd * nd * nd / 3.0 + vpc * nd * nd));
        let (metrics, feedback) = plan.finish(decode_time);
        Ok((BilinearOutcome { result, metrics }, feedback))
    }
}

/// Conventional polynomial-coded computation: full work on every node,
/// fastest `a·b` win.
pub struct PolyConventional {
    shared: PolyShared,
}

impl PolyConventional {
    /// Encodes the pair `(Aᵀ, A)` for Hessian computation.
    ///
    /// # Errors
    ///
    /// Propagates code/shape failures.
    pub fn new(
        a_t: &Matrix,
        a: &Matrix,
        params: PolyParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        Ok(PolyConventional {
            shared: PolyShared::new(a_t, a, params, chunks_per_partition)?,
        })
    }
}

impl BilinearStrategy for PolyConventional {
    fn name(&self) -> String {
        let p = self.shared.code.params();
        format!("poly({},{}x{})", p.n, p.a, p.b)
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        w: &Vector,
    ) -> Result<BilinearOutcome, S2c2Error> {
        sim.begin_iteration(iteration);
        let assignment = self.shared.full_assignment();
        let (outcome, _) = self
            .shared
            .run_round(&assignment, sim, w, 0.15, false, None)?;
        Ok(outcome)
    }
}

/// S²C²-scheduled polynomial-coded computation.
pub struct PolyS2c2 {
    shared: PolyShared,
    sched: AdaptiveScheduler,
}

impl PolyS2c2 {
    /// Encodes the pair and builds the scheduler.
    ///
    /// # Errors
    ///
    /// Propagates code/shape failures.
    pub fn new(
        a_t: &Matrix,
        a: &Matrix,
        params: PolyParams,
        chunks_per_partition: usize,
        predictor: &PredictorSource,
    ) -> Result<Self, S2c2Error> {
        Ok(PolyS2c2 {
            shared: PolyShared::new(a_t, a, params, chunks_per_partition)?,
            sched: AdaptiveScheduler::new(predictor, params.n),
        })
    }

    /// Fraction of rounds in which the timeout fired and work was
    /// rebuilt.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        self.sched.misprediction_rate()
    }

    /// The speed tracker whose forecasts drive the next allocation
    /// (read-only: this is how a test sees the observed speeds a round
    /// fed back).
    #[must_use]
    pub fn tracker(&self) -> &SpeedTracker {
        self.sched.tracker()
    }
}

impl BilinearStrategy for PolyS2c2 {
    fn name(&self) -> String {
        let p = self.shared.code.params();
        format!("poly-s2c2({},{}x{})", p.n, p.a, p.b)
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        w: &Vector,
    ) -> Result<BilinearOutcome, S2c2Error> {
        sim.begin_iteration(iteration);
        let p = self.shared.code.params();
        let (preds, margin) = self.sched.forecast(sim)?;
        // Fixed cost: the diag(w) scaling pass over the full encoded B
        // partition; unit cost: one chunk's product work.
        let cost = self.shared.cost(w.len());
        let attempt = allocate_chunks_with_fixed_cost(
            &preds,
            p.recovery_threshold(),
            self.shared.enc.layout().row.chunks_per_partition,
            cost.fixed_elems as f64,
            cost.rows_per_chunk as f64 * cost.elems_per_row as f64,
        );
        // §4.4 fallback, as in S2c2Strategy.
        let assignment = attempt.unwrap_or_else(|_| self.shared.full_assignment());
        let (outcome, feedback) =
            self.shared
                .run_round(&assignment, sim, w, margin, true, Some(&preds))?;
        self.sched.learn(&feedback);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    /// Small Hessian setup: A is m×d, we compute Aᵀ diag(w) A (d×d).
    fn hessian_inputs() -> (Matrix, Matrix, Vector, Matrix) {
        let m = 30;
        let d = 18;
        let a = Matrix::from_fn(m, d, |r, c| (((r * 7 + c * 3) % 10) as f64 - 4.5) / 3.0);
        let a_t = a.transpose();
        let w = Vector::from_fn(m, |i| 0.5 + (i % 4) as f64 * 0.25);
        // Reference: A^T diag(w) A.
        let mut scaled = a.clone();
        for r in 0..m {
            let f = w.as_slice()[r];
            for v in scaled.row_mut(r) {
                *v *= f;
            }
        }
        let expect = a_t.matmul(&scaled);
        (a_t, a, w, expect)
    }

    #[test]
    fn conventional_decodes_hessian_exactly() {
        let (a_t, a, w, expect) = hessian_inputs();
        let mut s = PolyConventional::new(&a_t, &a, PolyParams::new(12, 3, 3), 2).unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[4, 8], 0.0)
                .build(),
        );
        let out = s.run_iteration(&mut sim, 0, &w).unwrap();
        assert!(out.result.max_abs_diff(&expect) < 1e-6);
        // 12 - 9 = 3 workers wasted.
        let wasted = out
            .metrics
            .wasted_fraction()
            .iter()
            .filter(|&&f| f >= 1.0 - 1e-12)
            .count();
        assert_eq!(wasted, 3);
    }

    #[test]
    fn s2c2_decodes_hessian_exactly_with_oracle() {
        let (a_t, a, w, expect) = hessian_inputs();
        let mut s = PolyS2c2::new(
            &a_t,
            &a,
            PolyParams::new(12, 3, 3),
            6,
            &PredictorSource::Oracle,
        )
        .unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[0], 0.0)
                .build(),
        );
        let layout_rpc = 1; // 18 rows / a=3 partitions / 6 chunks
        for iter in 0..3 {
            let out = s.run_iteration(&mut sim, iter, &w).unwrap();
            assert!(out.result.max_abs_diff(&expect) < 1e-6, "iteration {iter}");
            // Proportional allocation cannot equalize the fixed diag(w)
            // scaling pass (the paper's §7.2.3 caveat), so the 5x-slow
            // worker may still miss the deadline and waste its (tiny)
            // share — but never more than a chunk or two.
            assert!(
                out.metrics.total_wasted_rows() <= 2 * layout_rpc,
                "waste {} beyond the fixed-cost allowance",
                out.metrics.total_wasted_rows()
            );
        }
    }

    #[test]
    fn s2c2_faster_than_conventional_when_healthy() {
        let (a_t, a, w, _) = hessian_inputs();
        let params = PolyParams::new(12, 3, 3);
        let mut conv = PolyConventional::new(&a_t, &a, params, 6).unwrap();
        let mut s2c2 = PolyS2c2::new(&a_t, &a, params, 6, &PredictorSource::Oracle).unwrap();
        let spec = ClusterSpec::builder(12).compute_bound().build();
        let mut sim_a = ClusterSim::new(spec.clone());
        let mut sim_b = ClusterSim::new(spec);
        let lc = conv
            .run_iteration(&mut sim_a, 0, &w)
            .unwrap()
            .metrics
            .latency;
        let ls = s2c2
            .run_iteration(&mut sim_b, 0, &w)
            .unwrap()
            .metrics
            .latency;
        assert!(
            ls < lc,
            "S2C2 poly should beat conventional on a healthy cluster: {ls} vs {lc}"
        );
        // Gains bounded by the un-schedulable diag(w) pass: conventional /
        // s2c2 must stay below the ideal 12/9 ratio.
        assert!(lc / ls < 12.0 / 9.0 + 0.05);
    }

    #[test]
    fn round_is_bit_identical_at_every_thread_count() {
        use crate::alloc::allocate_chunks;
        use crate::strategy::round::round_bits;
        use s2c2_linalg::parallel::should_spawn;

        // 36 features -> 12 rows per grid partition, 6 chunks of 2; the
        // 60-row inner dimension makes a round's products cross the spawn
        // cutoff.
        let m = 60;
        let a = Matrix::from_fn(m, 36, |r, c| (((r * 5 + c * 3) % 11) as f64 - 5.0) / 4.0);
        let a_t = a.transpose();
        let w = Vector::from_fn(m, |i| 0.2 + (i % 7) as f64 * 0.1);
        let shared = PolyShared::new(&a_t, &a, PolyParams::new(12, 3, 3), 6).unwrap();
        let cost = shared.cost(m);
        assert!(should_spawn(9 * 12, cost.elems_per_row, 2));
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[0, 4], 0.0)
                .build(),
        );
        sim.begin_iteration(0);
        let equal_speeds = allocate_chunks(&[1.0; 12], 9, 6).unwrap();
        for (assignment, reassign) in [(shared.full_assignment(), false), (equal_speeds, true)] {
            let bits = |threads| {
                let (out, feedback) = shared
                    .run_round_with_threads(&assignment, &sim, &w, 0.15, reassign, None, threads)
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
    fn s2c2_recovers_from_misprediction() {
        let (a_t, a, w, expect) = hessian_inputs();
        let mut s = PolyS2c2::new(
            &a_t,
            &a,
            PolyParams::new(12, 3, 3),
            6,
            &PredictorSource::Uniform, // always wrong about stragglers
        )
        .unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[2, 9], 0.0)
                .build(),
        );
        let out = s.run_iteration(&mut sim, 0, &w).unwrap();
        assert!(out.result.max_abs_diff(&expect) < 1e-6);
        assert!(s.misprediction_rate() > 0.0);
    }

    #[test]
    fn mismatched_cluster_size_is_a_typed_error() {
        // Built for n = 12; a 14-worker sim used to index out of bounds
        // and a 10-worker one to fail with a misleading coverage message
        // (S²C²) or silently ignore two workers (conventional).
        let (a_t, a, w, _) = hessian_inputs();
        let params = PolyParams::new(12, 3, 3);
        for workers in [10, 14] {
            let spec = ClusterSpec::builder(workers).compute_bound().build();
            let mut strategies: Vec<Box<dyn BilinearStrategy>> = vec![Box::new(
                PolyConventional::new(&a_t, &a, params, 6).unwrap(),
            )];
            for predictor in [PredictorSource::Uniform, PredictorSource::Oracle] {
                strategies.push(Box::new(
                    PolyS2c2::new(&a_t, &a, params, 6, &predictor).unwrap(),
                ));
            }
            for strategy in &mut strategies {
                let mut sim = ClusterSim::new(spec.clone());
                let err = strategy.run_iteration(&mut sim, 0, &w).unwrap_err();
                assert!(
                    matches!(err, S2c2Error::InvalidConfig(_)),
                    "{} on {workers} workers: {err}",
                    strategy.name()
                );
            }
        }
    }
}
