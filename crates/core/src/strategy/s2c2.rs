//! Slack Squeeze Coded Computing — the paper's contribution (§4).
//!
//! Data is encoded **once** with a conservative `(n, k)` code — and the
//! encoding can be the very one a conventional MDS job runs on:
//! [`CodedJobBuilder::from_encoding`](crate::job::CodedJobBuilder::from_encoding)
//! hands both schedulers one shared allocation, so switching a job from
//! MDS to S²C² re-encodes and re-distributes nothing. Every iteration
//! the scheduler:
//!
//! 1. obtains per-worker speed estimates from the [`SpeedTracker`]
//!    (LSTM/ARIMA forecasts, last-value, uniform, or the oracle),
//! 2. runs Algorithm 1 to assign each worker a subset of its own coded
//!    partition's chunks — proportional to speed, every chunk index
//!    covered by exactly `k` workers (*basic* mode instead excludes
//!    detected stragglers and splits evenly among the rest),
//! 3. executes the round with the §4.3 timeout: if a worker misses
//!    `(1 + margin) ×` the mean response of the first `k` finishers, its
//!    chunks are recomputed by finished workers (who already hold the
//!    coded data — no data movement, ever),
//! 4. feeds observed speeds back to the predictors.
//!
//! Robustness (§4.4): if the predictions leave fewer than `k` workers
//! schedulable, the round runs the conventional full assignment instead;
//! and however wrong they are, the first `k` finishers are never
//! cancelled, so coverage can always be rebuilt — correctness never
//! depends on prediction quality.

use crate::alloc::{allocate_chunks, allocate_chunks_basic, ChunkAssignment};
use crate::error::S2c2Error;
use crate::speed_tracker::{PredictorSource, SpeedTracker};
use crate::strategy::mds::CodedMatvec;
use crate::strategy::round::Feedback;
use crate::strategy::{IterationOutcome, MatvecStrategy};
use s2c2_cluster::ClusterSim;
use s2c2_coding::cache::CachedEncoding;
use s2c2_coding::mds::MdsParams;
use s2c2_linalg::{IntoShared, Vector};
use std::sync::Arc;

/// The adaptive half of S²C², whatever the code underneath: forecasts
/// out, a round run on them, observations back in. Shared by the MDS
/// and the polynomial scheduler.
pub(crate) struct AdaptiveScheduler {
    tracker: SpeedTracker,
    timeout_margin: f64,
    /// Count of rounds in which the timeout machinery rebuilt work.
    mispredicted_rounds: usize,
    rounds: usize,
}

impl AdaptiveScheduler {
    pub(crate) fn new(predictor: &PredictorSource, n: usize) -> Self {
        AdaptiveScheduler {
            tracker: SpeedTracker::new(predictor, n),
            timeout_margin: 0.15,
            mispredicted_rounds: 0,
            rounds: 0,
        }
    }

    pub(crate) fn tracker(&self) -> &SpeedTracker {
        &self.tracker
    }

    /// Fraction of rounds in which the timeout fired and work was
    /// rebuilt (the measured mis-prediction rate of §7.2).
    pub(crate) fn misprediction_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.mispredicted_rounds as f64 / self.rounds as f64
        }
    }

    /// Forecasts for the iteration in flight and this round's timeout
    /// margin.
    ///
    /// # Errors
    ///
    /// [`S2c2Error::InvalidConfig`] if the scheduler was built for a
    /// different worker count than the cluster has (an oracle tracker
    /// would otherwise hand back cluster-sized "forecasts").
    pub(crate) fn forecast(&self, sim: &ClusterSim) -> Result<(Vec<f64>, f64), S2c2Error> {
        if sim.n() != self.tracker.n() {
            return Err(S2c2Error::InvalidConfig(format!(
                "scheduler built for {} workers, cluster has {}",
                self.tracker.n(),
                sim.n()
            )));
        }
        // Cold start: before any observation the "prediction" is a blind
        // uniform guess, so judging workers against the 15% margin would
        // cancel every slightly-below-par node and churn. Until the first
        // round completes, the margin is widened to the a-priori
        // non-straggler speed spread (~35%); genuine stragglers (5x) are
        // still far outside it.
        let margin = if self.rounds == 0 {
            self.timeout_margin.max(0.35)
        } else {
            self.timeout_margin
        };
        Ok((self.tracker.predictions(sim), margin))
    }

    /// Feeds what a completed round observed back to the tracker.
    pub(crate) fn learn(&mut self, feedback: &Feedback) {
        self.rounds += 1;
        if feedback.reassigned {
            self.mispredicted_rounds += 1;
        }
        self.tracker.observe(&feedback.observed_speeds);
    }
}

/// Which S²C² variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S2c2Mode {
    /// §4.1: stragglers excluded, equal work among the rest.
    Basic,
    /// §4.2: Algorithm 1 on (predicted) relative speeds.
    General,
}

/// The S²C² scheduler over an `(n, k)`-MDS-coded matrix.
pub struct S2c2Strategy {
    coded: CodedMatvec,
    sched: AdaptiveScheduler,
    mode: S2c2Mode,
    /// Basic mode: a worker is a straggler when its estimated speed falls
    /// below this fraction of the median estimate.
    straggler_threshold: f64,
}

impl std::fmt::Debug for S2c2Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S2c2Strategy")
            .field("params", &self.params())
            .field("mode", &self.mode)
            .field("rounds", &self.sched.rounds)
            .finish()
    }
}

impl S2c2Strategy {
    /// Encodes `a` and builds the scheduler; the encoding keeps `a` as
    /// its systematic partitions (a borrowed matrix is copied once).
    ///
    /// # Errors
    ///
    /// Propagates invalid code parameters or degenerate shapes.
    pub fn new(
        a: impl IntoShared,
        params: MdsParams,
        chunks_per_partition: usize,
        mode: S2c2Mode,
        predictor: &PredictorSource,
        cluster_workers: usize,
    ) -> Result<Self, S2c2Error> {
        if cluster_workers != params.n {
            return Err(S2c2Error::InvalidConfig(format!(
                "code has n = {} but cluster has {cluster_workers} workers",
                params.n
            )));
        }
        let coded = CodedMatvec::new(a, params, chunks_per_partition)?;
        Ok(Self::scheduling(coded, mode, predictor))
    }

    /// The scheduler over an existing (possibly shared) encoding — the
    /// paper's "no data re-distribution": S²C² runs on the very coded
    /// partitions conventional MDS computes against. The caller has
    /// checked the code against the cluster.
    pub(crate) fn from_encoding(
        encoding: Arc<CachedEncoding>,
        mode: S2c2Mode,
        predictor: &PredictorSource,
    ) -> Self {
        Self::scheduling(CodedMatvec::over(encoding), mode, predictor)
    }

    fn scheduling(coded: CodedMatvec, mode: S2c2Mode, predictor: &PredictorSource) -> Self {
        let n = coded.code().params().n;
        S2c2Strategy {
            coded,
            sched: AdaptiveScheduler::new(predictor, n),
            mode,
            straggler_threshold: 0.5,
        }
    }

    /// Overrides the §4.3 timeout margin (default 0.15, from the paper's
    /// observed 16.7% prediction error).
    ///
    /// # Panics
    ///
    /// Panics on a negative margin.
    pub fn set_timeout_margin(&mut self, margin: f64) {
        assert!(margin >= 0.0, "timeout margin must be non-negative");
        self.sched.timeout_margin = margin;
    }

    /// Fraction of rounds in which the timeout fired and work was
    /// rebuilt (the measured mis-prediction rate of §7.2).
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        self.sched.misprediction_rate()
    }

    /// The code parameters in use.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.coded.code().params()
    }

    /// The speed tracker whose forecasts drive the next allocation
    /// (read-only: this is how a test sees the observed speeds a round
    /// fed back).
    #[must_use]
    pub fn tracker(&self) -> &SpeedTracker {
        self.sched.tracker()
    }

    /// Algorithm 1 on the forecasts (general), or detected stragglers
    /// excluded and an even split among the rest (basic).
    fn build_assignment(&self, preds: &[f64]) -> ChunkAssignment {
        let p = self.params();
        let c = self.coded.encoded().layout().chunks_per_partition;
        let attempt = match self.mode {
            S2c2Mode::General => allocate_chunks(preds, p.k, c),
            S2c2Mode::Basic => {
                let mut sorted: Vec<f64> = preds.to_vec();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let median = sorted[sorted.len() / 2];
                let available: Vec<bool> = preds
                    .iter()
                    .map(|&s| s >= self.straggler_threshold * median)
                    .collect();
                allocate_chunks_basic(&available, p.k, c)
            }
        };
        // §4.4 fallback: an unschedulable prediction state (fewer than k
        // workers believed alive) degrades to conventional coded computing
        // rather than failing.
        attempt.unwrap_or_else(|_| self.coded.full_assignment())
    }
}

impl MatvecStrategy for S2c2Strategy {
    fn name(&self) -> String {
        let p = self.params();
        let mode = match self.mode {
            S2c2Mode::Basic => "basic",
            S2c2Mode::General => "general",
        };
        format!("s2c2-{mode}({},{})", p.n, p.k)
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        x: &Vector,
    ) -> Result<IterationOutcome, S2c2Error> {
        self.coded.check_input(x)?;
        sim.begin_iteration(iteration);
        let (preds, margin) = self.sched.forecast(sim)?;
        let assignment = self.build_assignment(&preds);
        // Basic mode plans on its equal-speed assumption; general mode
        // on the actual predictions.
        let expected = (self.mode == S2c2Mode::General).then_some(preds.as_slice());
        let (outcome, feedback) =
            self.coded
                .run_round(&assignment, sim, x, margin, true, expected)?;
        self.sched.learn(&feedback);
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
    use s2c2_linalg::Matrix;

    fn data() -> (Matrix, Vector) {
        let a = Matrix::from_fn(720, 6, |r, c| ((r * 3 + c * 5) % 11) as f64 - 5.0);
        let x = Vector::from_fn(6, |i| 1.0 + 0.3 * i as f64);
        (a, x)
    }

    fn strategy(
        params: MdsParams,
        mode: S2c2Mode,
        predictor: PredictorSource,
    ) -> (S2c2Strategy, Matrix, Vector) {
        let (a, x) = data();
        let s = S2c2Strategy::new(&a, params, 12, mode, &predictor, params.n).unwrap();
        (s, a, x)
    }

    #[test]
    fn oracle_general_is_exact_and_wasteless() {
        let (mut s, a, x) = strategy(
            MdsParams::new(12, 6),
            S2c2Mode::General,
            PredictorSource::Oracle,
        );
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[1, 7], 0.0)
                .build(),
        );
        for iter in 0..4 {
            let out = s.run_iteration(&mut sim, iter, &x).unwrap();
            s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
            assert_eq!(out.metrics.total_wasted_rows(), 0, "iteration {iter}");
        }
        assert_eq!(s.misprediction_rate(), 0.0);
    }

    #[test]
    fn last_value_adapts_after_first_iteration() {
        // Iteration 0 predicts uniform speeds and must reassign (the 5x
        // stragglers miss the deadline); from iteration 1 on, predictions
        // reflect reality and no reassignments happen.
        let (mut s, a, x) = strategy(
            MdsParams::new(12, 6),
            S2c2Mode::General,
            PredictorSource::LastValue,
        );
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[0, 5], 0.0)
                .build(),
        );
        let first = s.run_iteration(&mut sim, 0, &x).unwrap();
        s2c2_linalg::assert_slices_close(first.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        assert!(s.misprediction_rate() > 0.0, "iteration 0 must mispredict");

        let mut later_latencies = Vec::new();
        for iter in 1..6 {
            let out = s.run_iteration(&mut sim, iter, &x).unwrap();
            s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
            later_latencies.push(out.metrics.latency);
        }
        // Adapted iterations are faster than the mispredicted first one.
        let mean_later = later_latencies.iter().sum::<f64>() / later_latencies.len() as f64;
        assert!(
            mean_later < first.metrics.latency,
            "adaptation should reduce latency: {mean_later} vs {}",
            first.metrics.latency
        );
    }

    #[test]
    fn basic_mode_excludes_stragglers_after_detection() {
        let (mut s, a, x) = strategy(
            MdsParams::new(12, 6),
            S2c2Mode::Basic,
            PredictorSource::LastValue,
        );
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[3], 0.0)
                .build(),
        );
        // Warm up detection.
        let _ = s.run_iteration(&mut sim, 0, &x).unwrap();
        let out = s.run_iteration(&mut sim, 1, &x).unwrap();
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        assert_eq!(
            out.metrics.assigned_rows[3], 0,
            "detected straggler sits idle"
        );
        // Work per active worker ~= D/11 rows (720 padded/11, chunked).
        let active_rows: Vec<usize> = (0..12)
            .filter(|&w| w != 3)
            .map(|w| out.metrics.assigned_rows[w])
            .collect();
        let max = *active_rows.iter().max().unwrap();
        let min = *active_rows.iter().min().unwrap();
        assert!(
            max - min <= s.coded.encoded().layout().rows_per_chunk(),
            "even split in basic mode"
        );
    }

    #[test]
    fn general_beats_basic_under_speed_variation() {
        // With ±20% speed variation and no hard stragglers, general S2C2
        // exploits the variation that basic ignores (the Fig 6 gap).
        let spec = ClusterSpec::builder(12)
            .compute_bound()
            .stragglers(&[], 0.2)
            .build();
        let (mut gen, _a, x) = strategy(
            MdsParams::new(12, 6),
            S2c2Mode::General,
            PredictorSource::Oracle,
        );
        let (mut bas, _a2, _x2) = strategy(
            MdsParams::new(12, 6),
            S2c2Mode::Basic,
            PredictorSource::Oracle,
        );
        let mut sim_g = ClusterSim::new(spec.clone());
        let mut sim_b = ClusterSim::new(spec);
        let mut lg = 0.0;
        let mut lb = 0.0;
        for iter in 0..8 {
            lg += gen
                .run_iteration(&mut sim_g, iter, &x)
                .unwrap()
                .metrics
                .latency;
            lb += bas
                .run_iteration(&mut sim_b, iter, &x)
                .unwrap()
                .metrics
                .latency;
        }
        assert!(
            lg < lb,
            "general ({lg}) should beat basic ({lb}) under variation"
        );
    }

    #[test]
    fn robust_to_every_worker_mispredicted() {
        // Uniform predictor + volatile cluster: rounds keep decoding
        // correctly no matter how wrong the predictions are (§4.4).
        let (mut s, a, x) = strategy(
            MdsParams::new(10, 7),
            S2c2Mode::General,
            PredictorSource::Uniform,
        );
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(10)
                .compute_bound()
                .seed(3)
                .cloud(&s2c2_trace::CloudTraceConfig::volatile())
                .build(),
        );
        for iter in 0..6 {
            let out = s.run_iteration(&mut sim, iter, &x).unwrap();
            s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        }
    }

    #[test]
    fn work_scales_inversely_with_active_workers() {
        // The headline formula: with s active workers each does ~D/s rows.
        let (mut s, _a, x) = strategy(
            MdsParams::new(12, 6),
            S2c2Mode::Basic,
            PredictorSource::Oracle,
        );
        for stragglers in [0usize, 2, 4] {
            let ids: Vec<usize> = (0..stragglers).collect();
            let mut sim = ClusterSim::new(
                ClusterSpec::builder(12)
                    .straggler_slowdown(6.0)
                    .stragglers(&ids, 0.0)
                    .build(),
            );
            let out = s.run_iteration(&mut sim, 0, &x).unwrap();
            let active = 12 - stragglers;
            let expect = 720.0 / active as f64;
            for w in stragglers..12 {
                let got = out.metrics.assigned_rows[w] as f64;
                assert!(
                    (got - expect).abs() <= s.coded.encoded().layout().rows_per_chunk() as f64,
                    "{stragglers} stragglers: worker {w} rows {got}, expected ~{expect}"
                );
            }
        }
    }

    #[test]
    fn a_round_after_the_product_is_a_fresh_round_that_computes_only_parity() {
        use crate::strategy::round::round_bits;
        use crate::strategy::StrategyKind;

        // 1 001 rows pad under (12, 6) and (12, 12) with 7 chunks; the
        // systematic stragglers 1 and 4 push rounds onto parity workers.
        let a = Matrix::from_fn(1_001, 24, |r, c| ((r * 3 + c * 7) % 17) as f64 / 4.0 - 2.0);
        let warm_up = Vector::from_fn(24, |i| 0.1 * i as f64 - 1.0);
        let x = Vector::from_fn(24, |i| (i as f64 * 0.45).cos());
        let spec = ClusterSpec::builder(12)
            .compute_bound()
            .straggler_slowdown(5.0)
            .stragglers(&[1, 4, 9], 0.1)
            .build();
        let chunks = 7;
        let k_of = |kind| if kind == StrategyKind::Uncoded { 12 } else { 6 };

        // Iteration 1 of `kind` at `threads`, S²C² after a warm-up round
        // that taught its tracker; with `keep`, the job computed the
        // product of `x` first. Returns the round's bits, the tracker's
        // forecasts after it, and the pairs the round computed.
        let round = |kind: StrategyKind, threads: usize, keep: bool| {
            let params = MdsParams::new(12, k_of(kind));
            let mut sim = ClusterSim::new(spec.clone());
            let mode = match kind {
                StrategyKind::Uncoded | StrategyKind::MdsCoded => {
                    let coded = CodedMatvec::new(&a, params, chunks).unwrap();
                    sim.begin_iteration(1);
                    if keep {
                        coded.product(&x).unwrap();
                    }
                    let assignment = coded.full_assignment();
                    let (out, feedback, computed) = coded
                        .run_round_with_threads(&assignment, &sim, &x, 0.15, false, None, threads)
                        .unwrap();
                    let bits = round_bits(out.result.as_slice(), &out.metrics, &feedback);
                    return (bits, Vec::new(), computed);
                }
                StrategyKind::S2c2Basic => S2c2Mode::Basic,
                StrategyKind::S2c2General => S2c2Mode::General,
                other => panic!("{other} keeps no product"),
            };
            let predictor = PredictorSource::LastValue;
            let mut s = S2c2Strategy::new(&a, params, chunks, mode, &predictor, 12).unwrap();
            s.run_iteration(&mut sim, 0, &warm_up).unwrap();
            // `run_iteration` at `threads`.
            sim.begin_iteration(1);
            if keep {
                s.product(&x).unwrap();
            }
            let (preds, margin) = s.sched.forecast(&sim).unwrap();
            let assignment = s.build_assignment(&preds);
            let expected = (mode == S2c2Mode::General).then_some(preds.as_slice());
            let (out, feedback, computed) = s
                .coded
                .run_round_with_threads(&assignment, &sim, &x, margin, true, expected, threads)
                .unwrap();
            s.sched.learn(&feedback);
            let bits = round_bits(out.result.as_slice(), &out.metrics, &feedback);
            let forecasts = s.tracker().predictions(&sim);
            (
                bits,
                forecasts.iter().map(|f| f.to_bits()).collect(),
                computed,
            )
        };

        for kind in [
            StrategyKind::Uncoded,
            StrategyKind::MdsCoded,
            StrategyKind::S2c2Basic,
            StrategyKind::S2c2General,
        ] {
            // A fresh job computes every pair its round chose.
            let (fresh, fresh_forecasts, chosen) = round(kind, 1, false);
            let k = k_of(kind);
            assert!(chosen.iter().any(|&(w, _)| w < k), "{kind}");
            let parity: Vec<(usize, usize)> =
                chosen.iter().copied().filter(|&(w, _)| w >= k).collect();
            assert_eq!(parity.is_empty(), kind == StrategyKind::Uncoded, "{kind}");
            for threads in [1, 2, 3, 7] {
                let (bits, forecasts, computed) = round(kind, threads, true);
                assert_eq!(bits, fresh, "{kind}, {threads} threads");
                assert_eq!(forecasts, fresh_forecasts, "{kind}, {threads} threads");
                assert_eq!(computed, parity, "{kind}, {threads} threads");
            }
        }
    }

    #[test]
    fn mismatched_cluster_size_rejected() {
        let (a, _) = data();
        let err = S2c2Strategy::new(
            &a,
            MdsParams::new(12, 6),
            4,
            S2c2Mode::General,
            &PredictorSource::Uniform,
            10,
        )
        .unwrap_err();
        assert!(matches!(err, S2c2Error::InvalidConfig(_)));
    }

    #[test]
    fn name_reflects_mode_and_params() {
        let (s, _, _) = strategy(
            MdsParams::new(12, 6),
            S2c2Mode::General,
            PredictorSource::Uniform,
        );
        assert_eq!(s.name(), "s2c2-general(12,6)");
    }
}
