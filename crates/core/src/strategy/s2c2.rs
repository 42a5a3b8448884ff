//! The one scheduler over an `(n, k)`-MDS-coded matrix: S²C², the
//! paper's contribution (§4), and conventional coded computing as its
//! non-adaptive schedule.
//!
//! Data is encoded **once** with a conservative `(n, k)` code, and both
//! schedules run on that very encoding:
//! [`CodedJobBuilder::from_encoding`](crate::job::CodedJobBuilder::from_encoding)
//! hands jobs one shared allocation, so switching a job from MDS to S²C²
//! re-encodes and re-distributes nothing.
//!
//! * **Conventional** (Lee et al., §7.1/7.2 baseline): every worker
//!   computes its *entire* coded partition every iteration and the
//!   master decodes from the fastest `k`. Robust to `n − k` stragglers,
//!   but each worker does `1/k` of the data regardless of cluster
//!   health and the slowest `n − k` workers' effort is always wasted —
//!   the two inefficiencies S²C² removes. No speed tracker is built,
//!   consulted or fed. Its degenerate `(n, n)` code is the uncoded even
//!   split of §2: the master waits for everyone.
//! * **Adaptive** (S²C²): every iteration the scheduler
//!   1. obtains per-worker speed estimates from the [`SpeedTracker`]
//!      (LSTM/ARIMA forecasts, last-value, uniform, or the oracle),
//!   2. runs Algorithm 1 to assign each worker a subset of its own coded
//!      partition's chunks — proportional to speed, every chunk index
//!      covered by exactly `k` workers (*basic* mode instead excludes
//!      detected stragglers and splits evenly among the rest),
//!   3. executes the round with the §4.3 timeout: if a worker misses
//!      `(1 + margin) ×` the mean response of the first `k` finishers,
//!      its chunks are recomputed by finished workers (who already hold
//!      the coded data — no data movement, ever),
//!   4. feeds observed speeds back to the predictors.
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
use crate::strategy::round::{Feedback, TIMEOUT_MARGIN};
use crate::strategy::{IterationOutcome, MatvecStrategy};
use s2c2_cluster::ClusterSim;
use s2c2_coding::cache::CachedEncoding;
use s2c2_coding::mds::MdsParams;
use s2c2_linalg::{IntoShared, Vector};
use std::sync::Arc;

/// Basic mode: a worker is a straggler when its estimated speed falls
/// below this fraction of the median estimate.
const STRAGGLER_THRESHOLD: f64 = 0.5;

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
            timeout_margin: TIMEOUT_MARGIN,
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

/// The scheduler over an `(n, k)`-MDS-coded matrix, on the conventional
/// or the adaptive schedule.
pub struct S2c2Strategy {
    coded: CodedMatvec,
    name: String,
    /// The adaptive schedule's variant and loop; `None` is the
    /// conventional schedule.
    adaptive: Option<(S2c2Mode, AdaptiveScheduler)>,
}

impl std::fmt::Debug for S2c2Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S2c2Strategy")
            .field("name", &self.name)
            .field("rounds", &self.adaptive.as_ref().map(|(_, s)| s.rounds))
            .finish()
    }
}

impl S2c2Strategy {
    /// Encodes `a` and builds the adaptive scheduler; the encoding keeps
    /// `a` as its systematic partitions (a borrowed matrix is copied
    /// once).
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
        Ok(Self::over(coded, Some((mode, predictor))))
    }

    /// Conventional MDS: encodes `a` with an `(n, k)` code and
    /// `chunks_per_partition`-way chunking; the encoding keeps `a` as
    /// its systematic partitions (a borrowed matrix is copied once).
    ///
    /// # Errors
    ///
    /// Propagates invalid code parameters or degenerate shapes.
    pub fn conventional(
        a: impl IntoShared,
        params: MdsParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        Ok(Self::over(
            CodedMatvec::new(a, params, chunks_per_partition)?,
            None,
        ))
    }

    /// The uncoded even-split baseline (§2's strawman): every worker
    /// owns `1/n` of the rows and the master waits for everyone — the
    /// conventional schedule on the degenerate `(n, n)` code (identity
    /// generator, no parity), which gives exactly the "speed of the
    /// slowest node" behaviour. The chunking only matters for metric
    /// granularity here.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures for degenerate shapes.
    pub fn uncoded(
        a: impl IntoShared,
        n: usize,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        Ok(S2c2Strategy {
            coded: CodedMatvec::new(a, MdsParams::new(n, n), chunks_per_partition)?,
            name: "uncoded".into(),
            adaptive: None,
        })
    }

    /// The scheduler over an existing (possibly shared) encoding — the
    /// paper's "no data re-distribution": S²C² (`Some(mode)`) runs on
    /// the very coded partitions conventional MDS (`None`) computes
    /// against, and no data is copied or re-encoded. The caller has
    /// checked the code against the cluster.
    pub(crate) fn from_encoding(
        encoding: Arc<CachedEncoding>,
        mode: Option<S2c2Mode>,
        predictor: &PredictorSource,
    ) -> Self {
        Self::over(
            CodedMatvec::over(encoding),
            mode.map(|mode| (mode, predictor)),
        )
    }

    /// The adaptive schedule in `mode` on forecasts from `predictor`, or
    /// for `None` the conventional one.
    fn over(coded: CodedMatvec, adaptive: Option<(S2c2Mode, &PredictorSource)>) -> Self {
        let p = coded.code().params();
        let name = match adaptive {
            None => format!("mds({},{})", p.n, p.k),
            Some((S2c2Mode::Basic, _)) => format!("s2c2-basic({},{})", p.n, p.k),
            Some((S2c2Mode::General, _)) => format!("s2c2-general({},{})", p.n, p.k),
        };
        S2c2Strategy {
            coded,
            name,
            adaptive: adaptive
                .map(|(mode, predictor)| (mode, AdaptiveScheduler::new(predictor, p.n))),
        }
    }

    /// Overrides the adaptive schedule's §4.3 timeout margin (default
    /// 0.15, from the paper's observed 16.7% prediction error). The
    /// conventional schedule never cancels, so it has no margin to set.
    ///
    /// # Panics
    ///
    /// Panics on a negative margin.
    pub fn set_timeout_margin(&mut self, margin: f64) {
        assert!(margin >= 0.0, "timeout margin must be non-negative");
        if let Some((_, sched)) = &mut self.adaptive {
            sched.timeout_margin = margin;
        }
    }

    /// Fraction of rounds in which the timeout fired and work was
    /// rebuilt (the measured mis-prediction rate of §7.2); 0 under the
    /// conventional schedule, which never reassigns.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        self.adaptive
            .as_ref()
            .map_or(0.0, |(_, sched)| sched.misprediction_rate())
    }

    /// The code parameters in use.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.coded.code().params()
    }

    /// The speed tracker whose forecasts drive the next allocation
    /// (read-only: this is how a test sees the observed speeds a round
    /// fed back).
    ///
    /// # Panics
    ///
    /// Panics under the conventional schedule, which builds no tracker.
    #[must_use]
    pub fn tracker(&self) -> &SpeedTracker {
        #[expect(
            clippy::expect_used,
            reason = "documented: only the adaptive schedule has a tracker"
        )]
        self.adaptive
            .as_ref()
            .map(|(_, sched)| sched.tracker())
            .expect("the conventional schedule builds no tracker")
    }
}

/// Algorithm 1 on the forecasts (general), or detected stragglers
/// excluded and an even split among the rest (basic); the conventional
/// full assignment when the forecasts leave fewer than `k` workers
/// schedulable.
fn allocate(coded: &CodedMatvec, mode: S2c2Mode, preds: &[f64]) -> ChunkAssignment {
    let k = coded.code().params().k;
    let c = coded.encoded().layout().chunks_per_partition;
    let attempt = match mode {
        S2c2Mode::General => allocate_chunks(preds, k, c),
        S2c2Mode::Basic => {
            let mut sorted: Vec<f64> = preds.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted[sorted.len() / 2];
            let available: Vec<bool> = preds
                .iter()
                .map(|&s| s >= STRAGGLER_THRESHOLD * median)
                .collect();
            allocate_chunks_basic(&available, k, c)
        }
    };
    // §4.4 fallback: an unschedulable prediction state (fewer than k
    // workers believed alive) degrades to conventional coded computing
    // rather than failing.
    attempt.unwrap_or_else(|_| coded.full_assignment())
}

impl MatvecStrategy for S2c2Strategy {
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
        let Some((mode, sched)) = &mut self.adaptive else {
            // Conventional coded computing never reassigns (and plain
            // uncoded has no recovery mechanism at all).
            let assignment = self.coded.full_assignment();
            let (outcome, _) =
                self.coded
                    .run_round(&assignment, sim, x, TIMEOUT_MARGIN, false, None)?;
            return Ok(outcome);
        };
        let (preds, margin) = sched.forecast(sim)?;
        let assignment = allocate(&self.coded, *mode, &preds);
        // Basic mode plans on its equal-speed assumption; general mode
        // on the actual predictions.
        let expected = (*mode == S2c2Mode::General).then_some(preds.as_slice());
        let (outcome, feedback) =
            self.coded
                .run_round(&assignment, sim, x, margin, true, expected)?;
        sched.learn(&feedback);
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
            let (_, sched) = s.adaptive.as_mut().unwrap();
            let (preds, margin) = sched.forecast(&sim).unwrap();
            let assignment = allocate(&s.coded, mode, &preds);
            let expected = (mode == S2c2Mode::General).then_some(preds.as_slice());
            let (out, feedback, computed) = s
                .coded
                .run_round_with_threads(&assignment, &sim, &x, margin, true, expected, threads)
                .unwrap();
            sched.learn(&feedback);
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

    #[test]
    fn the_conventional_schedule_ignores_the_margin_and_never_mispredicts() {
        let (a, x) = data();
        let spec = ClusterSpec::builder(12)
            .compute_bound()
            .straggler_slowdown(5.0)
            .stragglers(&[1, 7], 0.2)
            .build();
        let latencies = |margin: Option<f64>| {
            let mut s = S2c2Strategy::conventional(&a, MdsParams::new(12, 6), 12).unwrap();
            if let Some(margin) = margin {
                s.set_timeout_margin(margin);
            }
            let mut sim = ClusterSim::new(spec.clone());
            let bits: Vec<u64> = (0..3)
                .map(|i| {
                    s.run_iteration(&mut sim, i, &x)
                        .unwrap()
                        .metrics
                        .latency
                        .to_bits()
                })
                .collect();
            assert_eq!(s.misprediction_rate(), 0.0);
            bits
        };
        assert_eq!(latencies(Some(0.0)), latencies(None));
    }

    #[test]
    #[should_panic(expected = "the conventional schedule builds no tracker")]
    fn the_conventional_schedule_has_no_tracker() {
        let (a, _) = data();
        let s = S2c2Strategy::conventional(&a, MdsParams::new(12, 6), 12).unwrap();
        let _ = s.tracker();
    }
}
