//! High-level job facade: build a strategy + simulator pair and run
//! iterations against it, accumulating metrics.
//!
//! This is the API the examples and workloads use; the strategies remain
//! directly accessible for benches that need finer control.

use crate::error::S2c2Error;
use crate::speed_tracker::PredictorSource;
use crate::strategy::s2c2::S2c2Mode;
use crate::strategy::{
    IterationOutcome, MatvecStrategy, MdsStrategy, OverDecompositionStrategy, ReplicationStrategy,
    S2c2Strategy, StrategyKind,
};
use s2c2_cluster::{ClusterSim, ClusterSpec, JobMetrics};
use s2c2_coding::mds::MdsParams;
use s2c2_linalg::{Matrix, Vector};

/// Builder for a [`CodedJob`].
pub struct CodedJobBuilder {
    a: Matrix,
    params: MdsParams,
    chunks_per_worker: usize,
    strategy: StrategyKind,
    predictor: PredictorSource,
    replicas: usize,
    max_speculative: usize,
    overdecomp_factor: usize,
    seed: u64,
}

impl CodedJobBuilder {
    /// Starts a builder over data matrix `a` with `(n, k)` code `params`.
    #[must_use]
    pub fn new(a: Matrix, params: MdsParams) -> Self {
        CodedJobBuilder {
            a,
            params,
            chunks_per_worker: 8,
            strategy: StrategyKind::S2c2General,
            predictor: PredictorSource::LastValue,
            replicas: 3,
            max_speculative: 6,
            overdecomp_factor: 4,
            seed: 42,
        }
    }

    /// Over-decomposition granularity (chunks per coded partition).
    #[must_use]
    pub fn chunks_per_worker(mut self, chunks: usize) -> Self {
        self.chunks_per_worker = chunks;
        self
    }

    /// Which strategy runs the job.
    #[must_use]
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.strategy = kind;
        self
    }

    /// Speed-prediction source for the adaptive strategies.
    #[must_use]
    pub fn predictor(mut self, predictor: PredictorSource) -> Self {
        self.predictor = predictor;
        self
    }

    /// Replication factor for [`StrategyKind::Replication`] (default 3).
    #[must_use]
    pub fn replicas(mut self, r: usize) -> Self {
        self.replicas = r;
        self
    }

    /// Max speculative relaunches per round (default 6).
    #[must_use]
    pub fn max_speculative(mut self, m: usize) -> Self {
        self.max_speculative = m;
        self
    }

    /// Over-decomposition factor for
    /// [`StrategyKind::OverDecomposition`] (default 4).
    #[must_use]
    pub fn overdecomp_factor(mut self, f: usize) -> Self {
        self.overdecomp_factor = f;
        self
    }

    /// Seed for placement decisions.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the job against a cluster.
    ///
    /// # Errors
    ///
    /// Configuration mismatches (cluster size vs `n`, degenerate shapes)
    /// surface as [`S2c2Error::InvalidConfig`].
    pub fn build(self, cluster: ClusterSpec) -> Result<CodedJob, S2c2Error> {
        let n = cluster.n();
        if n != self.params.n {
            return Err(S2c2Error::InvalidConfig(format!(
                "code n = {} but cluster has {n} workers",
                self.params.n
            )));
        }
        let strategy: Box<dyn MatvecStrategy> = match self.strategy {
            StrategyKind::Uncoded => {
                Box::new(MdsStrategy::uncoded(&self.a, n, self.chunks_per_worker)?)
            }
            StrategyKind::Replication => Box::new(ReplicationStrategy::new(
                &self.a,
                n,
                self.replicas,
                self.max_speculative,
                self.seed,
            )?),
            StrategyKind::MdsCoded => Box::new(MdsStrategy::new(
                &self.a,
                self.params,
                self.chunks_per_worker,
            )?),
            StrategyKind::S2c2Basic => Box::new(S2c2Strategy::new(
                &self.a,
                self.params,
                self.chunks_per_worker,
                S2c2Mode::Basic,
                &self.predictor,
                n,
            )?),
            StrategyKind::S2c2General => Box::new(S2c2Strategy::new(
                &self.a,
                self.params,
                self.chunks_per_worker,
                S2c2Mode::General,
                &self.predictor,
                n,
            )?),
            StrategyKind::OverDecomposition => Box::new(OverDecompositionStrategy::new(
                &self.a,
                n,
                self.overdecomp_factor,
                self.params.storage_overhead(),
                &self.predictor,
                self.seed,
            )?),
        };
        Ok(CodedJob {
            strategy,
            sim: ClusterSim::new(cluster),
            metrics: JobMetrics::new(),
            iteration: 0,
        })
    }
}

/// A running iterative job: strategy + simulated cluster + accumulated
/// metrics.
pub struct CodedJob {
    strategy: Box<dyn MatvecStrategy>,
    sim: ClusterSim,
    metrics: JobMetrics,
    iteration: usize,
}

impl std::fmt::Debug for CodedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodedJob")
            .field("strategy", &self.strategy.name())
            .field("iteration", &self.iteration)
            .finish()
    }
}

impl CodedJob {
    /// Runs the next iteration with input `x`.
    ///
    /// # Errors
    ///
    /// Propagates strategy failures.
    pub fn run_iteration(&mut self, x: &Vector) -> Result<IterationOutcome, S2c2Error> {
        let out = self
            .strategy
            .run_iteration(&mut self.sim, self.iteration, x)?;
        self.metrics.push(out.metrics.clone());
        self.iteration += 1;
        Ok(out)
    }

    /// Accumulated metrics over every completed iteration.
    #[must_use]
    pub fn metrics(&self) -> &JobMetrics {
        &self.metrics
    }

    /// Next iteration index.
    #[must_use]
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The strategy's display name.
    #[must_use]
    pub fn strategy_name(&self) -> String {
        self.strategy.name()
    }

    /// Per-worker storage requirement of the strategy.
    #[must_use]
    pub fn storage_bytes_per_worker(&self) -> u64 {
        self.strategy.storage_bytes_per_worker()
    }

    /// Number of cluster workers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.sim.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> (Matrix, Vector) {
        let a = Matrix::from_fn(480, 5, |r, c| ((r + c * 3) % 7) as f64);
        let x = Vector::from_fn(5, |i| 1.0 / (1.0 + i as f64));
        (a, x)
    }

    #[test]
    fn every_strategy_kind_builds_and_runs() {
        let (a, x) = data();
        let expect = a.matvec(&x);
        for kind in StrategyKind::all() {
            let cluster = ClusterSpec::builder(12)
                .straggler_slowdown(5.0)
                .stragglers(&[2], 0.1)
                .build();
            let mut job = CodedJobBuilder::new(a.clone(), MdsParams::new(12, 6))
                .chunks_per_worker(12)
                .strategy(kind)
                .build(cluster)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            for _ in 0..3 {
                let out = job
                    .run_iteration(&x)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                s2c2_linalg::assert_slices_close(out.result.as_slice(), expect.as_slice(), 1e-6);
            }
            assert_eq!(job.metrics().len(), 3, "{kind}");
            assert_eq!(job.iteration(), 3);
            assert!(job.storage_bytes_per_worker() > 0);
        }
    }

    #[test]
    fn cluster_size_mismatch_rejected() {
        let (a, _) = data();
        let cluster = ClusterSpec::builder(10).build();
        let err = CodedJobBuilder::new(a, MdsParams::new(12, 6))
            .build(cluster)
            .unwrap_err();
        assert!(matches!(err, S2c2Error::InvalidConfig(_)));
    }

    #[test]
    fn metrics_accumulate_latency() {
        let (a, x) = data();
        let cluster = ClusterSpec::builder(6).build();
        let mut job = CodedJobBuilder::new(a, MdsParams::new(6, 4))
            .strategy(StrategyKind::MdsCoded)
            .build(cluster)
            .unwrap();
        for _ in 0..5 {
            job.run_iteration(&x).unwrap();
        }
        assert!(job.metrics().total_latency() > 0.0);
        assert!((job.metrics().mean_latency() * 5.0 - job.metrics().total_latency()).abs() < 1e-9);
    }
}
