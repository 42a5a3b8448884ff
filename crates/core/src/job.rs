//! High-level job facade: build a strategy + simulator pair and run
//! iterations against it, accumulating metrics.
//!
//! This is the API the examples and workloads use; the strategies remain
//! directly accessible for experiments that need finer control.

use crate::error::S2c2Error;
use crate::speed_tracker::PredictorSource;
use crate::strategy::s2c2::S2c2Mode;
use crate::strategy::{
    IterationOutcome, MatvecStrategy, OverDecompositionStrategy, ReplicationStrategy, S2c2Strategy,
    StrategyKind,
};
use s2c2_cluster::{ClusterSim, ClusterSpec, JobMetrics};
use s2c2_coding::cache::CachedEncoding;
use s2c2_coding::mds::{MdsCode, MdsParams};
use s2c2_linalg::{Matrix, Vector};
use std::sync::Arc;

/// What a job is built from.
enum JobData {
    /// The data matrix; the strategy encodes or splits it itself.
    Matrix(Arc<Matrix>),
    /// An MDS encoding of it that other jobs may share.
    Encoded(Arc<CachedEncoding>),
}

/// Replication factor of [`StrategyKind::Replication`].
const REPLICAS: usize = 3;
/// Speculative relaunches per round under [`StrategyKind::Replication`].
const MAX_SPECULATIVE: usize = 6;
/// Over-decomposition factor of [`StrategyKind::OverDecomposition`].
const OVERDECOMP_FACTOR: usize = 4;
/// Seed of the replicated and over-decomposed placements.
const PLACEMENT_SEED: u64 = 42;

/// Builder for a [`CodedJob`].
pub struct CodedJobBuilder {
    data: JobData,
    params: MdsParams,
    chunks_per_worker: usize,
    strategy: StrategyKind,
    predictor: PredictorSource,
}

impl CodedJobBuilder {
    /// Starts a builder over data matrix `a` with `(n, k)` code `params`
    /// (an `Arc<Matrix>` is taken without copying the data).
    #[must_use]
    pub fn new(a: impl Into<Arc<Matrix>>, params: MdsParams) -> Self {
        Self::over(JobData::Matrix(a.into()), params)
    }

    /// Starts a builder over an existing MDS encoding, shared with every
    /// other job built on it: no copy, no re-encode. Only the strategies
    /// that run on that encoding — [`StrategyKind::MdsCoded`],
    /// [`StrategyKind::S2c2Basic`] and [`StrategyKind::S2c2General`] —
    /// can be built this way, and the encoding's `(n, k)` and chunking
    /// must be `params` and [`Self::chunks_per_worker`]'s.
    #[must_use]
    pub fn from_encoding(encoding: Arc<CachedEncoding>, params: MdsParams) -> Self {
        Self::over(JobData::Encoded(encoding), params)
    }

    fn over(data: JobData, params: MdsParams) -> Self {
        CodedJobBuilder {
            data,
            params,
            chunks_per_worker: 8,
            strategy: StrategyKind::S2c2General,
            predictor: PredictorSource::LastValue,
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

    /// Builds the job against a cluster.
    ///
    /// # Errors
    ///
    /// Configuration mismatches (cluster size vs `n`, degenerate shapes,
    /// a shared encoding of another geometry or under a strategy that
    /// does not run on it) surface as [`S2c2Error::InvalidConfig`].
    pub fn build(self, cluster: ClusterSpec) -> Result<CodedJob, S2c2Error> {
        let n = cluster.n();
        if n != self.params.n {
            return Err(S2c2Error::InvalidConfig(format!(
                "code n = {} but cluster has {n} workers",
                self.params.n
            )));
        }
        let strategy: Box<dyn MatvecStrategy> = match self.strategy {
            StrategyKind::Uncoded => Box::new(S2c2Strategy::uncoded(
                self.matrix()?,
                n,
                self.chunks_per_worker,
            )?),
            StrategyKind::Replication => Box::new(ReplicationStrategy::new(
                self.matrix()?,
                n,
                REPLICAS,
                MAX_SPECULATIVE,
                PLACEMENT_SEED,
            )?),
            StrategyKind::MdsCoded => Box::new(S2c2Strategy::from_encoding(
                self.encoding()?,
                None,
                &self.predictor,
            )),
            StrategyKind::S2c2Basic => Box::new(S2c2Strategy::from_encoding(
                self.encoding()?,
                Some(S2c2Mode::Basic),
                &self.predictor,
            )),
            StrategyKind::S2c2General => Box::new(S2c2Strategy::from_encoding(
                self.encoding()?,
                Some(S2c2Mode::General),
                &self.predictor,
            )),
            StrategyKind::OverDecomposition => Box::new(OverDecompositionStrategy::new(
                self.matrix()?,
                n,
                OVERDECOMP_FACTOR,
                self.params.storage_overhead(),
                &self.predictor,
                PLACEMENT_SEED,
            )?),
        };
        Ok(CodedJob {
            strategy,
            sim: ClusterSim::new(cluster),
            metrics: JobMetrics::new(),
            iteration: 0,
        })
    }

    /// The matrix, for the strategies that split or encode it
    /// themselves.
    fn matrix(&self) -> Result<&Arc<Matrix>, S2c2Error> {
        match &self.data {
            JobData::Matrix(a) => Ok(a),
            JobData::Encoded(_) => Err(S2c2Error::InvalidConfig(format!(
                "{} does not run on an MDS encoding; build it from the matrix",
                self.strategy
            ))),
        }
    }

    /// The job's `(n, k)` encoding: the shared one after checking it is
    /// the encoding this job would have built, or the matrix encoded now.
    fn encoding(&self) -> Result<Arc<CachedEncoding>, S2c2Error> {
        match &self.data {
            JobData::Encoded(encoding) => {
                let params = encoding.code.params();
                let chunks = encoding.encoded.layout().chunks_per_partition;
                if (params, chunks) == (self.params, self.chunks_per_worker) {
                    Ok(Arc::clone(encoding))
                } else {
                    Err(S2c2Error::InvalidConfig(format!(
                        "shared encoding is ({}, {}) with {chunks} chunks per worker, \
                         the job asks for ({}, {}) with {}",
                        params.n, params.k, self.params.n, self.params.k, self.chunks_per_worker
                    )))
                }
            }
            JobData::Matrix(a) => {
                let code = MdsCode::new(self.params)?;
                let encoded = code.encode(a, self.chunks_per_worker)?;
                Ok(Arc::new(CachedEncoding { code, encoded }))
            }
        }
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
    /// [`S2c2Error::InvalidConfig`] unless `x` has one entry per column
    /// of the job's matrix, before anything runs; propagates strategy
    /// failures. A failed iteration does not advance the job.
    pub fn run_iteration(&mut self, x: &Vector) -> Result<IterationOutcome, S2c2Error> {
        let out = self
            .strategy
            .run_iteration(&mut self.sim, self.iteration, x)?;
        self.metrics.push(out.metrics.clone());
        self.iteration += 1;
        Ok(out)
    }

    /// The exact product `A·x` from the data the job's strategy stores,
    /// on every host core ([`MatvecStrategy::product`]). It runs no
    /// round: the simulated cluster, the iteration count and the metrics
    /// are untouched. A coded job (uncoded, MDS, S²C²) keeps the
    /// systematic part of it, so its next iteration on bit-identical `x`
    /// computes only the parity responses its plan chose.
    ///
    /// # Errors
    ///
    /// [`S2c2Error::InvalidConfig`] unless `x` has one entry per column
    /// of the job's matrix.
    pub fn product(&self, x: &Vector) -> Result<Vector, S2c2Error> {
        self.strategy.product(x)
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

    /// Per-worker storage requirement of the strategy.
    #[must_use]
    pub fn storage_bytes_per_worker(&self) -> u64 {
        self.strategy.storage_bytes_per_worker()
    }

    /// The MDS encoding the job computes against, if its strategy runs on
    /// one — the shared allocation for a job built with
    /// [`CodedJobBuilder::from_encoding`].
    #[must_use]
    pub fn encoding(&self) -> Option<&Arc<CachedEncoding>> {
        self.strategy.encoding()
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

    fn bits(v: &Vector) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_strategy_kind_builds_and_runs() {
        let (a, x) = data();
        let expect = a.matvec(&x);
        // Every pool of 3..=20 workers, including 6 and 18, where
        // replication's placement stride cycles through fewer workers
        // than its 3 replicas.
        for (n, kind) in (3..=20).flat_map(|n| StrategyKind::all().map(|kind| (n, kind))) {
            let cluster = ClusterSpec::builder(n)
                .straggler_slowdown(5.0)
                .stragglers(&[2], 0.1)
                .build();
            let mut job = CodedJobBuilder::new(a.clone(), MdsParams::new(n, n / 2))
                .chunks_per_worker(12)
                .strategy(kind)
                .build(cluster)
                .unwrap_or_else(|e| panic!("{kind} on {n}: {e}"));
            // The exact product, bit for bit, without running a round.
            assert_eq!(
                bits(&job.product(&x).unwrap()),
                bits(&expect),
                "{kind} on {n}"
            );
            assert_eq!(job.iteration(), 0);
            for _ in 0..3 {
                let out = job
                    .run_iteration(&x)
                    .unwrap_or_else(|e| panic!("{kind} on {n}: {e}"));
                s2c2_linalg::assert_slices_close(out.result.as_slice(), expect.as_slice(), 1e-6);
            }
            assert_eq!(job.metrics().len(), 3, "{kind} on {n}");
            assert_eq!(job.iteration(), 3);
            assert!(job.storage_bytes_per_worker() > 0);
        }
    }

    #[test]
    fn an_input_of_the_wrong_length_is_a_typed_error() {
        // Four entries against five columns.
        let (a, _) = data();
        let short = Vector::filled(4, 1.0);
        for kind in StrategyKind::all() {
            let mut job = CodedJobBuilder::new(a.clone(), MdsParams::new(12, 6))
                .chunks_per_worker(12)
                .strategy(kind)
                .build(straggling(12))
                .unwrap();
            let err = job.run_iteration(&short).unwrap_err();
            assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{kind}: {err}");
            assert_eq!(job.iteration(), 0, "{kind}");
            assert!(job.metrics().is_empty(), "{kind}");
            let err = job.product(&short).unwrap_err();
            assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{kind}: {err}");
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

    fn shared(a: &Matrix, params: MdsParams, chunks: usize) -> Arc<CachedEncoding> {
        let code = s2c2_coding::mds::MdsCode::new(params).unwrap();
        let encoded = code.encode(a, chunks).unwrap();
        Arc::new(CachedEncoding { code, encoded })
    }

    fn straggling(n: usize) -> ClusterSpec {
        ClusterSpec::builder(n)
            .straggler_slowdown(5.0)
            .stragglers(&[2], 0.1)
            .build()
    }

    #[test]
    fn jobs_on_a_shared_encoding_alias_it_and_match_jobs_on_the_matrix() {
        let (a, x) = data();
        let params = MdsParams::new(12, 6);
        let encoding = shared(&a, params, 12);
        for kind in [
            StrategyKind::MdsCoded,
            StrategyKind::S2c2Basic,
            StrategyKind::S2c2General,
        ] {
            assert!(kind.runs_on_mds_encoding());
            let mut on_shared = CodedJobBuilder::from_encoding(Arc::clone(&encoding), params)
                .chunks_per_worker(12)
                .strategy(kind)
                .build(straggling(12))
                .unwrap();
            assert!(Arc::ptr_eq(on_shared.encoding().unwrap(), &encoding));
            let mut on_matrix = CodedJobBuilder::new(a.clone(), params)
                .chunks_per_worker(12)
                .strategy(kind)
                .build(straggling(12))
                .unwrap();
            assert!(!Arc::ptr_eq(on_matrix.encoding().unwrap(), &encoding));
            for _ in 0..3 {
                let s = on_shared.run_iteration(&x).unwrap();
                let m = on_matrix.run_iteration(&x).unwrap();
                assert_eq!(s.result, m.result, "{kind}");
                assert_eq!(s.metrics.latency.to_bits(), m.metrics.latency.to_bits());
            }
        }
        // Three jobs built, still the one encoding.
        assert_eq!(Arc::strong_count(&encoding), 1);
    }

    #[test]
    fn shared_encoding_of_another_geometry_or_strategy_is_rejected() {
        let (a, _) = data();
        let params = MdsParams::new(12, 6);
        let encoding = shared(&a, params, 12);
        let build = |params: MdsParams, chunks: usize, kind: StrategyKind| {
            CodedJobBuilder::from_encoding(Arc::clone(&encoding), params)
                .chunks_per_worker(chunks)
                .strategy(kind)
                .build(straggling(params.n))
        };
        for (p, chunks) in [(MdsParams::new(12, 8), 12), (params, 6)] {
            let err = build(p, chunks, StrategyKind::MdsCoded).unwrap_err();
            assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{err}");
        }
        for kind in StrategyKind::all() {
            if !kind.runs_on_mds_encoding() {
                let err = build(params, 12, kind).unwrap_err();
                assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{kind}: {err}");
            }
        }
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
