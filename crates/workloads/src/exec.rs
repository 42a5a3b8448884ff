//! Shared execution configuration for the distributed workloads.
//!
//! Bundles everything a workload needs to stand up its coded job(s):
//! code parameters, chunking, strategy, predictor, and the cluster spec.
//! Each workload clones the spec per job it creates (forward and backward
//! products run as separate jobs whose speed processes advance
//! independently — a documented simplification; relative latencies across
//! strategies, which is what every figure reports, are unaffected).

use crate::datasets::{Classification, Orientation};
use s2c2_cluster::ClusterSpec;
use s2c2_coding::mds::MdsParams;
use s2c2_core::job::{CodedJob, CodedJobBuilder};
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_core::S2c2Error;
use s2c2_linalg::Matrix;
use std::sync::Arc;

/// Execution configuration shared by the workloads.
pub struct ExecConfig {
    /// `(n, k)` code parameters (n must match the cluster size).
    pub params: MdsParams,
    /// Chunks per coded partition.
    pub chunks_per_worker: usize,
    /// Scheduling strategy.
    pub strategy: StrategyKind,
    /// Speed prediction source.
    pub predictor: PredictorSource,
    /// Cluster description.
    pub cluster: ClusterSpec,
}

impl ExecConfig {
    /// Convenience constructor with the workspace defaults
    /// (8 chunks/worker, general S²C², last-value predictor).
    #[must_use]
    pub fn new(params: MdsParams, cluster: ClusterSpec) -> Self {
        ExecConfig {
            params,
            chunks_per_worker: 8,
            strategy: StrategyKind::S2c2General,
            predictor: PredictorSource::LastValue,
            cluster,
        }
    }

    /// Sets the strategy.
    #[must_use]
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.strategy = kind;
        self
    }

    /// Sets the predictor source.
    #[must_use]
    pub fn predictor(mut self, predictor: PredictorSource) -> Self {
        self.predictor = predictor;
        self
    }

    /// Sets the chunk granularity.
    #[must_use]
    pub fn chunks_per_worker(mut self, chunks: usize) -> Self {
        self.chunks_per_worker = chunks;
        self
    }

    /// Builds a coded job over `matrix` with this configuration.
    ///
    /// # Errors
    ///
    /// Propagates job-construction failures.
    pub fn build_job(&self, matrix: Matrix) -> Result<CodedJob, S2c2Error> {
        self.build(CodedJobBuilder::new(matrix, self.params))
    }

    /// Builds a coded job over the features of `data` (or their
    /// transpose). The strategies that run on an MDS encoding take the
    /// dataset's shared one ([`Classification::encoding`]), so every job
    /// over the same data and code reuses a single encode; the others
    /// get the matrix — shared, or transposed for them alone.
    ///
    /// # Errors
    ///
    /// Propagates encoding and job-construction failures.
    pub fn build_data_job(
        &self,
        data: &Classification,
        orientation: Orientation,
    ) -> Result<CodedJob, S2c2Error> {
        let builder = if self.strategy.runs_on_mds_encoding() {
            let encoding = data.encoding(orientation, self.params, self.chunks_per_worker)?;
            CodedJobBuilder::from_encoding(encoding, self.params)
        } else {
            match orientation {
                Orientation::Features => {
                    CodedJobBuilder::new(Arc::clone(&data.features), self.params)
                }
                Orientation::Transposed => {
                    CodedJobBuilder::new(data.features.transpose(), self.params)
                }
            }
        };
        self.build(builder)
    }

    fn build(&self, builder: CodedJobBuilder) -> Result<CodedJob, S2c2Error> {
        builder
            .chunks_per_worker(self.chunks_per_worker)
            .strategy(self.strategy)
            .predictor(self.predictor.clone())
            .build(self.cluster.clone())
    }
}

impl Clone for ExecConfig {
    fn clone(&self) -> Self {
        ExecConfig {
            params: self.params,
            chunks_per_worker: self.chunks_per_worker,
            strategy: self.strategy,
            predictor: self.predictor.clone(),
            cluster: self.cluster.clone(),
        }
    }
}

impl std::fmt::Debug for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecConfig")
            .field("params", &self.params)
            .field("chunks_per_worker", &self.chunks_per_worker)
            .field("strategy", &self.strategy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_linalg::Vector;

    #[test]
    fn builds_runnable_job() {
        let cluster = ClusterSpec::builder(6).compute_bound().build();
        let cfg = ExecConfig::new(MdsParams::new(6, 4), cluster)
            .strategy(StrategyKind::MdsCoded)
            .chunks_per_worker(4);
        let a = Matrix::from_fn(96, 4, |r, c| (r + c) as f64);
        let mut job = cfg.build_job(a.clone()).unwrap();
        let x = Vector::filled(4, 1.0);
        let out = job.run_iteration(&x).unwrap();
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
    }

    #[test]
    fn clone_preserves_configuration() {
        let cluster = ClusterSpec::builder(4).build();
        let cfg = ExecConfig::new(MdsParams::new(4, 2), cluster).chunks_per_worker(3);
        let c2 = cfg.clone();
        assert_eq!(c2.chunks_per_worker, 3);
        assert_eq!(c2.params, MdsParams::new(4, 2));
    }
}
