//! Distributed Hessian computation `Aᵀ·diag(w)·A` on polynomial codes
//! (§6.3, Fig 12).
//!
//! For logistic regression the Newton-step Hessian weights are
//! `w_i = σ(aᵢ·x)·(1 − σ(aᵢ·x))`; this module computes both the weights
//! (locally — O(rows·cols), not the bottleneck) and the coded bilinear
//! product (distributed, the bottleneck the paper measures).

use crate::exec::ExecConfig;
use s2c2_cluster::{ClusterSim, JobMetrics};
use s2c2_coding::polynomial::PolyParams;
use s2c2_core::strategy::poly::PolyS2c2;
pub use s2c2_core::strategy::poly::PolyStrategyKind;
use s2c2_core::S2c2Error;
use s2c2_linalg::parallel::{host_threads, par_matvec};
use s2c2_linalg::{Matrix, Vector};

/// Result of one Hessian evaluation.
#[derive(Debug, Clone)]
pub struct HessianOutcome {
    /// The decoded `Aᵀ·diag(w)·A` matrix.
    pub hessian: Matrix,
    /// Simulated latency of the round.
    pub latency: f64,
}

/// Distributed Hessian evaluator.
pub struct DistributedHessian {
    strategy: PolyS2c2,
    sim: ClusterSim,
    features: Matrix,
    metrics: JobMetrics,
    iteration: usize,
}

impl DistributedHessian {
    /// Builds the evaluator over feature matrix `a` with an
    /// `(n, grid × grid)` polynomial code.
    ///
    /// # Errors
    ///
    /// Propagates code/shape failures.
    pub fn new(
        a: &Matrix,
        config: &ExecConfig,
        grid: usize,
        kind: PolyStrategyKind,
    ) -> Result<Self, S2c2Error> {
        let n = config.cluster.n();
        let params = PolyParams {
            n,
            a: grid,
            b: grid,
        };
        if params.a * params.b > n {
            return Err(S2c2Error::InvalidConfig(format!(
                "grid {grid}x{grid} needs more than {n} workers"
            )));
        }
        let a_t = a.transpose();
        let chunks = config.chunks_per_worker;
        let strategy = match kind {
            PolyStrategyKind::Conventional => PolyS2c2::conventional(&a_t, a, params, chunks)?,
            PolyStrategyKind::S2c2 => PolyS2c2::new(&a_t, a, params, chunks, &config.predictor)?,
        };
        Ok(DistributedHessian {
            strategy,
            sim: ClusterSim::new(config.cluster.clone()),
            features: a.clone(),
            metrics: JobMetrics::new(),
            iteration: 0,
        })
    }

    /// Computes the logistic Hessian weights at model `x` (locally).
    #[must_use]
    pub fn logistic_weights(&self, x: &Vector) -> Vector {
        let u = par_matvec(&self.features, x, host_threads());
        Vector::from_fn(u.len(), |i| {
            let s = 1.0 / (1.0 + (-u[i]).exp());
            (s * (1.0 - s)).max(1e-12)
        })
    }

    /// Evaluates `Aᵀ·diag(w)·A` through the coded cluster.
    ///
    /// # Errors
    ///
    /// Propagates scheduling/decode failures; rejects weight vectors of
    /// the wrong length.
    pub fn compute(&mut self, w: &Vector) -> Result<HessianOutcome, S2c2Error> {
        let out = self
            .strategy
            .run_iteration(&mut self.sim, self.iteration, w)?;
        self.iteration += 1;
        self.metrics.push(out.metrics.clone());
        Ok(HessianOutcome {
            hessian: out.result,
            latency: out.metrics.latency,
        })
    }

    /// Accumulated metrics.
    #[must_use]
    pub fn metrics(&self) -> &JobMetrics {
        &self.metrics
    }
}

impl std::fmt::Debug for DistributedHessian {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedHessian")
            .field("strategy", &self.strategy.name())
            .field("iteration", &self.iteration)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gisette_like;
    use s2c2_cluster::ClusterSpec;
    use s2c2_coding::mds::MdsParams;
    use s2c2_core::speed_tracker::PredictorSource;
    use s2c2_core::strategy::StrategyKind;

    fn config() -> ExecConfig {
        let cluster = ClusterSpec::builder(12)
            .compute_bound()
            .straggler_slowdown(5.0)
            .stragglers(&[6], 0.1)
            .build();
        // MdsParams here only satisfy ExecConfig; the Hessian uses the
        // polynomial grid.
        ExecConfig::new(MdsParams::new(12, 9), cluster)
            .strategy(StrategyKind::S2c2General)
            .predictor(PredictorSource::LastValue)
            .chunks_per_worker(12)
    }

    fn local_hessian(a: &Matrix, w: &Vector) -> Matrix {
        let mut scaled = a.clone();
        for r in 0..a.rows() {
            let f = w.as_slice()[r];
            for v in scaled.row_mut(r) {
                *v *= f;
            }
        }
        a.transpose().matmul(&scaled)
    }

    #[test]
    fn conventional_matches_local() {
        let data = gisette_like(48, 36, 41);
        let mut h =
            DistributedHessian::new(&data.features, &config(), 3, PolyStrategyKind::Conventional)
                .unwrap();
        let w = Vector::filled(48, 0.25);
        let out = h.compute(&w).unwrap();
        let expect = local_hessian(&data.features, &w);
        assert!(out.hessian.max_abs_diff(&expect) < 1e-6);
        assert_eq!(out.hessian.shape(), (36, 36));
    }

    #[test]
    fn s2c2_matches_local_and_is_faster() {
        // Wide-enough feature dimension that the 12-way chunking is real
        // (a_t has 36 rows -> 12 per grid partition -> rpc 1).
        let data = gisette_like(48, 36, 43);
        let w = Vector::from_fn(48, |i| 0.1 + (i % 5) as f64 * 0.05);
        let expect = local_hessian(&data.features, &w);

        let mut conv =
            DistributedHessian::new(&data.features, &config(), 3, PolyStrategyKind::Conventional)
                .unwrap();
        let mut s2c2 =
            DistributedHessian::new(&data.features, &config(), 3, PolyStrategyKind::S2c2).unwrap();
        let mut conv_lat = 0.0;
        let mut s2c2_lat = 0.0;
        for _ in 0..4 {
            let oc = conv.compute(&w).unwrap();
            let os = s2c2.compute(&w).unwrap();
            assert!(oc.hessian.max_abs_diff(&expect) < 1e-6);
            assert!(os.hessian.max_abs_diff(&expect) < 1e-6);
            conv_lat += oc.latency;
            s2c2_lat += os.latency;
        }
        assert!(
            s2c2_lat < conv_lat,
            "S2C2 poly ({s2c2_lat}) should beat conventional ({conv_lat})"
        );
    }

    #[test]
    fn logistic_weights_are_in_quarter_range() {
        let data = gisette_like(30, 8, 47);
        let h =
            DistributedHessian::new(&data.features, &config(), 3, PolyStrategyKind::Conventional)
                .unwrap();
        let w = h.logistic_weights(&Vector::zeros(8));
        for &v in w.as_slice() {
            assert!((0.0..=0.25 + 1e-12).contains(&v));
        }
        // sigma(0) = 0.5 -> weight exactly 0.25.
        assert!((w[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wrong_weight_length_rejected() {
        let data = gisette_like(30, 8, 53);
        let mut h =
            DistributedHessian::new(&data.features, &config(), 3, PolyStrategyKind::Conventional)
                .unwrap();
        assert!(h.compute(&Vector::zeros(29)).is_err());
    }

    #[test]
    fn oversized_grid_rejected() {
        let data = gisette_like(30, 8, 59);
        assert!(DistributedHessian::new(
            &data.features,
            &config(),
            4, // 16 > 12 workers
            PolyStrategyKind::S2c2
        )
        .is_err());
    }
}
