//! Distributed linear SVM by hinge-loss subgradient descent.
//!
//! The cloud experiments (Figs 8–11, 13) run SVM; structurally it is the
//! same two-coded-products loop as logistic regression with the logistic
//! residual replaced by the hinge subgradient indicator — including the
//! master's exact margin at the new weights, which the forward job
//! computes and its next round reuses (see [`crate::logreg`]).

use crate::datasets::{sign_accuracy, Classification, Orientation};
use crate::exec::ExecConfig;
use s2c2_core::job::CodedJob;
use s2c2_core::S2c2Error;
use s2c2_linalg::Vector;

/// Report of one SVM subgradient step.
#[derive(Debug, Clone)]
pub struct SvmStepReport {
    /// Sum of both coded jobs' simulated latencies.
    pub latency: f64,
    /// Hinge objective after the step.
    pub objective: f64,
    /// Training accuracy after the step.
    pub accuracy: f64,
}

/// Distributed SVM trainer state.
pub struct DistributedSvm {
    forward: CodedJob,
    backward: CodedJob,
    labels: Vector,
    weights: Vector,
    learning_rate: f64,
    l2: f64,
}

impl DistributedSvm {
    /// Builds the trainer: `A` forward, `Aᵀ` backward, on the dataset's
    /// shared encodings under the coded strategies (see
    /// [`crate::logreg::DistributedLogReg::new`]).
    ///
    /// # Errors
    ///
    /// [`S2c2Error::InvalidConfig`] unless the dataset has one label per
    /// example; propagates job-construction failures.
    pub fn new(
        data: &Classification,
        config: &ExecConfig,
        learning_rate: f64,
        l2: f64,
    ) -> Result<Self, S2c2Error> {
        data.check_labels()?;
        Ok(DistributedSvm {
            forward: config.build_data_job(data, Orientation::Features)?,
            backward: config.build_data_job(data, Orientation::Transposed)?,
            labels: data.labels.clone(),
            weights: Vector::zeros(data.features.cols()),
            learning_rate,
            l2,
        })
    }

    /// Current model weights.
    #[must_use]
    pub fn weights(&self) -> &Vector {
        &self.weights
    }

    /// Runs one subgradient iteration through the coded jobs.
    ///
    /// # Errors
    ///
    /// Propagates scheduling/decode failures.
    pub fn step(&mut self) -> Result<SvmStepReport, S2c2Error> {
        let rows = self.labels.len() as f64;
        // Forward margins (distributed).
        let fwd = self.forward.run_iteration(&self.weights)?;
        // Hinge active-set indicator: -y_i where y_i * u_i < 1, else 0.
        let indicator = Vector::from_fn(fwd.result.len(), |i| {
            if self.labels[i] * fwd.result[i] < 1.0 {
                -self.labels[i]
            } else {
                0.0
            }
        });
        // Backward product (distributed).
        let bwd = self.backward.run_iteration(&indicator)?;
        let mut grad = bwd.result;
        grad.scale(1.0 / rows);
        grad.axpy(self.l2, &self.weights);
        self.weights.axpy(-self.learning_rate, &grad);

        // One margin at the new weights serves both objective and
        // accuracy, and the next step's forward round.
        let u = self.margin();
        Ok(SvmStepReport {
            latency: fwd.metrics.latency + bwd.metrics.latency,
            objective: self.objective_at(&u),
            accuracy: sign_accuracy(&u, &self.labels),
        })
    }

    /// Regularized hinge objective (computed locally).
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective_at(&self.margin())
    }

    /// Training accuracy (computed locally).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        sign_accuracy(&self.margin(), &self.labels)
    }

    /// The exact margin `u = A·w` at the current weights, from the
    /// forward job on every host core.
    fn margin(&self) -> Vector {
        self.forward
            .product(&self.weights)
            .expect("the weights have one entry per feature")
    }

    /// Regularized hinge objective of margin `u`.
    fn objective_at(&self, u: &Vector) -> f64 {
        let hinge: f64 = (0..u.len())
            .map(|i| (1.0 - self.labels[i] * u[i]).max(0.0))
            .sum();
        hinge / u.len() as f64 + 0.5 * self.l2 * self.weights.dot(&self.weights)
    }

    /// Total simulated latency across both jobs so far.
    #[must_use]
    pub fn total_latency(&self) -> f64 {
        self.forward.metrics().total_latency() + self.backward.metrics().total_latency()
    }

    /// Accumulated metrics of the forward (`A·w`) job — the wasted-work
    /// accounting behind Figs 9/11.
    #[must_use]
    pub fn forward_metrics(&self) -> &s2c2_cluster::JobMetrics {
        self.forward.metrics()
    }

    /// Accumulated metrics of the backward (`Aᵀ·g`) job.
    #[must_use]
    pub fn backward_metrics(&self) -> &s2c2_cluster::JobMetrics {
        self.backward.metrics()
    }
}

impl std::fmt::Debug for DistributedSvm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedSvm")
            .field("rows", &self.labels.len())
            .field("cols", &self.weights.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gisette_like;
    use s2c2_cluster::ClusterSpec;
    use s2c2_coding::mds::MdsParams;
    use s2c2_core::strategy::StrategyKind;
    use std::sync::Arc;

    fn config(strategy: StrategyKind) -> ExecConfig {
        let cluster = ClusterSpec::builder(10)
            .compute_bound()
            .seed(5)
            .cloud(&s2c2_trace::CloudTraceConfig::calm())
            .build();
        ExecConfig::new(MdsParams::new(10, 7), cluster)
            .strategy(strategy)
            .chunks_per_worker(7)
    }

    #[test]
    fn training_improves_objective() {
        let data = gisette_like(140, 12, 23);
        let mut svm =
            DistributedSvm::new(&data, &config(StrategyKind::S2c2General), 0.2, 1e-3).unwrap();
        let initial = svm.objective();
        let mut last = None;
        for _ in 0..20 {
            last = Some(svm.step().unwrap());
        }
        let last = last.unwrap();
        assert!(
            last.objective < initial * 0.7,
            "objective {initial} -> {}",
            last.objective
        );
        assert!(last.accuracy > 0.85, "accuracy {}", last.accuracy);
    }

    #[test]
    fn step_report_is_the_public_objective_and_accuracy_bit_for_bit() {
        // 2 800 × 14 features: the margin crosses the parallel kernel's
        // spawn cutoff.
        let data = gisette_like(2800, 14, 37);
        let mut svm =
            DistributedSvm::new(&data, &config(StrategyKind::S2c2General), 0.2, 1e-3).unwrap();
        for _ in 0..2 {
            let report = svm.step().unwrap();
            assert_eq!(report.objective.to_bits(), svm.objective().to_bits());
            assert_eq!(report.accuracy.to_bits(), svm.accuracy().to_bits());
            // ... and equal to the sequential margin's.
            let u = data.features.matvec(svm.weights());
            assert_eq!(report.objective.to_bits(), svm.objective_at(&u).to_bits());
            assert_eq!(
                report.accuracy.to_bits(),
                sign_accuracy(&u, &data.labels).to_bits()
            );
        }
    }

    #[test]
    fn distributed_matches_local_reference() {
        let data = gisette_like(70, 6, 29);
        let mut dist =
            DistributedSvm::new(&data, &config(StrategyKind::MdsCoded), 0.1, 0.0).unwrap();
        let _ = dist.step().unwrap();

        let mut w = Vector::zeros(6);
        let u = data.features.matvec(&w);
        let ind = Vector::from_fn(70, |i| {
            if data.labels[i] * u[i] < 1.0 {
                -data.labels[i]
            } else {
                0.0
            }
        });
        let mut grad = data.features.transpose().matvec(&ind);
        grad.scale(1.0 / 70.0);
        w.axpy(-0.1, &grad);
        s2c2_linalg::assert_slices_close(dist.weights().as_slice(), w.as_slice(), 1e-6);
    }

    #[test]
    fn labels_that_do_not_match_the_examples_are_rejected() {
        let data = gisette_like(70, 6, 29);
        let long = Classification::new(Arc::clone(&data.features), Vector::zeros(71));
        let err =
            DistributedSvm::new(&long, &config(StrategyKind::S2c2General), 0.1, 0.0).unwrap_err();
        assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn s2c2_no_slower_than_mds_on_calm_cloud() {
        let data = gisette_like(280, 10, 31);
        let mut mds =
            DistributedSvm::new(&data, &config(StrategyKind::MdsCoded), 0.2, 0.0).unwrap();
        let mut s2c2 =
            DistributedSvm::new(&data, &config(StrategyKind::S2c2General), 0.2, 0.0).unwrap();
        for _ in 0..8 {
            let _ = mds.step().unwrap();
            let _ = s2c2.step().unwrap();
        }
        assert!(
            s2c2.total_latency() < mds.total_latency(),
            "S2C2 {} should beat MDS {} on a calm cloud",
            s2c2.total_latency(),
            mds.total_latency()
        );
    }
}
