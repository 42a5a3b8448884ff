//! Distributed linear SVM by hinge-loss subgradient descent.
//!
//! The cloud experiments (Figs 8–11, 13) run SVM: the gradient step of
//! [`crate::logreg::DistributedLogReg`], with the hinge subgradient
//! indicator as the residual and the regularized hinge objective as the
//! report.

use crate::gradient::{GradientDescent, Loss};
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

/// The regularized hinge loss against ±1 labels.
pub struct Hinge;

/// Distributed SVM trainer state.
pub type DistributedSvm = GradientDescent<Hinge>;

impl Loss for Hinge {
    const TRAINER: &'static str = "DistributedSvm";
    type Report = SvmStepReport;

    /// Hinge active-set indicator: `-y` where `y·u < 1`, else 0.
    fn residual(label: f64, margin: f64) -> f64 {
        if label * margin < 1.0 {
            -label
        } else {
            0.0
        }
    }

    /// Regularized hinge objective of margin `u`.
    fn objective(labels: &Vector, u: &Vector, weights: &Vector, l2: f64) -> f64 {
        let hinge: f64 = (0..u.len())
            .map(|i| (1.0 - labels[i] * u[i]).max(0.0))
            .sum();
        hinge / u.len() as f64 + 0.5 * l2 * weights.dot(weights)
    }

    fn report(latency: f64, objective: f64, accuracy: f64) -> SvmStepReport {
        SvmStepReport {
            latency,
            objective,
            accuracy,
        }
    }
}

impl DistributedSvm {
    /// Regularized hinge objective (computed locally).
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective_at(&self.margin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{gisette_like, sign_accuracy, Classification};
    use crate::exec::ExecConfig;
    use s2c2_cluster::ClusterSpec;
    use s2c2_coding::mds::MdsParams;
    use s2c2_core::strategy::StrategyKind;
    use s2c2_core::S2c2Error;
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
