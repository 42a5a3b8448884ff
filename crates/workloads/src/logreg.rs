//! Distributed logistic regression by gradient descent.
//!
//! Each iteration is the gradient step [`DistributedLogReg`] shares with
//! [`crate::svm::DistributedSvm`], on the logistic residual
//! `σ(u) − ½(y+1)`: two coded matvec jobs — the forward margin `u = A·w`
//! and the backward gradient `Aᵀ·(σ(u) − t)` — and the master's exact
//! margin `A·w₊` at the new weights, from which the step reports loss and
//! accuracy. The forward job computes that margin and keeps its
//! systematic rows, so the next step's forward round, on the same `w₊`,
//! computes only the parity responses it chose. This is the workload
//! behind Figs 1, 3 and 6.

use crate::gradient::{GradientDescent, Loss};
use s2c2_linalg::Vector;

/// Report of a single gradient-descent step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Sum of the two coded jobs' simulated latencies for this iteration.
    pub latency: f64,
    /// Training log-loss after the step.
    pub loss: f64,
    /// Training accuracy after the step (fraction in [0, 1]).
    pub accuracy: f64,
}

/// The logistic loss against labels remapped to {0, 1}.
pub struct Logistic;

/// Distributed logistic regression state.
pub type DistributedLogReg = GradientDescent<Logistic>;

impl Loss for Logistic {
    const TRAINER: &'static str = "DistributedLogReg";
    type Report = StepReport;

    fn residual(label: f64, margin: f64) -> f64 {
        sigmoid(margin) - target01(label)
    }

    /// Mean log-loss of margin `u` against the {0, 1} targets.
    fn objective(labels: &Vector, u: &Vector, _weights: &Vector, _l2: f64) -> f64 {
        let mut total = 0.0;
        for i in 0..u.len() {
            let p = sigmoid(u[i]).clamp(1e-12, 1.0 - 1e-12);
            total -= if target01(labels[i]) > 0.5 {
                p.ln()
            } else {
                (1.0 - p).ln()
            };
        }
        total / u.len() as f64
    }

    fn report(latency: f64, loss: f64, accuracy: f64) -> StepReport {
        StepReport {
            latency,
            loss,
            accuracy,
        }
    }
}

impl DistributedLogReg {
    /// Training log-loss of the current weights (computed locally).
    #[must_use]
    pub fn loss(&self) -> f64 {
        self.objective_at(&self.margin())
    }
}

/// A ±1 label remapped to the logistic gradient's {0, 1} target.
#[inline]
fn target01(label: f64) -> f64 {
    if label > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
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
        let cluster = ClusterSpec::builder(6)
            .compute_bound()
            .straggler_slowdown(5.0)
            .stragglers(&[1], 0.1)
            .build();
        ExecConfig::new(MdsParams::new(6, 4), cluster)
            .strategy(strategy)
            .chunks_per_worker(6)
    }

    #[test]
    fn training_improves_loss_and_accuracy() {
        let data = gisette_like(120, 10, 11);
        let mut lr =
            DistributedLogReg::new(&data, &config(StrategyKind::S2c2General), 0.5, 1e-4).unwrap();
        let initial_loss = lr.loss();
        let mut report = None;
        for _ in 0..15 {
            report = Some(lr.step().unwrap());
        }
        let report = report.unwrap();
        assert!(
            report.loss < initial_loss * 0.8,
            "loss: {initial_loss} -> {}",
            report.loss
        );
        assert!(report.accuracy > 0.85, "accuracy {}", report.accuracy);
        assert!(report.latency > 0.0);
        assert!(lr.total_latency() > 0.0);
    }

    #[test]
    fn step_report_is_the_public_loss_and_accuracy_bit_for_bit() {
        // 2 400 × 16 features: the margin crosses the parallel kernel's
        // spawn cutoff.
        let data = gisette_like(2400, 16, 19);
        let mut lr =
            DistributedLogReg::new(&data, &config(StrategyKind::S2c2General), 0.5, 1e-4).unwrap();
        for _ in 0..2 {
            let report = lr.step().unwrap();
            assert_eq!(report.loss.to_bits(), lr.loss().to_bits());
            assert_eq!(report.accuracy.to_bits(), lr.accuracy().to_bits());
            // ... and equal to the sequential margin's.
            let u = data.features.matvec(lr.weights());
            assert_eq!(report.loss.to_bits(), lr.objective_at(&u).to_bits());
            assert_eq!(
                report.accuracy.to_bits(),
                sign_accuracy(&u, &data.labels).to_bits()
            );
        }
    }

    #[test]
    fn distributed_step_matches_local_reference() {
        // One step through the coded path must equal the same step
        // computed locally (decode correctness end-to-end).
        let data = gisette_like(96, 8, 13);
        let mut dist =
            DistributedLogReg::new(&data, &config(StrategyKind::MdsCoded), 0.3, 0.0).unwrap();
        let _ = dist.step().unwrap();

        // Local reference.
        let mut w = Vector::zeros(8);
        let u = data.features.matvec(&w);
        let t = Vector::from_fn(96, |i| if data.labels[i] > 0.0 { 1.0 } else { 0.0 });
        let res = Vector::from_fn(96, |i| sigmoid(u[i]) - t[i]);
        let mut grad = data.features.transpose().matvec(&res);
        grad.scale(1.0 / 96.0);
        w.axpy(-0.3, &grad);

        s2c2_linalg::assert_slices_close(dist.weights().as_slice(), w.as_slice(), 1e-6);
    }

    #[test]
    fn trainers_over_one_dataset_share_two_encodings() {
        let data = gisette_like(240, 12, 5);
        let mds = DistributedLogReg::new(&data, &config(StrategyKind::MdsCoded), 0.5, 0.0).unwrap();
        let s2c2 =
            DistributedLogReg::new(&data, &config(StrategyKind::S2c2General), 0.5, 0.0).unwrap();
        let fwd = |lr: &DistributedLogReg| Arc::clone(lr.forward.encoding().unwrap());
        let bwd = |lr: &DistributedLogReg| Arc::clone(lr.backward.encoding().unwrap());
        assert!(Arc::ptr_eq(&fwd(&mds), &fwd(&s2c2)));
        assert!(Arc::ptr_eq(&bwd(&mds), &bwd(&s2c2)));
        assert!(!Arc::ptr_eq(&fwd(&mds), &bwd(&mds)));
        // Four jobs, two encodings: each held by exactly its two jobs
        // (plus the handle taken here), and by nothing else.
        assert_eq!(Arc::strong_count(&fwd(&mds)), 3);
        assert_eq!(Arc::strong_count(&bwd(&mds)), 3);
        // The features exist once: the dataset holds them, and each
        // encoding keeps them as its systematic partitions. Neither
        // trainer holds them otherwise (the margin comes from the
        // forward job).
        assert_eq!(Arc::strong_count(&data.features), 3);
        assert!(Arc::ptr_eq(fwd(&mds).encoded.source(), &data.features));
        assert!(Arc::ptr_eq(bwd(&mds).encoded.source(), &data.features));
    }

    #[test]
    fn trainers_built_after_the_last_one_dropped_still_train() {
        let data = gisette_like(240, 12, 5);
        let weights = |kind| {
            let mut lr = DistributedLogReg::new(&data, &config(kind), 0.5, 0.0).unwrap();
            for _ in 0..3 {
                lr.step().unwrap();
            }
            lr.weights().clone()
        };
        // Each trainer is dropped before the next is built, so each
        // encodes anew; the model trained is the same either way.
        let first = weights(StrategyKind::MdsCoded);
        let second = weights(StrategyKind::S2c2General);
        let third = weights(StrategyKind::MdsCoded);
        assert_eq!(first, third);
        s2c2_linalg::assert_slices_close(first.as_slice(), second.as_slice(), 1e-9);
    }

    #[test]
    fn labels_that_do_not_match_the_examples_are_rejected() {
        let data = gisette_like(96, 8, 13);
        let short = Classification::new(
            Arc::clone(&data.features),
            Vector::from(data.labels.as_slice()[..95].to_vec()),
        );
        let err =
            DistributedLogReg::new(&short, &config(StrategyKind::MdsCoded), 0.3, 0.0).unwrap_err();
        assert!(matches!(err, S2c2Error::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn strategies_agree_on_numerics() {
        let data = gisette_like(96, 8, 17);
        let mut reference: Option<Vec<f64>> = None;
        for kind in [
            StrategyKind::Uncoded,
            StrategyKind::MdsCoded,
            StrategyKind::S2c2Basic,
            StrategyKind::S2c2General,
        ] {
            let mut lr = DistributedLogReg::new(&data, &config(kind), 0.4, 1e-3).unwrap();
            for _ in 0..3 {
                let _ = lr.step().unwrap();
            }
            let w = lr.weights().as_slice().to_vec();
            match &reference {
                None => reference = Some(w),
                Some(r) => s2c2_linalg::assert_slices_close(&w, r, 1e-6),
            }
        }
    }
}
