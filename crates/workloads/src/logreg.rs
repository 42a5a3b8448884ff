//! Distributed logistic regression by gradient descent.
//!
//! Each iteration runs two coded matvec jobs — the forward margin
//! `u = A·w` and the backward gradient `g = Aᵀ·(σ(u) − ½(y+1))` — and
//! the master's exact margin `A·w₊` at the new weights, from which the
//! step reports loss and accuracy. The forward job computes that margin
//! ([`CodedJob::product`]) and keeps its systematic rows, so the next
//! step's forward round, on the same `w₊`, computes only the parity
//! responses it chose. This is the workload behind Figs 1, 3 and 6.

use crate::datasets::{sign_accuracy, Classification, Orientation};
use crate::exec::ExecConfig;
use s2c2_core::job::CodedJob;
use s2c2_core::S2c2Error;
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

/// Distributed logistic regression state.
pub struct DistributedLogReg {
    forward: CodedJob,
    backward: CodedJob,
    /// Labels remapped to {0, 1} for the logistic gradient.
    targets01: Vector,
    labels: Vector,
    weights: Vector,
    learning_rate: f64,
    l2: f64,
}

impl DistributedLogReg {
    /// Builds the distributed trainer: a forward job on `A` and a
    /// backward job on `Aᵀ` under the same execution config. Coded
    /// strategies take the dataset's shared encodings of `A` and `Aᵀ`
    /// ([`Classification::encoding`]), so trainers over one dataset
    /// encode each matrix once between them.
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
        let forward = config.build_data_job(data, Orientation::Features)?;
        let backward = config.build_data_job(data, Orientation::Transposed)?;
        let targets01 = Vector::from_fn(data.labels.len(), |i| {
            if data.labels[i] > 0.0 {
                1.0
            } else {
                0.0
            }
        });
        Ok(DistributedLogReg {
            forward,
            backward,
            targets01,
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

    /// Runs one gradient-descent iteration through the coded jobs.
    ///
    /// # Errors
    ///
    /// Propagates scheduling/decode failures.
    pub fn step(&mut self) -> Result<StepReport, S2c2Error> {
        let rows = self.labels.len() as f64;
        // Forward: u = A w  (distributed).
        let fwd = self.forward.run_iteration(&self.weights)?;
        // Residual: sigma(u) - t  (master-side, O(rows)).
        let residual = Vector::from_fn(fwd.result.len(), |i| {
            sigmoid(fwd.result[i]) - self.targets01[i]
        });
        // Backward: grad = A^T residual  (distributed).
        let bwd = self.backward.run_iteration(&residual)?;
        // Update with L2 regularization.
        let mut grad = bwd.result;
        grad.scale(1.0 / rows);
        grad.axpy(self.l2, &self.weights);
        self.weights.axpy(-self.learning_rate, &grad);

        // One margin at the new weights serves both loss and accuracy,
        // and the next step's forward round.
        let u = self.margin();
        Ok(StepReport {
            latency: fwd.metrics.latency + bwd.metrics.latency,
            loss: self.loss_at(&u),
            accuracy: sign_accuracy(&u, &self.labels),
        })
    }

    /// Training log-loss of the current weights (computed locally).
    #[must_use]
    pub fn loss(&self) -> f64 {
        self.loss_at(&self.margin())
    }

    /// Training accuracy of the current weights (computed locally).
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

    /// Mean log-loss of margin `u` against the {0, 1} targets.
    fn loss_at(&self, u: &Vector) -> f64 {
        let mut total = 0.0;
        for i in 0..u.len() {
            let p = sigmoid(u[i]).clamp(1e-12, 1.0 - 1e-12);
            total -= if self.targets01[i] > 0.5 {
                p.ln()
            } else {
                (1.0 - p).ln()
            };
        }
        total / u.len() as f64
    }

    /// Total simulated latency accumulated so far across both jobs.
    #[must_use]
    pub fn total_latency(&self) -> f64 {
        self.forward.metrics().total_latency() + self.backward.metrics().total_latency()
    }

    /// Accumulated metrics of the forward (`A·w`) job.
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

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl std::fmt::Debug for DistributedLogReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedLogReg")
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
            assert_eq!(report.loss.to_bits(), lr.loss_at(&u).to_bits());
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
        // The margin comes from the forward job: neither trainer holds
        // the features themselves.
        assert_eq!(Arc::strong_count(&data.features), 1);
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
