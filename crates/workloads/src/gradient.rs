//! The one gradient step both classifiers run.
//!
//! Each iteration runs two coded matvec jobs — the forward margin
//! `u = A·w` and the backward product `g = Aᵀ·r` of a per-example
//! residual `rᵢ = residual(yᵢ, uᵢ)` — then updates
//! `w ← w − lr·(g / rows + l2·w)`, and finally takes the master's exact
//! margin `A·w₊` at the new weights, from which the step reports its
//! objective and accuracy. The forward job computes that margin
//! ([`CodedJob::product`]) and keeps its systematic rows, so the next
//! step's forward round, on the same `w₊`, computes only the parity
//! responses it chose. Logistic regression and the SVM differ only in
//! their [`Loss`].

use crate::datasets::{sign_accuracy, Classification, Orientation};
use crate::exec::ExecConfig;
use s2c2_cluster::JobMetrics;
use s2c2_core::job::CodedJob;
use s2c2_core::S2c2Error;
use s2c2_linalg::Vector;
use std::marker::PhantomData;

/// What a trainer descends: the residual its backward product runs on,
/// the objective its steps report, and the report they return.
pub trait Loss {
    /// The trainer's name in `Debug` output.
    const TRAINER: &'static str;
    /// The report of one step.
    type Report;
    /// Example `i`'s entry of the backward product's input, from its
    /// label and its forward margin.
    fn residual(label: f64, margin: f64) -> f64;
    /// The objective at margin `u` and the current weights.
    fn objective(labels: &Vector, u: &Vector, weights: &Vector, l2: f64) -> f64;
    /// A step's report from its coded latency, objective and accuracy.
    fn report(latency: f64, objective: f64, accuracy: f64) -> Self::Report;
}

/// A distributed gradient-descent trainer: a forward job on `A`, a
/// backward job on `Aᵀ`, and the weights they train.
pub struct GradientDescent<L> {
    pub(crate) forward: CodedJob,
    pub(crate) backward: CodedJob,
    labels: Vector,
    weights: Vector,
    learning_rate: f64,
    l2: f64,
    loss: PhantomData<L>,
}

impl<L: Loss> GradientDescent<L> {
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
        Ok(GradientDescent {
            forward: config.build_data_job(data, Orientation::Features)?,
            backward: config.build_data_job(data, Orientation::Transposed)?,
            labels: data.labels.clone(),
            weights: Vector::zeros(data.features.cols()),
            learning_rate,
            l2,
            loss: PhantomData,
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
    pub fn step(&mut self) -> Result<L::Report, S2c2Error> {
        let rows = self.labels.len() as f64;
        // Forward: u = A w  (distributed).
        let fwd = self.forward.run_iteration(&self.weights)?;
        // Residual (master-side, O(rows)).
        let residual = Vector::from_fn(fwd.result.len(), |i| {
            L::residual(self.labels[i], fwd.result[i])
        });
        // Backward: grad = A^T residual  (distributed).
        let bwd = self.backward.run_iteration(&residual)?;
        // Update with L2 regularization.
        let mut grad = bwd.result;
        grad.scale(1.0 / rows);
        grad.axpy(self.l2, &self.weights);
        self.weights.axpy(-self.learning_rate, &grad);

        // One margin at the new weights serves both objective and
        // accuracy, and the next step's forward round.
        let u = self.margin();
        Ok(L::report(
            fwd.metrics.latency + bwd.metrics.latency,
            self.objective_at(&u),
            sign_accuracy(&u, &self.labels),
        ))
    }

    /// Training accuracy of the current weights (computed locally).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        sign_accuracy(&self.margin(), &self.labels)
    }

    /// The exact margin `u = A·w` at the current weights, from the
    /// forward job on every host core.
    pub(crate) fn margin(&self) -> Vector {
        self.forward
            .product(&self.weights)
            .expect("the weights have one entry per feature")
    }

    /// The objective at margin `u` and the current weights.
    pub(crate) fn objective_at(&self, u: &Vector) -> f64 {
        L::objective(&self.labels, u, &self.weights, self.l2)
    }

    /// Total simulated latency accumulated so far across both jobs.
    #[must_use]
    pub fn total_latency(&self) -> f64 {
        self.forward.metrics().total_latency() + self.backward.metrics().total_latency()
    }

    /// Accumulated metrics of the forward (`A·w`) job — the wasted-work
    /// accounting behind Figs 9/11.
    #[must_use]
    pub fn forward_metrics(&self) -> &JobMetrics {
        self.forward.metrics()
    }

    /// Accumulated metrics of the backward (`Aᵀ·g`) job.
    #[must_use]
    pub fn backward_metrics(&self) -> &JobMetrics {
        self.backward.metrics()
    }
}

impl<L: Loss> std::fmt::Debug for GradientDescent<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(L::TRAINER)
            .field("rows", &self.labels.len())
            .field("cols", &self.weights.len())
            .finish()
    }
}
