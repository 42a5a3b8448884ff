//! Shared experiment plumbing.

use crate::report::Table;
use s2c2_cluster::ClusterSpec;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_predict::lstm::{train, LstmConfig, TrainedLstm};
use s2c2_trace::{CloudTraceConfig, TraceSet};
use s2c2_workloads::datasets::Classification;
use s2c2_workloads::exec::ExecConfig;
use s2c2_workloads::logreg::DistributedLogReg;
use s2c2_workloads::svm::DistributedSvm;

/// The controlled-cluster (§7.1) spec: `n` workers, the first
/// `stragglers` of them 5× slow, everyone with up-to-20% jitter.
///
/// Straggler ids are spread (not clustered at 0) so replication's replica
/// sets are stressed the way random placement would be.
#[must_use]
pub fn controlled_cluster(n: usize, stragglers: usize, seed: u64) -> ClusterSpec {
    let ids: Vec<usize> = (0..stragglers).map(|i| (i * 5 + 2) % n).collect();
    let mut uniq = ids.clone();
    uniq.sort_unstable();
    uniq.dedup();
    // Fall back to sequential ids if the spread pattern collides.
    let ids = if uniq.len() == stragglers {
        ids
    } else {
        (0..stragglers).collect()
    };
    ClusterSpec::builder(n)
        .compute_bound()
        .seed(seed)
        .straggler_slowdown(5.0)
        .stragglers(&ids, 0.2)
        .build()
}

/// A cloud cluster (§7.2) under the given trace preset.
#[must_use]
pub fn cloud_cluster(n: usize, preset: &CloudTraceConfig, seed: u64) -> ClusterSpec {
    ClusterSpec::builder(n)
        .compute_bound()
        .seed(seed)
        .cloud(preset)
        .build()
}

/// Trains the paper's LSTM (1→4→1) on traces generated from `preset` and
/// returns a per-worker predictor source for deployment in S²C².
#[must_use]
pub fn lstm_predictor(preset: &CloudTraceConfig, seed: u64) -> PredictorSource {
    let traces = TraceSet::generate(preset, 20, 160, seed);
    let series: Vec<Vec<f64>> = traces
        .traces()
        .iter()
        .map(|t| t.samples().to_vec())
        .collect();
    let refs: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
    let cfg = LstmConfig {
        epochs: 20,
        ..LstmConfig::default()
    };
    let model: TrainedLstm = train(&cfg, &refs);
    PredictorSource::Prototype(Box::new(model.online()))
}

/// One column of an experiment: a code, the strategy that runs it and
/// the strategy's speed predictor.
pub struct Scheme {
    /// Column header.
    pub label: &'static str,
    /// The `(n, k)` code; the scheme runs on `n` workers.
    pub params: MdsParams,
    /// The scheduling strategy.
    pub kind: StrategyKind,
    /// Where the adaptive strategies get their speed forecasts.
    pub predictor: PredictorSource,
}

impl Scheme {
    /// The scheme on the controlled cluster with `stragglers` slow
    /// workers and `chunks` chunks per worker.
    #[must_use]
    pub fn controlled(&self, stragglers: usize, seed: u64, chunks: usize) -> ExecConfig {
        self.on(controlled_cluster(self.params.n, stragglers, seed), chunks)
    }

    /// The scheme on a cloud cluster under `preset` with `chunks` chunks
    /// per worker.
    #[must_use]
    pub fn cloud(&self, preset: &CloudTraceConfig, seed: u64, chunks: usize) -> ExecConfig {
        self.on(cloud_cluster(self.params.n, preset, seed), chunks)
    }

    fn on(&self, cluster: ClusterSpec, chunks: usize) -> ExecConfig {
        ExecConfig::new(self.params, cluster)
            .strategy(self.kind)
            .predictor(self.predictor.clone())
            .chunks_per_worker(chunks)
    }
}

/// The straggler sweep of Figs 1, 6 and 7: one row per straggler count
/// in `0..=max_stragglers`, one column per scheme, each cell the
/// `total_latency(stragglers, column, scheme)` of one run. Every value is
/// normalized by the first column's zero-straggler value.
pub fn sweep(
    title: &str,
    schemes: &[Scheme],
    max_stragglers: usize,
    mut total_latency: impl FnMut(usize, usize, &Scheme) -> f64,
) -> Table {
    let mut table = Table::new(title, schemes.iter().map(|s| s.label.to_string()).collect());
    let mut baseline = None;
    for stragglers in 0..=max_stragglers {
        let values: Vec<f64> = schemes
            .iter()
            .enumerate()
            .map(|(column, s)| total_latency(stragglers, column, s))
            .collect();
        let base = *baseline.get_or_insert(values[0]);
        table.push_row(
            format!("{stragglers} stragglers"),
            values.iter().map(|v| v / base).collect(),
        );
    }
    table
}

/// Total simulated latency of `iters` logistic-regression steps on
/// `data` under `cfg`.
#[must_use]
pub fn logreg_latency(data: &Classification, cfg: &ExecConfig, iters: usize) -> f64 {
    let mut lr =
        DistributedLogReg::new(data, cfg, 0.5, 1e-4).expect("experiment configuration is valid");
    for _ in 0..iters {
        lr.step().expect("iteration succeeds");
    }
    lr.total_latency()
}

/// The cloud figures' SVM run (Figs 8–11, 13): two warm-up steps, then
/// `iters` measured ones. Returns the measured window's latency and the
/// trainer.
#[must_use]
pub fn svm_window(data: &Classification, cfg: &ExecConfig, iters: usize) -> (f64, DistributedSvm) {
    let mut svm =
        DistributedSvm::new(data, cfg, 0.2, 1e-3).expect("experiment configuration is valid");
    // Warm-up: the paper's deployment predicts from *history*; give the
    // online predictors the same advantage before the measured window.
    for _ in 0..2 {
        svm.step().expect("warmup iteration succeeds");
    }
    let warm_latency = svm.total_latency();
    for _ in 0..iters {
        svm.step().expect("iteration succeeds");
    }
    (svm.total_latency() - warm_latency, svm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlled_cluster_has_requested_stragglers() {
        let mut spec = controlled_cluster(12, 3, 1);
        let slow = spec
            .workers
            .iter_mut()
            .map(|m| m.speed_at(0))
            .filter(|&s| s < 0.5)
            .count();
        assert_eq!(slow, 3);
    }

    #[test]
    fn controlled_cluster_handles_max_stragglers() {
        for s in 0..=6 {
            let spec = controlled_cluster(12, s, 2);
            assert_eq!(spec.n(), 12);
        }
    }

    #[test]
    fn lstm_predictor_trains() {
        let p = lstm_predictor(&CloudTraceConfig::calm(), 3);
        assert!(matches!(p, PredictorSource::Prototype(_)));
    }
}
