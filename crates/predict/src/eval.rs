//! The §6.1 experiment harness: train each model on a trace set's 80%
//! split, score one-step-ahead MAPE on the held-out 20%.
//!
//! The paper reports: LSTM test MAPE 16.7%, beating ARIMA(1,0,0) — itself
//! the best ARIMA — by 5 points. `figures prediction` in `s2c2-bench`
//! prints this comparison from generated traces.

use crate::arima::{ArimaModel, ArimaOrder};
use crate::lstm::{train, LstmConfig, TrainedLstm};
use crate::predictor::{LastValue, SpeedPredictor};
use s2c2_trace::stats::{mape, misprediction_rate};
use s2c2_trace::TraceSet;

/// Per-model evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelScore {
    /// Human-readable model name.
    pub name: String,
    /// Test-set Mean Absolute Percentage Error, percent.
    pub mape: f64,
    /// Fraction of test predictions off by more than 15% (the scheduler's
    /// timeout threshold — §4.3).
    pub misprediction_rate: f64,
}

/// Result of the full §6.1 comparison.
#[derive(Debug, Clone)]
pub struct PredictionReport {
    /// Scores for every evaluated model, in evaluation order.
    pub scores: Vec<ModelScore>,
}

impl PredictionReport {
    /// Score of the named model.
    ///
    /// # Panics
    ///
    /// Panics if the model was not evaluated.
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented Panics contract: callers name a model they evaluated"
    )]
    pub fn score(&self, name: &str) -> &ModelScore {
        self.scores
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("model {name} not evaluated"))
    }
}

/// Scores an online predictor over every test trace: for each trace the
/// predictor is reset, fed sample `t`, and its prediction is compared with
/// sample `t+1`.
fn score_online(
    make: &mut dyn FnMut() -> Box<dyn SpeedPredictor>,
    name: &str,
    test: &[Vec<f64>],
) -> ModelScore {
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for series in test {
        let mut p = make();
        for w in series.windows(2) {
            predicted.push(p.observe_and_predict(w[0]));
            actual.push(w[1]);
        }
    }
    ModelScore {
        name: name.to_string(),
        mape: mape(&actual, &predicted),
        misprediction_rate: misprediction_rate(&actual, &predicted, 0.15),
    }
}

/// Runs the full comparison: LSTM vs three ARIMA orders vs last-value.
///
/// `split` is the train fraction (paper: 0.8). Returns per-model scores in
/// a fixed order: `lstm`, `arima(1,0,0)`, `arima(2,0,0)`, `arima(1,1,1)`,
/// `last-value`.
///
/// # Panics
///
/// Panics if traces are too short to split or train on.
#[must_use]
pub fn compare_models(traces: &TraceSet, split: f64, lstm_config: &LstmConfig) -> PredictionReport {
    let mut train_series: Vec<Vec<f64>> = Vec::with_capacity(traces.len());
    let mut test_series: Vec<Vec<f64>> = Vec::with_capacity(traces.len());
    for t in traces.traces() {
        let (tr, te) = t.split(split);
        train_series.push(tr.samples().to_vec());
        test_series.push(te.samples().to_vec());
    }
    let train_refs: Vec<&[f64]> = train_series.iter().map(Vec::as_slice).collect();

    let lstm: TrainedLstm = train(lstm_config, &train_refs);
    let ar1 = ArimaModel::fit(ArimaOrder::Ar1, &train_refs);
    let ar2 = ArimaModel::fit(ArimaOrder::Ar2, &train_refs);
    let arima111 = ArimaModel::fit(ArimaOrder::Arima111, &train_refs);

    let scores = vec![
        score_online(&mut || Box::new(lstm.online()), "lstm", &test_series),
        score_online(&mut || Box::new(ar1.online()), "arima(1,0,0)", &test_series),
        score_online(&mut || Box::new(ar2.online()), "arima(2,0,0)", &test_series),
        score_online(
            &mut || Box::new(arima111.online()),
            "arima(1,1,1)",
            &test_series,
        ),
        score_online(
            &mut || Box::new(LastValue::default()),
            "last-value",
            &test_series,
        ),
    ];
    PredictionReport { scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_trace::CloudTraceConfig;

    fn small_lstm() -> LstmConfig {
        LstmConfig {
            hidden: 4,
            learning_rate: 0.015,
            epochs: 15,
            seq_len: 12,
            batch_size: 16,
            grad_clip: 1.0,
            seed: 11,
            log_space: true,
            huber_delta: 0.1,
        }
    }

    #[test]
    fn report_contains_all_models() {
        let traces = TraceSet::generate(&CloudTraceConfig::calm(), 6, 120, 21);
        let report = compare_models(&traces, 0.8, &small_lstm());
        assert_eq!(report.scores.len(), 5);
        for name in [
            "lstm",
            "arima(1,0,0)",
            "arima(2,0,0)",
            "arima(1,1,1)",
            "last-value",
        ] {
            let s = report.score(name);
            assert!(
                s.mape.is_finite() && s.mape >= 0.0,
                "{name} mape {}",
                s.mape
            );
            assert!((0.0..=1.0).contains(&s.misprediction_rate));
        }
    }

    #[test]
    fn calm_traces_are_predictable() {
        // On the calm preset every reasonable model should land a MAPE
        // far below 100% and a low mis-prediction rate.
        let traces = TraceSet::generate(&CloudTraceConfig::calm(), 8, 150, 5);
        let report = compare_models(&traces, 0.8, &small_lstm());
        for s in &report.scores {
            assert!(
                s.mape < 30.0,
                "{} mape {} too high for calm traces",
                s.name,
                s.mape
            );
        }
        assert!(report.score("lstm").misprediction_rate < 0.30);
    }

    #[test]
    fn learned_models_beat_or_match_naive_on_volatile() {
        let traces = TraceSet::generate(&CloudTraceConfig::volatile(), 8, 200, 13);
        let report = compare_models(&traces, 0.8, &small_lstm());
        let naive = report.score("last-value").mape;
        let lstm = report.score("lstm").mape;
        // The LSTM should not be (much) worse than naive persistence —
        // loose bound: within 20% relative.
        assert!(
            lstm <= naive * 1.2,
            "lstm {lstm} should be competitive with naive {naive}"
        );
    }

    #[test]
    #[should_panic(expected = "not evaluated")]
    fn unknown_model_panics() {
        let traces = TraceSet::generate(&CloudTraceConfig::calm(), 4, 100, 3);
        let report = compare_models(&traces, 0.8, &small_lstm());
        let _ = report.score("transformer");
    }
}
