//! Per-worker predictor bank.
//!
//! The master keeps one stateful predictor per worker (all sharing the same
//! trained parameters) and, at the end of every iteration, feeds each one
//! the speed it just observed (`rows / response_time`) to obtain the
//! prediction driving the next iteration's work allocation (§6.2).

use crate::predictor::{BoxedPredictor, SpeedPredictor};

/// A bank of per-worker predictors.
pub struct PredictorBank {
    predictors: Vec<BoxedPredictor>,
}

impl PredictorBank {
    /// Builds a bank of `workers` clones of a prototype predictor.
    #[must_use]
    pub fn from_prototype(prototype: &dyn SpeedPredictor, workers: usize) -> Self {
        PredictorBank {
            predictors: (0..workers).map(|_| prototype.clone_box()).collect(),
        }
    }

    /// Builds a bank from distinct per-worker predictors.
    #[must_use]
    pub fn from_predictors(predictors: Vec<BoxedPredictor>) -> Self {
        PredictorBank { predictors }
    }

    /// Number of workers tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.predictors.len()
    }

    /// `true` when the bank is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.predictors.is_empty()
    }

    /// Cold-start predictions (before any observation).
    #[must_use]
    pub fn predict_cold(&self) -> Vec<f64> {
        self.predictors.iter().map(|p| p.predict_cold()).collect()
    }

    /// Feeds per-worker observations, returns per-worker next-iteration
    /// predictions.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len()` differs from the bank size.
    pub fn observe_and_predict(&mut self, observed: &[f64]) -> Vec<f64> {
        assert_eq!(observed.len(), self.predictors.len(), "bank size mismatch");
        self.predictors
            .iter_mut()
            .zip(observed.iter())
            .map(|(p, &o)| p.observe_and_predict(o))
            .collect()
    }

    /// Like [`Self::observe_and_predict`], but workers with `None` (idle
    /// this round — no response to measure) keep their previous prediction
    /// without advancing predictor state.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len()` differs from the bank size.
    pub fn observe_and_predict_masked(&mut self, observed: &[Option<f64>]) -> Vec<f64> {
        assert_eq!(observed.len(), self.predictors.len(), "bank size mismatch");
        self.predictors
            .iter_mut()
            .zip(observed.iter())
            .map(|(p, o)| match o {
                Some(v) => p.observe_and_predict(*v),
                None => p.predict_cold(),
            })
            .collect()
    }

    /// Feeds one worker's observation and returns its next-iteration
    /// prediction; every other worker's predictor is left untouched —
    /// the one-worker form of [`Self::observe_and_predict_masked`] for a
    /// master that hears from its workers one reply at a time.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn observe_one(&mut self, worker: usize, observed: f64) -> f64 {
        self.predictors[worker].observe_and_predict(observed)
    }

    /// Resets every predictor's online state.
    pub fn reset(&mut self) {
        for p in &mut self.predictors {
            p.reset();
        }
    }
}

impl Clone for PredictorBank {
    fn clone(&self) -> Self {
        PredictorBank {
            predictors: self.predictors.clone(),
        }
    }
}

impl std::fmt::Debug for PredictorBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorBank")
            .field("workers", &self.predictors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::LastValue;

    #[test]
    fn bank_tracks_workers_independently() {
        let mut bank = PredictorBank::from_prototype(&LastValue::default(), 3);
        assert_eq!(bank.len(), 3);
        let preds = bank.observe_and_predict(&[0.5, 1.0, 0.25]);
        assert_eq!(preds, vec![0.5, 1.0, 0.25]);
        // Second round: each worker remembers its own observation.
        let preds = bank.observe_and_predict(&[0.6, 0.9, 0.2]);
        assert_eq!(preds, vec![0.6, 0.9, 0.2]);
    }

    #[test]
    fn cold_predictions_before_observation() {
        let bank = PredictorBank::from_prototype(&LastValue::new(1.0), 2);
        assert_eq!(bank.predict_cold(), vec![1.0, 1.0]);
    }

    #[test]
    fn observe_one_matches_the_one_hot_masked_call() {
        let mut one = PredictorBank::from_prototype(&LastValue::new(1.0), 3);
        let mut masked = one.clone();
        assert_eq!(one.observe_one(1, 0.4), 0.4);
        let preds = masked.observe_and_predict_masked(&[None, Some(0.4), None]);
        assert_eq!(one.predict_cold(), preds);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut bank = PredictorBank::from_prototype(&LastValue::default(), 2);
        let _ = bank.observe_and_predict(&[0.1, 0.2]);
        bank.reset();
        assert_eq!(bank.predict_cold(), vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "bank size mismatch")]
    fn size_mismatch_panics() {
        let mut bank = PredictorBank::from_prototype(&LastValue::default(), 2);
        let _ = bank.observe_and_predict(&[1.0]);
    }

    #[test]
    fn clone_is_deep() {
        let mut bank = PredictorBank::from_prototype(&LastValue::default(), 1);
        let snapshot = bank.clone();
        let _ = bank.observe_and_predict(&[0.3]);
        assert_eq!(
            snapshot.predict_cold(),
            vec![1.0],
            "clone must not share state"
        );
        assert_eq!(bank.predict_cold(), vec![0.3]);
    }
}
