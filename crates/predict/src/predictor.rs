//! The online prediction interface the S²C² master consumes.
//!
//! Each worker gets one stateful predictor instance. After an iteration
//! completes, the master computes the worker's *observed* speed
//! (`rows_computed / response_time`, §6.2) and calls
//! [`SpeedPredictor::observe_and_predict`], which returns the speed
//! estimate for the next iteration. Allocation then runs on the predicted
//! speeds.

/// A stateful one-step-ahead speed forecaster for a single worker.
pub trait SpeedPredictor: Send {
    /// Feeds the observed speed of the just-finished iteration and returns
    /// the prediction for the next iteration.
    fn observe_and_predict(&mut self, observed: f64) -> f64;

    /// Prediction for the next iteration *without* new information
    /// (used before the first iteration, when nothing has been observed).
    /// A forecast does not move without new information: after
    /// [`Self::observe_and_predict`] returned `p`, this returns `p` until
    /// the next observation or [`Self::reset`] — which is what lets a
    /// master refresh one worker's forecast and leave the rest alone.
    fn predict_cold(&self) -> f64;

    /// Clones into a boxed trait object (predictors are stateful).
    fn clone_box(&self) -> BoxedPredictor;

    /// Resets online state (hidden state / lag buffers) without forgetting
    /// trained parameters — called when a job restarts.
    fn reset(&mut self);
}

/// Owned, type-erased predictor.
pub type BoxedPredictor = Box<dyn SpeedPredictor>;

impl Clone for BoxedPredictor {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Predicts the last observed value (the "naive" / random-walk forecaster).
///
/// This is both a baseline in its own right and the cold-start behaviour
/// the paper describes: "Initially master node starts with the assumption
/// that all the worker nodes have the same speed".
#[derive(Debug, Clone)]
pub struct LastValue {
    last: f64,
}

impl LastValue {
    /// Creates the predictor with an initial cold-start guess.
    #[must_use]
    pub fn new(initial: f64) -> Self {
        LastValue { last: initial }
    }
}

impl Default for LastValue {
    fn default() -> Self {
        LastValue::new(1.0)
    }
}

impl SpeedPredictor for LastValue {
    fn observe_and_predict(&mut self, observed: f64) -> f64 {
        self.last = observed;
        observed
    }
    fn predict_cold(&self) -> f64 {
        self.last
    }
    fn clone_box(&self) -> BoxedPredictor {
        Box::new(self.clone())
    }
    fn reset(&mut self) {
        self.last = 1.0;
    }
}

/// Always predicts the same constant speed for every worker.
///
/// This is what *basic* S²C² uses: it deliberately ignores speed variation
/// among non-stragglers and treats them all as equal.
#[derive(Debug, Clone, Copy)]
pub struct UniformSpeed {
    /// The constant prediction.
    pub speed: f64,
}

impl UniformSpeed {
    /// Creates the constant predictor.
    #[must_use]
    pub fn new(speed: f64) -> Self {
        UniformSpeed { speed }
    }
}

impl Default for UniformSpeed {
    fn default() -> Self {
        UniformSpeed { speed: 1.0 }
    }
}

impl SpeedPredictor for UniformSpeed {
    fn observe_and_predict(&mut self, _observed: f64) -> f64 {
        self.speed
    }
    fn predict_cold(&self) -> f64 {
        self.speed
    }
    fn clone_box(&self) -> BoxedPredictor {
        Box::new(*self)
    }
    fn reset(&mut self) {}
}

/// Exponentially weighted moving average predictor — a cheap smoother that
/// sits between LastValue and the learned models; useful in ablations.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates the smoother with weight `alpha` on the newest observation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, state: None }
    }
}

impl SpeedPredictor for Ewma {
    fn observe_and_predict(&mut self, observed: f64) -> f64 {
        let next = match self.state {
            None => observed,
            Some(s) => self.alpha * observed + (1.0 - self.alpha) * s,
        };
        self.state = Some(next);
        next
    }
    fn predict_cold(&self) -> f64 {
        self.state.unwrap_or(1.0)
    }
    fn clone_box(&self) -> BoxedPredictor {
        Box::new(self.clone())
    }
    fn reset(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_tracks() {
        let mut p = LastValue::default();
        assert_eq!(p.predict_cold(), 1.0);
        assert_eq!(p.observe_and_predict(0.7), 0.7);
        assert_eq!(p.predict_cold(), 0.7);
        p.reset();
        assert_eq!(p.predict_cold(), 1.0);
    }

    #[test]
    fn uniform_never_moves() {
        let mut p = UniformSpeed::new(0.9);
        assert_eq!(p.observe_and_predict(0.1), 0.9);
        assert_eq!(p.predict_cold(), 0.9);
    }

    #[test]
    fn ewma_smooths() {
        let mut p = Ewma::new(0.5);
        assert_eq!(p.observe_and_predict(1.0), 1.0); // first obs initializes
        let second = p.observe_and_predict(0.0);
        assert!((second - 0.5).abs() < 1e-12);
        let third = p.observe_and_predict(0.0);
        assert!((third - 0.25).abs() < 1e-12);
        p.reset();
        assert_eq!(p.predict_cold(), 1.0);
    }

    #[test]
    fn boxed_clone_preserves_state() {
        let mut p = LastValue::default();
        let _ = p.observe_and_predict(0.42);
        let boxed: BoxedPredictor = p.clone_box();
        assert_eq!(boxed.predict_cold(), 0.42);
        let cloned = boxed.clone();
        assert_eq!(cloned.predict_cold(), 0.42);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }
}
