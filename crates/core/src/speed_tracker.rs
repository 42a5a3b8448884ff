//! Per-iteration speed estimation plumbing (§6.2).
//!
//! The master records each worker's response time, converts it to an
//! observed speed (`rows / time`), feeds that worker's own stateful
//! predictor (one clone of the trained model per worker), and hands the
//! resulting forecasts to the allocator for the next iteration. The
//! tracker also implements the two degenerate "predictors" the paper's
//! figures need: *uniform* (basic S²C²'s equal-speed assumption) and
//! *oracle* ("knowing the exact speeds" in Figs 6/7).

use s2c2_cluster::ClusterSim;
use s2c2_predict::predictor::{LastValue, UniformSpeed};
use s2c2_predict::{BoxedPredictor, SpeedPredictor};

/// Where next-iteration speed estimates come from.
pub enum PredictorSource {
    /// All workers assumed equal speed forever (basic S²C² input).
    Uniform,
    /// Naive persistence: next speed = last observed speed.
    LastValue,
    /// Cheating oracle: reads the simulator's actual speeds for the
    /// *current* iteration. Implements "S²C² knowing the exact speeds".
    Oracle,
    /// Any trained predictor (LSTM, ARIMA) cloned per worker.
    Prototype(BoxedPredictor),
}

impl Clone for PredictorSource {
    fn clone(&self) -> Self {
        match self {
            PredictorSource::Uniform => PredictorSource::Uniform,
            PredictorSource::LastValue => PredictorSource::LastValue,
            PredictorSource::Oracle => PredictorSource::Oracle,
            PredictorSource::Prototype(p) => PredictorSource::Prototype(p.clone()),
        }
    }
}

impl std::fmt::Debug for PredictorSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PredictorSource::Uniform => "Uniform",
            PredictorSource::LastValue => "LastValue",
            PredictorSource::Oracle => "Oracle",
            PredictorSource::Prototype(_) => "Prototype",
        };
        write!(f, "PredictorSource::{name}")
    }
}

/// Tracks observed speeds and produces next-iteration predictions.
///
/// Observed speeds arrive in absolute units (rows per second); trained
/// predictors (LSTM/ARIMA) were fit on *relative* trace speeds in
/// `(0, ~1.1]`, so the tracker rescales observations by the running
/// cluster-wide maximum before feeding them — the same normalization the
/// paper applies to its measured traces (§3.2). Predictions are therefore
/// relative, which is all the allocator consumes.
pub struct SpeedTracker {
    /// One predictor per worker; `None` for the oracle, which reads the
    /// engine's actual speeds instead.
    predictors: Option<Vec<BoxedPredictor>>,
    predictions: Vec<f64>,
    /// Whether `predictions` came out of the predictors (true from the
    /// first observation on) rather than the all-ones start.
    primed: bool,
    obs_scale: f64,
}

impl SpeedTracker {
    /// Builds the tracker for `n` workers.
    #[must_use]
    pub fn new(source: &PredictorSource, n: usize) -> Self {
        let clones = |p: &dyn SpeedPredictor| Some((0..n).map(|_| p.clone_box()).collect());
        let predictors = match source {
            PredictorSource::Uniform => clones(&UniformSpeed::new(1.0)),
            PredictorSource::LastValue => clones(&LastValue::new(1.0)),
            PredictorSource::Oracle => None,
            PredictorSource::Prototype(p) => clones(p.as_ref()),
        };
        SpeedTracker {
            predictors,
            predictions: vec![1.0; n],
            primed: false,
            obs_scale: 0.0,
        }
    }

    /// Number of workers tracked.
    #[must_use]
    pub fn n(&self) -> usize {
        self.predictions.len()
    }

    /// Speed estimates for the iteration the simulator currently has in
    /// flight. Honest predictors return forecasts computed from *previous*
    /// observations; the oracle reads the simulator's actual speeds.
    #[must_use]
    pub fn predictions(&self, sim: &ClusterSim) -> Vec<f64> {
        self.predictions_for(sim.speeds()).to_vec()
    }

    /// Speed estimates given the engine's current *actual* speeds: a
    /// view of the current forecasts (of `actual` itself for the
    /// oracle).
    ///
    /// This is the engine-agnostic form of [`Self::predictions`]: callers
    /// that do not drive a [`ClusterSim`] (the `s2c2-serve` event engine
    /// schedules many jobs over one pool and tracks speeds itself) pass
    /// whatever ground-truth speed table they hold. Honest predictors
    /// ignore `actual` entirely; only the oracle reads it.
    #[must_use]
    pub fn predictions_for<'a>(&'a self, actual: &'a [f64]) -> &'a [f64] {
        if self.predictors.is_none() {
            actual
        } else {
            &self.predictions
        }
    }

    /// Feeds observed speeds (None = worker idle, nothing measured) and
    /// refreshes the forecasts used next iteration: a worker with an
    /// observation advances its predictor, an idle one's forecast is its
    /// predictor's unchanged one.
    pub fn observe(&mut self, observed: &[Option<f64>]) {
        if let Some(predictors) = &mut self.predictors {
            for v in observed.iter().flatten() {
                self.obs_scale = self.obs_scale.max(*v);
            }
            let scale = obs_divisor(self.obs_scale);
            for ((p, forecast), o) in predictors
                .iter_mut()
                .zip(&mut self.predictions)
                .zip(observed)
            {
                *forecast = match o {
                    Some(v) => p.observe_and_predict(v / scale),
                    None => p.predict_cold(),
                };
            }
            self.primed = true;
        }
    }

    /// Feeds one worker's observed speed: bit-equal to
    /// [`Self::observe`] on `[None, …, Some(observed), …, None]`, but in
    /// place and touching that worker's predictor only. The idle
    /// workers' forecasts stand as they are — a predictor's forecast
    /// does not move without new information (the
    /// [`s2c2_predict::SpeedPredictor::predict_cold`] contract) — except
    /// on the very first observation, which replaces the all-ones start
    /// by the predictors' cold forecasts exactly as the masked form does.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn observe_one(&mut self, worker: usize, observed: f64) {
        if let Some(predictors) = &mut self.predictors {
            self.obs_scale = self.obs_scale.max(observed);
            let scale = obs_divisor(self.obs_scale);
            if !self.primed {
                for (forecast, p) in self.predictions.iter_mut().zip(predictors.iter()) {
                    *forecast = p.predict_cold();
                }
                self.primed = true;
            }
            self.predictions[worker] = predictors[worker].observe_and_predict(observed / scale);
        }
    }
}

/// What observations are divided by: the running maximum, once there is
/// one.
fn obs_divisor(obs_scale: f64) -> f64 {
    if obs_scale > 0.0 {
        obs_scale
    } else {
        1.0
    }
}

impl std::fmt::Debug for SpeedTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeedTracker")
            .field("oracle", &self.predictors.is_none())
            .field("workers", &self.predictions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    #[test]
    fn uniform_ignores_observations() {
        let mut t = SpeedTracker::new(&PredictorSource::Uniform, 3);
        t.observe(&[Some(0.1), Some(5.0), None]);
        let spec = ClusterSpec::builder(3).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        assert_eq!(t.predictions(&sim), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn last_value_tracks_per_worker_relative() {
        let mut t = SpeedTracker::new(&PredictorSource::LastValue, 3);
        // Observations are renormalized by the running maximum (0.5), so
        // predictions come out relative: {1.0, cold, 0.4}.
        t.observe(&[Some(0.5), None, Some(0.2)]);
        let spec = ClusterSpec::builder(3).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let p = t.predictions(&sim);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(
            (p[1] - 1.0).abs() < 1e-12,
            "idle worker keeps cold prediction"
        );
        assert!((p[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scale_is_monotone_across_rounds() {
        // A later, faster observation re-anchors the scale; relative
        // ordering of predictions is preserved.
        let mut t = SpeedTracker::new(&PredictorSource::LastValue, 2);
        t.observe(&[Some(100.0), Some(50.0)]);
        t.observe(&[Some(400.0), Some(100.0)]);
        let spec = ClusterSpec::builder(2).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let p = t.predictions(&sim);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn oracle_reads_sim_speeds() {
        let spec = ClusterSpec::builder(4)
            .straggler_slowdown(4.0)
            .stragglers(&[2], 0.0)
            .build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let t = SpeedTracker::new(&PredictorSource::Oracle, 4);
        let p = t.predictions(&sim);
        assert_eq!(p.len(), 4);
        assert!((p[2] - 0.25).abs() < 1e-12, "oracle sees the straggler");
    }

    /// A short-trained LSTM and an ARIMA(1,1,1): the weights do not
    /// matter here, only that the predictors are stateful and their cold
    /// forecasts are not 1.0.
    fn trained_sources() -> [PredictorSource; 2] {
        use s2c2_predict::arima::{ArimaModel, ArimaOrder};
        use s2c2_predict::lstm::{train, LstmConfig};
        use s2c2_trace::{CloudTraceConfig, TraceSet};
        let traces = TraceSet::generate(&CloudTraceConfig::volatile(), 4, 60, 3);
        let series: Vec<&[f64]> = traces.traces().iter().map(|t| t.samples()).collect();
        let cfg = LstmConfig {
            epochs: 2,
            ..LstmConfig::default()
        };
        let lstm = train(&cfg, &series).online();
        let arima = ArimaModel::fit(ArimaOrder::Arima111, &series).online();
        [
            PredictorSource::Prototype(Box::new(lstm)),
            PredictorSource::Prototype(Box::new(arima)),
        ]
    }

    #[test]
    fn observe_one_equals_the_one_hot_observe_bit_for_bit() {
        let n = 5;
        let ewma: BoxedPredictor = Box::new(s2c2_predict::predictor::Ewma::new(0.3));
        let [lstm, arima] = trained_sources();
        let sources = [
            PredictorSource::Uniform,
            PredictorSource::LastValue,
            PredictorSource::Oracle,
            PredictorSource::Prototype(ewma),
            lstm,
            arima,
        ];
        let actual: Vec<f64> = (0..n).map(|w| 0.5 + w as f64).collect();
        for source in &sources {
            let mut one = SpeedTracker::new(source, n);
            let mut masked = SpeedTracker::new(source, n);
            // xorshift64: a fixed, dependency-free observation stream.
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for step in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let worker = (x % n as u64) as usize;
                let observed = 1e-3 + (x >> 11) as f64 / (1u64 << 53) as f64 * 5e4;
                // Now and then a full multi-worker observation (rung 3
                // feeds one) lands between the single replies.
                if step % 37 == 36 {
                    let full: Vec<Option<f64>> = (0..n)
                        .map(|w| (w != worker).then_some(observed / (w + 1) as f64))
                        .collect();
                    one.observe(&full);
                    masked.observe(&full);
                }
                one.observe_one(worker, observed);
                let mut hot = vec![None; n];
                hot[worker] = Some(observed);
                masked.observe(&hot);
                let bits = |t: &SpeedTracker| -> Vec<u64> {
                    let p = t.predictions_for(&actual);
                    p.iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&one), bits(&masked), "{source:?} step {step}");
                assert_eq!(one.obs_scale.to_bits(), masked.obs_scale.to_bits());
            }
        }
    }

    #[test]
    fn prototype_clones_are_independent_per_worker() {
        let proto: BoxedPredictor = Box::new(LastValue::new(1.0));
        let mut t = SpeedTracker::new(&PredictorSource::Prototype(proto), 2);
        t.observe(&[Some(0.9), Some(0.3)]);
        let spec = ClusterSpec::builder(2).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let p = t.predictions(&sim);
        assert!((p[0] - 1.0).abs() < 1e-12, "normalized by the 0.9 max");
        assert!((p[1] - 0.3 / 0.9).abs() < 1e-12);
    }
}
