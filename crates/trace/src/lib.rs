//! Worker speed models and cloud-like speed trace generation.
//!
//! The S²C² paper's motivation (§3.2) rests on empirically measured speed
//! traces from 100 DigitalOcean droplets: node speeds vary over time but
//! *slowly* — within ~10% across ~10-sample neighbourhoods — with occasional
//! abrupt regime shifts. Those statistical properties are what make
//! speed *prediction* (and therefore S²C²'s proactive work allocation)
//! feasible.
//!
//! We do not have the authors' droplet traces, so this crate provides:
//!
//! * [`SpeedModel`] — the per-worker speed process abstraction consumed by
//!   the cluster engines. Speeds are *relative* (1.0 = nominal fast node)
//!   and sampled once per computation iteration, matching the paper's
//!   measurement granularity.
//! * Concrete models: [`model::ConstantSpeed`], [`model::JitterSpeed`]
//!   (controlled-cluster ±20% variation), [`model::StragglerSpeed`]
//!   (≥5× slowdown scenarios), [`model::MarkovRegimeSpeed`] (cloud-like
//!   regime switching), and [`model::ReplaySpeed`] (recorded traces).
//! * [`generator`] — builds whole-cluster trace sets mimicking Figure 2,
//!   with calm (low mis-prediction) and volatile (high mis-prediction)
//!   presets.
//! * [`stats`] — the time-series diagnostics used to validate that
//!   generated traces have the paper's properties.
//! * [`csv`] — minimal trace persistence (plain CSV, no external deps).

#![warn(missing_docs)]
// Library code (tests excepted) does not panic; a site that provably
// cannot carries `#[expect(lint, reason = "…")]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

pub mod csv;
pub mod generator;
pub mod model;
pub mod stats;

pub use generator::{CloudTraceConfig, TraceSet};
pub use model::{BoxedSpeedModel, SpeedModel};

/// A recorded speed series for one worker, one sample per iteration.
///
/// Speeds are relative throughput values (rows per unit time, normalized so
/// the nominal fast node is ≈ 1.0). The paper normalizes each node by its
/// maximum observed speed; [`Trace::normalized_by_max`] reproduces that
/// view for plotting/analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    samples: Vec<f64>,
}

impl Trace {
    /// Wraps a raw sample series.
    ///
    /// # Panics
    ///
    /// Panics if any sample is non-positive or non-finite — a speed of zero
    /// would make assigned work never complete, which the models never emit
    /// (a dead worker is modelled by the cluster layer as a failure event,
    /// not a zero speed).
    #[must_use]
    pub fn new(samples: Vec<f64>) -> Self {
        for (i, s) in samples.iter().enumerate() {
            assert!(
                s.is_finite() && *s > 0.0,
                "invalid speed sample {s} at index {i}"
            );
        }
        Trace { samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the trace has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample accessor (`iteration` clamps to the last sample, so models can
    /// run longer than the recorded series — steady-state extension).
    #[must_use]
    pub fn sample(&self, iteration: usize) -> f64 {
        let idx = iteration.min(self.samples.len().saturating_sub(1));
        self.samples[idx]
    }

    /// Raw samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The paper's Figure 2 view: every sample divided by the maximum
    /// observed speed of this node.
    #[must_use]
    pub fn normalized_by_max(&self) -> Trace {
        let max = self.samples.iter().cloned().fold(f64::MIN, f64::max);
        Trace {
            samples: self.samples.iter().map(|s| s / max).collect(),
        }
    }

    /// Splits into `(train, test)` at `ratio` (e.g. 0.8 for the paper's
    /// 80:20 prediction-model split).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio < 1` or the trace has fewer than 2 samples.
    #[must_use]
    pub fn split(&self, ratio: f64) -> (Trace, Trace) {
        assert!(ratio > 0.0 && ratio < 1.0, "split ratio must be in (0,1)");
        assert!(self.samples.len() >= 2, "need at least 2 samples to split");
        let cut = ((self.samples.len() as f64) * ratio).round() as usize;
        let cut = cut.clamp(1, self.samples.len() - 1);
        (
            Trace {
                samples: self.samples[..cut].to_vec(),
            },
            Trace {
                samples: self.samples[cut..].to_vec(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_clamps_past_end() {
        let t = Trace::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(t.sample(0), 1.0);
        assert_eq!(t.sample(2), 3.0);
        assert_eq!(t.sample(99), 3.0);
    }

    #[test]
    fn normalized_by_max_peaks_at_one() {
        let t = Trace::new(vec![2.0, 4.0, 1.0]).normalized_by_max();
        assert_eq!(t.samples(), &[0.5, 1.0, 0.25]);
    }

    #[test]
    fn split_ratio() {
        let t = Trace::new((1..=10).map(|i| i as f64).collect());
        let (train, test) = t.split(0.8);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        assert_eq!(test.samples(), &[9.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "invalid speed sample")]
    fn rejects_nonpositive_speed() {
        let _ = Trace::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "split ratio")]
    fn rejects_bad_split() {
        let _ = Trace::new(vec![1.0, 2.0]).split(1.5);
    }
}
