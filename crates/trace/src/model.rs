//! Per-worker speed processes.
//!
//! A [`SpeedModel`] yields the relative speed of one worker for each
//! iteration of an iterative workload. The cluster engines sample the model
//! once per iteration (the paper measures and predicts at exactly this
//! granularity) and convert `assigned_rows / speed` into simulated time.

use crate::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A worker's speed process, sampled once per iteration.
pub trait SpeedModel: Send {
    /// Relative speed for `iteration` (1.0 ≈ nominal fast node).
    ///
    /// Must be strictly positive and finite. Implementations are expected to
    /// be deterministic given their construction parameters (seeded RNGs)
    /// so experiments are reproducible.
    fn speed_at(&mut self, iteration: usize) -> f64;

    /// Clones the model into a boxed trait object (models are stateful, so
    /// `Clone` cannot be a supertrait of a dyn-safe trait directly).
    fn clone_box(&self) -> BoxedSpeedModel;
}

/// Owned, type-erased speed model.
pub type BoxedSpeedModel = Box<dyn SpeedModel>;

impl Clone for BoxedSpeedModel {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Fixed speed, no variation. The baseline "perfect cluster" model.
#[derive(Debug, Clone, Copy)]
pub struct ConstantSpeed {
    /// Relative speed value returned for every iteration.
    pub speed: f64,
}

impl ConstantSpeed {
    /// Creates a constant-speed model.
    ///
    /// # Panics
    ///
    /// Panics unless `speed > 0` and finite.
    #[must_use]
    pub fn new(speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        ConstantSpeed { speed }
    }
}

impl SpeedModel for ConstantSpeed {
    fn speed_at(&mut self, _iteration: usize) -> f64 {
        self.speed
    }
    fn clone_box(&self) -> BoxedSpeedModel {
        Box::new(*self)
    }
}

/// Base speed with bounded multiplicative jitter, resampled per iteration.
///
/// Models the paper's controlled-cluster observation that "even
/// non-straggler nodes may have up to 20% variation between their
/// processing speeds": `JitterSpeed::new(1.0, 0.2, seed)` draws uniformly
/// from `[0.8, 1.0] · base` each iteration (one-sided, matching "up to 20%
/// slower than the fastest").
#[derive(Debug, Clone)]
pub struct JitterSpeed {
    base: f64,
    jitter: f64,
    rng: StdRng,
}

impl JitterSpeed {
    /// Creates a jittered speed model: uniform in `[base·(1−jitter), base]`.
    ///
    /// # Panics
    ///
    /// Panics unless `base > 0` and `0 ≤ jitter < 1`.
    #[must_use]
    pub fn new(base: f64, jitter: f64, seed: u64) -> Self {
        assert!(
            base.is_finite() && base > 0.0,
            "base speed must be positive"
        );
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        JitterSpeed {
            base,
            jitter,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SpeedModel for JitterSpeed {
    fn speed_at(&mut self, _iteration: usize) -> f64 {
        if self.jitter == 0.0 {
            return self.base;
        }
        let factor = self.rng.gen_range(1.0 - self.jitter..=1.0);
        self.base * factor
    }
    fn clone_box(&self) -> BoxedSpeedModel {
        Box::new(self.clone())
    }
}

/// A persistent straggler: a jittered node scaled down by `slowdown`.
///
/// The paper's controlled-cluster definition: "a straggler is a node that
/// is at least 5× slower than the fastest performing node".
#[derive(Debug, Clone)]
pub struct StragglerSpeed {
    inner: JitterSpeed,
    slowdown: f64,
}

impl StragglerSpeed {
    /// Creates a straggler `slowdown`× slower than a `base`-speed node.
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown >= 1`.
    #[must_use]
    pub fn new(base: f64, jitter: f64, slowdown: f64, seed: u64) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be >= 1");
        StragglerSpeed {
            inner: JitterSpeed::new(base, jitter, seed),
            slowdown,
        }
    }
}

impl SpeedModel for StragglerSpeed {
    fn speed_at(&mut self, iteration: usize) -> f64 {
        self.inner.speed_at(iteration) / self.slowdown
    }
    fn clone_box(&self) -> BoxedSpeedModel {
        Box::new(self.clone())
    }
}

/// Cloud-like regime-switching process (the Figure 2 generator's engine).
///
/// The worker occupies one of several speed *regimes* (levels); each
/// iteration it stays in the current regime with probability
/// `1 − 1/mean_dwell` and otherwise jumps to a uniformly random different
/// regime. Within a regime, samples take the regime level times a small
/// multiplicative jitter. This reproduces the paper's observations: speed
/// stays within ~10% of a local level for ~`mean_dwell` samples, with
/// occasional drastic changes.
#[derive(Debug, Clone)]
pub struct MarkovRegimeSpeed {
    levels: Vec<f64>,
    mean_dwell: f64,
    jitter: f64,
    current: usize,
    last_iteration: Option<usize>,
    rng: StdRng,
}

impl MarkovRegimeSpeed {
    /// Creates a regime-switching model.
    ///
    /// * `levels` — the speed level of each regime (all positive).
    /// * `mean_dwell` — expected number of iterations between regime jumps.
    /// * `jitter` — within-regime multiplicative noise half-width.
    /// * `start` — initial regime index.
    ///
    /// # Panics
    ///
    /// Panics on empty `levels`, non-positive levels, `mean_dwell < 1`,
    /// jitter outside `[0, 1)`, or `start` out of range.
    #[must_use]
    pub fn new(levels: Vec<f64>, mean_dwell: f64, jitter: f64, start: usize, seed: u64) -> Self {
        assert!(!levels.is_empty(), "need at least one regime");
        assert!(
            levels.iter().all(|l| l.is_finite() && *l > 0.0),
            "levels must be positive"
        );
        assert!(mean_dwell >= 1.0, "mean dwell must be >= 1");
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        assert!(start < levels.len(), "start regime out of range");
        MarkovRegimeSpeed {
            levels,
            mean_dwell,
            jitter,
            current: start,
            last_iteration: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn maybe_jump(&mut self) {
        if self.levels.len() == 1 {
            return;
        }
        let p_jump = 1.0 / self.mean_dwell;
        if self.rng.gen::<f64>() < p_jump {
            // Jump to a uniformly random *different* regime.
            let mut next = self.rng.gen_range(0..self.levels.len() - 1);
            if next >= self.current {
                next += 1;
            }
            self.current = next;
        }
    }
}

impl SpeedModel for MarkovRegimeSpeed {
    fn speed_at(&mut self, iteration: usize) -> f64 {
        // Advance the chain once per *new* iteration. Sampling the same
        // iteration twice (e.g. a retry) must not advance time.
        if self.last_iteration != Some(iteration) {
            // Catch up if the caller skipped iterations.
            let from = match self.last_iteration {
                Some(li) if iteration > li => li + 1,
                _ => iteration,
            };
            for _ in from..=iteration {
                self.maybe_jump();
            }
            self.last_iteration = Some(iteration);
        }
        let noise = if self.jitter == 0.0 {
            1.0
        } else {
            self.rng.gen_range(1.0 - self.jitter..=1.0 + self.jitter)
        };
        self.levels[self.current] * noise
    }
    fn clone_box(&self) -> BoxedSpeedModel {
        Box::new(self.clone())
    }
}

/// Replays a recorded [`Trace`], clamping past the end.
#[derive(Debug, Clone)]
pub struct ReplaySpeed {
    trace: Trace,
}

impl ReplaySpeed {
    /// Wraps a recorded trace.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace.
    #[must_use]
    pub fn new(trace: Trace) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        ReplaySpeed { trace }
    }
}

impl SpeedModel for ReplaySpeed {
    fn speed_at(&mut self, iteration: usize) -> f64 {
        self.trace.sample(iteration)
    }
    fn clone_box(&self) -> BoxedSpeedModel {
        Box::new(self.clone())
    }
}

/// Records a model's output into a [`Trace`] of `len` samples.
pub fn record(model: &mut dyn SpeedModel, len: usize) -> Trace {
    Trace::new((0..len).map(|i| model.speed_at(i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantSpeed::new(2.5);
        assert_eq!(m.speed_at(0), 2.5);
        assert_eq!(m.speed_at(100), 2.5);
    }

    #[test]
    fn jitter_bounds_respected() {
        let mut m = JitterSpeed::new(1.0, 0.2, 42);
        for i in 0..1000 {
            let s = m.speed_at(i);
            assert!((0.8..=1.0).contains(&s), "sample {s} out of range");
        }
    }

    #[test]
    fn jitter_zero_is_constant() {
        let mut m = JitterSpeed::new(3.0, 0.0, 1);
        assert_eq!(m.speed_at(0), 3.0);
    }

    #[test]
    fn straggler_is_slowdown_times_slower() {
        let mut fast = JitterSpeed::new(1.0, 0.0, 7);
        let mut slow = StragglerSpeed::new(1.0, 0.0, 5.0, 7);
        assert!((fast.speed_at(0) / slow.speed_at(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn markov_stays_within_levels_and_jitter() {
        let levels = vec![1.0, 0.5, 0.2];
        let mut m = MarkovRegimeSpeed::new(levels.clone(), 10.0, 0.05, 0, 3);
        for i in 0..500 {
            let s = m.speed_at(i);
            let ok = levels
                .iter()
                .any(|l| s >= l * 0.95 - 1e-12 && s <= l * 1.05 + 1e-12);
            assert!(ok, "sample {s} not within 5% of any level");
        }
    }

    #[test]
    fn markov_dwell_time_roughly_matches() {
        // With mean_dwell = 10 over 2000 samples we expect ~200 jumps;
        // loosely assert the count is in a sane band.
        let mut m = MarkovRegimeSpeed::new(vec![1.0, 0.5], 10.0, 0.0, 0, 11);
        let mut jumps = 0;
        let mut prev = m.speed_at(0);
        for i in 1..2000 {
            let s = m.speed_at(i);
            if (s - prev).abs() > 1e-9 {
                jumps += 1;
            }
            prev = s;
        }
        assert!(
            (100..=320).contains(&jumps),
            "unexpected jump count {jumps}"
        );
    }

    #[test]
    fn markov_same_iteration_does_not_advance_chain() {
        let mut m = MarkovRegimeSpeed::new(vec![1.0, 0.5], 2.0, 0.0, 0, 5);
        let _ = m.speed_at(3);
        let regime = m.current;
        // Re-sampling iteration 3 must not move the chain.
        for _ in 0..50 {
            let _ = m.speed_at(3);
            assert_eq!(m.current, regime);
        }
    }

    #[test]
    fn replay_clamps() {
        let mut m = ReplaySpeed::new(Trace::new(vec![1.0, 2.0]));
        assert_eq!(m.speed_at(0), 1.0);
        assert_eq!(m.speed_at(5), 2.0);
    }

    #[test]
    fn record_then_replay_matches() {
        let mut src = MarkovRegimeSpeed::new(vec![1.0, 0.4], 5.0, 0.02, 0, 9);
        let trace = record(&mut src, 64);
        let mut rep = ReplaySpeed::new(trace.clone());
        for i in 0..64 {
            assert_eq!(rep.speed_at(i), trace.sample(i));
        }
    }

    #[test]
    fn boxed_clone_is_independent() {
        let m: BoxedSpeedModel = Box::new(JitterSpeed::new(1.0, 0.2, 123));
        let mut a = m.clone();
        let mut b = m.clone();
        // Same seed state at clone time → same future samples.
        for i in 0..16 {
            assert_eq!(a.speed_at(i), b.speed_at(i));
        }
    }

    #[test]
    #[should_panic(expected = "slowdown must be >= 1")]
    fn straggler_rejects_speedup() {
        let _ = StragglerSpeed::new(1.0, 0.0, 0.5, 0);
    }
}
