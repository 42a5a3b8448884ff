//! Worker churn: a seeded on/off availability process per worker.
//!
//! The paper's clusters are static, but a service engine multiplexing
//! many jobs over one long-lived pool (`s2c2-serve`) must survive
//! workers leaving and rejoining — preemptions, spot reclaims, crashes.
//! [`ChurnProcess`] models availability as an independent two-state
//! Markov chain per worker, advanced once per *epoch* (the same
//! granularity at which the speed models are sampled): an up worker
//! fails with probability `p_fail`, a down worker recovers with
//! probability `p_recover`.
//!
//! A configurable `min_up` floor keeps scenarios feasible: after each
//! epoch's transitions, if fewer than `min_up` workers remain up, the
//! longest-down workers are recovered (deterministically) until the
//! floor holds. This mirrors real operations — an operator replaces
//! capacity when the pool dips below its serving threshold — and lets
//! experiments pick churn rates without accidentally making every coded
//! job infeasible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent per-worker on/off availability chains, epoch-sampled.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    up: Vec<bool>,
    /// Epoch at which each worker last changed state (for the
    /// deterministic longest-down recovery rule).
    since: Vec<usize>,
    p_fail: f64,
    p_recover: f64,
    min_up: usize,
    last_epoch: Option<usize>,
    rng: StdRng,
}

impl ChurnProcess {
    /// Builds the process for `n` workers, all initially up.
    ///
    /// * `p_fail` — per-epoch probability an up worker goes down.
    /// * `p_recover` — per-epoch probability a down worker comes back.
    /// * `min_up` — availability floor enforced after every epoch.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, a probability is outside `[0, 1]`, or
    /// `min_up > n`.
    #[must_use]
    pub fn new(n: usize, p_fail: f64, p_recover: f64, min_up: usize, seed: u64) -> Self {
        assert!(n > 0, "need at least one worker");
        assert!(
            (0.0..=1.0).contains(&p_fail) && (0.0..=1.0).contains(&p_recover),
            "churn probabilities must be in [0, 1]"
        );
        assert!(min_up <= n, "min_up cannot exceed the pool size");
        ChurnProcess {
            up: vec![true; n],
            since: vec![0; n],
            p_fail,
            p_recover,
            min_up,
            last_epoch: None,
            rng: StdRng::seed_from_u64(seed ^ 0xC4_12_2A_57),
        }
    }

    /// A churn-free pool: every worker stays up forever.
    #[must_use]
    pub fn none(n: usize) -> Self {
        ChurnProcess::new(n, 0.0, 1.0, n, 0)
    }

    /// Number of workers tracked.
    #[must_use]
    pub fn n(&self) -> usize {
        self.up.len()
    }

    /// Current availability mask (no time advance).
    #[must_use]
    pub fn up(&self) -> &[bool] {
        &self.up
    }

    /// Number of currently-up workers.
    #[must_use]
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// Advances the chains to `epoch` (catching up over skipped epochs —
    /// re-querying the same epoch is a no-op) and returns the mask.
    pub fn advance_to(&mut self, epoch: usize) -> &[bool] {
        if self.last_epoch != Some(epoch) {
            let from = match self.last_epoch {
                Some(le) if epoch > le => le + 1,
                _ => epoch,
            };
            for e in from..=epoch {
                self.step(e);
            }
            self.last_epoch = Some(epoch);
        }
        &self.up
    }

    fn step(&mut self, epoch: usize) {
        for w in 0..self.up.len() {
            let roll: f64 = self.rng.gen();
            let flip = if self.up[w] {
                roll < self.p_fail
            } else {
                roll < self.p_recover
            };
            if flip {
                self.up[w] = !self.up[w];
                self.since[w] = epoch;
            }
        }
        // Enforce the availability floor: recover the longest-down
        // workers first (lowest `since`, then lowest id — deterministic).
        while self.up_count() < self.min_up {
            #[expect(
                clippy::expect_used,
                reason = "up_count < min_up <= n implies a down worker exists"
            )]
            let pick = (0..self.up.len())
                .filter(|&w| !self.up[w])
                .min_by_key(|&w| (self.since[w], w))
                .expect("min_up <= n guarantees a candidate");
            self.up[pick] = true;
            self.since[pick] = epoch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_up() {
        let c = ChurnProcess::new(5, 0.2, 0.5, 2, 7);
        assert_eq!(c.up_count(), 5);
        assert_eq!(c.n(), 5);
    }

    #[test]
    fn no_churn_never_drops_anyone() {
        let mut c = ChurnProcess::none(6);
        for e in 0..100 {
            assert_eq!(c.advance_to(e).iter().filter(|&&u| u).count(), 6);
        }
    }

    #[test]
    fn min_up_floor_holds_under_heavy_churn() {
        let mut c = ChurnProcess::new(8, 0.9, 0.05, 5, 11);
        for e in 0..200 {
            c.advance_to(e);
            assert!(c.up_count() >= 5, "epoch {e}: floor violated");
        }
    }

    #[test]
    fn churn_actually_happens() {
        let mut c = ChurnProcess::new(8, 0.3, 0.3, 2, 3);
        let mut saw_down = false;
        for e in 0..50 {
            c.advance_to(e);
            if c.up_count() < 8 {
                saw_down = true;
            }
        }
        assert!(saw_down, "p_fail = 0.3 over 50 epochs must drop someone");
    }

    #[test]
    fn same_epoch_is_idempotent() {
        let mut c = ChurnProcess::new(6, 0.4, 0.4, 2, 9);
        c.advance_to(10);
        let snap = c.up().to_vec();
        for _ in 0..20 {
            assert_eq!(c.advance_to(10), &snap[..]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ChurnProcess::new(10, 0.2, 0.4, 3, 42);
        let mut b = ChurnProcess::new(10, 0.2, 0.4, 3, 42);
        for e in 0..64 {
            assert_eq!(a.advance_to(e), b.advance_to(e));
        }
    }

    #[test]
    #[should_panic(expected = "min_up cannot exceed")]
    fn floor_above_pool_rejected() {
        let _ = ChurnProcess::new(3, 0.1, 0.1, 4, 0);
    }
}
