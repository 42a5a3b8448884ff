//! Cluster specification and scenario builders.
//!
//! A [`ClusterSpec`] bundles per-worker speed processes with the
//! communication/compute cost models. The builder provides the paper's
//! two evaluation scenarios directly:
//!
//! * [`ClusterSpecBuilder::stragglers`] — the controlled-cluster setup
//!   (§7.1): chosen workers are ≥5× slower; all workers carry up to ±20%
//!   iteration-to-iteration jitter.
//! * [`ClusterSpecBuilder::cloud`] — the DigitalOcean setup (§7.2):
//!   every worker follows a regime-switching cloud trace (calm or
//!   volatile preset from `s2c2-trace`).

use crate::comm::{CommModel, ComputeModel};
use s2c2_trace::model::{JitterSpeed, StragglerSpeed};
use s2c2_trace::{BoxedSpeedModel, CloudTraceConfig};

/// Full description of a simulated cluster.
pub struct ClusterSpec {
    /// Per-worker speed processes.
    pub workers: Vec<BoxedSpeedModel>,
    /// Link model for every master↔worker / worker↔worker transfer.
    pub comm: CommModel,
    /// Worker computation model.
    pub compute: ComputeModel,
    /// Master decode throughput in flops/second.
    pub decode_flops_per_sec: f64,
}

impl ClusterSpec {
    /// Starts a builder for an `n`-worker cluster.
    #[must_use]
    pub fn builder(n: usize) -> ClusterSpecBuilder {
        ClusterSpecBuilder::new(n)
    }

    /// Number of workers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.workers.len()
    }
}

impl Clone for ClusterSpec {
    fn clone(&self) -> Self {
        ClusterSpec {
            workers: self.workers.clone(),
            comm: self.comm,
            compute: self.compute,
            decode_flops_per_sec: self.decode_flops_per_sec,
        }
    }
}

impl std::fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("workers", &self.workers.len())
            .field("comm", &self.comm)
            .field("compute", &self.compute)
            .field("decode_flops_per_sec", &self.decode_flops_per_sec)
            .finish()
    }
}

/// Builder for [`ClusterSpec`].
pub struct ClusterSpecBuilder {
    n: usize,
    models: Vec<Option<BoxedSpeedModel>>,
    comm: CommModel,
    compute: ComputeModel,
    decode_flops_per_sec: f64,
    straggler_slowdown: f64,
    seed: u64,
}

impl ClusterSpecBuilder {
    fn new(n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one worker");
        ClusterSpecBuilder {
            n,
            models: (0..n).map(|_| None).collect(),
            comm: CommModel::default(),
            compute: ComputeModel::default(),
            decode_flops_per_sec: 1e9,
            straggler_slowdown: 5.0,
            seed: 0xC10D,
        }
    }

    /// Sets the RNG seed that derives per-worker model seeds.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the link model.
    #[must_use]
    pub fn comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Overrides the worker compute model.
    #[must_use]
    pub fn compute(mut self, compute: ComputeModel) -> Self {
        self.compute = compute;
        self
    }

    /// Configures a compute-dominated cluster: near-zero link latency and
    /// a deliberately slow worker throughput, so per-row compute
    /// differences dominate timing even for unit-test-sized matrices.
    /// (Production-scale matrices get the same effect under the default
    /// models; this keeps small tests faithful to the paper's
    /// compute-bound regime.)
    #[must_use]
    pub fn compute_bound(mut self) -> Self {
        self.comm = CommModel::new(1e12, 1e-9);
        self.compute = ComputeModel::new(1e5);
        self
    }

    /// Overrides the master decode throughput (flops/s).
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    #[must_use]
    pub fn decode_flops_per_sec(mut self, flops: f64) -> Self {
        assert!(flops > 0.0, "decode throughput must be positive");
        self.decode_flops_per_sec = flops;
        self
    }

    /// Overrides the slowdown factor used by [`Self::stragglers`]
    /// (paper definition: "at least 5× slower"; default 5.0).
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown >= 1`.
    #[must_use]
    pub fn straggler_slowdown(mut self, slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be >= 1");
        self.straggler_slowdown = slowdown;
        self
    }

    /// Installs an explicit speed model for one worker.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= n`.
    #[must_use]
    pub fn worker_model(mut self, worker: usize, model: BoxedSpeedModel) -> Self {
        self.models[worker] = Some(model);
        self
    }

    /// Controlled-cluster scenario (§7.1): workers in `ids` become
    /// persistent stragglers (`straggler_slowdown`× slower); non-straggler
    /// speeds spread *statically* across `[1 − jitter, 1]` (the paper's
    /// "up to 20% variation between their processing speeds" is
    /// heterogeneity between nodes, not fresh noise every iteration),
    /// plus a small ±3% iteration-to-iteration wobble.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    #[must_use]
    pub fn stragglers(mut self, ids: &[usize], jitter: f64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for &id in ids {
            assert!(id < self.n, "straggler id {id} out of range");
        }
        for w in 0..self.n {
            let seed = self.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = StdRng::seed_from_u64(seed);
            let base = if jitter == 0.0 {
                1.0
            } else {
                rng.gen_range(1.0 - jitter..=1.0)
            };
            let wobble = if jitter == 0.0 { 0.0 } else { 0.03 };
            let model: BoxedSpeedModel = if ids.contains(&w) {
                Box::new(StragglerSpeed::new(
                    base,
                    wobble,
                    self.straggler_slowdown,
                    seed,
                ))
            } else {
                Box::new(JitterSpeed::new(base, wobble, seed))
            };
            self.models[w] = Some(model);
        }
        self
    }

    /// Cloud scenario (§7.2): every worker follows a regime-switching
    /// trace drawn from `config` (use [`CloudTraceConfig::calm`] /
    /// [`CloudTraceConfig::volatile`] for the paper's two environments).
    #[must_use]
    pub fn cloud(mut self, config: &CloudTraceConfig) -> Self {
        for w in 0..self.n {
            self.models[w] = Some(Box::new(config.model_for_node(w, self.seed)));
        }
        self
    }

    /// Finalizes the spec. Workers without an explicit model get a
    /// constant-speed model at 1.0 (perfect homogeneous cluster).
    #[must_use]
    pub fn build(self) -> ClusterSpec {
        use s2c2_trace::model::ConstantSpeed;
        ClusterSpec {
            workers: self
                .models
                .into_iter()
                .map(|m| m.unwrap_or_else(|| Box::new(ConstantSpeed::new(1.0)) as BoxedSpeedModel))
                .collect(),
            comm: self.comm,
            compute: self.compute,
            decode_flops_per_sec: self.decode_flops_per_sec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_is_homogeneous() {
        let mut spec = ClusterSpec::builder(4).build();
        assert_eq!(spec.n(), 4);
        for w in spec.workers.iter_mut() {
            assert_eq!(w.speed_at(0), 1.0);
        }
    }

    #[test]
    fn straggler_scenario_slows_chosen_workers() {
        let mut spec = ClusterSpec::builder(6)
            .straggler_slowdown(5.0)
            .stragglers(&[1, 4], 0.0)
            .build();
        let speeds: Vec<f64> = spec.workers.iter_mut().map(|m| m.speed_at(0)).collect();
        assert_eq!(speeds[0], 1.0);
        assert!((speeds[1] - 0.2).abs() < 1e-12);
        assert!((speeds[4] - 0.2).abs() < 1e-12);
        assert_eq!(speeds[5], 1.0);
    }

    #[test]
    fn heterogeneity_is_static_with_small_wobble() {
        let mut spec = ClusterSpec::builder(8).stragglers(&[], 0.2).build();
        for (w, m) in spec.workers.iter_mut().enumerate() {
            let samples: Vec<f64> = (0..50).map(|i| m.speed_at(i)).collect();
            // Static base in [0.8, 1.0], wobble <= 3%.
            let max = samples.iter().cloned().fold(f64::MIN, f64::max);
            let min = samples.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max <= 1.0 + 1e-12, "worker {w} max {max}");
            assert!(min >= 0.8 * 0.97 - 1e-12, "worker {w} min {min}");
            assert!(
                max / min <= 1.0 / 0.97 + 1e-9,
                "worker {w} wobble too large"
            );
        }
        // Bases actually differ across workers.
        let mut bases: Vec<f64> = spec.workers.iter_mut().map(|m| m.speed_at(0)).collect();
        bases.sort_by(f64::total_cmp);
        assert!(bases[7] - bases[0] > 0.02, "heterogeneous bases");
    }

    #[test]
    fn cloud_scenario_produces_varied_speeds() {
        let mut spec = ClusterSpec::builder(10)
            .seed(7)
            .cloud(&CloudTraceConfig::volatile())
            .build();
        let mut distinct = std::collections::BTreeSet::new();
        for m in spec.workers.iter_mut() {
            for i in 0..50 {
                distinct.insert((m.speed_at(i) * 1e6) as i64);
            }
        }
        assert!(distinct.len() > 20, "cloud speeds should vary");
    }

    #[test]
    fn spec_clone_is_independent() {
        let spec = ClusterSpec::builder(2).stragglers(&[0], 0.1).build();
        let mut a = spec.clone();
        let mut b = spec.clone();
        for i in 0..10 {
            assert_eq!(a.workers[0].speed_at(i), b.workers[0].speed_at(i));
        }
    }

    #[test]
    #[should_panic(expected = "straggler id 9 out of range")]
    fn bad_straggler_id_panics() {
        let _ = ClusterSpec::builder(4).stragglers(&[9], 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ClusterSpec::builder(0);
    }
}
