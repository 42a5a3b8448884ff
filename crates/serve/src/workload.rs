//! Workload generation: heterogeneous coded jobs arriving over time.
//!
//! A service engine is only as interesting as its offered load. This
//! module builds deterministic, seeded arrival sequences of [`JobSpec`]s
//! drawn from size [`JobPreset`]s — Poisson arrivals for open-loop load
//! experiments (the regime *Serverless Straggler Mitigation* and the
//! rateless-coding line of work evaluate in), or explicit trace-driven
//! arrival instants for replaying recorded workloads.

use crate::event::JobId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One coded job as submitted to the service engine.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique id (assigned by the generator, ascending in arrival order).
    pub id: JobId,
    /// Owning tenant (weighted fair-share admission groups by this).
    pub tenant: u32,
    /// Data-matrix rows of the iterated matvec.
    pub rows: usize,
    /// Data-matrix columns.
    pub cols: usize,
    /// Recovery threshold of the job's `(n, k)` code (`n` is always the
    /// pool size — every job is encoded across the whole shared pool).
    pub k: usize,
    /// Over-decomposition granularity: chunks per coded partition.
    pub chunks_per_partition: usize,
    /// Number of iterations the job runs before completing.
    pub iterations: usize,
    /// Preset label the job was drawn from (stable key for reporting).
    pub preset: &'static str,
    /// Capacity weight: a weight-2 job is entitled to twice a weight-1
    /// job's fractional rate on every worker while both are resident
    /// (normalized via [`s2c2_core::normalized_shares`]).
    pub weight: f64,
    /// Optional relative SLO: the job should finish within `deadline`
    /// seconds of its *arrival*. Consulted by
    /// [`crate::admission::QueuePolicy::EarliestDeadline`] and the
    /// engine's admission-time infeasibility rejection; reported as
    /// `on_time` in job records.
    pub deadline: Option<f64>,
    /// Identity of the job's model matrix. Jobs sharing a `matrix_id`
    /// (and shape) declare they carry the *same* matrix — the key the
    /// numeric backends' encode cache amortizes over, so a trace
    /// workload re-submitting one model skips re-encoding. Presets stamp
    /// a name-derived default (every job from one preset shares its
    /// model); override per preset/spec with `with_matrix_id`.
    pub matrix_id: u64,
}

impl JobSpec {
    /// Useful work of one iteration, in matrix elements.
    #[must_use]
    pub fn work_per_iteration(&self) -> f64 {
        (self.rows * self.cols) as f64
    }

    /// Total useful work over all iterations, in matrix elements — what
    /// deadline admission control bounds the service time by.
    #[must_use]
    pub fn total_work(&self) -> f64 {
        self.work_per_iteration() * self.iterations as f64
    }

    /// Returns the spec with its capacity weight replaced.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Returns the spec with a relative deadline (seconds after arrival).
    #[must_use]
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the spec with its model-matrix identity replaced.
    #[must_use]
    pub fn with_matrix_id(mut self, matrix_id: u64) -> Self {
        self.matrix_id = matrix_id;
        self
    }
}

/// FNV-1a over a byte string — the stable default matrix identity for a
/// preset name (no hasher-randomization, reproducible across runs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A job size class: shapes are fixed, the recovery threshold scales
/// with the pool (`k = round(n · k_frac)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPreset {
    /// Label used in job records and report tables.
    pub name: &'static str,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Recovery threshold as a fraction of the pool size.
    pub k_frac: f64,
    /// Chunks per coded partition.
    pub chunks_per_partition: usize,
    /// Iterations per job.
    pub iterations: usize,
    /// Capacity weight stamped onto instantiated specs (default 1.0).
    pub weight: f64,
    /// Relative deadline stamped onto instantiated specs (default none).
    pub deadline: Option<f64>,
    /// Model-matrix identity stamped onto instantiated specs; `None`
    /// derives a stable id from the preset name, so every job drawn from
    /// one preset carries the same model (the recurring-matrix regime).
    pub matrix_id: Option<u64>,
}

impl JobPreset {
    /// Small interactive job: quick matvec burst.
    #[must_use]
    pub fn small() -> Self {
        JobPreset {
            name: "small",
            rows: 600,
            cols: 32,
            k_frac: 0.75,
            chunks_per_partition: 8,
            iterations: 4,
            weight: 1.0,
            deadline: None,
            matrix_id: None,
        }
    }

    /// Medium job: the bread-and-butter iterative workload.
    #[must_use]
    pub fn medium() -> Self {
        JobPreset {
            name: "medium",
            rows: 1200,
            cols: 48,
            k_frac: 0.75,
            chunks_per_partition: 10,
            iterations: 8,
            weight: 1.0,
            deadline: None,
            matrix_id: None,
        }
    }

    /// Large batch job: long tail of iterations.
    #[must_use]
    pub fn large() -> Self {
        JobPreset {
            name: "large",
            rows: 2400,
            cols: 64,
            k_frac: 0.75,
            chunks_per_partition: 12,
            iterations: 12,
            weight: 1.0,
            deadline: None,
            matrix_id: None,
        }
    }

    /// Returns the preset with its capacity weight replaced.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Returns the preset with a relative deadline (seconds after
    /// arrival) stamped onto every instantiated spec.
    #[must_use]
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the preset with an explicit model-matrix identity stamped
    /// onto every instantiated spec (instead of the name-derived
    /// default).
    #[must_use]
    pub fn with_matrix_id(mut self, matrix_id: u64) -> Self {
        self.matrix_id = Some(matrix_id);
        self
    }

    /// The default mix used by the experiments: mostly small and medium
    /// jobs with an occasional large batch (weights 5 : 3 : 1).
    #[must_use]
    pub fn standard_mix() -> Vec<(JobPreset, f64)> {
        vec![
            (JobPreset::small(), 5.0),
            (JobPreset::medium(), 3.0),
            (JobPreset::large(), 1.0),
        ]
    }

    /// Instantiates a [`JobSpec`] for a pool of `pool_n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `pool_n == 0`.
    #[must_use]
    pub fn instantiate(&self, id: JobId, tenant: u32, pool_n: usize) -> JobSpec {
        assert!(pool_n > 0, "pool must have at least one worker");
        let k = ((pool_n as f64 * self.k_frac).round() as usize).clamp(1, pool_n);
        JobSpec {
            id,
            tenant,
            rows: self.rows,
            cols: self.cols,
            k,
            chunks_per_partition: self.chunks_per_partition,
            iterations: self.iterations,
            preset: self.name,
            weight: self.weight,
            deadline: self.deadline,
            matrix_id: self
                .matrix_id
                .unwrap_or_else(|| fnv1a(self.name.as_bytes())),
        }
    }
}

/// When jobs arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalPattern {
    /// Memoryless arrivals at `rate` jobs per second.
    Poisson {
        /// Mean arrival rate (jobs/second, > 0).
        rate: f64,
    },
    /// Explicit arrival instants (seconds, nondecreasing); the generator
    /// emits exactly one job per instant.
    Trace(Vec<f64>),
}

/// Generates a deterministic arrival sequence: `(arrival_time, spec)`
/// pairs sorted by time, ids ascending.
///
/// * `jobs` — number of jobs to emit (for [`ArrivalPattern::Trace`] the
///   effective count is `min(jobs, trace.len())`).
/// * `tenants` — jobs are assigned tenants uniformly at random from
///   `0..tenants`.
/// * `pool_n` — pool size the presets are instantiated against.
///
/// # Panics
///
/// Panics on a non-positive Poisson rate, an empty/negative/unsorted
/// trace, an empty preset mix, non-positive weights, or zero tenants.
#[must_use]
pub fn generate_workload(
    pattern: &ArrivalPattern,
    mix: &[(JobPreset, f64)],
    jobs: usize,
    tenants: u32,
    pool_n: usize,
    seed: u64,
) -> Vec<(f64, JobSpec)> {
    assert!(!mix.is_empty(), "preset mix cannot be empty");
    assert!(
        mix.iter().all(|(_, w)| w.is_finite() && *w > 0.0),
        "preset weights must be positive"
    );
    assert!(tenants > 0, "need at least one tenant");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_4E_11_0B);

    let times: Vec<f64> = match pattern {
        ArrivalPattern::Poisson { rate } => {
            assert!(rate.is_finite() && *rate > 0.0, "Poisson rate must be > 0");
            let mut t = 0.0;
            (0..jobs)
                .map(|_| {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() / rate;
                    t
                })
                .collect()
        }
        ArrivalPattern::Trace(instants) => {
            assert!(!instants.is_empty(), "trace must contain arrivals");
            assert!(
                instants
                    .windows(2)
                    .all(|w| w[0] <= w[1] && w[0].is_finite()),
                "trace instants must be finite and nondecreasing"
            );
            assert!(instants[0] >= 0.0, "trace instants must be non-negative");
            instants.iter().take(jobs).copied().collect()
        }
    };

    let total_weight: f64 = mix.iter().map(|(_, w)| w).sum();
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let mut roll = rng.gen_range(0.0..total_weight);
            let mut chosen = mix[0].0;
            for (preset, w) in mix {
                if roll < *w {
                    chosen = *preset;
                    break;
                }
                roll -= w;
            }
            let tenant = rng.gen_range(0..tenants);
            (t, chosen.instantiate(i as JobId, tenant, pool_n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_times_are_increasing_and_rate_shaped() {
        let w = generate_workload(
            &ArrivalPattern::Poisson { rate: 2.0 },
            &JobPreset::standard_mix(),
            400,
            3,
            16,
            7,
        );
        assert_eq!(w.len(), 400);
        assert!(w.windows(2).all(|p| p[0].0 < p[1].0));
        // Mean inter-arrival ~ 1/rate = 0.5s; allow a generous band.
        let mean = w.last().map_or(f64::NAN, |(t, _)| *t) / 400.0;
        assert!((0.3..0.7).contains(&mean), "mean inter-arrival {mean}");
    }

    #[test]
    fn trace_pattern_replays_instants() {
        let w = generate_workload(
            &ArrivalPattern::Trace(vec![0.0, 0.5, 0.5, 2.0]),
            &[(JobPreset::small(), 1.0)],
            10,
            1,
            8,
            1,
        );
        let times: Vec<f64> = w.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![0.0, 0.5, 0.5, 2.0]);
    }

    #[test]
    fn ids_ascend_and_k_scales_with_pool() {
        let w = generate_workload(
            &ArrivalPattern::Poisson { rate: 1.0 },
            &JobPreset::standard_mix(),
            50,
            4,
            16,
            3,
        );
        for (i, (_, spec)) in w.iter().enumerate() {
            assert_eq!(spec.id, i as JobId);
            assert_eq!(spec.k, 12, "0.75 · 16 pool");
            assert!(spec.tenant < 4);
        }
    }

    #[test]
    fn mix_produces_every_preset() {
        let w = generate_workload(
            &ArrivalPattern::Poisson { rate: 1.0 },
            &JobPreset::standard_mix(),
            300,
            2,
            12,
            11,
        );
        for name in ["small", "medium", "large"] {
            assert!(
                w.iter().any(|(_, s)| s.preset == name),
                "{name} never drawn in 300 jobs"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            generate_workload(
                &ArrivalPattern::Poisson { rate: 3.0 },
                &JobPreset::standard_mix(),
                64,
                3,
                16,
                99,
            )
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn work_accounting() {
        let s = JobPreset::medium().instantiate(0, 0, 16);
        assert_eq!(s.work_per_iteration(), (1200 * 48) as f64);
        assert_eq!(s.total_work(), (1200 * 48 * 8) as f64);
    }

    #[test]
    fn qos_knobs_propagate_from_preset_to_spec() {
        let s = JobPreset::small()
            .with_weight(2.5)
            .with_deadline(4.0)
            .instantiate(0, 1, 8);
        assert_eq!(s.weight, 2.5);
        assert_eq!(s.deadline, Some(4.0));
        // Defaults: unit weight, no SLO.
        let d = JobPreset::small().instantiate(1, 0, 8);
        assert_eq!(d.weight, 1.0);
        assert_eq!(d.deadline, None);
        // Spec-level overrides compose too.
        let s2 = d.with_weight(3.0).with_deadline(9.0);
        assert_eq!(s2.weight, 3.0);
        assert_eq!(s2.deadline, Some(9.0));
    }

    #[test]
    fn matrix_identity_recurs_per_preset_and_overrides() {
        // Same preset -> same model matrix (the recurring regime the
        // encode cache amortizes); different presets -> different ids.
        let a = JobPreset::small().instantiate(0, 0, 8);
        let b = JobPreset::small().instantiate(1, 1, 8);
        let c = JobPreset::medium().instantiate(2, 0, 8);
        assert_eq!(a.matrix_id, b.matrix_id);
        assert_ne!(a.matrix_id, c.matrix_id);
        // Explicit identities override, at preset and spec level.
        let d = JobPreset::small().with_matrix_id(42).instantiate(3, 0, 8);
        assert_eq!(d.matrix_id, 42);
        assert_eq!(d.with_matrix_id(43).matrix_id, 43);
    }

    #[test]
    #[should_panic(expected = "Poisson rate must be > 0")]
    fn zero_rate_rejected() {
        let _ = generate_workload(
            &ArrivalPattern::Poisson { rate: 0.0 },
            &[(JobPreset::small(), 1.0)],
            1,
            1,
            4,
            0,
        );
    }
}
