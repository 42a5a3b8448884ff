//! The deterministic cluster timing simulator.
//!
//! `ClusterSim` answers one question for the scheduling layer: *given this
//! iteration's per-worker speeds, how long does each piece of an iteration
//! take?* Strategies compose these primitives into their own round logic
//! (wait-for-all, fastest-k-of-n, timeout-and-reassign, speculative
//! relaunch) and perform the actual numeric work through `s2c2-coding`.
//!
//! Speeds are sampled once per iteration — the granularity at which the
//! paper both measures (`ℓᵢ(iter)/tᵢ(iter)`, §6.2) and predicts. Within an
//! iteration a worker's speed is constant, so a task of `E` elements on a
//! worker at relative speed `s` takes `E / (s · throughput)` seconds.

use crate::comm::{CommModel, ComputeModel};
use crate::spec::ClusterSpec;
use s2c2_trace::BoxedSpeedModel;

/// Timing simulator over a [`ClusterSpec`].
pub struct ClusterSim {
    models: Vec<BoxedSpeedModel>,
    comm: CommModel,
    compute: ComputeModel,
    decode_flops_per_sec: f64,
    speeds: Vec<f64>,
    iteration: Option<usize>,
}

impl ClusterSim {
    /// Builds the simulator from a spec.
    #[must_use]
    pub fn new(spec: ClusterSpec) -> Self {
        let n = spec.n();
        ClusterSim {
            models: spec.workers,
            comm: spec.comm,
            compute: spec.compute,
            decode_flops_per_sec: spec.decode_flops_per_sec,
            speeds: vec![1.0; n],
            iteration: None,
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.models.len()
    }

    /// Samples every worker's speed for `iteration` and caches them.
    ///
    /// Must be called once per iteration before the timing queries.
    /// Returns the sampled (actual) speeds — the *scheduler* should not
    /// look at these unless it is deliberately playing the oracle
    /// ("S²C² knowing the exact speeds" in Figs 6/7); honest strategies
    /// use predictions derived from previous observations instead.
    pub fn begin_iteration(&mut self, iteration: usize) -> &[f64] {
        for (m, s) in self.models.iter_mut().zip(self.speeds.iter_mut()) {
            *s = m.speed_at(iteration);
        }
        self.iteration = Some(iteration);
        &self.speeds
    }

    /// Actual speeds of the current iteration (oracle access).
    ///
    /// # Panics
    ///
    /// Panics if no iteration has begun.
    #[must_use]
    pub fn speeds(&self) -> &[f64] {
        assert!(self.iteration.is_some(), "no iteration in progress");
        &self.speeds
    }

    /// Current iteration index.
    #[must_use]
    pub fn iteration(&self) -> Option<usize> {
        self.iteration
    }

    /// Time for `worker` to compute over `rows × cols` elements at its
    /// current-iteration speed.
    ///
    /// # Panics
    ///
    /// Panics if no iteration has begun or `worker` is out of range.
    #[must_use]
    pub fn compute_time(&self, worker: usize, rows: usize, cols: usize) -> f64 {
        assert!(self.iteration.is_some(), "no iteration in progress");
        self.compute.time((rows * cols) as u64, self.speeds[worker])
    }

    /// Time for a fraction of the same work (used when a task is cancelled
    /// partway: the paper's reactive baselines care how much was done).
    #[must_use]
    pub fn partial_compute_elements(&self, worker: usize, elapsed: f64) -> f64 {
        assert!(self.iteration.is_some(), "no iteration in progress");
        elapsed * self.speeds[worker] * self.compute.elements_per_sec
    }

    /// One-link transfer time for `bytes`.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.comm.transfer_time(bytes)
    }

    /// Master-side decode time for `flops` floating point operations.
    #[must_use]
    pub fn decode_time(&self, flops: f64) -> f64 {
        flops.max(0.0) / self.decode_flops_per_sec
    }

    /// Link model (for strategies that need custom accounting).
    #[must_use]
    pub fn comm(&self) -> CommModel {
        self.comm
    }
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("workers", &self.models.len())
            .field("iteration", &self.iteration)
            .finish()
    }
}

/// Completion-time helper for the common round shape: broadcast an input,
/// compute, send back a result.
///
/// Returns, for each worker, the absolute time (from iteration start) at
/// which the master holds that worker's result; workers assigned zero
/// rows report `f64::INFINITY` (they never respond).
///
/// * `input_bytes` — broadcast payload (the iteration's `x` vector).
/// * `rows[i]`, `cols` — assigned work shape per worker.
/// * `result_bytes_per_row` — response payload scale (8 for a matvec
///   result, `8 · output_cols` for matrix products).
#[must_use]
pub fn round_completion_times(
    sim: &ClusterSim,
    input_bytes: u64,
    rows: &[usize],
    cols: usize,
    result_bytes_per_row: u64,
) -> Vec<f64> {
    assert_eq!(rows.len(), sim.n(), "rows per worker length mismatch");
    (0..sim.n())
        .map(|w| {
            if rows[w] == 0 {
                return f64::INFINITY;
            }
            let receive = sim.transfer_time(input_bytes);
            let work = sim.compute_time(w, rows[w], cols);
            let reply = sim.transfer_time(rows[w] as u64 * result_bytes_per_row);
            receive + work + reply
        })
        .collect()
}

/// The time at which the `need`-th fastest of `times` completes
/// (`f64::INFINITY` if fewer than `need` finite entries exist).
///
/// # Panics
///
/// Panics if `need == 0`.
#[must_use]
pub fn kth_completion(times: &[f64], need: usize) -> f64 {
    assert!(need > 0, "need at least one completion");
    let mut finite: Vec<f64> = times.iter().copied().filter(|t| t.is_finite()).collect();
    if finite.len() < need {
        return f64::INFINITY;
    }
    finite.sort_by(|a, b| a.total_cmp(b));
    finite[need - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;

    fn sim_with_stragglers() -> ClusterSim {
        let spec = ClusterSpec::builder(4)
            .straggler_slowdown(5.0)
            .stragglers(&[3], 0.0)
            .build();
        ClusterSim::new(spec)
    }

    #[test]
    fn begin_iteration_caches_speeds() {
        let mut sim = sim_with_stragglers();
        let speeds = sim.begin_iteration(0).to_vec();
        assert_eq!(speeds.len(), 4);
        assert_eq!(speeds[0], 1.0);
        assert!((speeds[3] - 0.2).abs() < 1e-12);
        assert_eq!(sim.speeds(), &speeds[..]);
        assert_eq!(sim.iteration(), Some(0));
    }

    #[test]
    fn compute_time_reflects_straggler() {
        let mut sim = sim_with_stragglers();
        sim.begin_iteration(0);
        let fast = sim.compute_time(0, 1000, 100);
        let slow = sim.compute_time(3, 1000, 100);
        assert!((slow / fast - 5.0).abs() < 1e-9);
    }

    #[test]
    fn round_completion_shape() {
        let mut sim = sim_with_stragglers();
        sim.begin_iteration(0);
        let times = round_completion_times(&sim, 800, &[100, 100, 0, 100], 50, 8);
        assert!(times[0].is_finite());
        assert!(times[2].is_infinite(), "idle worker never responds");
        assert!(times[3] > times[0], "straggler responds later");
        // Identical assignments on identical speeds complete together.
        assert!((times[0] - times[1]).abs() < 1e-12);
    }

    #[test]
    fn kth_completion_selects_correctly() {
        let times = vec![3.0, 1.0, f64::INFINITY, 2.0];
        assert_eq!(kth_completion(&times, 1), 1.0);
        assert_eq!(kth_completion(&times, 3), 3.0);
        assert!(kth_completion(&times, 4).is_infinite());
    }

    #[test]
    fn decode_time_scales() {
        let mut sim = sim_with_stragglers();
        sim.begin_iteration(0);
        assert_eq!(sim.decode_time(0.0), 0.0);
        assert!(sim.decode_time(1e9) > sim.decode_time(1e6));
    }

    #[test]
    fn partial_compute_elements_linear_in_time() {
        let mut sim = sim_with_stragglers();
        sim.begin_iteration(0);
        let e1 = sim.partial_compute_elements(0, 0.5);
        let e2 = sim.partial_compute_elements(0, 1.0);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
        // Straggler does 5x less in the same time.
        let es = sim.partial_compute_elements(3, 1.0);
        assert!((e2 / es - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no iteration in progress")]
    fn timing_requires_begun_iteration() {
        let sim = sim_with_stragglers();
        let _ = sim.compute_time(0, 1, 1);
    }

    #[test]
    fn speeds_advance_with_iterations() {
        let spec = ClusterSpec::builder(2).stragglers(&[], 0.2).build();
        let mut sim = ClusterSim::new(spec);
        let s0 = sim.begin_iteration(0).to_vec();
        let s1 = sim.begin_iteration(1).to_vec();
        // Jitter makes consecutive iterations differ almost surely.
        assert_ne!(s0, s1);
    }
}
