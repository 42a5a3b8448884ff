//! Charm++-style over-decomposition baseline (§7.2).
//!
//! The data is split into `factor · n` small partitions with an aggregate
//! replication of `replication` (e.g. 1.42× to match a (10,7) code's
//! storage). Every iteration the master:
//!
//! 1. apportions partitions to workers proportionally to predicted speeds
//!    (same prediction machinery as S²C²),
//! 2. prefers partitions a worker already *holds*; any partition computed
//!    by a worker without a local copy is moved first — charged to both
//!    latency and `rebalance_bytes`, and the copy then stays cached
//!    (effective storage grows, which is what Fig 3 measures),
//! 3. waits for **all** partitions (uncoded — nothing can be dropped),
//!    with the same timeout-based late-worker rescue as S²C² except that
//!    rescued partitions must again be *moved* to their new worker.
//!
//! At low mis-prediction this matches S²C²'s latency (it uses all `n`
//! workers); at high mis-prediction the rescue data movement puts it
//! behind — exactly the Fig 8 vs Fig 10 contrast.

use crate::error::S2c2Error;
use crate::speed_tracker::{PredictorSource, SpeedTracker};
use crate::strategy::partitions::RowPartitions;
use crate::strategy::round::{Deadlines, TIMEOUT_MARGIN};
use crate::strategy::{IterationOutcome, MatvecStrategy};
use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::ClusterSim;
use s2c2_linalg::{Matrix, Vector};

/// Over-decomposition with prediction-driven load balancing.
pub struct OverDecompositionStrategy {
    partitions: RowPartitions,
    /// `holders[p]` = workers currently holding a copy of partition `p`
    /// (grows as rebalancing moves data).
    holders: Vec<Vec<usize>>,
    n: usize,
    tracker: SpeedTracker,
}

impl OverDecompositionStrategy {
    /// Builds the baseline: `factor · n` partitions, `replication`-fold
    /// total storage, predictions from `predictor`.
    ///
    /// # Errors
    ///
    /// [`S2c2Error::InvalidConfig`] on a degenerate factor/replication or
    /// an empty matrix.
    pub fn new(
        a: &Matrix,
        n: usize,
        factor: usize,
        replication: f64,
        predictor: &PredictorSource,
        seed: u64,
    ) -> Result<Self, S2c2Error> {
        if factor == 0 {
            return Err(S2c2Error::InvalidConfig("factor must be positive".into()));
        }
        if !(1.0..=n as f64).contains(&replication) {
            return Err(S2c2Error::InvalidConfig(format!(
                "replication {replication} out of [1, n]"
            )));
        }
        if a.rows() == 0 {
            return Err(S2c2Error::InvalidConfig("matrix has zero rows".into()));
        }
        let parts = factor * n;
        // Placement: primary round-robin; additional copies for the first
        // (replication - 1) * parts partitions, offset round-robin.
        let extra_copies = ((replication - 1.0) * parts as f64).round() as usize;
        let stride = (seed as usize % n.saturating_sub(1).max(1)) + 1;
        let mut holders: Vec<Vec<usize>> = (0..parts).map(|p| vec![p % n]).collect();
        for (i, h) in holders.iter_mut().enumerate().take(extra_copies.min(parts)) {
            let second = (i % n + stride) % n;
            if !h.contains(&second) {
                h.push(second);
            }
        }

        Ok(OverDecompositionStrategy {
            partitions: RowPartitions::split(a, parts),
            holders,
            n,
            tracker: SpeedTracker::new(predictor, n),
        })
    }

    /// The speed tracker whose forecasts drive the next allocation
    /// (read-only: this is how a test sees the observed speeds a round
    /// fed back).
    #[must_use]
    pub fn tracker(&self) -> &SpeedTracker {
        &self.tracker
    }
}

impl MatvecStrategy for OverDecompositionStrategy {
    fn name(&self) -> String {
        "over-decomposition".into()
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        x: &Vector,
    ) -> Result<IterationOutcome, S2c2Error> {
        self.partitions.check_input(x)?;
        sim.begin_iteration(iteration);
        let n = self.n;
        if sim.n() != n {
            return Err(S2c2Error::InvalidConfig(format!(
                "strategy built for {n} workers, cluster has {}",
                sim.n()
            )));
        }
        let parts = self.partitions.len();
        let cols = x.len();
        let input_time = sim.transfer_time((cols * 8) as u64);
        let preds = self.tracker.predictions(sim);

        // Apportion partition counts ∝ predicted speed; leftovers go
        // makespan-greedily to whoever finishes earliest after the
        // increment (same rationale as the S2C2 allocator: an extra
        // partition on a slow worker costs 1/speed).
        let sum: f64 = preds.iter().sum();
        let mut counts = vec![0usize; n];
        let mut assigned = 0usize;
        for w in 0..n {
            let ideal = preds[w] / sum * parts as f64;
            counts[w] = ideal.floor() as usize;
            assigned += counts[w];
        }
        for _ in 0..parts - assigned {
            #[expect(
                clippy::expect_used,
                reason = "the strategy is constructed with n >= 1 workers"
            )]
            let pick = (0..n)
                .min_by(|&a, &b| {
                    let fa = (counts[a] + 1) as f64 / preds[a].max(1e-9);
                    let fb = (counts[b] + 1) as f64 / preds[b].max(1e-9);
                    fa.total_cmp(&fb).then(a.cmp(&b))
                })
                .expect("n > 0");
            counts[pick] += 1;
        }

        // Concrete partition placement: locality first.
        let mut owner = vec![usize::MAX; parts];
        let mut load = vec![0usize; n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| preds[b].total_cmp(&preds[a]).then(a.cmp(&b)));
        // Pass 1a: primary copies — each partition to its primary holder
        // while that worker has capacity (avoids stealing another
        // worker's primaries through a secondary copy).
        for (p, slot) in owner.iter_mut().enumerate() {
            let primary = self.holders[p][0];
            if load[primary] < counts[primary] {
                *slot = primary;
                load[primary] += 1;
            }
        }
        // Pass 1b: any remaining local copy.
        for &w in &order {
            for (p, slot) in owner.iter_mut().enumerate() {
                if load[w] >= counts[w] {
                    break;
                }
                if *slot == usize::MAX && self.holders[p].contains(&w) {
                    *slot = w;
                    load[w] += 1;
                }
            }
        }
        // Pass 2: remaining partitions go anywhere (data moves).
        let mut moved_bytes_per_worker = vec![0u64; n];
        for (p, slot) in owner.iter_mut().enumerate() {
            if *slot != usize::MAX {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "counts sum to parts, so an under-loaded worker exists"
            )]
            let w = *order
                .iter()
                .find(|&&w| load[w] < counts[w])
                .expect("counts sum to parts");
            *slot = w;
            load[w] += 1;
            moved_bytes_per_worker[w] += self.partitions.payload_bytes(p);
            self.holders[p].push(w); // the copy stays cached
        }

        // Phase-1 completion per worker: input + moves + compute + reply.
        let mut rows_of = vec![0usize; n];
        for p in 0..parts {
            rows_of[owner[p]] += self.partitions.rows(p);
        }
        let mut times = vec![f64::INFINITY; n];
        for w in 0..n {
            if rows_of[w] == 0 && moved_bytes_per_worker[w] == 0 {
                continue;
            }
            times[w] = input_time
                + sim.transfer_time(moved_bytes_per_worker[w])
                + sim.compute_time(w, rows_of[w].max(1), cols)
                + sim.transfer_time((rows_of[w] * 8) as u64);
        }

        let mut metrics = RoundMetrics::new(iteration, n);
        metrics.rebalance_bytes = moved_bytes_per_worker.iter().sum();
        metrics.assigned_rows.copy_from_slice(&rows_of);

        // Timeout rescue: like S2C2, plan-normalized — each worker is
        // judged against its own allocation divided by its predicted
        // speed, calibrated on the fastest 70% of responses. A correctly
        // predicted slower worker is NOT rescued (rescue moves data here,
        // so false positives are doubly expensive).
        let planned: Vec<f64> = (0..n)
            .map(|w| {
                if preds[w] > 0.0 {
                    rows_of[w].max(1) as f64 / preds[w]
                } else {
                    rows_of[w].max(1) as f64
                }
            })
            .collect();
        let responders = times.iter().filter(|t| t.is_finite()).count();
        let deadlines = Deadlines::calibrate(
            &times,
            &planned,
            (responders * 7 / 10).max(1),
            TIMEOUT_MARGIN,
        );

        let mut final_time = 0.0_f64;
        let mut observed: Vec<Option<f64>> = vec![None; n];
        let lagging: Vec<usize> = (0..n)
            .filter(|&w| times[w].is_finite() && times[w] > deadlines.deadline_for(w))
            .collect();
        let mut rescue_time = vec![0.0_f64; n];
        let mut rescue_rows = vec![0usize; n];
        if !lagging.is_empty() {
            // Move every lagging worker's partitions to finished workers,
            // fastest first.
            let deadline = lagging
                .iter()
                .map(|&w| deadlines.deadline_for(w))
                .fold(deadlines.t_need, f64::max);
            let mut hosts: Vec<usize> = (0..n)
                .filter(|&w| times[w].is_finite() && times[w] <= deadlines.deadline_for(w))
                .collect();
            hosts.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
            if !hosts.is_empty() {
                for (i, &slow) in lagging.iter().enumerate() {
                    let host = hosts[i % hosts.len()];
                    // Partitions owned by the slow worker move to the host.
                    let mut bytes = 0u64;
                    let mut rows = 0usize;
                    for (p, &o) in owner.iter().enumerate() {
                        if o == slow {
                            bytes += self.partitions.payload_bytes(p);
                            rows += self.partitions.rows(p);
                            if !self.holders[p].contains(&host) {
                                self.holders[p].push(host);
                            }
                        }
                    }
                    metrics.rebalance_bytes += bytes;
                    rescue_rows[host] += rows;
                    let done = deadline
                        + sim.transfer_time(bytes)
                        + sim.compute_time(host, rows.max(1), cols)
                        + sim.transfer_time((rows * 8) as u64);
                    rescue_time[host] = rescue_time[host].max(done);
                    debug_assert!(rescue_time[host].is_finite());
                    // Slow worker cancelled: partial work wasted.
                    let elapsed = (deadline - input_time).max(0.0);
                    let partial = ((sim.partial_compute_elements(slow, elapsed) / cols as f64)
                        as usize)
                        .min(rows_of[slow]);
                    metrics.computed_rows[slow] = partial;
                    metrics.useful_rows[slow] = 0;
                    observed[slow] = Some(partial.max(1) as f64 / deadline);
                    metrics.response_times[slow] = Some(deadline);
                    times[slow] = f64::INFINITY; // no longer awaited
                }
            }
        }

        for w in 0..n {
            if times[w].is_finite() {
                metrics.computed_rows[w] = rows_of[w] + rescue_rows[w];
                metrics.useful_rows[w] = rows_of[w] + rescue_rows[w];
                metrics.assigned_rows[w] += rescue_rows[w];
                let t = if rescue_rows[w] > 0 {
                    rescue_time[w]
                } else {
                    times[w]
                };
                final_time = final_time.max(t);
                if rows_of[w] + rescue_rows[w] > 0 {
                    observed[w] = Some((rows_of[w] + rescue_rows[w]) as f64 / t);
                    metrics.response_times[w] = Some(t);
                }
            }
        }
        metrics.latency = final_time;
        debug_assert!(metrics.conserves_work());
        self.tracker.observe(&observed);

        Ok(IterationOutcome {
            result: self.partitions.matvec_concat(x),
            metrics,
        })
    }

    fn product(&self, x: &Vector) -> Result<Vector, S2c2Error> {
        self.partitions.check_input(x)?;
        Ok(self.partitions.matvec_concat(x))
    }

    fn storage_bytes_per_worker(&self) -> u64 {
        // Current holdings averaged over workers (grows with migrations).
        let total: u64 = self
            .holders
            .iter()
            .enumerate()
            .map(|(p, h)| self.partitions.payload_bytes(p) * h.len() as u64)
            .sum();
        total / self.n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    fn data() -> (Matrix, Vector) {
        let a = Matrix::from_fn(560, 5, |r, c| ((r * 3 + c * 9) % 12) as f64 - 5.0);
        let x = Vector::from_fn(5, |i| 1.0 + i as f64 * 0.5);
        (a, x)
    }

    fn build(a: &Matrix) -> OverDecompositionStrategy {
        OverDecompositionStrategy::new(a, 10, 4, 1.42, &PredictorSource::LastValue, 3).unwrap()
    }

    #[test]
    fn exact_result() {
        let (a, x) = data();
        let mut s = build(&a);
        let mut sim = ClusterSim::new(ClusterSpec::builder(10).compute_bound().build());
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn homogeneous_cluster_no_movement_after_warmup() {
        let (a, x) = data();
        let mut s = build(&a);
        let mut sim = ClusterSim::new(ClusterSpec::builder(10).compute_bound().build());
        let first = s.run_iteration(&mut sim, 0, &x).unwrap();
        let second = s.run_iteration(&mut sim, 1, &x).unwrap();
        // Uniform speeds + round-robin placement: primaries suffice.
        assert_eq!(first.metrics.rebalance_bytes, 0);
        assert_eq!(second.metrics.rebalance_bytes, 0);
        assert_eq!(second.metrics.total_wasted_rows(), 0);
    }

    #[test]
    fn speed_skew_causes_data_movement() {
        let (a, x) = data();
        let mut s = build(&a);
        // Half the cluster at 40% speed: rebalancing must move partitions
        // to the fast half once predictions adapt.
        let mut builder = ClusterSpec::builder(10)
            .compute_bound()
            .straggler_slowdown(2.5);
        builder = builder.stragglers(&[5, 6, 7, 8, 9], 0.0);
        let mut sim = ClusterSim::new(builder.build());
        let mut total_moved = 0;
        for iter in 0..4 {
            let out = s.run_iteration(&mut sim, iter, &x).unwrap();
            s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-9);
            total_moved += out.metrics.rebalance_bytes;
        }
        assert!(total_moved > 0, "skewed speeds must trigger movement");
    }

    #[test]
    fn storage_grows_with_migrations() {
        let (a, x) = data();
        let mut s = build(&a);
        let before = s.storage_bytes_per_worker();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(10)
                .compute_bound()
                .straggler_slowdown(3.0)
                .stragglers(&[0, 1, 2, 3], 0.0)
                .build(),
        );
        for iter in 0..5 {
            let _ = s.run_iteration(&mut sim, iter, &x).unwrap();
        }
        let after = s.storage_bytes_per_worker();
        assert!(
            after > before,
            "cached copies accumulate: {before} -> {after}"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let (a, _) = data();
        assert!(
            OverDecompositionStrategy::new(&a, 10, 0, 1.4, &PredictorSource::Uniform, 0).is_err()
        );
        assert!(
            OverDecompositionStrategy::new(&a, 10, 4, 0.5, &PredictorSource::Uniform, 0).is_err()
        );
        assert!(
            OverDecompositionStrategy::new(&a, 10, 4, 100.0, &PredictorSource::Uniform, 0).is_err()
        );
    }
}
