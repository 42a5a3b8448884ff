//! Uncoded r-replication with speculative re-execution — the enhanced
//! Hadoop/LATE-like baseline of §7.1.
//!
//! The data is split into `n` partitions; each partition is replicated at
//! `r` workers (its primary plus `r − 1` pseudo-random others). Every
//! iteration all primaries compute. When "most" tasks have finished
//! (detection quantile, default 75%), the master speculatively relaunches
//! the still-running tasks — up to `max_speculative` of them — on the
//! fastest workers that have already finished:
//!
//! * if the chosen worker holds a replica of the partition, the relaunch
//!   starts immediately;
//! * otherwise the partition is *moved* first, charging the transfer to
//!   both the round's latency and its `rebalance_bytes` — the data
//!   movement on the critical path that makes this baseline collapse
//!   once stragglers outnumber replicas (Figs 1/6/7).
//!
//! Whichever copy finishes first wins; the loser's work is wasted.

use crate::error::S2c2Error;
use crate::strategy::partitions::RowPartitions;
use crate::strategy::{IterationOutcome, MatvecStrategy};
use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::ClusterSim;
use s2c2_linalg::{Matrix, Vector};

/// Replication + speculation strategy.
pub struct ReplicationStrategy {
    /// One row block per worker.
    partitions: RowPartitions,
    /// `replicas[p]` = sorted worker ids holding partition `p`.
    replicas: Vec<Vec<usize>>,
    n: usize,
    max_speculative: usize,
    detect_quantile: f64,
}

impl ReplicationStrategy {
    /// Splits `a` over `n` workers with `r`-fold replication and up to
    /// `max_speculative` speculative relaunches per iteration.
    ///
    /// Replica placement is deterministic: partition `p` lives at workers
    /// `p, p+stride, p+2·stride, …` (mod `n`) with a stride derived from
    /// `seed`, mimicking random placement while keeping runs reproducible.
    ///
    /// # Errors
    ///
    /// [`S2c2Error::InvalidConfig`] if `r > n` or `r == 0` or the matrix
    /// is empty.
    pub fn new(
        a: &Matrix,
        n: usize,
        r: usize,
        max_speculative: usize,
        seed: u64,
    ) -> Result<Self, S2c2Error> {
        if r == 0 || r > n {
            return Err(S2c2Error::InvalidConfig(format!(
                "replication factor {r} invalid for {n} workers"
            )));
        }
        if a.rows() == 0 {
            return Err(S2c2Error::InvalidConfig("matrix has zero rows".into()));
        }
        // Deterministic pseudo-random placement: stride coprime-ish to n.
        let stride = (seed as usize % n.saturating_sub(1).max(1)) + 1;
        let replicas: Vec<Vec<usize>> = (0..n)
            .map(|p| {
                let mut set = Vec::with_capacity(r);
                let mut w = p;
                while set.len() < r {
                    if !set.contains(&(w % n)) {
                        set.push(w % n);
                    }
                    w += stride.max(1);
                }
                set.sort_unstable();
                set
            })
            .collect();

        Ok(ReplicationStrategy {
            partitions: RowPartitions::split(a, n),
            replicas,
            n,
            max_speculative,
            detect_quantile: 0.75,
        })
    }

    /// Worker ids holding a replica of partition `p`.
    #[must_use]
    pub fn replica_set(&self, p: usize) -> &[usize] {
        &self.replicas[p]
    }
}

impl MatvecStrategy for ReplicationStrategy {
    fn name(&self) -> String {
        "replication".into()
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
        let cols = x.len();
        let input_bytes = (cols * 8) as u64;
        let input_time = sim.transfer_time(input_bytes);

        // Primary executions: task p runs on worker p.
        let part_rows = |p: usize| self.partitions.rows(p);
        let mut primary_time = vec![0.0_f64; n];
        for (p, t) in primary_time.iter_mut().enumerate() {
            *t = input_time
                + sim.compute_time(p, part_rows(p), cols)
                + sim.transfer_time((part_rows(p) * 8) as u64);
        }

        // Detection point: when `detect_quantile` of tasks have finished —
        // but, LATE-style, never later than 1.5x the median completion
        // (progress-rate divergence), otherwise a straggler majority would
        // postpone detection indefinitely.
        let mut sorted = primary_time.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let detect_idx = ((n as f64 * self.detect_quantile).ceil() as usize).clamp(1, n) - 1;
        let t_detect = sorted[detect_idx].min(1.5 * sorted[n / 2]);

        // Speculation: slowest unfinished tasks first.
        let mut lagging: Vec<usize> = (0..n).filter(|&p| primary_time[p] > t_detect).collect();
        lagging.sort_by(|&a, &b| primary_time[b].total_cmp(&primary_time[a]));
        lagging.truncate(self.max_speculative);

        // Helpers for choosing speculation hosts: finished workers,
        // fastest first, each used once per round.
        let mut hosts: Vec<usize> = (0..n).filter(|&w| primary_time[w] <= t_detect).collect();
        hosts.sort_by(|&a, &b| primary_time[a].total_cmp(&primary_time[b]));
        let mut host_used = vec![false; n];

        let mut metrics = RoundMetrics::new(iteration, n);
        for p in 0..n {
            metrics.assigned_rows[p] = part_rows(p);
        }

        // (winner_time, winner_worker, loser info) per speculated task.
        let mut task_time = primary_time.clone();
        let mut spec_extra_rows = vec![0usize; n]; // speculative rows per host
        let mut spec_completion = vec![f64::INFINITY; n];
        for &p in &lagging {
            // Prefer a host holding a replica of p.
            let chosen = hosts
                .iter()
                .copied()
                .find(|&h| !host_used[h] && self.replicas[p].contains(&h))
                .or_else(|| hosts.iter().copied().find(|&h| !host_used[h]));
            let Some(host) = chosen else { break };
            host_used[host] = true;
            let has_replica = self.replicas[p].contains(&host);
            let move_time = if has_replica {
                0.0
            } else {
                let bytes = self.partitions.payload_bytes(p);
                metrics.rebalance_bytes += bytes;
                sim.transfer_time(bytes)
            };
            let spec_done = t_detect
                + move_time
                + sim.compute_time(host, part_rows(p), cols)
                + sim.transfer_time((part_rows(p) * 8) as u64);
            if spec_done < primary_time[p] {
                // Speculation wins: host's work is useful, primary's partial
                // work (up to the win time) is wasted.
                task_time[p] = spec_done;
                spec_extra_rows[host] += part_rows(p);
                spec_completion[host] = spec_completion[host].min(spec_done);
                metrics.assigned_rows[host] += part_rows(p);
                metrics.useful_rows[host] += part_rows(p);
                let elapsed = (spec_done - input_time).max(0.0);
                let partial = ((sim.partial_compute_elements(p, elapsed) / cols as f64) as usize)
                    .min(part_rows(p));
                metrics.computed_rows[p] += partial; // wasted primary work
            } else {
                // Primary wins: the speculative copy's partial work wasted.
                let elapsed = (primary_time[p] - t_detect - move_time).max(0.0);
                let partial = ((sim.partial_compute_elements(host, elapsed) / cols as f64)
                    as usize)
                    .min(part_rows(p));
                metrics.assigned_rows[host] += part_rows(p);
                metrics.computed_rows[host] += partial;
            }
        }

        // Primary completions that stood (either not speculated or won).
        for p in 0..n {
            if task_time[p] >= primary_time[p] {
                // Primary won (or no speculation): full compute, all useful.
                metrics.computed_rows[p] += part_rows(p);
                metrics.useful_rows[p] += part_rows(p);
            }
            metrics.response_times[p] = Some(primary_time[p].min(task_time[p]));
        }
        for (h, &extra) in spec_extra_rows.iter().enumerate() {
            if extra > 0 {
                metrics.computed_rows[h] += extra;
            }
        }

        let t_done = task_time.iter().cloned().fold(0.0_f64, f64::max);
        metrics.latency = t_done; // concatenation needs no decode
        debug_assert!(metrics.conserves_work());

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
        // r copies of 1/n of the data per worker on average.
        let r = self.replicas.first().map_or(1, Vec::len) as u64;
        self.partitions.payload_bytes(0) * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    fn data() -> (Matrix, Vector) {
        let a = Matrix::from_fn(600, 6, |r, c| ((r * 7 + c) % 15) as f64 - 7.0);
        let x = Vector::from_fn(6, |i| 0.2 * i as f64 + 1.0);
        (a, x)
    }

    fn run(stragglers: &[usize]) -> (IterationOutcome, Matrix, Vector) {
        let (a, x) = data();
        let mut s = ReplicationStrategy::new(&a, 12, 3, 6, 17).unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(stragglers, 0.0)
                .build(),
        );
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        (out, a, x)
    }

    #[test]
    fn exact_result_regardless_of_stragglers() {
        for stragglers in [vec![], vec![0], vec![0, 1, 2], vec![0, 1, 2, 3, 4]] {
            let (out, a, x) = run(&stragglers);
            s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-9);
            assert!(out.metrics.conserves_work());
        }
    }

    #[test]
    fn speculation_rescues_single_straggler() {
        let (healthy, _, _) = run(&[]);
        let (one, _, _) = run(&[3]);
        // Speculative re-execution bounds the damage: latency should be
        // far below the 5x of waiting for the straggler.
        let ratio = one.metrics.latency / healthy.metrics.latency;
        assert!(
            ratio < 3.5,
            "speculation should cap the slowdown, got {ratio}x"
        );
        // And the straggler's work was (partially) wasted.
        assert!(one.metrics.total_wasted_rows() > 0);
    }

    #[test]
    fn many_stragglers_force_data_movement() {
        // When a partition's entire replica set straggles (here partition
        // 0's set is {0, 2, 7} under seed 17), its speculative copy must
        // move data — the paper's critical-path data movement.
        let (out, _, _) = run(&[0, 2, 7, 3, 4]);
        assert!(
            out.metrics.rebalance_bytes > 0,
            "expected data movement when a full replica set straggles"
        );
    }

    #[test]
    fn latency_degrades_with_straggler_count() {
        let l0 = run(&[]).0.metrics.latency;
        let l2 = run(&[0, 1]).0.metrics.latency;
        let l5 = run(&[0, 1, 2, 3, 4]).0.metrics.latency;
        assert!(l2 >= l0);
        assert!(l5 > l2, "more stragglers, more pain: {l5} vs {l2}");
    }

    #[test]
    fn replica_sets_have_r_distinct_members() {
        let (a, _) = data();
        let s = ReplicationStrategy::new(&a, 12, 3, 6, 17).unwrap();
        for p in 0..12 {
            let set = s.replica_set(p);
            assert_eq!(set.len(), 3);
            assert!(set.contains(&p), "primary holds its own partition");
            let mut dedup = set.to_vec();
            dedup.dedup();
            assert_eq!(dedup.len(), 3);
        }
    }

    #[test]
    fn storage_is_r_over_n() {
        let (a, _) = data();
        let s = ReplicationStrategy::new(&a, 12, 3, 6, 17).unwrap();
        let expect = a.payload_bytes() / 12 * 3;
        assert_eq!(s.storage_bytes_per_worker(), expect);
    }

    #[test]
    fn invalid_replication_rejected() {
        let (a, _) = data();
        assert!(ReplicationStrategy::new(&a, 4, 5, 2, 0).is_err());
        assert!(ReplicationStrategy::new(&a, 4, 0, 2, 0).is_err());
    }

    #[test]
    fn uneven_rows_partition_cleanly() {
        let a = Matrix::from_fn(101, 3, |r, c| (r + c) as f64);
        let x = Vector::filled(3, 1.0);
        let mut s = ReplicationStrategy::new(&a, 4, 2, 2, 5).unwrap();
        let mut sim = ClusterSim::new(ClusterSpec::builder(4).build());
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        assert_eq!(out.result.len(), 101);
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }
}
