//! Per-round and per-job accounting.
//!
//! Every figure in the paper's evaluation is a function of these records:
//!
//! * Figs 1, 6, 7, 8, 10, 12, 13 — (relative) total completion latency.
//! * Figs 9, 11 — per-worker wasted computation: rows a worker computed
//!   that the master did not use (ignored by the fastest-k rule, or
//!   cancelled after a timeout reassignment).
//! * Fig 3 — effective storage: bytes of data partitions a node must hold
//!   (or receive at runtime) to serve its assignments.

/// Metrics for one iteration (round) of a distributed job.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetrics {
    /// Iteration index.
    pub iteration: usize,
    /// Wall-clock (simulated) completion latency of the round, including
    /// input broadcast, compute, result return, and master decode.
    pub latency: f64,
    /// Rows assigned to each worker at the start of the round (including
    /// speculative / reassigned work).
    pub assigned_rows: Vec<usize>,
    /// Rows each worker actually computed (a cancelled task counts only
    /// the portion finished before cancellation).
    pub computed_rows: Vec<usize>,
    /// Rows per worker that contributed to the decoded result.
    pub useful_rows: Vec<usize>,
    /// Bytes moved for data *rebalancing* during this round (replication
    /// fallbacks, over-decomposition migrations). Broadcast of the input
    /// vector and result returns are charged in `latency` but not counted
    /// here — this field measures the data-movement overhead that coded
    /// strategies avoid.
    pub rebalance_bytes: u64,
    /// Master-side decode time included in `latency`.
    pub decode_time: f64,
    /// Per-worker response time observed by the master (`None` when a
    /// worker was idle or its result never arrived) — the input to speed
    /// estimation (§6.2).
    pub response_times: Vec<Option<f64>>,
}

impl RoundMetrics {
    /// Creates an empty record for `workers` workers.
    #[must_use]
    pub fn new(iteration: usize, workers: usize) -> Self {
        RoundMetrics {
            iteration,
            latency: 0.0,
            assigned_rows: vec![0; workers],
            computed_rows: vec![0; workers],
            useful_rows: vec![0; workers],
            rebalance_bytes: 0,
            decode_time: 0.0,
            response_times: vec![None; workers],
        }
    }

    /// Number of workers the round tracked.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.assigned_rows.len()
    }

    /// Rows computed but not used, per worker.
    #[must_use]
    pub fn wasted_rows(&self) -> Vec<usize> {
        self.computed_rows
            .iter()
            .zip(self.useful_rows.iter())
            .map(|(c, u)| c.saturating_sub(*u))
            .collect()
    }

    /// Fraction of each worker's computed rows that were wasted
    /// (0 when the worker computed nothing).
    #[must_use]
    pub fn wasted_fraction(&self) -> Vec<f64> {
        self.computed_rows
            .iter()
            .zip(self.useful_rows.iter())
            .map(|(c, u)| {
                if *c == 0 {
                    0.0
                } else {
                    (c.saturating_sub(*u)) as f64 / *c as f64
                }
            })
            .collect()
    }

    /// Total wasted rows across workers.
    #[must_use]
    pub fn total_wasted_rows(&self) -> usize {
        self.wasted_rows().iter().sum()
    }

    /// Sanity invariant: useful ≤ computed ≤ assigned per worker.
    ///
    /// Strategies call this in debug builds; tests assert it always.
    #[must_use]
    pub fn conserves_work(&self) -> bool {
        self.computed_rows
            .iter()
            .zip(self.useful_rows.iter())
            .zip(self.assigned_rows.iter())
            .all(|((c, u), a)| u <= c && c <= a)
    }
}

/// Accumulated metrics over a whole iterative job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    rounds: Vec<RoundMetrics>,
}

impl JobMetrics {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        JobMetrics { rounds: Vec::new() }
    }

    /// Appends a round record.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the record violates work conservation.
    pub fn push(&mut self, round: RoundMetrics) {
        debug_assert!(round.conserves_work(), "round violates work conservation");
        self.rounds.push(round);
    }

    /// All recorded rounds.
    #[must_use]
    pub fn rounds(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` when no rounds are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total completion latency (sum over rounds — iterations are
    /// serialized by the gradient-descent/power-iteration dependency).
    #[must_use]
    pub fn total_latency(&self) -> f64 {
        self.rounds.iter().map(|r| r.latency).sum()
    }

    /// Mean per-round latency.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.total_latency() / self.rounds.len() as f64
        }
    }

    /// Per-worker wasted-computation fraction over the whole job
    /// (Figs 9/11): wasted rows divided by computed rows.
    #[must_use]
    pub fn wasted_fraction_per_worker(&self) -> Vec<f64> {
        let workers = self.rounds.first().map_or(0, RoundMetrics::workers);
        let mut computed = vec![0usize; workers];
        let mut wasted = vec![0usize; workers];
        for r in &self.rounds {
            for w in 0..workers {
                computed[w] += r.computed_rows[w];
                wasted[w] += r.computed_rows[w].saturating_sub(r.useful_rows[w]);
            }
        }
        computed
            .iter()
            .zip(wasted.iter())
            .map(|(c, w)| if *c == 0 { 0.0 } else { *w as f64 / *c as f64 })
            .collect()
    }

    /// Aggregate wasted rows across the job.
    #[must_use]
    pub fn total_wasted_rows(&self) -> usize {
        self.rounds
            .iter()
            .map(RoundMetrics::total_wasted_rows)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_round() -> RoundMetrics {
        let mut r = RoundMetrics::new(0, 3);
        r.latency = 2.0;
        r.assigned_rows = vec![100, 100, 50];
        r.computed_rows = vec![100, 80, 50];
        r.useful_rows = vec![100, 0, 50];
        r.response_times = vec![Some(1.0), None, Some(2.0)];
        r
    }

    #[test]
    fn wasted_accounting() {
        let r = sample_round();
        assert_eq!(r.wasted_rows(), vec![0, 80, 0]);
        assert_eq!(r.total_wasted_rows(), 80);
        let f = r.wasted_fraction();
        assert_eq!(f[0], 0.0);
        assert!((f[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conservation_detects_violations() {
        let mut r = sample_round();
        assert!(r.conserves_work());
        r.useful_rows[1] = 90; // more useful than computed
        assert!(!r.conserves_work());
        r.useful_rows[1] = 0;
        r.computed_rows[1] = 150; // more computed than assigned
        assert!(!r.conserves_work());
    }

    #[test]
    fn job_aggregation() {
        let mut job = JobMetrics::new();
        for i in 0..4 {
            let mut r = sample_round();
            r.iteration = i;
            job.push(r);
        }
        assert_eq!(job.len(), 4);
        assert!((job.total_latency() - 8.0).abs() < 1e-12);
        assert!((job.mean_latency() - 2.0).abs() < 1e-12);
        assert_eq!(job.total_wasted_rows(), 320);
        let wf = job.wasted_fraction_per_worker();
        assert_eq!(wf[0], 0.0);
        assert!((wf[1] - 1.0).abs() < 1e-12);
        assert_eq!(wf[2], 0.0);
    }

    #[test]
    fn empty_job_is_safe() {
        let job = JobMetrics::new();
        assert!(job.is_empty());
        assert_eq!(job.total_latency(), 0.0);
        assert_eq!(job.mean_latency(), 0.0);
        assert!(job.wasted_fraction_per_worker().is_empty());
    }

    #[test]
    fn zero_computed_wastes_nothing() {
        let r = RoundMetrics::new(0, 2);
        assert_eq!(r.wasted_fraction(), vec![0.0, 0.0]);
        assert!(r.conserves_work());
    }
}
