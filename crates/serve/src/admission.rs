//! Admission and queueing policies.
//!
//! The engine admits at most `max_resident` jobs onto the shared pool at
//! once; everything else waits in the admission queue. The policy decides
//! *which* queued job is admitted when a slot frees up — the classic
//! scheduling lever for tail latency under load, and (with
//! [`QueuePolicy::EarliestDeadline`] / [`QueuePolicy::WeightedFairShare`])
//! the QoS lever for deadline hit rates and tenant entitlements.

use crate::workload::JobSpec;
use std::collections::BTreeMap;

/// A job waiting in the admission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedJob {
    /// The job.
    pub spec: JobSpec,
    /// When it arrived (event time).
    pub arrival: f64,
}

impl QueuedJob {
    /// Absolute deadline instant (`arrival + relative SLO`), or infinity
    /// for jobs without one — so deadline-ordered comparisons place
    /// SLO-less jobs last.
    #[must_use]
    pub fn absolute_deadline(&self) -> f64 {
        self.spec
            .deadline
            .map_or(f64::INFINITY, |d| self.arrival + d)
    }
}

/// How the engine coalesces queued small jobs into shared batch rounds.
///
/// S²C²'s advantage comes from amortizing coding work across the
/// computation it protects; at high arrival rates a stream of small
/// jobs gives that advantage back, because every job pays its own
/// encode lookup, dispatch round-trip, decode, and residency slot. A
/// batch groups queued jobs that share a [`batch key`](batch_key) —
/// same model matrix *and* code geometry — into one round: a single
/// cache-backed encode, one stacked multi-RHS dispatch per worker, one
/// decode LU factorization per chunk, and one residency slot for the
/// whole group. Per-job identity survives: QoS (weights, deadlines)
/// and all reporting see the member jobs, never the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// No batching (default): every job runs its own rounds. The engine
    /// is byte-identical to the pre-batching behavior.
    Off,
    /// Opportunistic coalescing: when a residency slot frees, the
    /// admission policy's pick is admitted together with every queued
    /// job sharing its batch key, up to `max_batch` members per round.
    /// Never delays the pick, so policy ordering (FIFO/EDF/weighted
    /// fair-share) is preserved exactly — mates merely ride along.
    SizeThreshold {
        /// Size threshold: a round is capped at this many member jobs
        /// (≥ 2; the threshold flushes immediately when reached).
        max_batch: usize,
    },
    /// Like [`BatchPolicy::SizeThreshold`], but a batchable pick whose
    /// group is still below `max_batch` is additionally held for up to
    /// `window` seconds after the group's earliest arrival, so mates
    /// can accumulate even while slots are free. Reaching `max_batch`
    /// flushes early; the window expiring flushes whatever gathered.
    /// While one key's group is held, other queued jobs (different key
    /// or none) are admitted normally — the window delays only its own
    /// group, so no other job is ever starved by it.
    TimeWindow {
        /// Seconds a batchable pick may be held past the group's
        /// earliest arrival (finite, > 0).
        window: f64,
        /// Size cap that flushes the group early (≥ 2).
        max_batch: usize,
    },
}

impl BatchPolicy {
    /// Whether this policy ever groups jobs.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !matches!(self, BatchPolicy::Off)
    }

    /// The member cap of one batch round (1 when batching is off).
    #[must_use]
    pub fn max_batch(&self) -> usize {
        match *self {
            BatchPolicy::Off => 1,
            BatchPolicy::SizeThreshold { max_batch }
            | BatchPolicy::TimeWindow { max_batch, .. } => max_batch,
        }
    }
}

impl std::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchPolicy::Off => f.write_str("off"),
            BatchPolicy::SizeThreshold { max_batch } => write!(f, "size({max_batch})"),
            BatchPolicy::TimeWindow { window, max_batch } => {
                write!(f, "window({window}s,{max_batch})")
            }
        }
    }
}

/// The identity that makes two jobs batchable onto one round (the
/// return of [`batch_key`]): `(matrix_id, rows, cols, k,
/// chunks_per_partition, iterations)`.
pub type BatchKey = (u64, usize, usize, usize, usize, usize);

/// What makes two queued jobs batchable onto one round: the same model
/// matrix (identity *and* shape — one encode serves both) and the same
/// code geometry and iteration count (so their rounds stay in lockstep
/// from admission to completion). Weights, deadlines, and tenants may
/// differ — those stay per-member.
#[must_use]
pub fn batch_key(spec: &JobSpec) -> BatchKey {
    (
        spec.matrix_id,
        spec.rows,
        spec.cols,
        spec.k,
        spec.chunks_per_partition,
        spec.iterations,
    )
}

/// What the policy knows about one currently-resident job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidentInfo {
    /// Owning tenant.
    pub tenant: u32,
    /// Capacity weight the job holds while resident.
    pub weight: f64,
}

/// Which queued job gets the next free residency slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Earliest arrival first (ties by id).
    Fifo,
    /// Least slack to deadline first: admit the job whose absolute
    /// deadline (`arrival + SLO`) is earliest; jobs without a deadline
    /// queue behind every deadline-carrying job, FIFO among themselves.
    EarliestDeadline,
    /// Weight-normalized fairness across tenants: admit the job whose
    /// tenant holds the least resident capacity *relative to the job's
    /// weight* (`resident_weight[tenant] / job.weight`), so a weight-2
    /// tenant is entitled to hold twice the resident mass before it
    /// yields to a weight-1 tenant. With unit weights this is max-min
    /// fairness: the tenant with the fewest resident jobs goes first.
    WeightedFairShare,
}

impl QueuePolicy {
    /// Picks the index (into `queue`) of the job to admit next, given the
    /// currently-resident jobs' tenants and weights. Returns `None` on an
    /// empty queue. Deterministic: all ties break by `(arrival, id)`,
    /// with arrivals compared via [`f64::total_cmp`] (bit-pattern
    /// ordering of `to_bits` mis-orders negative floats).
    #[must_use]
    pub fn pick(&self, queue: &[QueuedJob], residents: &[ResidentInfo]) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        let by_arrival = |a: usize, b: usize| {
            queue[a]
                .arrival
                .total_cmp(&queue[b].arrival)
                .then(queue[a].spec.id.cmp(&queue[b].spec.id))
        };
        let idx = match self {
            QueuePolicy::Fifo => (0..queue.len()).min_by(|&a, &b| by_arrival(a, b)),
            QueuePolicy::EarliestDeadline => (0..queue.len()).min_by(|&a, &b| {
                queue[a]
                    .absolute_deadline()
                    .total_cmp(&queue[b].absolute_deadline())
                    .then_with(|| by_arrival(a, b))
            }),
            QueuePolicy::WeightedFairShare => {
                // One pass over the resident set, then O(1) per queued
                // job — not an O(queue × residents) rescan.
                let mut mass: BTreeMap<u32, f64> = BTreeMap::new();
                for r in residents {
                    *mass.entry(r.tenant).or_insert(0.0) += r.weight;
                }
                let normalized = |i: usize| {
                    let held = mass.get(&queue[i].spec.tenant).copied().unwrap_or(0.0);
                    held / queue[i].spec.weight.max(f64::MIN_POSITIVE)
                };
                (0..queue.len()).min_by(|&a, &b| {
                    normalized(a)
                        .total_cmp(&normalized(b))
                        .then_with(|| by_arrival(a, b))
                })
            }
        };
        idx
    }

    /// Returns `head` plus up to `max_batch − 1` queued mates sharing its
    /// [`batch_key`], in this policy's admission order (the head stays
    /// first). The engine's batch-aware admission calls this after
    /// [`Self::pick`]: the policy's pick is never displaced by
    /// gathering — mates ride along behind it, themselves ordered the
    /// way the policy would have admitted them (so a flushed batch under
    /// earliest-deadline lists members by ascending deadline).
    pub(crate) fn gather_batch(
        &self,
        queue: &[QueuedJob],
        residents: &[ResidentInfo],
        head: usize,
        max_batch: usize,
    ) -> Vec<usize> {
        let key = batch_key(&queue[head].spec);
        let mut group = vec![head];
        let mut mates: Vec<usize> = (0..queue.len())
            .filter(|&i| i != head && batch_key(&queue[i].spec) == key)
            .collect();
        while group.len() < max_batch && !mates.is_empty() {
            let cand: Vec<QueuedJob> = mates.iter().map(|&i| queue[i].clone()).collect();
            // `pick` returns None only for an empty queue and the loop
            // guard keeps `mates` non-empty; if a policy ever declined
            // anyway, stop growing the batch rather than panic.
            let Some(ci) = self.pick(&cand, residents) else {
                break;
            };
            group.push(mates.remove(ci));
        }
        group
    }
}

impl std::fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::EarliestDeadline => "earliest-deadline",
            QueuePolicy::WeightedFairShare => "weighted-fair-share",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobPreset;

    fn queued(id: u64, tenant: u32, arrival: f64, preset: JobPreset) -> QueuedJob {
        QueuedJob {
            spec: preset.instantiate(id, tenant, 8),
            arrival,
        }
    }

    fn resident(tenant: u32, weight: f64) -> ResidentInfo {
        ResidentInfo { tenant, weight }
    }

    #[test]
    fn fifo_takes_earliest_arrival() {
        let q = vec![
            queued(2, 0, 5.0, JobPreset::small()),
            queued(0, 0, 1.0, JobPreset::large()),
            queued(1, 0, 3.0, JobPreset::small()),
        ];
        assert_eq!(QueuePolicy::Fifo.pick(&q, &[]), Some(1));
    }

    #[test]
    fn fifo_orders_negative_arrivals_correctly() {
        // to_bits ordering put every negative float *after* every
        // positive one; total_cmp must not.
        let q = vec![
            queued(0, 0, 0.5, JobPreset::small()),
            queued(1, 0, -1.0, JobPreset::small()),
        ];
        assert_eq!(QueuePolicy::Fifo.pick(&q, &[]), Some(1));
    }

    #[test]
    fn fair_share_balances_tenants() {
        // Unit weights: tenant 0 already has two resident jobs, tenant 1
        // none, so the tenant-1 job wins even though it arrived later.
        let q = vec![
            queued(0, 0, 0.0, JobPreset::small()),
            queued(1, 1, 4.0, JobPreset::small()),
        ];
        let two_zero = [resident(0, 1.0), resident(0, 1.0)];
        assert_eq!(QueuePolicy::WeightedFairShare.pick(&q, &two_zero), Some(1));
        // With equal residency, FIFO order applies.
        let one_each = [resident(0, 1.0), resident(1, 1.0)];
        assert_eq!(QueuePolicy::WeightedFairShare.pick(&q, &one_each), Some(0));
    }

    #[test]
    fn earliest_deadline_prefers_least_slack() {
        let q = vec![
            queued(0, 0, 0.0, JobPreset::small().with_deadline(10.0)),
            queued(1, 0, 2.0, JobPreset::small().with_deadline(3.0)), // abs 5.0
            queued(2, 0, 1.0, JobPreset::small()),                    // no SLO -> last
        ];
        assert_eq!(QueuePolicy::EarliestDeadline.pick(&q, &[]), Some(1));
        // SLO-less jobs order FIFO behind every deadline-carrying job.
        let q2 = vec![
            queued(0, 0, 4.0, JobPreset::small()),
            queued(1, 0, 1.0, JobPreset::small()),
        ];
        assert_eq!(QueuePolicy::EarliestDeadline.pick(&q2, &[]), Some(1));
    }

    #[test]
    fn weighted_fair_share_respects_entitlements() {
        // Tenant 1 (weight-2 jobs) holds 2.0 resident mass, tenant 0
        // (weight-1 jobs) holds 1.0: normalized residency is equal
        // (2/2 == 1/1), so FIFO breaks the tie...
        let q = vec![
            queued(0, 0, 0.0, JobPreset::small()),
            queued(1, 1, 1.0, JobPreset::small().with_weight(2.0)),
        ];
        let balanced = [resident(0, 1.0), resident(1, 2.0)];
        assert_eq!(QueuePolicy::WeightedFairShare.pick(&q, &balanced), Some(0));
        // ...but once tenant 1 has no residents it wins despite arriving
        // later (0/2 < 1/1).
        let only_zero = [resident(0, 1.0)];
        assert_eq!(QueuePolicy::WeightedFairShare.pick(&q, &only_zero), Some(1));
    }

    #[test]
    fn empty_queue_picks_nothing() {
        for p in [
            QueuePolicy::Fifo,
            QueuePolicy::EarliestDeadline,
            QueuePolicy::WeightedFairShare,
        ] {
            assert_eq!(p.pick(&[], &[]), None);
        }
    }

    #[test]
    fn ties_break_by_id() {
        let q = vec![
            queued(7, 0, 2.0, JobPreset::small()),
            queued(3, 0, 2.0, JobPreset::small()),
        ];
        assert_eq!(QueuePolicy::Fifo.pick(&q, &[]), Some(1));
    }

    #[test]
    fn absolute_deadline_is_arrival_anchored() {
        let j = queued(0, 0, 3.0, JobPreset::small().with_deadline(2.0));
        assert!((j.absolute_deadline() - 5.0).abs() < 1e-12);
        let no_slo = queued(1, 0, 3.0, JobPreset::small());
        assert_eq!(no_slo.absolute_deadline(), f64::INFINITY);
    }

    #[test]
    fn batch_key_separates_geometry_and_identity() {
        let a = JobPreset::small().instantiate(0, 0, 8);
        let b = JobPreset::small().instantiate(1, 2, 8).with_weight(3.0);
        // Same preset: same matrix and geometry — batchable, even across
        // tenants and weights.
        assert_eq!(batch_key(&a), batch_key(&b));
        // Different model identity or shape: not batchable.
        let c = JobPreset::small().with_matrix_id(99).instantiate(2, 0, 8);
        let d = JobPreset::medium().instantiate(3, 0, 8);
        assert_ne!(batch_key(&a), batch_key(&c));
        assert_ne!(batch_key(&a), batch_key(&d));
    }

    #[test]
    fn gather_batch_keeps_head_first_and_policy_orders_mates() {
        // Four batchable small jobs with deadlines + one medium outsider.
        let q = vec![
            queued(0, 0, 0.0, JobPreset::small().with_deadline(9.0)),
            queued(1, 0, 0.1, JobPreset::small().with_deadline(2.0)),
            queued(2, 0, 0.2, JobPreset::medium().with_deadline(20.0)),
            queued(3, 0, 0.3, JobPreset::small().with_deadline(5.0)),
            queued(4, 0, 0.4, JobPreset::small().with_deadline(3.0)),
        ];
        let policy = QueuePolicy::EarliestDeadline;
        // EDF head is job 1 (abs deadline 2.1).
        let head = policy.pick(&q, &[]).unwrap();
        assert_eq!(head, 1);
        // Mates gathered in EDF order behind the head; the medium job
        // (different batch key) never joins.
        let group = policy.gather_batch(&q, &[], head, 4);
        assert_eq!(group, vec![1, 4, 3, 0]);
        // The size cap truncates the tail, never the head.
        assert_eq!(policy.gather_batch(&q, &[], head, 2), vec![1, 4]);
        assert_eq!(policy.gather_batch(&q, &[], head, 1), vec![1]);
    }

    #[test]
    fn batch_policy_helpers() {
        assert!(!BatchPolicy::Off.enabled());
        assert_eq!(BatchPolicy::Off.max_batch(), 1);
        let size = BatchPolicy::SizeThreshold { max_batch: 4 };
        assert!(size.enabled());
        assert_eq!(size.max_batch(), 4);
        assert_eq!(size.to_string(), "size(4)");
        let window = BatchPolicy::TimeWindow {
            window: 0.5,
            max_batch: 3,
        };
        assert_eq!(window.max_batch(), 3);
        assert_eq!(window.to_string(), "window(0.5s,3)");
        assert_eq!(BatchPolicy::Off.to_string(), "off");
    }

    #[test]
    fn display_names() {
        assert_eq!(QueuePolicy::Fifo.to_string(), "fifo");
        assert_eq!(
            QueuePolicy::EarliestDeadline.to_string(),
            "earliest-deadline"
        );
        assert_eq!(
            QueuePolicy::WeightedFairShare.to_string(),
            "weighted-fair-share"
        );
    }
}
