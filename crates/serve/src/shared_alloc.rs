//! The shared-cluster S²C² allocator: Algorithm 1 across many jobs.
//!
//! Extends the paper's single-job allocator to a pool serving several
//! coded jobs at once. A job's share of every worker's capacity is
//! `weight / Σ weights`, computed in one place; Algorithm 1 runs on the
//! pool's speeds. Because Algorithm 1 is scale-invariant in the speeds,
//! the share changes how fast a job's tasks run, not which chunks it
//! gets: each job keeps exactly the chunk shape it would get on a
//! dedicated cluster — and therefore keeps its exactly-`k` chunk
//! coverage, which is the decodability invariant the whole scheme rests
//! on.
//!
//! When the pool's speeds cannot support a job's `k`-coverage
//! (predictions claim fewer than `k` workers alive), that job — and only
//! that job — degrades to conventional coded computing: every available
//! worker computes its full partition and the master takes the fastest
//! `k` per chunk (§4.4's robustness rule, applied per job).

use s2c2_core::{allocate_chunks, ChunkAssignment};

/// One resident job's allocation inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDemand {
    /// Recovery threshold of the job's code.
    pub k: usize,
    /// Chunks per coded partition.
    pub chunks_per_partition: usize,
    /// Capacity weight (equal weights = processor sharing).
    pub weight: f64,
}

/// One job's entry in the shared allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedAssignment {
    /// Chunk indices per worker for this job.
    pub assignment: ChunkAssignment,
    /// Fraction of every worker's capacity this job received.
    pub share: f64,
    /// Whether the job degraded to conventional full assignment because
    /// the predicted speeds could not support exactly-`k` coverage.
    pub degraded: bool,
}

/// Conventional coded computing's assignment restricted to available
/// workers: every worker with positive speed computes its whole
/// partition. Coverage is `available ≥ k` per chunk (over-provisioned on
/// purpose — the master takes the fastest `k`).
#[must_use]
pub fn full_over_available(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
) -> ChunkAssignment {
    let mut out = ChunkAssignment::default();
    full_over_available_into(speeds, k, chunks_per_partition, &mut out);
    out
}

/// [`full_over_available`] written into a caller-owned assignment, each
/// worker's list refilled in place.
pub(crate) fn full_over_available_into(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
    out: &mut ChunkAssignment,
) {
    out.clear_for(speeds.len(), k, chunks_per_partition);
    for (list, &s) in out.chunks.iter_mut().zip(speeds) {
        if s > 0.0 {
            list.extend(0..chunks_per_partition);
        }
    }
}

/// Allocates every resident job's chunks over the shared pool.
///
/// `speeds` are the pool's (predicted) per-worker speeds, zero meaning
/// unavailable. Each entry is Algorithm 1 on those speeds — or, when they
/// cannot support the job's `k`-coverage, [`full_over_available`] — with
/// the job's share `weight / Σ weights`. The result is index-aligned with
/// `demands`.
///
/// # Panics
///
/// Panics if `demands` is empty or any weight is non-positive (both are
/// engine bugs, not runtime conditions).
#[must_use]
pub fn allocate_shared(speeds: &[f64], demands: &[JobDemand]) -> Vec<SharedAssignment> {
    assert!(!demands.is_empty(), "need at least one resident job");
    assert!(
        demands
            .iter()
            .all(|d| d.weight.is_finite() && d.weight > 0.0),
        "job weights must be positive"
    );
    let total: f64 = demands.iter().map(|d| d.weight).sum();
    demands
        .iter()
        .map(|d| {
            let (k, chunks) = (d.k, d.chunks_per_partition);
            let (assignment, degraded) = match allocate_chunks(speeds, k, chunks) {
                Ok(assignment) => (assignment, false),
                Err(_) => (full_over_available(speeds, k, chunks), true),
            };
            SharedAssignment {
                assignment,
                share: d.weight / total,
                degraded,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_resident_job_keeps_exact_coverage() {
        let speeds = [1.0, 0.9, 0.2, 1.1, 0.7, 0.0, 0.8, 1.0];
        let demands = [
            JobDemand {
                k: 4,
                chunks_per_partition: 8,
                weight: 1.0,
            },
            JobDemand {
                k: 6,
                chunks_per_partition: 5,
                weight: 1.0,
            },
            JobDemand {
                k: 2,
                chunks_per_partition: 12,
                weight: 2.0,
            },
        ];
        let out = allocate_shared(&speeds, &demands);
        assert_eq!(out.len(), 3);
        for (d, s) in demands.iter().zip(out.iter()) {
            assert!(!s.degraded);
            assert!(s.assignment.is_decodable(), "k={} lost coverage", d.k);
            assert_eq!(s.assignment.k, d.k);
        }
        let share_sum: f64 = out.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert!((out[2].share - 0.5).abs() < 1e-12, "weight-2 job gets half");
    }

    #[test]
    fn shared_shape_matches_dedicated_shape() {
        // Scale invariance: sharing the pool changes rates, not shapes.
        let speeds = [1.0, 0.5, 0.9, 0.3, 1.2, 0.8];
        let demand = JobDemand {
            k: 3,
            chunks_per_partition: 9,
            weight: 1.0,
        };
        let shared = allocate_shared(&speeds, &[demand, demand, demand]);
        let dedicated = allocate_chunks(&speeds, 3, 9).unwrap();
        for s in &shared {
            assert_eq!(s.assignment, dedicated);
        }
    }

    #[test]
    fn infeasible_job_degrades_alone() {
        // Only 3 workers alive: the k=5 job degrades, the k=2 job does not.
        let speeds = [1.0, 0.0, 0.8, 0.0, 0.0, 0.9];
        let demands = [
            JobDemand {
                k: 5,
                chunks_per_partition: 4,
                weight: 1.0,
            },
            JobDemand {
                k: 2,
                chunks_per_partition: 4,
                weight: 1.0,
            },
        ];
        let out = allocate_shared(&speeds, &demands);
        assert!(out[0].degraded);
        assert!(!out[1].degraded);
        assert!(out[1].assignment.is_decodable());
        // Degraded job: every alive worker holds its full partition.
        for (w, &s) in speeds.iter().enumerate() {
            let expect = if s > 0.0 { 4 } else { 0 };
            assert_eq!(out[0].assignment.chunks[w].len(), expect, "worker {w}");
        }
    }

    #[test]
    fn entries_are_algorithm_1_on_the_pool_speeds() {
        // Every entry is what the job would get alone on the pool, and
        // its share is its weight over the resident mass, bit for bit.
        let speeds = [1.0, 0.4, 0.0, 0.9, 0.7, 1.1];
        let demand = |k, chunks_per_partition, weight| JobDemand {
            k,
            chunks_per_partition,
            weight,
        };
        let demands = [
            demand(2, 6, 2.0),
            demand(3, 4, 1.5),
            demand(2, 5, 0.5),
            demand(6, 3, 0.0625),
        ];
        for residents in 1..=demands.len() {
            let out = allocate_shared(&speeds, &demands[..residents]);
            assert_eq!(out.len(), residents);
            let total: f64 = demands[..residents].iter().map(|d| d.weight).sum();
            for (d, entry) in demands.iter().zip(&out) {
                let (k, c) = (d.k, d.chunks_per_partition);
                let expect = allocate_chunks(&speeds, k, c);
                assert_eq!(entry.degraded, expect.is_err(), "k {k}");
                let expect = expect.unwrap_or_else(|_| full_over_available(&speeds, k, c));
                assert_eq!(entry.assignment, expect, "k {k}");
                assert_eq!(entry.share.to_bits(), (d.weight / total).to_bits());
            }
        }
        // Only five workers are alive: the k = 6 job takes the degraded
        // branch.
        assert!(allocate_shared(&speeds, &demands)[3].degraded);
    }

    #[test]
    #[should_panic(expected = "job weights must be positive")]
    fn allocate_shared_rejects_zero_weight() {
        let demand = |weight| JobDemand {
            k: 1,
            chunks_per_partition: 2,
            weight,
        };
        let _ = allocate_shared(&[1.0, 1.0], &[demand(1.0), demand(0.0)]);
    }

    #[test]
    fn full_over_available_skips_dead_workers() {
        let a = full_over_available(&[1.0, 0.0, 0.5], 2, 3);
        assert_eq!(a.chunks[0].len(), 3);
        assert_eq!(a.chunks[1].len(), 0);
        assert_eq!(a.chunks[2].len(), 3);
        // Over-covered (2 alive ≥ k = 2 per chunk).
        assert!(a.coverage().iter().all(|&c| c >= 2));
    }
}
