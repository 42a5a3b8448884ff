//! The shared-cluster S²C² allocator: Algorithm 1 across many jobs.
//!
//! Extends the paper's single-job allocator to a pool serving several
//! coded jobs at once. Each worker's per-iteration capacity is split
//! across the resident jobs ([`s2c2_core::split_worker_capacity`], the
//! capacity hook exposed by the core crate) and every job then runs
//! Algorithm 1 on *its slice* of the pool. Because Algorithm 1 is
//! scale-invariant in the speeds, each job keeps exactly the chunk shape
//! it would get on a dedicated cluster running at its fractional rate —
//! and therefore keeps its exactly-`k` chunk coverage, which is the
//! decodability invariant the whole scheme rests on.
//!
//! When a job's slice cannot support `k`-coverage (predictions claim
//! fewer than `k` workers alive), that job — and only that job — degrades
//! to conventional coded computing: every available worker computes its
//! full partition and the master takes the fastest `k` per chunk (§4.4's
//! robustness rule, applied per job).

use s2c2_core::{
    allocate_chunks, allocate_chunks_into, split_worker_capacity, AllocScratch, ChunkAssignment,
};

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

/// One job's slice of the shared allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedAssignment {
    /// Chunk indices per worker for this job.
    pub assignment: ChunkAssignment,
    /// Fraction of every worker's capacity this job received.
    pub share: f64,
    /// Whether the job degraded to conventional full assignment because
    /// its predicted slice could not support exactly-`k` coverage.
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
/// unavailable. The result is index-aligned with `demands`.
///
/// # Panics
///
/// Panics if `demands` is empty or any weight is non-positive (both are
/// engine bugs, not runtime conditions).
#[must_use]
pub fn allocate_shared(speeds: &[f64], demands: &[JobDemand]) -> Vec<SharedAssignment> {
    let weights: Vec<f64> = demands.iter().map(|d| d.weight).collect();
    let slices = split_worker_capacity(speeds, &weights);
    let total: f64 = weights.iter().sum();
    demands
        .iter()
        .zip(slices.iter())
        .map(|(d, slice)| {
            let share = d.weight / total;
            match allocate_chunks(slice, d.k, d.chunks_per_partition) {
                Ok(assignment) => SharedAssignment {
                    assignment,
                    share,
                    degraded: false,
                },
                Err(_) => SharedAssignment {
                    assignment: full_over_available(speeds, d.k, d.chunks_per_partition),
                    share,
                    degraded: true,
                },
            }
        })
        .collect()
}

/// One job's weighted slice of the shared allocation — identical to the
/// matching entry of [`allocate_shared`] for a resident set whose
/// weights sum to `total_weight` (jobs start iterations at different
/// instants, so the engine only ever needs its own slice; recomputing
/// every neighbour's assignment would be `O(residents)` wasted work).
///
/// `demand.weight` is this job's capacity weight; `total_weight` is the
/// sum over the whole resident set (including this job). The job's
/// speeds are cut as in a two-way [`split_worker_capacity`] (itself vs
/// everyone else) into the caller-owned `slice`, Algorithm 1 runs on them
/// through `scratch`, and the result — or, when the slice cannot support
/// `k`-coverage, [`full_over_available`] — is written into `out`. Every
/// buffer is refilled in place, so a steady-state call allocates
/// nothing.
///
/// Returns `(share, degraded)`: the fraction of every worker's capacity
/// the job receives, and whether it degraded to the full assignment.
///
/// # Panics
///
/// Panics if the weight is non-positive or exceeds `total_weight`.
#[must_use]
pub fn allocate_for_resident(
    speeds: &[f64],
    demand: JobDemand,
    total_weight: f64,
    slice: &mut Vec<f64>,
    scratch: &mut AllocScratch,
    out: &mut ChunkAssignment,
) -> (f64, bool) {
    let JobDemand {
        k,
        chunks_per_partition,
        weight,
    } = demand;
    assert!(
        weight.is_finite() && weight > 0.0,
        "job weight must be positive"
    );
    assert!(
        total_weight.is_finite() && total_weight >= weight,
        "total weight must cover the job's own weight"
    );
    let rest = total_weight - weight;
    slice.clear();
    let share = if rest > 0.0 {
        // `normalized_shares(&[weight, rest])[0]`, bit for bit.
        let frac = weight / (weight + rest);
        slice.extend(speeds.iter().map(|&s| s * frac));
        weight / total_weight
    } else {
        // Sole resident: the whole pool.
        slice.extend_from_slice(speeds);
        1.0
    };
    let degraded = allocate_chunks_into(slice, k, chunks_per_partition, scratch, out).is_err();
    if degraded {
        full_over_available_into(speeds, k, chunks_per_partition, out);
    }
    (share, degraded)
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

    /// The buffers `allocate_for_resident` fills, as the engine keeps
    /// them between rounds.
    type Buffers = (Vec<f64>, AllocScratch, ChunkAssignment);

    /// Buffers left dirty by an unrelated call: a wider pool and another
    /// shape.
    fn dirty_buffers() -> Buffers {
        let mut bufs = Buffers::default();
        let demand = JobDemand {
            k: 3,
            chunks_per_partition: 11,
            weight: 1.0,
        };
        let speeds = [0.3, 1.0, 0.8, 0.0, 2.0, 1.1, 0.9, 0.5];
        let _ = resident(&speeds, demand, 2.5, &mut bufs);
        bufs
    }

    /// [`allocate_for_resident`] through `bufs`, as the entry
    /// [`allocate_shared`] would return.
    fn resident(
        speeds: &[f64],
        demand: JobDemand,
        total_weight: f64,
        bufs: &mut Buffers,
    ) -> SharedAssignment {
        let (slice, scratch, out) = bufs;
        let (share, degraded) =
            allocate_for_resident(speeds, demand, total_weight, slice, scratch, out);
        SharedAssignment {
            assignment: out.clone(),
            share,
            degraded,
        }
    }

    /// Equal entries, the share compared bit for bit.
    fn assert_same(solo: &SharedAssignment, shared: &SharedAssignment, what: &str) {
        assert_eq!(solo, shared, "{what}");
        assert_eq!(solo.share.to_bits(), shared.share.to_bits(), "{what}");
    }

    #[test]
    fn single_resident_slice_matches_shared_entry() {
        let speeds = [1.0, 0.4, 0.0, 0.9, 0.7];
        let mut bufs = dirty_buffers();
        let demand = |k| JobDemand {
            k,
            chunks_per_partition: 6,
            weight: 1.0,
        };
        for residents in 1..=4 {
            let shared = allocate_shared(&speeds, &vec![demand(2); residents]);
            let solo = resident(&speeds, demand(2), residents as f64, &mut bufs);
            assert_same(&solo, &shared[0], &format!("{residents} residents"));
        }
        // Degrade path agrees too (k above alive count), and a feasible
        // call refills the degraded buffers exactly.
        for k in [5, 2, 5] {
            let solo = resident(&speeds, demand(k), 2.0, &mut bufs);
            assert_eq!(solo.degraded, k == 5);
            assert_same(
                &solo,
                &allocate_shared(&speeds, &[demand(k); 2])[0],
                "k {k}",
            );
        }
    }

    #[test]
    fn weighted_resident_slice_matches_shared_entry() {
        // A weight-2 job among total weight 4: its slice and share must
        // match the allocate_shared entry built from the full demand set.
        let speeds = [1.0, 0.4, 0.0, 0.9, 0.7, 1.1];
        let demands = [
            JobDemand {
                k: 2,
                chunks_per_partition: 6,
                weight: 2.0,
            },
            JobDemand {
                k: 3,
                chunks_per_partition: 4,
                weight: 1.5,
            },
            JobDemand {
                k: 2,
                chunks_per_partition: 5,
                weight: 0.5,
            },
            JobDemand {
                k: 6,
                chunks_per_partition: 3,
                weight: 0.0625,
            },
        ];
        let total: f64 = demands.iter().map(|d| d.weight).sum();
        let shared = allocate_shared(&speeds, &demands);
        assert!(shared[3].degraded);
        let mut bufs = dirty_buffers();
        for (i, (d, entry)) in demands.iter().zip(&shared).enumerate() {
            let solo = resident(&speeds, *d, total, &mut bufs);
            assert_same(&solo, entry, &format!("job {i}"));
        }
        // Sole resident gets the full pool regardless of weight.
        let solo = resident(&speeds, demands[1], 1.5, &mut bufs);
        assert_eq!(solo.share, 1.0);
        assert_eq!(
            solo.assignment,
            allocate_chunks(&speeds, 3, 4).unwrap(),
            "the whole pool, unscaled"
        );
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
