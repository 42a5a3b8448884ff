//! Algorithm 1 — the General S²C² chunk allocator.
//!
//! Input: per-worker predicted speeds, the code's recovery threshold `k`
//! (`a·b` for polynomial codes), and the over-decomposition granularity
//! `C` (chunks per partition). Output: for each worker, the set of chunk
//! *indices* of its own coded partition to compute.
//!
//! The geometry that makes this work: the decoder needs each chunk index
//! covered by exactly `k` distinct workers. Laying out `k·C` chunk-slots
//! as consecutive intervals around a circle of circumference `C` — worker
//! after worker, wrapping — covers every index exactly `k` times *provided
//! no single interval is longer than `C`*. The allocator therefore:
//!
//! 1. apportions `k·C` slots proportionally to predicted speeds (largest
//!    remainder method, so totals are exact),
//! 2. caps every worker at `C` slots, redistributing the excess to the
//!    next-fastest workers (the paper's "re-assign these extra chunks to
//!    next worker"),
//! 3. walks the circle in descending speed order handing out intervals.

use crate::error::S2c2Error;

/// A work assignment: chunk indices per worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkAssignment {
    /// `chunks[w]` = sorted chunk indices worker `w` must compute.
    pub chunks: Vec<Vec<usize>>,
    /// Chunks per partition (the circle circumference `C`).
    pub chunks_per_partition: usize,
    /// Recovery threshold the assignment was built for.
    pub k: usize,
}

impl ChunkAssignment {
    /// Number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.chunks.len()
    }

    /// Total chunk-slots assigned (must equal `k · C`).
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Per-chunk coverage count (how many workers compute each index).
    #[must_use]
    pub fn coverage(&self) -> Vec<usize> {
        let mut cov = vec![0usize; self.chunks_per_partition];
        for per_worker in &self.chunks {
            for &c in per_worker {
                cov[c] += 1;
            }
        }
        cov
    }

    /// Checks the decodability invariant: every chunk index covered by
    /// exactly `k` distinct workers and no worker holds duplicates.
    #[must_use]
    pub fn is_decodable(&self) -> bool {
        for per_worker in &self.chunks {
            for w in per_worker.windows(2) {
                if w[0] >= w[1] {
                    return false; // unsorted or duplicate
                }
            }
            if per_worker.len() > self.chunks_per_partition {
                return false;
            }
        }
        self.coverage().iter().all(|&c| c == self.k)
    }

    /// Rows assigned per worker given `rows_per_chunk`.
    #[must_use]
    pub fn rows_per_worker(&self, rows_per_chunk: usize) -> Vec<usize> {
        self.chunks
            .iter()
            .map(|c| c.len() * rows_per_chunk)
            .collect()
    }
}

/// Apportions `total` slots proportionally to `weights` with the largest
/// remainder method, then enforces the per-worker `cap` by spilling excess
/// to the next-largest weights.
///
/// Returns per-worker slot counts summing to exactly `total`.
fn apportion_capped(weights: &[f64], total: usize, cap: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    debug_assert!(sum > 0.0);
    let n = weights.len();

    // Stage 1: proportional floors.
    let mut counts = vec![0usize; n];
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let ideal = w / sum * total as f64;
        counts[i] = ideal.floor() as usize;
        assigned += counts[i];
    }
    // Distribute leftover slots makespan-greedily: each goes to the
    // worker whose finish time after the increment is smallest. Plain
    // largest-remainder would happily round a 5x-slow worker's 1.6-chunk
    // share *up*, making it the round's bottleneck — an extra chunk costs
    // 1/speed, so slot placement must be speed-aware.
    let mut leftover = total - assigned;
    while leftover > 0 {
        #[expect(
            clippy::expect_used,
            reason = "leftover > 0 with total <= n*cap implies an uncapped worker"
        )]
        let pick = (0..n)
            .filter(|&i| counts[i] < cap)
            .min_by(|&a, &b| {
                let fa = (counts[a] + 1) as f64 / weights[a];
                let fb = (counts[b] + 1) as f64 / weights[b];
                // total_cmp, not partial_cmp().unwrap(): a NaN weight
                // reaching this comparator (e.g. an unvalidated job
                // weight upstream) must mis-sort at worst, never panic
                // the allocator mid-run.
                fa.total_cmp(&fb).then(a.cmp(&b))
            })
            .expect("total <= n*cap guarantees a slot");
        counts[pick] += 1;
        leftover -= 1;
    }

    // Stage 2: cap-and-spill, fastest first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let mut excess = 0usize;
    for &i in &order {
        if counts[i] > cap {
            excess += counts[i] - cap;
            counts[i] = cap;
        }
    }
    for &i in &order {
        if excess == 0 {
            break;
        }
        let room = cap - counts[i];
        let take = room.min(excess);
        counts[i] += take;
        excess -= take;
    }
    debug_assert_eq!(excess, 0, "caller must guarantee total <= n*cap");
    counts
}

/// Runs Algorithm 1.
///
/// `speeds[w] <= 0` marks a worker as unavailable (a presumed-dead or
/// excluded straggler); it receives no chunks.
///
/// # Errors
///
/// * [`S2c2Error::NotEnoughWorkers`] if fewer than `k` workers have
///   positive speed — `k`-coverage would be impossible.
/// * [`S2c2Error::InvalidConfig`] for zero `k` or zero chunk count.
pub fn allocate_chunks(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
) -> Result<ChunkAssignment, S2c2Error> {
    if k == 0 || chunks_per_partition == 0 {
        return Err(S2c2Error::InvalidConfig(
            "k and chunks_per_partition must be positive".into(),
        ));
    }
    let n = speeds.len();
    let alive: Vec<usize> = (0..n).filter(|&w| speeds[w] > 0.0).collect();
    if alive.len() < k {
        return Err(S2c2Error::NotEnoughWorkers {
            alive: alive.len(),
            need: k,
        });
    }

    let c = chunks_per_partition;
    let total = k * c;
    let alive_weights: Vec<f64> = alive.iter().map(|&w| speeds[w]).collect();
    let counts = apportion_capped(&alive_weights, total, c);

    // Walk the circle in descending-speed order.
    let mut order: Vec<usize> = (0..alive.len()).collect();
    order.sort_by(|&a, &b| {
        alive_weights[b]
            .total_cmp(&alive_weights[a])
            .then(a.cmp(&b))
    });

    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut begin = 0usize;
    for &ai in &order {
        let count = counts[ai];
        let worker = alive[ai];
        let mut assigned = Vec::with_capacity(count);
        for j in 0..count {
            assigned.push((begin + j) % c);
        }
        assigned.sort_unstable();
        chunks[worker] = assigned;
        begin = (begin + count) % c;
    }

    let assignment = ChunkAssignment {
        chunks,
        chunks_per_partition: c,
        k,
    };
    debug_assert!(
        assignment.is_decodable(),
        "allocator broke the coverage invariant"
    );
    Ok(assignment)
}

/// Algorithm 1 extended for bilinear codes: accounts for a fixed
/// per-worker setup cost that scheduling cannot reduce (the polynomial
/// Hessian's `diag(w)·B̃ᵢ` scaling pass, §7.2.3).
///
/// Plain proportional allocation equalizes only the *chunk* work, so a
/// slow worker's fixed pass still blows its deadline every round. This
/// variant water-fills instead: it finds the makespan `T` at which
/// `Σ_w clamp((T·s_w − fixed) / unit, 0, C) = k·C` and hands each worker
/// its share — a worker whose fixed pass alone exceeds `T` sits out.
/// With `fixed_work == 0` it reduces exactly to [`allocate_chunks`].
///
/// `fixed_work` and `unit_work` are in the same cost unit (elements);
/// `unit_work` is the cost of one chunk.
///
/// # Errors
///
/// Same failure modes as [`allocate_chunks`].
pub fn allocate_chunks_with_fixed_cost(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
    fixed_work: f64,
    unit_work: f64,
) -> Result<ChunkAssignment, S2c2Error> {
    if fixed_work <= 0.0 {
        return allocate_chunks(speeds, k, chunks_per_partition);
    }
    if k == 0 || chunks_per_partition == 0 {
        return Err(S2c2Error::InvalidConfig(
            "k and chunks_per_partition must be positive".into(),
        ));
    }
    if unit_work <= 0.0 {
        return Err(S2c2Error::InvalidConfig(
            "unit work must be positive".into(),
        ));
    }
    let n = speeds.len();
    let alive: Vec<usize> = (0..n).filter(|&w| speeds[w] > 0.0).collect();
    if alive.len() < k {
        return Err(S2c2Error::NotEnoughWorkers {
            alive: alive.len(),
            need: k,
        });
    }
    let c = chunks_per_partition;
    let total = (k * c) as f64;
    let cap = c as f64;

    // Water-fill: bisect the makespan T.
    let share = |t: f64, s: f64| ((t * s - fixed_work) / unit_work).clamp(0.0, cap);
    let total_at = |t: f64| alive.iter().map(|&w| share(t, speeds[w])).sum::<f64>();
    let min_speed = alive.iter().map(|&w| speeds[w]).fold(f64::MAX, f64::min);
    let mut lo = 0.0;
    let mut hi = (fixed_work + unit_work * cap) / min_speed;
    debug_assert!(
        total_at(hi) + 1e-9 >= total,
        "upper bound must cover demand"
    );
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if total_at(mid) < total {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t_star = hi;
    let real_shares: Vec<f64> = alive.iter().map(|&w| share(t_star, speeds[w])).collect();

    // Integerize: floor + largest remainder, preserving Σ = k·C and caps.
    let mut counts: Vec<usize> = real_shares.iter().map(|r| r.floor() as usize).collect();
    let mut assigned: usize = counts.iter().sum();
    let mut rema: Vec<(f64, usize)> = real_shares
        .iter()
        .enumerate()
        .map(|(i, r)| (r - r.floor(), i))
        .collect();
    rema.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut ri = 0;
    while assigned < k * c {
        let i = rema[ri % rema.len()].1;
        if counts[i] < c {
            counts[i] += 1;
            assigned += 1;
        }
        ri += 1;
    }

    // Cyclic layout in descending-speed order (as in Algorithm 1).
    let mut order: Vec<usize> = (0..alive.len()).collect();
    order.sort_by(|&a, &b| {
        speeds[alive[b]]
            .total_cmp(&speeds[alive[a]])
            .then(a.cmp(&b))
    });
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut begin = 0usize;
    for &ai in &order {
        let count = counts[ai];
        let mut assigned_chunks = Vec::with_capacity(count);
        for j in 0..count {
            assigned_chunks.push((begin + j) % c);
        }
        assigned_chunks.sort_unstable();
        chunks[alive[ai]] = assigned_chunks;
        begin = (begin + count) % c;
    }
    let assignment = ChunkAssignment {
        chunks,
        chunks_per_partition: c,
        k,
    };
    debug_assert!(assignment.is_decodable(), "water-filling broke coverage");
    Ok(assignment)
}

/// Normalizes per-job capacity weights into fractional shares summing
/// to 1: `out[j] = weights[j] / Σ weights`.
///
/// This is the single weight→share definition the whole stack agrees
/// on: [`split_worker_capacity`] uses it to slice worker capacity, and
/// the `s2c2-serve` engine uses it to rate in-flight tasks, so a
/// weight-2 tenant really runs at twice a weight-1 tenant's fractional
/// rate everywhere the weight is consulted.
///
/// # Panics
///
/// Panics if `weights` is empty or any weight is non-positive.
#[must_use]
pub fn normalized_shares(weights: &[f64]) -> Vec<f64> {
    assert!(!weights.is_empty(), "need at least one resident job");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "job weights must be positive"
    );
    let total: f64 = weights.iter().sum();
    weights.iter().map(|&w| w / total).collect()
}

/// Splits each worker's per-iteration capacity across concurrently
/// resident jobs — the shared-cluster hook used by `s2c2-serve`.
///
/// Given the pool's per-worker speeds and one weight per resident job
/// (equal weights = processor sharing; work-proportional weights =
/// makespan fairness), returns one *effective speed vector per job*:
/// `out[j][w] = speeds[w] · weights[j] / Σ weights`. Feeding `out[j]`
/// to [`allocate_chunks`] yields a per-job assignment that preserves
/// that job's exactly-`k` coverage while the pool's capacity is shared
/// — Algorithm 1 is scale-invariant in the speeds, so each job's chunk
/// *shape* matches what it would get on a dedicated cluster running at
/// its fractional rate.
///
/// Zero-speed (dead/churned-out) workers stay zero in every slice, so
/// per-job feasibility checks (`alive >= k`) keep working downstream.
///
/// # Panics
///
/// Panics if `weights` is empty or any weight is non-positive.
#[must_use]
pub fn split_worker_capacity(speeds: &[f64], weights: &[f64]) -> Vec<Vec<f64>> {
    normalized_shares(weights)
        .into_iter()
        .map(|frac| speeds.iter().map(|&s| s * frac).collect())
        .collect()
}

/// Basic S²C² allocation: every worker in `available` treated as equal
/// speed, stragglers excluded entirely (§4.1).
///
/// # Errors
///
/// Same failure modes as [`allocate_chunks`].
pub fn allocate_chunks_basic(
    available: &[bool],
    k: usize,
    chunks_per_partition: usize,
) -> Result<ChunkAssignment, S2c2Error> {
    let speeds: Vec<f64> = available
        .iter()
        .map(|&a| if a { 1.0 } else { 0.0 })
        .collect();
    allocate_chunks(&speeds, k, chunks_per_partition)
}

/// Conventional coded computing's implicit assignment: every worker
/// computes its whole partition (used by the MDS baseline and as the
/// fallback when prediction fails completely — §4.4).
#[must_use]
pub fn allocate_full(n: usize, k: usize, chunks_per_partition: usize) -> ChunkAssignment {
    ChunkAssignment {
        chunks: (0..n)
            .map(|_| (0..chunks_per_partition).collect())
            .collect(),
        chunks_per_partition,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_speeds_equal_chunks() {
        // 4 workers, k=2, C=6: total 12 slots, 3 each.
        let a = allocate_chunks(&[1.0; 4], 2, 6).unwrap();
        assert!(a.is_decodable());
        for w in 0..4 {
            assert_eq!(a.chunks[w].len(), 3, "worker {w}");
        }
        assert_eq!(a.total_slots(), 12);
    }

    #[test]
    fn paper_figure4c_shape() {
        // Fig 4c: (4,2) code, worker 4 (index 3) straggling, C=3.
        // Each active worker computes 2 of its 3 chunks; every chunk index
        // covered exactly twice.
        let a = allocate_chunks(&[1.0, 1.0, 1.0, 0.0], 2, 3).unwrap();
        assert!(a.is_decodable());
        assert_eq!(a.chunks[3], Vec::<usize>::new());
        for w in 0..3 {
            assert_eq!(
                a.chunks[w].len(),
                2,
                "worker {w} computes 2/3 of its partition"
            );
        }
    }

    #[test]
    fn proportional_to_speeds() {
        // Twice as fast -> twice the chunks (when divisible).
        let a = allocate_chunks(&[2.0, 1.0, 1.0], 2, 8).unwrap();
        assert!(a.is_decodable());
        assert_eq!(a.chunks[0].len(), 8);
        assert_eq!(a.chunks[1].len(), 4);
        assert_eq!(a.chunks[2].len(), 4);
    }

    #[test]
    fn cap_spills_to_next_fastest() {
        // One extremely fast worker cannot exceed C chunks; excess goes to
        // the next workers (the paper's explicit re-assignment rule).
        let a = allocate_chunks(&[100.0, 1.0, 1.0, 1.0], 3, 4).unwrap();
        assert!(a.is_decodable());
        assert_eq!(a.chunks[0].len(), 4, "capped at C");
        // 12 slots total, 4 to worker 0, 8 spread over the other three.
        assert_eq!(a.chunks[1].len() + a.chunks[2].len() + a.chunks[3].len(), 8);
    }

    #[test]
    fn paper_figure5_polynomial_allocation() {
        // Fig 5: 5 nodes, speeds {2,2,2,2,1}, 9 rows per partition with
        // need=4 -> paper allocates {8,8,8,8,4} rows. With C=9, k=4:
        // total 36 slots.
        let a = allocate_chunks(&[2.0, 2.0, 2.0, 2.0, 1.0], 4, 9).unwrap();
        assert!(a.is_decodable());
        let sizes: Vec<usize> = a.chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![8, 8, 8, 8, 4]);
    }

    #[test]
    fn straggler_count_sweep_matches_ds_work() {
        // Basic S2C2 with s non-stragglers assigns k*C/s chunks each
        // (= D/s rows): the paper's headline work formula.
        let (n, k, c) = (12usize, 6usize, 12usize);
        for stragglers in 0..=n - k {
            let available: Vec<bool> = (0..n).map(|w| w >= stragglers).collect();
            let a = allocate_chunks_basic(&available, k, c).unwrap();
            assert!(a.is_decodable(), "{stragglers} stragglers");
            let s = n - stragglers;
            let expect = k * c / s; // 72/s
            for w in stragglers..n {
                let len = a.chunks[w].len();
                assert!(
                    len == expect || len == expect + 1,
                    "{stragglers} stragglers: worker {w} got {len}, expected ~{expect}"
                );
            }
        }
    }

    #[test]
    fn too_few_alive_workers_is_an_error() {
        let err = allocate_chunks(&[1.0, 0.0, 0.0, 0.0], 2, 4).unwrap_err();
        assert!(matches!(
            err,
            S2c2Error::NotEnoughWorkers { alive: 1, need: 2 }
        ));
    }

    #[test]
    fn zero_k_rejected() {
        assert!(allocate_chunks(&[1.0], 0, 4).is_err());
        assert!(allocate_chunks(&[1.0], 1, 0).is_err());
    }

    #[test]
    fn exactly_k_workers_all_full() {
        // With exactly k alive workers everyone must compute everything.
        let a = allocate_chunks(&[1.0, 0.0, 1.0, 1.0], 3, 5).unwrap();
        assert!(a.is_decodable());
        assert_eq!(a.chunks[0].len(), 5);
        assert_eq!(a.chunks[1].len(), 0);
        assert_eq!(a.chunks[2].len(), 5);
        assert_eq!(a.chunks[3].len(), 5);
    }

    #[test]
    fn allocate_full_covers_everything_n_times() {
        let a = allocate_full(5, 3, 4);
        assert_eq!(a.coverage(), vec![5; 4]);
        assert!(
            !a.is_decodable() || 5 == 3,
            "full allocation over-covers (by design)"
        );
        assert_eq!(a.total_slots(), 20);
    }

    #[test]
    fn skewed_speeds_stay_decodable() {
        // Heavily skewed and irrational proportions.
        let speeds = [3.7, 0.11, 2.9, 0.5, 1.13, 0.77, 2.2, 0.4];
        for k in 1..=7 {
            for c in [1usize, 3, 7, 12] {
                let a = allocate_chunks(&speeds, k, c).unwrap();
                assert!(a.is_decodable(), "k={k} c={c}");
            }
        }
    }

    #[test]
    fn rows_per_worker_scales_chunks() {
        let a = allocate_chunks(&[1.0, 1.0], 1, 4).unwrap();
        let rows = a.rows_per_worker(25);
        assert_eq!(rows.iter().sum::<usize>(), 4 * 25);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let speeds = [1.3, 0.9, 1.1, 0.2, 1.0];
        let a = allocate_chunks(&speeds, 3, 10).unwrap();
        let b = allocate_chunks(&speeds, 3, 10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn capacity_split_sums_to_full_speed() {
        let speeds = [1.0, 0.5, 0.0, 0.8];
        let slices = split_worker_capacity(&speeds, &[2.0, 1.0, 1.0]);
        assert_eq!(slices.len(), 3);
        for w in 0..speeds.len() {
            let total: f64 = slices.iter().map(|s| s[w]).sum();
            assert!((total - speeds[w]).abs() < 1e-12, "worker {w}");
        }
        // Dead worker stays dead in every slice.
        assert!(slices.iter().all(|s| s[2] == 0.0));
        // Weight-2 job gets twice the weight-1 job's share.
        assert!((slices[0][0] / slices[1][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_split_preserves_allocation_shape() {
        // Algorithm 1 is scale-invariant: a job scheduled on its capacity
        // slice gets the same chunk shape as on the dedicated cluster.
        let speeds = [1.0, 0.9, 0.5, 0.2, 1.1, 0.7];
        let slices = split_worker_capacity(&speeds, &[1.0, 1.0, 1.0]);
        let dedicated = allocate_chunks(&speeds, 3, 8).unwrap();
        for slice in &slices {
            assert_eq!(allocate_chunks(slice, 3, 8).unwrap(), dedicated);
        }
    }

    #[test]
    #[should_panic(expected = "job weights must be positive")]
    fn capacity_split_rejects_zero_weight() {
        let _ = split_worker_capacity(&[1.0], &[1.0, 0.0]);
    }

    #[test]
    fn normalized_shares_sum_to_one_and_track_weights() {
        let shares = normalized_shares(&[1.0, 2.0, 1.0]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[1] / shares[0] - 2.0).abs() < 1e-12);
        assert_eq!(normalized_shares(&[7.0]), vec![1.0]);
    }
}
