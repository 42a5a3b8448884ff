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
//!
//! [`allocate_chunks_into`] is the one implementation. It refills a
//! caller-owned [`ChunkAssignment`] and [`AllocScratch`] in place, so a
//! caller that re-plans every round (the `s2c2-serve` engine) makes no
//! heap allocation once its buffers have grown. [`allocate_chunks`] is
//! the allocating form: it wraps the former with fresh buffers.

use crate::error::S2c2Error;

/// A work assignment: chunk indices per worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    ///
    /// # Panics
    ///
    /// Panics if a worker holds a chunk index `>= chunks_per_partition`
    /// ([`Self::is_decodable`] is `false` for such an assignment).
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
    /// exactly `k` distinct workers, no worker holds duplicates, and no
    /// index lies outside the partition.
    #[must_use]
    pub fn is_decodable(&self) -> bool {
        for per_worker in &self.chunks {
            for w in per_worker.windows(2) {
                if w[0] >= w[1] {
                    return false; // unsorted or duplicate
                }
            }
            // Sorted, so the last index is the largest.
            if per_worker.len() > self.chunks_per_partition
                || per_worker
                    .last()
                    .is_some_and(|&c| c >= self.chunks_per_partition)
            {
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

    /// Empties the assignment in place for `n` workers: every kept
    /// per-worker list is cleared, not dropped, so a refill reuses its
    /// allocation.
    pub fn clear_for(&mut self, n: usize, k: usize, chunks_per_partition: usize) {
        self.chunks.truncate(n);
        for per_worker in &mut self.chunks {
            per_worker.clear();
        }
        self.chunks.resize_with(n, Vec::new);
        self.k = k;
        self.chunks_per_partition = chunks_per_partition;
    }
}

/// Working buffers of [`allocate_chunks_into`]. Only their capacity
/// carries over from one call to the next.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// Indices of the workers with positive speed.
    alive: Vec<usize>,
    /// Their speeds, index-aligned with `alive`.
    weights: Vec<f64>,
    /// Slots apportioned to each alive worker.
    counts: Vec<usize>,
    /// Each alive worker's leftover key `(count + 1) / weight`: its
    /// finish time after one more slot.
    keys: Vec<f64>,
    /// Alive positions in descending-speed order, ties by index.
    order: Vec<usize>,
}

/// Apportions `total` slots proportionally to `weights` with the largest
/// remainder method, then enforces the per-worker `cap` by spilling excess
/// to the next-largest weights (`order` lists positions fastest first).
///
/// Leaves per-worker slot counts summing to exactly `total` in `counts`.
fn apportion_capped(
    weights: &[f64],
    order: &[usize],
    total: usize,
    cap: usize,
    counts: &mut Vec<usize>,
    keys: &mut Vec<f64>,
) {
    let sum: f64 = weights.iter().sum();
    debug_assert!(sum > 0.0);

    // Stage 1: proportional floors. `as usize` truncates toward zero and
    // saturates (NaN and negatives to 0), which equals `floor() as usize`
    // for every f64.
    counts.clear();
    counts.extend(weights.iter().map(|&w| (w / sum * total as f64) as usize));
    let assigned: usize = counts.iter().sum();
    // Distribute leftover slots makespan-greedily: each goes to the
    // worker whose finish time after the increment is smallest. Plain
    // largest-remainder would happily round a 5x-slow worker's 1.6-chunk
    // share *up*, making it the round's bottleneck — an extra chunk costs
    // 1/speed, so slot placement must be speed-aware. Only the picked
    // worker's key changes between picks.
    keys.clear();
    keys.extend(
        counts
            .iter()
            .zip(weights)
            .map(|(&count, &w)| (count + 1) as f64 / w),
    );
    for _ in 0..total - assigned {
        // total_cmp, not partial_cmp().unwrap(): a NaN weight reaching
        // this comparison (e.g. an unvalidated job weight upstream) must
        // mis-sort at worst, never panic the allocator mid-run. Ties go
        // to the lower index.
        #[expect(
            clippy::expect_used,
            reason = "leftover > 0 with total <= n*cap implies an uncapped worker"
        )]
        let pick = (0..weights.len())
            .filter(|&i| counts[i] < cap)
            .reduce(|best, i| {
                if keys[i].total_cmp(&keys[best]).is_lt() {
                    i
                } else {
                    best
                }
            })
            .expect("total <= n*cap guarantees a slot");
        counts[pick] += 1;
        keys[pick] = (counts[pick] + 1) as f64 / weights[pick];
    }

    // Stage 2: cap-and-spill, fastest first.
    let mut excess = 0usize;
    for &i in order {
        if counts[i] > cap {
            excess += counts[i] - cap;
            counts[i] = cap;
        }
    }
    for &i in order {
        if excess == 0 {
            break;
        }
        let room = cap - counts[i];
        let take = room.min(excess);
        counts[i] += take;
        excess -= take;
    }
    debug_assert_eq!(excess, 0, "caller must guarantee total <= n*cap");
}

/// Fills `order` with the positions of `weights` fastest first, ties by
/// position — the order both cap-spill and the circle walk use.
fn sort_fastest_first(weights: &[f64], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..weights.len());
    order.sort_unstable_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
}

/// Walks the circle of circumference `c` in `order`, handing alive
/// worker `alive[i]` the next `counts[i] <= c` consecutive chunk indices.
/// `out` must already be cleared for the pool.
fn lay_out_circle(
    alive: &[usize],
    order: &[usize],
    counts: &[usize],
    c: usize,
    out: &mut ChunkAssignment,
) {
    let mut begin = 0usize;
    for &i in order {
        let end = begin + counts[i];
        let list = &mut out.chunks[alive[i]];
        // Emitted sorted: a wrapped interval is `0..end − c` followed by
        // `begin..c`. Reserving first keeps a fresh list to one
        // allocation; a refilled one already has the room.
        list.reserve(counts[i]);
        if end > c {
            list.extend(0..end - c);
            list.extend(begin..c);
        } else {
            list.extend(begin..end);
        }
        begin = end % c;
    }
}

/// Runs Algorithm 1 into caller-owned buffers: `out` is refilled in
/// place (each worker's list cleared, not dropped) and `scratch` holds
/// the working state, so a caller that re-plans every round allocates
/// nothing once the buffers have grown to the pool's size.
///
/// `speeds[w] <= 0` marks a worker as unavailable (a presumed-dead or
/// excluded straggler); it receives no chunks.
///
/// # Errors
///
/// * [`S2c2Error::NotEnoughWorkers`] if fewer than `k` workers have
///   positive speed — `k`-coverage would be impossible.
/// * [`S2c2Error::InvalidConfig`] for zero `k` or zero chunk count.
///
/// `out` is left untouched on error.
pub fn allocate_chunks_into(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
    scratch: &mut AllocScratch,
    out: &mut ChunkAssignment,
) -> Result<(), S2c2Error> {
    if k == 0 || chunks_per_partition == 0 {
        return Err(S2c2Error::InvalidConfig(
            "k and chunks_per_partition must be positive".into(),
        ));
    }
    let AllocScratch {
        alive,
        weights,
        counts,
        keys,
        order,
    } = scratch;
    alive.clear();
    alive.extend((0..speeds.len()).filter(|&w| speeds[w] > 0.0));
    if alive.len() < k {
        return Err(S2c2Error::NotEnoughWorkers {
            alive: alive.len(),
            need: k,
        });
    }

    let c = chunks_per_partition;
    weights.clear();
    weights.extend(alive.iter().map(|&w| speeds[w]));
    sort_fastest_first(weights, order);
    apportion_capped(weights, order, k * c, c, counts, keys);
    out.clear_for(speeds.len(), k, c);
    lay_out_circle(alive, order, counts, c, out);
    debug_assert!(out.is_decodable(), "allocator broke the coverage invariant");
    Ok(())
}

/// Runs Algorithm 1 into fresh buffers: [`allocate_chunks_into`] for
/// one-off callers.
///
/// # Errors
///
/// Same failure modes as [`allocate_chunks_into`].
pub fn allocate_chunks(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
) -> Result<ChunkAssignment, S2c2Error> {
    let mut out = ChunkAssignment::default();
    allocate_chunks_into(
        speeds,
        k,
        chunks_per_partition,
        &mut AllocScratch::default(),
        &mut out,
    )?;
    Ok(out)
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
    let weights: Vec<f64> = alive.iter().map(|&w| speeds[w]).collect();
    let mut order = Vec::new();
    sort_fastest_first(&weights, &mut order);
    let mut assignment = ChunkAssignment::default();
    assignment.clear_for(n, k, c);
    lay_out_circle(&alive, &order, &counts, c, &mut assignment);
    debug_assert!(assignment.is_decodable(), "water-filling broke coverage");
    Ok(assignment)
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
    use proptest::prelude::*;

    /// The allocator as it was before it filled caller-owned buffers:
    /// per-pick rescans of every leftover key and a sort per interval.
    /// Kept as the oracle [`allocate_chunks_into`] must match exactly.
    fn apportion_capped_by_sort(weights: &[f64], total: usize, cap: usize) -> Vec<usize> {
        let sum: f64 = weights.iter().sum();
        let n = weights.len();
        let mut counts = vec![0usize; n];
        let mut assigned = 0usize;
        for (i, &w) in weights.iter().enumerate() {
            let ideal = w / sum * total as f64;
            counts[i] = ideal.floor() as usize;
            assigned += counts[i];
        }
        let mut leftover = total - assigned;
        while leftover > 0 {
            let pick = (0..n)
                .filter(|&i| counts[i] < cap)
                .min_by(|&a, &b| {
                    let fa = (counts[a] + 1) as f64 / weights[a];
                    let fb = (counts[b] + 1) as f64 / weights[b];
                    fa.total_cmp(&fb).then(a.cmp(&b))
                })
                .unwrap();
            counts[pick] += 1;
            leftover -= 1;
        }
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
            let take = (cap - counts[i]).min(excess);
            counts[i] += take;
            excess -= take;
        }
        counts
    }

    /// See [`apportion_capped_by_sort`].
    fn allocate_chunks_by_sort(
        speeds: &[f64],
        k: usize,
        c: usize,
    ) -> Result<ChunkAssignment, S2c2Error> {
        if k == 0 || c == 0 {
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
        let alive_weights: Vec<f64> = alive.iter().map(|&w| speeds[w]).collect();
        let counts = apportion_capped_by_sort(&alive_weights, k * c, c);
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
            let mut assigned: Vec<usize> = (0..count).map(|j| (begin + j) % c).collect();
            assigned.sort_unstable();
            chunks[alive[ai]] = assigned;
            begin = (begin + count) % c;
        }
        Ok(ChunkAssignment {
            chunks,
            chunks_per_partition: c,
            k,
        })
    }

    /// Runs every `(speeds, k, C)` call through one reused scratch and
    /// assignment, checking each against the oracle: the same assignment
    /// on success, the same error (and an untouched `out`) on failure.
    fn check_against_oracle(calls: &[(Vec<f64>, usize, usize)]) {
        let mut scratch = AllocScratch::default();
        let mut out = ChunkAssignment::default();
        for (speeds, k, c) in calls {
            let before = out.clone();
            let got = allocate_chunks_into(speeds, *k, *c, &mut scratch, &mut out);
            let at = format!("k={k} C={c} speeds={speeds:?}");
            match (got, allocate_chunks_by_sort(speeds, *k, *c)) {
                (Ok(()), Ok(expect)) => assert_eq!(out, expect, "{at}"),
                (Err(err), Err(expect)) => {
                    assert_eq!(err, expect, "{at}");
                    assert_eq!(out, before, "{at}: an error must leave out untouched");
                }
                (got, expect) => panic!("{at}: {got:?} vs oracle {expect:?}"),
            }
        }
    }

    /// One allocator call: `n` speeds mixing live workers, exact ties,
    /// dead workers, 5× stragglers (against the ties) and workers heavy
    /// enough to hold over `1/k` of the mass (cap-spill); `k` up to `n`,
    /// so `alive < k` occurs.
    fn call() -> impl Strategy<Value = (Vec<f64>, usize, usize)> {
        (1usize..=64).prop_flat_map(|n| {
            (
                proptest::collection::vec(
                    prop_oneof![
                        4 => 0.05f64..1.2,
                        2 => Just(1.0),
                        1 => Just(0.0),
                        1 => Just(0.2),
                        1 => 10.0f64..60.0,
                    ],
                    n,
                ),
                1usize..=n,
                1usize..=24,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn reused_buffers_match_the_oracle(calls in proptest::collection::vec(call(), 2..=6)) {
            check_against_oracle(&calls);
        }
    }

    #[test]
    fn reused_buffers_match_the_oracle_on_fixed_shapes() {
        let mut spill = vec![1.0; 15];
        spill.push(40.0);
        let straggling = [1.0, 1.0, 0.2, 1.0, 0.0, 1.0, 0.2, 1.0];
        let wide: Vec<f64> = (0..64).map(|w| 0.1 + f64::from(w % 7) * 0.3).collect();
        let calls = [
            (spill, 4, 10),                   // 40/55 of the mass, capped at C
            (straggling.to_vec(), 3, 12),     // n shrinks; ties and stragglers
            (wide, 40, 12),                   // n grows to 64
            (vec![1.0], 1, 5),                // a single worker
            (straggling.to_vec(), 7, 12),     // alive < k: refused
            (vec![0.3, 0.0, 0.3, 0.3], 2, 1), // C = 1
        ];
        check_against_oracle(&calls);
    }

    #[test]
    fn refill_reuses_every_buffer() {
        let speeds = [1.3, 0.9, 1.1, 0.2, 1.0, 0.7];
        let mut scratch = AllocScratch::default();
        let mut out = ChunkAssignment::default();
        allocate_chunks_into(&speeds, 3, 10, &mut scratch, &mut out).unwrap();
        let held = |out: &ChunkAssignment, s: &AllocScratch| {
            let lists: Vec<(*const usize, usize)> = out
                .chunks
                .iter()
                .map(|l| (l.as_ptr(), l.capacity()))
                .collect();
            let scratch = [
                (s.alive.as_ptr(), s.alive.capacity()),
                (s.counts.as_ptr(), s.counts.capacity()),
                (s.order.as_ptr(), s.order.capacity()),
            ];
            let floats = [
                (s.weights.as_ptr(), s.weights.capacity()),
                (s.keys.as_ptr(), s.keys.capacity()),
            ];
            (out.chunks.as_ptr(), lists, scratch, floats)
        };
        let first = out.clone();
        let before = held(&out, &scratch);
        allocate_chunks_into(&speeds, 3, 10, &mut scratch, &mut out).unwrap();
        assert_eq!(out, first);
        assert!(
            held(&out, &scratch) == before,
            "a same-shape refill must not reallocate"
        );
    }

    #[test]
    fn out_of_range_chunk_is_not_decodable() {
        let one = ChunkAssignment {
            chunks: vec![vec![5]],
            chunks_per_partition: 3,
            k: 1,
        };
        assert!(!one.is_decodable());
        // Sorted, no longer than C, and in range but for its last index.
        let tail = ChunkAssignment {
            chunks: vec![vec![0, 1, 3], vec![2]],
            chunks_per_partition: 3,
            k: 1,
        };
        assert!(!tail.is_decodable());
    }

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
        assert!(!a.is_decodable(), "full allocation over-covers (by design)");
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
}
