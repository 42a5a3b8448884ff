//! Thread-parallel kernels over row blocks.
//!
//! The threaded cluster executor (`s2c2-cluster`) simulates workers with OS
//! threads; inside a single simulated worker we additionally want real data
//! parallelism for the large matvecs the workloads issue. This module
//! provides scoped-thread row-partitioned kernels in the spirit of rayon's
//! `par_iter` (the HPC guide's recommended shape) without pulling in a
//! work-stealing runtime: the partition sizes here are large and uniform,
//! so static splitting is both simpler and faster.

use crate::matrix::Matrix;
use crate::vector::{dot_slices, Vector};

/// Minimum number of matrix *elements* (`rows × cols`) a row-range matvec
/// must touch before [`par_matvec_rows`] spawns OS threads.
///
/// Thread spawn + join costs a few microseconds; a matvec over fewer
/// elements than this finishes sequentially in about that time, so
/// spawning would only add latency. The cutoff is on work, not rows: a
/// short-wide range (few rows, many columns) carries as much arithmetic
/// as a tall-narrow one and deserves the same decision.
pub const PAR_SPAWN_WORK: usize = 32 * 1024;

/// Whether a row-range matvec of `rows × cols` elements should spawn
/// `threads` OS threads rather than fall through to the sequential
/// kernel. Exposed so the spawn boundary is unit-testable.
#[must_use]
pub fn should_spawn(rows: usize, cols: usize, threads: usize) -> bool {
    threads > 1 && rows > 0 && rows.saturating_mul(cols) >= PAR_SPAWN_WORK
}

/// Computes `A·x` with `threads` OS threads, splitting rows evenly.
///
/// Falls back to the sequential kernel for a single thread or when the
/// total work `rows × cols` is below [`PAR_SPAWN_WORK`] (the crossover is
/// far below any matrix the workloads produce).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `threads == 0`.
#[must_use]
pub fn par_matvec(a: &Matrix, x: &Vector, threads: usize) -> Vector {
    par_matvec_rows(a, x, 0, a.rows(), threads)
}

/// Computes rows `[begin, end)` of `A·x` with `threads` OS threads — the
/// kernel behind [`par_matvec`], exposed separately because coded workers
/// compute *chunks* (row ranges of their partition) rather than whole
/// matrices.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`, `threads == 0`, or the range is
/// out of bounds / inverted.
#[must_use]
pub fn par_matvec_rows(a: &Matrix, x: &Vector, begin: usize, end: usize, threads: usize) -> Vector {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(x.len(), a.cols(), "par_matvec: dimension mismatch");
    assert!(
        begin <= end && end <= a.rows(),
        "par_matvec: bad row range {begin}..{end} of {}",
        a.rows()
    );
    let rows = end - begin;
    if !should_spawn(rows, a.cols(), threads) {
        return a.matvec_rows(x, begin, end);
    }
    let threads = threads.min(rows);
    let mut out = vec![0.0; rows];
    let chunk = rows.div_ceil(threads);
    let xs = x.as_slice();

    std::thread::scope(|scope| {
        // Hand each thread a disjoint &mut of the output: no locks needed.
        let mut remaining: &mut [f64] = &mut out;
        let mut offset = 0usize;
        let mut handles = Vec::with_capacity(threads);
        while offset < rows {
            let stop = (offset + chunk).min(rows);
            let (mine, rest) = remaining.split_at_mut(stop - offset);
            remaining = rest;
            let a_ref = &*a;
            let first = begin + offset;
            handles.push(scope.spawn(move || {
                for (i, slot) in mine.iter_mut().enumerate() {
                    *slot = dot_slices(a_ref.row(first + i), xs);
                }
            }));
            offset = stop;
        }
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "re-raises a worker panic, as std::thread::scope itself would"
            )]
            h.join().expect("par_matvec worker panicked");
        }
    });
    Vector::from(out)
}

/// Computes `A·B` with `threads` OS threads, splitting `A`'s rows evenly.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `threads == 0`.
#[must_use]
pub fn par_matmul(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(a.cols(), b.rows(), "par_matmul: dimension mismatch");
    let rows = a.rows();
    if threads == 1 || rows < 64 {
        return a.matmul(b);
    }
    let threads = threads.min(rows);
    let bc = b.cols();
    let mut out = vec![0.0; rows * bc];
    let chunk = rows.div_ceil(threads);

    std::thread::scope(|scope| {
        let mut remaining: &mut [f64] = &mut out;
        let mut begin = 0usize;
        let mut handles = Vec::with_capacity(threads);
        while begin < rows {
            let end = (begin + chunk).min(rows);
            let (mine, rest) = remaining.split_at_mut((end - begin) * bc);
            remaining = rest;
            let (a_ref, b_ref) = (&*a, &*b);
            handles.push(scope.spawn(move || {
                for local in 0..end - begin {
                    let i = begin + local;
                    let out_row = &mut mine[local * bc..(local + 1) * bc];
                    for k in 0..a_ref.cols() {
                        let a_ik = a_ref.get(i, k);
                        if a_ik == 0.0 {
                            continue;
                        }
                        for (o, bval) in out_row.iter_mut().zip(b_ref.row(k)) {
                            *o += a_ik * bval;
                        }
                    }
                }
            }));
            begin = end;
        }
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "re-raises a worker panic, as std::thread::scope itself would"
            )]
            h.join().expect("par_matmul worker panicked");
        }
    });
    Matrix::from_flat(rows, bc, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn par_matvec_matches_sequential() {
        let a = random_matrix(1000, 37, 1);
        let x = Vector::from_fn(37, |i| (i as f64).sin());
        let seq = a.matvec(&x);
        for threads in [1, 2, 3, 4, 7] {
            let par = par_matvec(&a, &x, threads);
            crate::assert_slices_close(par.as_slice(), seq.as_slice(), 1e-12);
        }
    }

    #[test]
    fn par_matvec_small_input_falls_back() {
        let a = random_matrix(10, 5, 2);
        let x = Vector::filled(5, 1.0);
        assert_eq!(par_matvec(&a, &x, 8), a.matvec(&x));
    }

    #[test]
    fn spawn_threshold_is_work_based() {
        // Exactly at the cutoff spawns; one element of work less does not.
        let cols = 64;
        let rows_at = PAR_SPAWN_WORK / cols;
        assert!(should_spawn(rows_at, cols, 4));
        assert!(!should_spawn(rows_at - 1, cols, 4));
        // Short-wide ranges count their columns: 8 rows of 4096 columns
        // is the same work as 512 rows of 64.
        assert!(should_spawn(8, PAR_SPAWN_WORK / 8, 4));
        assert!(!should_spawn(8, PAR_SPAWN_WORK / 8 - 1, 4));
        // A single thread or an empty range never spawns, however large.
        assert!(!should_spawn(1 << 20, 1 << 20, 1));
        assert!(!should_spawn(0, 1 << 20, 4));
    }

    #[test]
    fn par_matvec_rows_spawns_at_threshold_boundary() {
        // Shapes straddling the work cutoff must agree with the
        // sequential kernel bit-for-bit on both sides.
        let cols = 32;
        let rows = PAR_SPAWN_WORK / cols + 1;
        let a = random_matrix(rows, cols, 11);
        let x = Vector::from_fn(cols, |i| (i as f64).cos());
        // One row above the cutoff: spawns.
        assert!(should_spawn(rows, cols, 4));
        let par = par_matvec_rows(&a, &x, 0, rows, 4);
        assert_eq!(par, a.matvec_rows(&x, 0, rows));
        // Narrow the range below the cutoff: sequential fallback.
        assert!(!should_spawn(rows - 2, cols, 4));
        let par = par_matvec_rows(&a, &x, 1, rows - 1, 4);
        assert_eq!(par, a.matvec_rows(&x, 1, rows - 1));
    }

    #[test]
    fn par_matvec_more_threads_than_rows() {
        let a = random_matrix(300, 8, 3);
        let x = Vector::filled(8, 0.5);
        let par = par_matvec(&a, &x, 512);
        crate::assert_slices_close(par.as_slice(), a.matvec(&x).as_slice(), 1e-12);
    }

    #[test]
    fn par_matvec_rows_matches_range() {
        let a = random_matrix(900, 20, 9);
        let x = Vector::from_fn(20, |i| 1.0 - 0.05 * i as f64);
        for (begin, end) in [(0, 900), (100, 700), (512, 900), (300, 300)] {
            let seq = a.matvec_rows(&x, begin, end);
            for threads in [1, 3, 6] {
                let par = par_matvec_rows(&a, &x, begin, end, threads);
                crate::assert_slices_close(par.as_slice(), seq.as_slice(), 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad row range")]
    fn par_matvec_rows_rejects_bad_range() {
        let a = Matrix::identity(4);
        let x = Vector::zeros(4);
        let _ = par_matvec_rows(&a, &x, 2, 9, 2);
    }

    #[test]
    fn par_matmul_matches_sequential() {
        let a = random_matrix(120, 40, 4);
        let b = random_matrix(40, 25, 5);
        let seq = a.matmul(&b);
        for threads in [1, 2, 5] {
            let par = par_matmul(&a, &b, threads);
            assert!(par.max_abs_diff(&seq) < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let a = Matrix::identity(2);
        let x = Vector::zeros(2);
        let _ = par_matvec(&a, &x, 0);
    }
}
