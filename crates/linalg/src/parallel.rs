//! Scoped-thread data parallelism for the host-side numerics.
//!
//! [`par_map`] and its in-place twin [`par_for_each_mut`] share the one
//! spawn/join site; the kernels here are their clients. Callers on the
//! single-job path: `s2c2-core`'s coded rounds (`CodedMatvec::run_round`
//! under MDS, uncoded and both S²C² variants, and `PolyShared::run_round`
//! under both polynomial schedules) compute a round's chosen worker
//! responses, and a job's exact product (the logistic regression and
//! SVM loss/accuracy margins) its systematic rows, through
//! `s2c2-coding`'s `EncodedMatrix::compute_pairs`, which maps [`par_map`]
//! over the pairs or, for the column kernel of an encoding of `Aᵀ`, over
//! column ranges; the Hessian takes its weights with [`par_matvec`]. The
//! set-up fills caller-allocated outputs with [`par_for_each_mut`]:
//! `s2c2-coding`'s `MdsCode::encode` / `encode_transpose` (row ranges of
//! every parity partition) and `s2c2-workloads`' `gisette_like` (row
//! blocks of the features). All run at [`host_threads`]. The serve
//! engine does not call into this module: its threaded backend already
//! runs one OS thread per simulated worker.
//!
//! Splitting is static and contiguous, in the spirit of rayon's
//! `par_iter` without a work-stealing runtime: the items are uniform, so
//! equal parts are balanced. No output depends on the thread count —
//! every item is computed by the same sequential code whichever thread
//! runs it, and results come back in input order.

use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::vector::Vector;

/// Minimum amount of work (`rows × cols` matrix elements, or the
/// equivalent multiply-adds) a kernel must do before it spawns OS
/// threads.
///
/// Thread spawn + join costs a few microseconds; a matvec over fewer
/// elements than this finishes sequentially in about that time, so
/// spawning would only add latency. The cutoff is on work, not rows: a
/// short-wide range (few rows, many columns) carries as much arithmetic
/// as a tall-narrow one and deserves the same decision.
pub const PAR_SPAWN_WORK: usize = 32 * 1024;

/// Whether `rows × cols` elements of work should spawn `threads` OS
/// threads rather than run on the caller's. Exposed so the spawn
/// boundary is unit-testable and so callers that batch their own items
/// for [`par_map`] apply the same rule.
#[must_use]
pub fn should_spawn(rows: usize, cols: usize, threads: usize) -> bool {
    threads > 1 && rows > 0 && rows.saturating_mul(cols) >= PAR_SPAWN_WORK
}

/// The host's available parallelism (1 if it cannot be read), read once
/// per process. Honours the CPU affinity mask, so a run pinned to one
/// core computes on one thread.
#[must_use]
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Maps `f` over `items` on up to `threads` OS threads and returns the
/// results in input order.
///
/// The slice is split into at most `threads` contiguous parts of equal
/// length (the last may be shorter); every part but the last runs on a
/// scoped thread, the last on the caller's. With one thread or fewer
/// than two items nothing is spawned.
///
/// # Panics
///
/// Panics if `threads == 0`; re-raises a panic from `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let parts = items.chunks(items.len().div_ceil(threads));
    let mut out = Vec::with_capacity(items.len());
    for part in run_parts(parts, |part| part.iter().map(&f).collect::<Vec<R>>()) {
        out.extend(part);
    }
    out
}

/// Runs `f` on every item of `items` in place, split over up to
/// `threads` OS threads exactly as [`par_map`] splits.
///
/// The in-place counterpart of [`par_map`] for outputs the caller
/// allocates up front — the items are typically disjoint `&mut` slices
/// of one buffer — so the spawned threads fill memory without allocating
/// any of their own.
///
/// # Panics
///
/// Panics if `threads == 0`; re-raises a panic from `f`.
pub fn par_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || items.len() < 2 {
        items.iter_mut().for_each(f);
        return;
    }
    let size = items.len().div_ceil(threads);
    run_parts(items.chunks_mut(size), |part| part.iter_mut().for_each(&f));
}

/// The one spawn/join site: runs `f` on every part, each part but the
/// last on a scoped thread and the last on the caller's, and returns the
/// per-part results in order.
fn run_parts<P, R, F>(mut parts: impl DoubleEndedIterator<Item = P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let Some(last) = parts.next_back() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts.map(|part| scope.spawn(move || f(part))).collect();
        let tail = f(last);
        let mut out = Vec::with_capacity(handles.len() + 1);
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "re-raises a worker panic, as std::thread::scope itself would"
            )]
            out.push(h.join().expect("par_map worker panicked"));
        }
        out.push(tail);
        out
    })
}

/// Computes `A·x` with `threads` OS threads, splitting rows evenly.
///
/// Falls back to the sequential kernel for a single thread or when the
/// total work `rows × cols` is below [`PAR_SPAWN_WORK`]. Bit-identical
/// to [`Matrix::matvec`] either way.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `threads == 0`.
#[must_use]
pub fn par_matvec(a: &Matrix, x: &Vector, threads: usize) -> Vector {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(x.len(), a.cols(), "par_matvec: dimension mismatch");
    let rows = a.rows();
    if !should_spawn(rows, a.cols(), threads) {
        return a.matvec(x);
    }
    let block = rows.div_ceil(threads);
    let blocks: Vec<(usize, usize)> = (0..rows)
        .step_by(block)
        .map(|lo| (lo, (lo + block).min(rows)))
        .collect();
    let parts = par_map(&blocks, threads, |&(lo, hi)| {
        a.matvec_rows(x, lo, hi).into_vec()
    });
    Vector::from(parts.concat())
}

/// Computes `A·B` with `threads` OS threads, splitting `A`'s rows evenly.
///
/// Falls back to [`Matrix::matmul`] when the work `rows × cols(A) ×
/// cols(B)` is below [`PAR_SPAWN_WORK`]; each output row is accumulated
/// exactly as there.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `threads == 0`.
#[must_use]
pub fn par_matmul(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(a.cols(), b.rows(), "par_matmul: dimension mismatch");
    let (rows, bc) = (a.rows(), b.cols());
    if !should_spawn(rows, a.cols().saturating_mul(bc), threads) {
        return a.matmul(b);
    }
    let row_ids: Vec<usize> = (0..rows).collect();
    let out_rows = par_map(&row_ids, threads, |&i| {
        let mut out_row = vec![0.0; bc];
        for (k, &a_ik) in a.row(i).iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            for (o, bval) in out_row.iter_mut().zip(b.row(k)) {
                *o += a_ik * bval;
            }
        }
        out_row
    });
    Matrix::from_flat(rows, bc, out_rows.concat())
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
    fn par_map_keeps_input_order() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 7, 64] {
            assert_eq!(par_map(&items, threads, |i| i * i + 1), expect);
        }
    }

    #[test]
    fn par_map_handles_empty_and_short_inputs() {
        let empty: [u8; 0] = [];
        assert!(par_map(&empty, 4, |&b| b).is_empty());
        assert_eq!(par_map(&[5_u8], 4, |&b| b * 2), vec![10]);
        // More threads than items: one item per part.
        assert_eq!(par_map(&[1, 2, 3], 16, |&v| v - 1), vec![0, 1, 2]);
    }

    #[test]
    fn par_map_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..10).collect();
        let ran_on = |threads| par_map(&items, threads, |_| std::thread::current().id());
        // One thread spawns nothing.
        assert!(ran_on(1).iter().all(|&id| id == caller));
        // Two threads: the first half on a scoped thread, the last part
        // on the caller's.
        let split = ran_on(2);
        assert!(split[..5].iter().all(|&id| id != caller));
        assert!(split[5..].iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked")]
    fn par_map_reraises_a_worker_panic() {
        let _ = par_map(&[0, 1, 2, 3], 2, |&v| {
            assert!(v != 0, "item 0 fails");
            v
        });
    }

    #[test]
    fn par_for_each_mut_splits_like_par_map() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3, 7, 64] {
            let mut items: Vec<(u64, Option<std::thread::ThreadId>)> =
                (0..101).map(|i| (i, None)).collect();
            par_for_each_mut(&mut items, threads, |(v, ran_on)| {
                *v = *v * *v + 1;
                *ran_on = Some(std::thread::current().id());
            });
            let expect: Vec<u64> = (0..101).map(|i| i * i + 1).collect();
            let got: Vec<u64> = items.iter().map(|&(v, _)| v).collect();
            assert_eq!(got, expect, "{threads} threads");
            // The same parts as par_map: the last on the caller's thread,
            // the ones before it elsewhere.
            let on_caller = |&(_, id): &(u64, Option<std::thread::ThreadId>)| id == Some(caller);
            let size = if threads == 1 {
                101
            } else {
                101_usize.div_ceil(threads)
            };
            let tail_start = (101 - 1) / size * size;
            assert!(items[tail_start..].iter().all(on_caller), "{threads}");
            assert!(!items[..tail_start].iter().any(on_caller), "{threads}");
        }
        let mut empty: [u8; 0] = [];
        par_for_each_mut(&mut empty, 4, |b| *b += 1);
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked")]
    fn par_for_each_mut_reraises_a_worker_panic() {
        par_for_each_mut(&mut [0, 1, 2, 3], 2, |v| {
            assert!(*v != 0, "item 0 fails");
        });
    }

    #[test]
    fn host_threads_is_positive_and_stable() {
        let threads = host_threads();
        assert!(threads >= 1);
        assert_eq!(host_threads(), threads);
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
    fn par_matvec_spawns_at_threshold_boundary() {
        // Shapes straddling the work cutoff must agree with the
        // sequential kernel bit-for-bit on both sides.
        let cols = 32;
        let rows = PAR_SPAWN_WORK / cols + 1;
        let a = random_matrix(rows, cols, 11);
        let x = Vector::from_fn(cols, |i| (i as f64).cos());
        // One row above the cutoff: spawns.
        assert!(should_spawn(rows, cols, 4));
        assert_eq!(par_matvec(&a, &x, 4), a.matvec(&x));
        // Two rows fewer, below the cutoff: sequential fallback.
        let below = a.row_block(1, rows - 1);
        assert!(!should_spawn(below.rows(), cols, 4));
        assert_eq!(par_matvec(&below, &x, 4), below.matvec(&x));
    }

    #[test]
    fn par_matvec_more_threads_than_rows() {
        let a = random_matrix(300, 8, 3);
        let x = Vector::filled(8, 0.5);
        let par = par_matvec(&a, &x, 512);
        crate::assert_slices_close(par.as_slice(), a.matvec(&x).as_slice(), 1e-12);
        // Short-wide past the cutoff: one row per thread, six threads.
        let wide = random_matrix(6, PAR_SPAWN_WORK / 4, 4);
        let x = Vector::from_fn(wide.cols(), |i| (i as f64 * 0.01).sin());
        assert!(should_spawn(6, wide.cols(), 16));
        assert_eq!(par_matvec(&wide, &x, 16), wide.matvec(&x));
    }

    #[test]
    fn par_matmul_matches_sequential() {
        let a = random_matrix(120, 40, 4);
        let b = random_matrix(40, 25, 5);
        let seq = a.matmul(&b);
        // 120 rows × 40 × 25 is past the spawn cutoff.
        assert!(should_spawn(120, 40 * 25, 2));
        for threads in [1, 2, 5] {
            assert_eq!(par_matmul(&a, &b, threads), seq);
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
