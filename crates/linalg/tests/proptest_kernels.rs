//! Property tests for the batch-first kernel layer: the cache-blocked,
//! unrolled multi-RHS kernels must agree with a plain naive reference
//! (serial left-to-right accumulation, no tiling) across *ragged* shapes —
//! dimensions of 1, dimensions straddling the cache-block and RHS-tile
//! boundaries, and comfortably large ones — including arbitrary row
//! sub-ranges.
//!
//! Tolerance is 1e-12 relative to the magnitude of each output element
//! (absolute below magnitude 1): the kernels reassociate the per-row sum
//! across four lanes, so exact bitwise equality with a serial fold is not
//! expected, but anything past 1e-12 would indicate a kernel indexing bug
//! rather than rounding. Against `dot_slices`, whose four-lane order the
//! kernels keep, the single-RHS product is compared bit for bit.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use s2c2_linalg::multivector::{row_block_for, RHS_TILE};
use s2c2_linalg::vector::dot_slices;
use s2c2_linalg::{Matrix, MultiVector, Vector};

/// Column counts covering degenerate (1), the dot-product quad boundary
/// (3/4/5), and sizes where `row_block_for` leaves the clamp region.
const COLS: &[usize] = &[1, 3, 4, 5, 63, 64, 65, 200];

/// RHS counts covering degenerate (1), the `RHS_TILE` boundary (tile −1,
/// tile, tile +1), both remainder paths after full tiles (2·tile +1), and
/// a larger stack.
const MEMBERS: &[usize] = &[1, 2, RHS_TILE - 1, RHS_TILE, RHS_TILE + 1, 9, 16];

/// Deterministic pseudo-random fill so a failing case reproduces from the
/// printed inputs without shipping megabytes of generated data.
fn lcg_fill(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// Serial reference: for each row and member, one plain left-to-right
/// fold. Matches the kernel's output layout (row-major, member-minor).
fn naive_multi_rows(a: &Matrix, xs: &MultiVector, begin: usize, end: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity((end - begin) * xs.count());
    for r in begin..end {
        for m in 0..xs.count() {
            let mut s = 0.0;
            for (av, xv) in a.row(r).iter().zip(xs.member(m)) {
                s += av * xv;
            }
            out.push(s);
        }
    }
    out
}

fn assert_close(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-12 * w.abs().max(1.0);
        prop_assert!(
            (g - w).abs() <= tol,
            "element {i}: kernel {g} vs naive {w} (tol {tol})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_multi_rhs_matches_naive_on_ragged_shapes(
        cols_idx in 0usize..8,
        rows_sel in 0usize..5,
        members_idx in 0usize..7,
        seed in any::<u64>(),
    ) {
        let cols = COLS[cols_idx];
        // Rows straddling the cache-block boundary for *this* column
        // count, plus degenerate and mid-block sizes.
        let block = row_block_for(cols);
        let rows = match rows_sel {
            0 => 1,
            1 => block - 1,
            2 => block,
            3 => block + 1,
            _ => 37,
        };
        let members = MEMBERS[members_idx];

        let mut next = lcg_fill(seed);
        let a = Matrix::from_fn(rows, cols, |_, _| next());
        let xs = MultiVector::from_fn(members, cols, |_, _| next());

        let got = a.matvec_multi(&xs);
        prop_assert_eq!(got.rows(), rows);
        prop_assert_eq!(got.cols(), members);
        assert_close(got.as_slice(), &naive_multi_rows(&a, &xs, 0, rows))?;
    }

    #[test]
    fn blocked_multi_rhs_row_ranges_match_naive(
        cols_idx in 0usize..8,
        members_idx in 0usize..7,
        begin in 0usize..40,
        span in 0usize..40,
        seed in any::<u64>(),
    ) {
        let cols = COLS[cols_idx];
        let members = MEMBERS[members_idx];
        let rows = 64;
        let begin = begin.min(rows);
        let end = (begin + span).min(rows);

        let mut next = lcg_fill(seed);
        let a = Matrix::from_fn(rows, cols, |_, _| next());
        let xs = MultiVector::from_fn(members, cols, |_, _| next());

        let got = a.matvec_multi_rows(&xs, begin, end);
        prop_assert_eq!(got.rows(), end - begin);
        assert_close(got.as_slice(), &naive_multi_rows(&a, &xs, begin, end))?;
    }

    #[test]
    fn single_rhs_matvec_matches_naive(
        cols_idx in 0usize..8,
        rows_sel in 0usize..5,
        seed in any::<u64>(),
    ) {
        let cols = COLS[cols_idx];
        let block = row_block_for(cols);
        let rows = match rows_sel {
            0 => 1,
            1 => block - 1,
            2 => block,
            3 => block + 1,
            _ => 29,
        };

        let mut next = lcg_fill(seed);
        let a = Matrix::from_fn(rows, cols, |_, _| next());
        let x = Vector::from_fn(cols, |_| next());

        let got = a.matvec(&x);
        let want = naive_multi_rows(&a, &MultiVector::single(&x), 0, rows);
        assert_close(got.as_slice(), &want)?;
    }

    #[test]
    fn single_rhs_rows_are_bitwise_dot_slices(
        cols in 1usize..=70,
        extra in 0usize..9,
        straddle in any::<bool>(),
        lo in 0usize..1200,
        hi in 0usize..1200,
        seed in any::<u64>(),
    ) {
        // Two full cache blocks plus a ragged tail, so ranges can cross
        // a block boundary and start or end off a multiple of four.
        let block = row_block_for(cols);
        let rows = 2 * block + extra;
        let (begin, end) = if straddle {
            // Within seven rows either side of the first block boundary.
            (block - 1 - lo % 7, block + 1 + hi % 7)
        } else {
            let (a, b) = (lo % (rows + 1), hi % (rows + 1));
            (a.min(b), a.max(b))
        };

        let mut next = lcg_fill(seed);
        let a = Matrix::from_fn(rows, cols, |_, _| next());
        let x = Vector::from_fn(cols, |_| next());

        let got = a.matvec_rows(&x, begin, end);
        prop_assert_eq!(got.len(), end - begin);
        for (i, g) in got.as_slice().iter().enumerate() {
            let r = begin + i;
            let want = dot_slices(a.row(r), x.as_slice());
            prop_assert_eq!(g.to_bits(), want.to_bits(), "row {} of [{}, {})", r, begin, end);
        }
    }
}
