//! LU factorization with partial pivoting and the solvers built on it.
//!
//! MDS decoding reduces to solving an `m × m` linear system where
//! `m ≤ n − k` (at most 10 in every configuration the paper evaluates), and
//! polynomial-code decoding interpolates through at most `a·b` points, so a
//! dense LU with partial pivoting is both sufficient and the numerically
//! appropriate tool.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;

/// An LU factorization `P·A = L·U` of a square matrix, stored compactly.
///
/// Decoders factor a generator submatrix once and then reuse it to solve
/// for every chunk of results, so the factorization is a first-class value.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row used for pivot row `i`.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot collapses below `1e-300`
    ///   (exactly singular for all practical purposes).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{n}x{n} (square)"),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivoting: pick the largest magnitude entry in the column.
            let mut pivot_row = col;
            let mut pivot_val = lu.get(col, col).abs();
            for r in col + 1..n {
                let v = lu.get(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                perm.swap(col, pivot_row);
                for c in 0..n {
                    let a = lu.get(col, c);
                    let b = lu.get(pivot_row, c);
                    lu.set(col, c, b);
                    lu.set(pivot_row, c, a);
                }
            }
            let inv_pivot = 1.0 / lu.get(col, col);
            for r in col + 1..n {
                let factor = lu.get(r, col) * inv_pivot;
                lu.set(r, col, factor);
                if factor != 0.0 {
                    for c in col + 1..n {
                        let v = lu.get(r, c) - factor * lu.get(col, c);
                        lu.set(r, c, v);
                    }
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for one right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    #[must_use]
    pub fn solve(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve: rhs length mismatch");
        let mut x = vec![0.0; n];
        // Forward substitution on permuted rhs (L has implicit unit diagonal).
        for i in 0..n {
            let mut sum = b.as_slice()[self.perm[i]];
            for (j, &xj) in x[..i].iter().enumerate() {
                sum -= self.lu.get(i, j) * xj;
            }
            x[i] = sum;
        }
        // Back substitution through U.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                sum -= self.lu.get(i, j) * xj;
            }
            x[i] = sum / self.lu.get(i, i);
        }
        Vector::from(x)
    }

    /// Solves `A·X = B` for a matrix right-hand side.
    ///
    /// Used by decoders that recover whole row-blocks of results at once:
    /// `B`'s rows are the received coded results, and each *column* of the
    /// unknown corresponds to one output column of the workload.
    ///
    /// `X` starts as `B`'s rows in pivot order and is solved in place,
    /// one row at a time over every column at once: forward substitution
    /// subtracts `L[i][j] · X[j]` from row `i` for `j < i` ascending, back
    /// substitution `U[i][j] · X[j]` for `j > i` ascending and then
    /// divides by `U[i][i]`. Each column therefore sees exactly the
    /// operations of [`Self::solve`] in the same order — a separate
    /// multiply and subtract, never a fused `mul_add` — so every column is
    /// bit-identical to solving it alone, on any host, while the inner
    /// loops run over contiguous rows and vectorize.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.dim()`.
    #[must_use]
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_matrix: rhs row mismatch");
        let cols = b.cols();
        let mut x = Vec::with_capacity(n * cols);
        for &p in &self.perm {
            x.extend_from_slice(b.row(p));
        }
        if cols == 0 {
            return Matrix::from_flat(n, 0, x);
        }
        // Forward substitution (L has an implicit unit diagonal).
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i * cols);
            let xi = &mut rest[..cols];
            for (j, xj) in solved.chunks_exact(cols).enumerate() {
                let l = self.lu.get(i, j);
                for (d, &v) in xi.iter_mut().zip(xj) {
                    *d -= l * v;
                }
            }
        }
        // Back substitution through U.
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut((i + 1) * cols);
            let xi = &mut head[i * cols..];
            for (j, xj) in solved.chunks_exact(cols).enumerate() {
                let u = self.lu.get(i, i + 1 + j);
                for (d, &v) in xi.iter_mut().zip(xj) {
                    *d -= u * v;
                }
            }
            let pivot = self.lu.get(i, i);
            for d in xi {
                *d /= pivot;
            }
        }
        Matrix::from_flat(n, cols, x)
    }

    /// Computes the inverse matrix explicitly.
    ///
    /// Only used in tests and conditioning diagnostics; solvers should use
    /// [`LuFactors::solve`] directly.
    #[must_use]
    pub fn inverse(&self) -> Matrix {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// One-shot solve of `A·x = b`.
///
/// # Errors
///
/// Propagates factorization failures ([`LinalgError::Singular`] /
/// [`LinalgError::ShapeMismatch`]).
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    Ok(LuFactors::factor(a)?.solve(b))
}

/// Estimates the 1-norm condition number `κ₁(A) = ‖A‖₁ · ‖A⁻¹‖₁`.
///
/// Computes `A⁻¹` explicitly, which is fine for the small decode systems
/// this workspace cares about. Used by the conditioning ablation bench to
/// compare Cauchy vs Vandermonde parity blocks.
///
/// # Errors
///
/// Propagates factorization failures for singular input.
pub fn condition_number_1(a: &Matrix) -> Result<f64, LinalgError> {
    let inv = LuFactors::factor(a)?.inverse();
    Ok(norm_1(a) * norm_1(&inv))
}

/// Matrix 1-norm (maximum absolute column sum).
#[must_use]
pub fn norm_1(a: &Matrix) -> f64 {
    let mut best = 0.0_f64;
    for c in 0..a.cols() {
        let mut s = 0.0;
        for r in 0..a.rows() {
            s += a.get(r, c).abs();
        }
        best = best.max(s);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_slices_close;

    #[test]
    fn solve_identity() {
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let x = solve(&Matrix::identity(3), &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b = Vector::from(vec![5.0, 10.0]);
        let x = solve(&a, &b).unwrap();
        assert_slices_close(x.as_slice(), &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        let b = Vector::from(vec![7.0, 9.0]);
        let x = solve(&a, &b).unwrap();
        assert_slices_close(x.as_slice(), &[9.0, 7.0], 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]);
        let err = LuFactors::factor(&a).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { .. }));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuFactors::factor(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solve_matrix_matches_columnwise_solves() {
        let a = Matrix::from_rows(vec![vec![4.0, 1.0], vec![2.0, 3.0]]);
        let b = Matrix::from_rows(vec![vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 4.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve_matrix(&b);
        // Verify A * X == B.
        let back = a.matmul(&x);
        assert!(back.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_matrix_is_the_columnwise_solve_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x501E);
        let mut value = || rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-2..=2));
        let same_bits = |x: &Matrix, lu: &LuFactors, b: &Matrix, label: &str| {
            for c in 0..b.cols() {
                let column = lu.solve(&Vector::from_fn(b.rows(), |r| b.get(r, c)));
                for (r, v) in column.as_slice().iter().enumerate() {
                    assert_eq!(x.get(r, c).to_bits(), v.to_bits(), "{label}: ({r}, {c})");
                }
            }
        };
        for n in 1..=12 {
            // With `pivoting`, a zero leading entry and a diagonal
            // shrunk by 1e-6 make partial pivoting swap rows.
            for pivoting in [false, true].into_iter().take(n.min(2)) {
                let a = Matrix::from_fn(n, n, |r, c| match (pivoting, r == c) {
                    (true, true) if r == 0 => 0.0,
                    (true, true) => value() * 1e-6,
                    _ => value(),
                });
                let lu = LuFactors::factor(&a).unwrap();
                let swapped = lu.perm.iter().enumerate().any(|(i, &p)| i != p);
                assert!(swapped || !pivoting, "n = {n}: no row swapped");
                for cols in [0, 1, 3, 17] {
                    let b = Matrix::from_fn(n, cols, |_, _| value());
                    let label = format!("n = {n}, pivoting = {pivoting}, {cols} columns");
                    same_bits(&lu.solve_matrix(&b), &lu, &b, &label);
                }
                // The inverse is the solve of the identity's columns.
                let label = format!("inverse, n = {n}, pivoting = {pivoting}");
                same_bits(&lu.inverse(), &lu, &Matrix::identity(n), &label);
            }
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(vec![
            vec![3.0, 1.0, 0.0],
            vec![1.0, 4.0, 1.0],
            vec![0.0, 2.0, 5.0],
        ]);
        let inv = LuFactors::factor(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn random_solve_roundtrip() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 10, 20] {
            let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
                // Diagonal dominance keeps the random matrix well conditioned.
                .also_add_diagonal(n as f64);
            let x_true = Vector::from_fn(n, |i| i as f64 - 1.5);
            let b = a.matvec(&x_true);
            let x = solve(&a, &b).unwrap();
            assert_slices_close(x.as_slice(), x_true.as_slice(), 1e-9);
        }
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        assert!((condition_number_1(&Matrix::identity(5)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_1_column_sums() {
        let a = Matrix::from_rows(vec![vec![1.0, -2.0], vec![-3.0, 1.0]]);
        assert_eq!(norm_1(&a), 4.0);
    }

    // Small test-only helper for building diagonally dominant matrices.
    trait AddDiagonal {
        fn also_add_diagonal(self, v: f64) -> Matrix;
    }
    impl AddDiagonal for Matrix {
        fn also_add_diagonal(mut self, v: f64) -> Matrix {
            let n = self.rows().min(self.cols());
            for i in 0..n {
                let cur = self.get(i, i);
                self.set(i, i, cur + v);
            }
            self
        }
    }
}
