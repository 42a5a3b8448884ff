//! Dense linear algebra substrate for the S²C² coded-computing stack.
//!
//! The coded-computing layers in this workspace (`s2c2-coding`, the S²C²
//! scheduler, and the workloads) only need a small, predictable set of dense
//! operations over `f64`:
//!
//! * a row-major [`Matrix`] with cheap row-range views (coded partitions are
//!   contiguous row blocks),
//! * matrix–vector and matrix–matrix products, both sequential and
//!   thread-parallel,
//! * an LU solver with partial pivoting (MDS decoding inverts small
//!   generator submatrices),
//! * structured matrix builders ([Cauchy](structured::cauchy) and
//!   [Vandermonde](structured::vandermonde)) used to construct MDS generator
//!   matrices and polynomial-code evaluation systems.
//!
//! Everything is implemented from scratch on `std` + `rand`; there is no
//! BLAS dependency so the workspace remains fully self-contained and
//! deterministic across platforms.
//!
//! # Example
//!
//! ```
//! use s2c2_linalg::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let x = Vector::from(vec![1.0, 1.0]);
//! let y = a.matvec(&x);
//! assert_eq!(y.as_slice(), &[3.0, 7.0]);
//! ```

#![warn(missing_docs)]
// Library code (tests excepted) does not panic; a site that provably
// cannot carries `#[expect(lint, reason = "…")]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

pub mod error;
pub mod matrix;
pub mod multivector;
pub mod parallel;
pub mod solve;
pub mod structured;
pub mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use multivector::MultiVector;
pub use solve::LuFactors;
pub use vector::Vector;

/// Tolerance used across the workspace when comparing floating point
/// results that went through an encode → compute → decode round trip.
///
/// MDS decoding solves systems of size at most `n - k` (≤ 10 in every paper
/// configuration) built from Cauchy blocks, so round-trip error stays many
/// orders of magnitude below this bound; the constant is deliberately loose
/// so tests assert *correct decoding*, not platform-specific rounding.
pub const ROUND_TRIP_TOL: f64 = 1e-6;

/// Returns `true` when `a` and `b` are within `tol` of each other in the
/// infinity norm sense, scaled by the magnitude of the values involved.
///
/// This is the comparison used by decode-correctness tests throughout the
/// workspace: absolute for small values, relative for large ones.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= tol * scale
}

/// Asserts that two slices are element-wise [`approx_eq`].
///
/// # Panics
///
/// Panics with the first offending index when the slices differ in length
/// or any element pair is further apart than `tol` (scaled).
pub fn assert_slices_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(
        a.len(),
        b.len(),
        "slice lengths differ: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            approx_eq(*x, *y, tol),
            "slices differ at index {i}: {x} vs {y} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_for_small_values() {
        assert!(approx_eq(1e-9, 0.0, 1e-8));
        assert!(!approx_eq(1e-3, 0.0, 1e-8));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-9), 1e-8));
        assert!(!approx_eq(1e12, 1.1e12, 1e-8));
    }

    #[test]
    #[should_panic(expected = "slices differ at index 1")]
    fn assert_slices_close_reports_index() {
        assert_slices_close(&[1.0, 2.0], &[1.0, 3.0], 1e-9);
    }
}
