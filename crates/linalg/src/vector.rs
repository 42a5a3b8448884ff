//! Dense `f64` vector with the operations the coded-computing stack needs.

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// A dense, heap-allocated `f64` vector.
///
/// `Vector` is a thin wrapper over `Vec<f64>` adding the numerical
/// operations used by gradient descent, power iteration, and MDS decoding.
/// It deliberately keeps the representation public-ish (via `as_slice` /
/// `as_mut_slice`) so hot loops can operate on raw slices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` with every element equal to `value`.
    #[must_use]
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a vector from a generating function of the index.
    #[must_use]
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable slice view of the elements.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable slice view of the elements.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        dot_slices(&self.data, &other.data)
    }

    /// Euclidean (L2) norm.
    #[must_use]
    pub fn norm2(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Infinity norm (maximum absolute value); 0 for the empty vector.
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` primitive).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (y, x) in self.data.iter_mut().zip(other.data.iter()) {
            *y += alpha * x;
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Returns a normalized copy (unit L2 norm).
    ///
    /// Returns a zero vector unchanged (rather than dividing by zero), which
    /// is the behaviour power iteration wants when it hits a dead start.
    #[must_use]
    pub fn normalized(&self) -> Vector {
        let n = self.norm2();
        if n == 0.0 {
            self.clone()
        } else {
            let mut v = self.clone();
            v.scale(1.0 / n);
            v
        }
    }

    /// Element-wise absolute difference's maximum — convenient convergence
    /// measure for iterative workloads. NaN if any difference is NaN, so
    /// a NaN iterate never reads as converged.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "max_abs_diff: length mismatch");
        max_abs_diff_slices(&self.data, &other.data)
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

/// Largest `|a[i] − b[i]|`, NaN-propagating: `f64::max` would return
/// the non-NaN argument and hide a NaN element behind a zero error.
pub(crate) fn max_abs_diff_slices(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |m, (x, y)| {
        let d = (x - y).abs();
        if d > m || d.is_nan() {
            d
        } else {
            m
        }
    })
}

/// Dot product of two equal-length slices.
///
/// Split into a free function so the matvec kernels can call it on row
/// slices without constructing `Vector`s. Unrolled by 4 to give LLVM an
/// easy vectorization shape (see the perf-book guidance on hot loops).
#[must_use]
pub fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    s0 + s1 + s2 + s3 + tail
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        Vector::from_fn(self.len(), |i| self.data[i] + rhs.data[i])
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        Vector::from_fn(self.len(), |i| self.data[i] - rhs.data[i])
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        Vector::from_fn(self.len(), |i| self.data[i] * rhs)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::zeros(5);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_matches_manual() {
        let a = Vector::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Vector::from(vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.dot(&b), 5.0 + 8.0 + 9.0 + 8.0 + 5.0);
    }

    #[test]
    fn dot_slices_handles_tails() {
        // Lengths 0..=9 cover every unroll remainder.
        for n in 0..10usize {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5).collect();
            let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot_slices(&a, &b) - expect).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn norms() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = Vector::from(vec![1.0, 1.0]);
        let x = Vector::from(vec![2.0, 3.0]);
        y.axpy(2.0, &x);
        assert_eq!(y.as_slice(), &[5.0, 7.0]);
        y.scale(0.5);
        assert_eq!(y.as_slice(), &[2.5, 3.5]);
    }

    #[test]
    fn normalized_unit_norm() {
        let v = Vector::from(vec![3.0, 4.0]).normalized();
        assert!((v.norm2() - 1.0).abs() < 1e-12);
        // Zero vector stays zero.
        let z = Vector::zeros(3).normalized();
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn operators() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn max_abs_diff_and_sum() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![1.5, 2.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.sum(), 6.0);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let exact = Vector::from(vec![1.0, 2.0, 3.0]);
        let mid = Vector::from(vec![1.0, f64::NAN, 3.0]);
        let last = Vector::from(vec![1.0, 2.5, f64::NAN]);
        assert!(mid.max_abs_diff(&exact).is_nan());
        assert!(exact.max_abs_diff(&mid).is_nan());
        // A NaN after a larger finite difference still wins.
        assert!(last.max_abs_diff(&exact).is_nan());
        assert!(Vector::from(vec![f64::NAN; 3])
            .max_abs_diff(&exact)
            .is_nan());
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn indexing() {
        let mut v = Vector::from(vec![1.0, 2.0]);
        v[1] = 9.0;
        assert_eq!(v[1], 9.0);
    }
}
