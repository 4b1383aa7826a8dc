//! Dense real matrices and vectors.
//!
//! Row-major dense storage. These types back the real-valued decomposition of
//! the MIMO system (the ML→QUBO reduction works on the stacked real form of
//! the complex channel) and the QUBO coefficient algebra.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Sub};

/// A dense real vector.
#[derive(Clone, PartialEq)]
pub struct RVector {
    data: Vec<f64>,
}

impl RVector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        RVector { data }
    }

    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        RVector { data: vec![0.0; n] }
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Dot product `self · other`.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn dot(&self, other: &RVector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm `‖v‖₂`.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm `‖v‖₂²`.
    pub fn norm_sqr(&self) -> f64 {
        self.dot(self)
    }

    /// Returns `self + k·other`.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn axpy(&self, k: f64, other: &RVector) -> RVector {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        RVector::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + k * b)
                .collect(),
        )
    }
}

impl fmt::Debug for RVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RVector({:?})", self.data)
    }
}

impl Index<usize> for RVector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for RVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &RVector {
    type Output = RVector;
    fn add(self, rhs: &RVector) -> RVector {
        self.axpy(1.0, rhs)
    }
}

impl Sub for &RVector {
    type Output = RVector;
    fn sub(self, rhs: &RVector) -> RVector {
        self.axpy(-1.0, rhs)
    }
}

/// A dense real matrix in row-major order.
#[derive(Clone, PartialEq)]
pub struct RMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RMatrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "RMatrix: data length mismatch");
        RMatrix { rows, cols, data }
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = RMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        RMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Panics
    /// Panics when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &RVector) -> RVector {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        let mut out = RVector::zeros(self.rows);
        for i in 0..self.rows {
            out[i] = self
                .row(i)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum();
        }
        out
    }

    /// `selfᵀ · v`, without materializing the transpose.
    ///
    /// # Panics
    /// Panics when `v.len() != self.rows()`.
    pub fn tr_matvec(&self, v: &RVector) -> RVector {
        assert_eq!(self.rows, v.len(), "tr_matvec: dimension mismatch");
        let mut out = RVector::zeros(self.cols);
        for i in 0..self.rows {
            let vi = v[i];
            for j in 0..self.cols {
                out[j] += self[(i, j)] * vi;
            }
        }
        out
    }

    /// Maximum absolute element difference against `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &RMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Debug for RMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for RMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for RMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tr_matvec_matches_transpose() {
        let a = RMatrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let v = RVector::from_vec(vec![1., -1., 2.]);
        let direct = a.tr_matvec(&v);
        let via_transpose = crate::oracle::transpose(&a).matvec(&v);
        assert_eq!(direct.as_slice(), via_transpose.as_slice());
    }

    #[test]
    fn vector_ops() {
        let a = RVector::from_vec(vec![3., 4.]);
        assert_eq!(a.norm(), 5.0);
        let b = RVector::from_vec(vec![1., 1.]);
        assert_eq!(a.dot(&b), 7.0);
        assert_eq!((&a - &b).as_slice(), &[2., 3.]);
        assert_eq!(a.axpy(2.0, &b).as_slice(), &[5., 6.]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        RVector::zeros(2).dot(&RVector::zeros(3));
    }
}
