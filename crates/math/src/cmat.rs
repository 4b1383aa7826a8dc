//! Dense complex matrices and vectors.
//!
//! Row-major storage of [`Complex64`]. `CMatrix` models the MIMO channel
//! matrix `H`; `CVector` models transmitted/received symbol vectors. The
//! [`CMatrix::to_real_stacked`] decomposition produces the real form used by
//! the ML→QUBO reduction and by the real-valued sphere decoders:
//!
//! ```text
//!   [ Re(H) -Im(H) ] [ Re(x) ]   [ Re(y) ]
//!   [ Im(H)  Re(H) ] [ Im(x) ] = [ Im(y) ]
//! ```

use crate::complex::Complex64;
use crate::rmat::{RMatrix, RVector};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense complex vector.
#[derive(Clone, PartialEq)]
pub struct CVector {
    data: Vec<Complex64>,
}

impl CVector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<Complex64>) -> Self {
        CVector { data }
    }

    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        CVector {
            data: vec![Complex64::ZERO; n],
        }
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
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Squared Euclidean norm `‖v‖²`.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Euclidean norm `‖v‖`.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn sub(&self, other: &CVector) -> CVector {
        assert_eq!(self.len(), other.len(), "sub: length mismatch");
        CVector::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        )
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn add(&self, other: &CVector) -> CVector {
        assert_eq!(self.len(), other.len(), "add: length mismatch");
        CVector::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        )
    }

    /// Stacks the vector into its real form `[Re(v); Im(v)]`.
    pub fn to_real_stacked(&self) -> RVector {
        let n = self.len();
        let mut out = RVector::zeros(2 * n);
        for i in 0..n {
            out[i] = self.data[i].re;
            out[n + i] = self.data[i].im;
        }
        out
    }

    /// Rebuilds a complex vector from its stacked real form.
    ///
    /// # Panics
    /// Panics when the length is odd.
    pub fn from_real_stacked(v: &RVector) -> CVector {
        assert!(v.len().is_multiple_of(2), "from_real_stacked: odd length");
        let n = v.len() / 2;
        CVector::from_vec((0..n).map(|i| Complex64::new(v[i], v[n + i])).collect())
    }
}

impl fmt::Debug for CVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CVector({:?})", self.data)
    }
}

impl Index<usize> for CVector {
    type Output = Complex64;
    #[inline]
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

/// A dense complex matrix in row-major order.
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "CMatrix: data length mismatch");
        CMatrix { rows, cols, data }
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        CMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Hermitian (conjugate) transpose `Hᴴ`.
    pub fn hermitian(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Panics
    /// Panics when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &CVector) -> CVector {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        let mut out = CVector::zeros(self.rows);
        for i in 0..self.rows {
            out[i] = self
                .row(i)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| *a * *b)
                .sum();
        }
        out
    }

    /// Gram matrix `Hᴴ·H` (Hermitian positive semi-definite).
    pub fn gram(&self) -> CMatrix {
        let h = self.hermitian();
        h.matmul(self)
    }

    /// Stacks the matrix into its real form:
    ///
    /// ```text
    ///   [ Re(H) -Im(H) ]
    ///   [ Im(H)  Re(H) ]
    /// ```
    ///
    /// so that `(Hx)` stacked equals `to_real_stacked() ·` (`x` stacked).
    pub fn to_real_stacked(&self) -> RMatrix {
        let (m, n) = (self.rows, self.cols);
        RMatrix::from_fn(2 * m, 2 * n, |r, c| {
            let z = self[(r % m, c % n)];
            match (r < m, c < n) {
                (true, true) => z.re,
                (true, false) => -z.im,
                (false, true) => z.im,
                (false, false) => z.re,
            }
        })
    }

    /// Maximum absolute element difference against `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &CMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn hermitian_conjugates_and_transposes() {
        let a = CMatrix::from_vec(1, 2, vec![c(1., 2.), c(3., -4.)]);
        let h = a.hermitian();
        assert_eq!(h.rows(), 2);
        assert_eq!(h[(0, 0)], c(1., -2.));
        assert_eq!(h[(1, 0)], c(3., 4.));
    }

    #[test]
    fn matvec_known_value() {
        // [1, i; -i, 2] · [1; i] = [1 + i·i; -i + 2i] = [0; i]
        let a = CMatrix::from_vec(2, 2, vec![c(1., 0.), c(0., 1.), c(0., -1.), c(2., 0.)]);
        let v = CVector::from_vec(vec![c(1., 0.), c(0., 1.)]);
        let out = a.matvec(&v);
        assert!((out[0] - c(0., 0.)).abs() < 1e-12);
        assert!((out[1] - c(0., 1.)).abs() < 1e-12);
    }

    #[test]
    fn real_stacking_commutes_with_matvec() {
        let h = CMatrix::from_vec(
            2,
            2,
            vec![c(0.3, -1.2), c(2.0, 0.7), c(-0.5, 0.1), c(1.1, 1.4)],
        );
        let x = CVector::from_vec(vec![c(1.0, -1.0), c(0.5, 2.0)]);

        let direct = h.matvec(&x).to_real_stacked();
        let stacked = h.to_real_stacked().matvec(&x.to_real_stacked());
        for i in 0..direct.len() {
            assert!((direct[i] - stacked[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn stacked_round_trip_preserves_vector() {
        let x = CVector::from_vec(vec![c(1.0, -1.0), c(0.5, 2.0), c(-3.0, 0.25)]);
        let back = CVector::from_real_stacked(&x.to_real_stacked());
        assert_eq!(back, x);
    }

    #[test]
    fn gram_is_hermitian() {
        let h = CMatrix::from_vec(
            2,
            2,
            vec![c(0.3, -1.2), c(2.0, 0.7), c(-0.5, 0.1), c(1.1, 1.4)],
        );
        let g = h.gram();
        assert!(g.max_abs_diff(&g.hermitian()) < 1e-12);
        // Diagonal of a Gram matrix is real and non-negative.
        for i in 0..2 {
            assert!(g[(i, i)].im.abs() < 1e-12);
            assert!(g[(i, i)].re >= 0.0);
        }
    }

    #[test]
    fn norms() {
        let v = CVector::from_vec(vec![c(3., 0.), c(0., 4.)]);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.norm_sqr() - 25.0).abs() < 1e-12);
    }
}
