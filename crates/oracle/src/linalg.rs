//! Reference solves: real LU with partial pivoting, and the complex LU's
//! inverse. The served detectors factor once per frame and solve
//! ([`hqw_math::linalg::LuComplex`], [`hqw_math::linalg::CholeskyReal`],
//! [`hqw_math::linalg::QrReal`]); these check them.

use hqw_math::linalg::{LinalgError, LuComplex};
use hqw_math::{CMatrix, CVector, Complex64, RMatrix, RVector};

/// Pivot threshold below which a pivot is treated as zero.
const PIVOT_EPS: f64 = 1e-12;

/// LU decomposition with partial pivoting of a real square matrix:
/// `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct LuReal {
    lu: RMatrix,
    perm: Vec<usize>,
    sign: f64,
}

impl LuReal {
    /// Factorizes `a`.
    ///
    /// # Errors
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::Singular`] when a pivot underflows.
    pub fn new(a: &RMatrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for col in 0..n {
            // Partial pivoting: pick the largest remaining |entry| in the column.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in col + 1..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = lu[(col, c)];
                    lu[(col, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(col, pivot_row);
                sign = -sign;
            }
            let pivot = lu[(col, col)];
            for r in col + 1..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor;
                for c in col + 1..n {
                    let sub = factor * lu[(col, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(LuReal { lu, perm, sign })
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    /// Panics when `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &RVector) -> RVector {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "solve: dimension mismatch");
        // Apply permutation, then forward/backward substitution.
        let mut x = RVector::zeros(n);
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        for i in 0..n {
            for k in 0..i {
                let sub = self.lu[(i, k)] * x[k];
                x[i] -= sub;
            }
        }
        for i in (0..n).rev() {
            for k in i + 1..n {
                let sub = self.lu[(i, k)] * x[k];
                x[i] -= sub;
            }
            x[i] /= self.lu[(i, i)];
        }
        x
    }

    /// Computes `A⁻¹` column by column.
    pub fn inverse(&self) -> RMatrix {
        let n = self.lu.rows();
        let mut inv = RMatrix::zeros(n, n);
        for c in 0..n {
            let mut e = RVector::zeros(n);
            e[c] = 1.0;
            let x = self.solve(&e);
            for r in 0..n {
                inv[(r, c)] = x[r];
            }
        }
        inv
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        (0..n).fold(self.sign, |acc, i| acc * self.lu[(i, i)])
    }
}

/// Computes `A⁻¹` column by column from `A`'s [`LuComplex`] factors.
///
/// # Errors
/// As [`LuComplex::new`].
pub fn complex_inverse(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    let lu = LuComplex::new(a)?;
    let n = a.rows();
    let mut inv = CMatrix::zeros(n, n);
    for c in 0..n {
        let mut e = CVector::zeros(n);
        e[c] = Complex64::ONE;
        let x = lu.solve(&e);
        for r in 0..n {
            inv[(r, c)] = x[r];
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::matmul;
    use hqw_math::Rng64;

    fn random_matrix(n: usize, m: usize, rng: &mut Rng64) -> RMatrix {
        RMatrix::from_fn(n, m, |_, _| rng.next_gaussian())
    }

    #[test]
    fn lu_solves_known_system() {
        // [2 1; 1 3] x = [3; 5] → x = [0.8; 1.4]
        let a = RMatrix::from_vec(2, 2, vec![2., 1., 1., 3.]);
        let b = RVector::from_vec(vec![3., 5.]);
        let x = LuReal::new(&a).unwrap().solve(&b);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_inverse_round_trip() {
        let mut rng = Rng64::new(7);
        for n in [1usize, 2, 3, 5, 8, 13] {
            let a = random_matrix(n, n, &mut rng);
            let inv = LuReal::new(&a).unwrap().inverse();
            let prod = matmul(&a, &inv);
            assert!(
                prod.max_abs_diff(&RMatrix::identity(n)) < 1e-8,
                "A·A⁻¹ ≠ I for n={n}"
            );
        }
    }

    #[test]
    fn lu_detects_singular() {
        let a = RMatrix::from_vec(2, 2, vec![1., 2., 2., 4.]);
        assert!(matches!(LuReal::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn lu_rejects_non_square() {
        let a = RMatrix::zeros(2, 3);
        assert!(matches!(
            LuReal::new(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn lu_det_of_known_matrix() {
        let a = RMatrix::from_vec(2, 2, vec![3., 1., 4., 2.]);
        let lu = LuReal::new(&a).unwrap();
        assert!((lu.det() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn complex_lu_inverse_round_trip() {
        let mut rng = Rng64::new(11);
        for n in [1usize, 2, 4, 6] {
            let a = CMatrix::from_fn(n, n, |_, _| {
                Complex64::new(rng.next_gaussian(), rng.next_gaussian())
            });
            let inv = complex_inverse(&a).unwrap();
            let prod = a.matmul(&inv);
            assert!(
                prod.max_abs_diff(&CMatrix::identity(n)) < 1e-8,
                "A·A⁻¹ ≠ I for n={n}"
            );
        }
    }
}
