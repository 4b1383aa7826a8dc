//! Reference solve: real LU with partial pivoting. The served detectors
//! factor once per frame and solve
//! ([`hqw_math::linalg::LuComplex`], [`hqw_math::linalg::CholeskyReal`],
//! [`hqw_math::linalg::QrReal`]); it checks them.

use hqw_math::linalg::LinalgError;
use hqw_math::{RMatrix, RVector};

/// Pivot threshold below which a pivot is treated as zero.
const PIVOT_EPS: f64 = 1e-12;

/// LU decomposition with partial pivoting of a real square matrix:
/// `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct LuReal {
    lu: RMatrix,
    perm: Vec<usize>,
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
        Ok(LuReal { lu, perm })
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
