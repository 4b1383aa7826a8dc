//! Dense decompositions and linear solvers.
//!
//! Implements the three factorizations the workspace needs:
//!
//! * [`LuComplex`] — LU with partial pivoting; backs the zero-forcing and
//!   MMSE detectors' solves.
//! * [`CholeskyReal`] — for symmetric positive-definite systems (MMSE normal
//!   equations in the real domain).
//! * [`QrReal`] — Householder QR; backs the sphere-decoder family, which
//!   searches over the upper-triangular factor `R`.
//!
//! All routines are `O(n³)` dense algorithms written for clarity and
//! robustness on the problem sizes of this workspace (MIMO dimensions ≤ ~128
//! after real stacking), not for BLAS-level throughput.

use crate::cmat::{CMatrix, CVector};
use crate::rmat::{RMatrix, RVector};

/// Error type for decomposition failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically singular) at the given pivot.
    Singular {
        /// Pivot index where elimination broke down.
        pivot: usize,
    },
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite {
        /// Column index where the failure was detected.
        column: usize,
    },
    /// The input matrix is not square but the operation requires it.
    NotSquare {
        /// Observed number of rows.
        rows: usize,
        /// Observed number of columns.
        cols: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { column } => {
                write!(f, "matrix is not positive definite at column {column}")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, expected square")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Pivot threshold below which a pivot is treated as zero.
const PIVOT_EPS: f64 = 1e-12;

// ---------------------------------------------------------------------------
// Complex LU
// ---------------------------------------------------------------------------

/// LU decomposition with partial pivoting of a complex square matrix.
#[derive(Debug, Clone)]
pub struct LuComplex {
    lu: CMatrix,
    perm: Vec<usize>,
}

impl LuComplex {
    /// Factorizes `a`.
    ///
    /// # Errors
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::Singular`] when a pivot underflows.
    pub fn new(a: &CMatrix) -> Result<Self, LinalgError> {
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
        Ok(LuComplex { lu, perm })
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    /// Panics when `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &CVector) -> CVector {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "solve: dimension mismatch");
        let mut x = CVector::zeros(n);
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
            x[i] = x[i] / self.lu[(i, i)];
        }
        x
    }
}

// ---------------------------------------------------------------------------
// Real Cholesky
// ---------------------------------------------------------------------------

/// Cholesky decomposition `A = L·Lᵀ` of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct CholeskyReal {
    l: RMatrix,
}

impl CholeskyReal {
    /// Factorizes `a`. Only the lower triangle of `a` is read.
    ///
    /// # Errors
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::NotPositiveDefinite`] when a diagonal term is ≤ 0.
    pub fn new(a: &RMatrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = RMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { column: j });
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        Ok(CholeskyReal { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &RMatrix {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Panics
    /// Panics when `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &RVector) -> RVector {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "solve: dimension mismatch");
        // L·y = b
        let mut y = RVector::zeros(n);
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Lᵀ·x = y
        let mut x = RVector::zeros(n);
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in i + 1..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }
}

// ---------------------------------------------------------------------------
// Real QR (Householder)
// ---------------------------------------------------------------------------

/// Householder QR decomposition `A = Q·R` of a real `m × n` matrix (`m ≥ n`).
///
/// `Q` is `m × n` with orthonormal columns (thin QR) and `R` is `n × n`
/// upper-triangular with non-negative diagonal. Sphere decoders consume `R`
/// and `Qᵀ·y`.
#[derive(Debug, Clone)]
pub struct QrReal {
    q: RMatrix,
    r: RMatrix,
}

impl QrReal {
    /// Factorizes `a` (requires `rows ≥ cols`).
    ///
    /// # Panics
    /// Panics when `rows < cols`.
    pub fn new(a: &RMatrix) -> Self {
        let (m, n) = (a.rows(), a.cols());
        assert!(m >= n, "QrReal: requires rows >= cols, got {m}x{n}");

        // Work on a full copy; accumulate Q as a product of reflectors applied
        // to the identity.
        let mut r = a.clone();
        let mut q_full = RMatrix::identity(m);

        for k in 0..n {
            // Householder vector for column k below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < PIVOT_EPS {
                continue; // Column already zero below diagonal.
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m - k];
            v[0] = r[(k, k)] - alpha;
            for i in k + 1..m {
                v[i - k] = r[(i, k)];
            }
            let vnorm_sqr: f64 = v.iter().map(|x| x * x).sum();
            if vnorm_sqr < PIVOT_EPS * PIVOT_EPS {
                continue;
            }

            // Apply reflector H = I - 2vvᵀ/(vᵀv) to R (columns k..n).
            for c in k..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i - k] * r[(i, c)];
                }
                let scale = 2.0 * dot / vnorm_sqr;
                for i in k..m {
                    r[(i, c)] -= scale * v[i - k];
                }
            }
            // Apply H to Q_full from the right: Q ← Q·H.
            for row in 0..m {
                let mut dot = 0.0;
                for i in k..m {
                    dot += q_full[(row, i)] * v[i - k];
                }
                let scale = 2.0 * dot / vnorm_sqr;
                for i in k..m {
                    q_full[(row, i)] -= scale * v[i - k];
                }
            }
        }

        // Normalize signs so that R has a non-negative diagonal; thin factors.
        let mut q = RMatrix::zeros(m, n);
        let mut r_thin = RMatrix::zeros(n, n);
        for j in 0..n {
            let sign = if r[(j, j)] < 0.0 { -1.0 } else { 1.0 };
            for c in j..n {
                r_thin[(j, c)] = sign * r[(j, c)];
            }
            for i in 0..m {
                q[(i, j)] = sign * q_full[(i, j)];
            }
        }
        QrReal { q, r: r_thin }
    }

    /// The thin orthonormal factor `Q` (`m × n`).
    pub fn q(&self) -> &RMatrix {
        &self.q
    }

    /// The upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> &RMatrix {
        &self.r
    }

    /// Computes `Qᵀ·y`, the rotated observation used by sphere decoders.
    ///
    /// # Panics
    /// Panics when `y.len() != rows`.
    pub fn qt_y(&self, y: &RVector) -> RVector {
        self.q.tr_matvec(y)
    }

    /// Solves the least-squares problem `min ‖A·x − y‖` via `R·x = Qᵀ·y`.
    ///
    /// # Panics
    /// Panics when `y.len() != rows` or when `R` has a zero diagonal entry
    /// (rank-deficient input).
    pub fn solve_least_squares(&self, y: &RVector) -> RVector {
        let n = self.r.rows();
        let rhs = self.qt_y(y);
        let mut x = RVector::zeros(n);
        for i in (0..n).rev() {
            let mut s = rhs[i];
            for k in i + 1..n {
                s -= self.r[(i, k)] * x[k];
            }
            let d = self.r[(i, i)];
            assert!(
                d.abs() > PIVOT_EPS,
                "solve_least_squares: rank-deficient R at {i}"
            );
            x[i] = s / d;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{gram, lu_solve, matmul, transpose};
    use crate::rng::Rng64;

    fn random_matrix(n: usize, m: usize, rng: &mut Rng64) -> RMatrix {
        RMatrix::from_fn(n, m, |_, _| rng.next_gaussian())
    }

    #[test]
    fn cholesky_reconstructs() {
        let mut rng = Rng64::new(3);
        for n in [1usize, 2, 4, 7] {
            // Build an SPD matrix as BᵀB + I.
            let b = random_matrix(n + 2, n, &mut rng);
            let mut a = gram(&b);
            for i in 0..n {
                a[(i, i)] += 1.0;
            }
            let ch = CholeskyReal::new(&a).unwrap();
            let recon = matmul(ch.l(), &transpose(ch.l()));
            assert!(recon.max_abs_diff(&a) < 1e-9, "LLᵀ ≠ A for n={n}");

            // And the solver matches LU.
            let rhs = RVector::from_vec((0..n).map(|i| i as f64 - 1.5).collect());
            let x1 = ch.solve(&rhs);
            let x2 = lu_solve(&a, &rhs);
            for i in 0..n {
                assert!((x1[i] - x2[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = RMatrix::from_vec(2, 2, vec![1., 2., 2., 1.]); // eigenvalues 3, -1
        assert!(matches!(
            CholeskyReal::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn qr_reconstructs_and_is_orthonormal() {
        let mut rng = Rng64::new(5);
        for (m, n) in [(3usize, 3usize), (5, 3), (8, 8), (10, 4)] {
            let a = random_matrix(m, n, &mut rng);
            let qr = QrReal::new(&a);
            // QᵀQ = I
            let qtq = gram(qr.q());
            assert!(
                qtq.max_abs_diff(&RMatrix::identity(n)) < 1e-9,
                "QᵀQ ≠ I for {m}x{n}"
            );
            // QR = A
            let recon = matmul(qr.q(), qr.r());
            assert!(recon.max_abs_diff(&a) < 1e-9, "QR ≠ A for {m}x{n}");
            // R upper-triangular, non-negative diagonal.
            for i in 0..n {
                assert!(qr.r()[(i, i)] >= 0.0);
                for j in 0..i {
                    assert!(qr.r()[(i, j)].abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn qr_least_squares_matches_normal_equations() {
        let mut rng = Rng64::new(9);
        let a = random_matrix(7, 3, &mut rng);
        let y = RVector::from_vec((0..7).map(|i| (i as f64).sin()).collect());
        let x_qr = QrReal::new(&a).solve_least_squares(&y);

        // Normal equations: (AᵀA)x = Aᵀy
        let x_ne = lu_solve(&gram(&a), &a.tr_matvec(&y));
        for i in 0..3 {
            assert!((x_qr[i] - x_ne[i]).abs() < 1e-8);
        }
    }
}
