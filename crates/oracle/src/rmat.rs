//! Dense real matrix products: references for the decompositions'
//! reconstructions and for the ML reduction's dense derivation.

use hqw_math::RMatrix;

/// Transpose `aᵀ`.
pub fn transpose(a: &RMatrix) -> RMatrix {
    RMatrix::from_fn(a.cols(), a.rows(), |r, c| a[(c, r)])
}

/// Matrix product `a · b`.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &RMatrix, b: &RMatrix) -> RMatrix {
    assert_eq!(a.cols(), b.rows(), "matmul: dimension mismatch");
    let mut out = RMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a[(i, k)];
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += aik * b[(k, j)];
            }
        }
    }
    out
}

/// Gram matrix `aᵀ · a` (symmetric positive semi-definite).
pub fn gram(a: &RMatrix) -> RMatrix {
    let cols = a.cols();
    let mut out = RMatrix::zeros(cols, cols);
    for i in 0..cols {
        for j in i..cols {
            let mut s = 0.0;
            for k in 0..a.rows() {
                s += a[(k, i)] * a[(k, j)];
            }
            out[(i, j)] = s;
            out[(j, i)] = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = RMatrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let i2 = RMatrix::identity(2);
        let i3 = RMatrix::identity(3);
        assert_eq!(matmul(&i2, &a), a);
        assert_eq!(matmul(&a, &i3), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = RMatrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = RMatrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = RMatrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = gram(&a);
        let explicit = matmul(&transpose(&a), &a);
        assert!(g.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul: dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = RMatrix::zeros(2, 3);
        let b = RMatrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn transpose_involution() {
        let a = RMatrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(transpose(&transpose(&a)), a);
    }
}
