//! # hqw-math — numerics substrate for the `hqw` workspace
//!
//! The offline dependency set contains no complex-number or linear-algebra
//! crates, so everything the wireless PHY and the annealer simulator need is
//! implemented here from scratch:
//!
//! * [`Complex64`] — double-precision complex numbers.
//! * [`CMatrix`] / [`CVector`] — dense complex matrices and vectors with the
//!   operations MIMO processing needs (Hermitian transpose, products, solves).
//! * [`RMatrix`] / [`RVector`] — dense real matrices and vectors.
//! * [`linalg`] — LU, Cholesky and Householder-QR decompositions with
//!   solvers, for zero-forcing, MMSE and sphere-decoder front ends.
//! * [`rng`] — deterministic, seedable xoshiro256++ RNG with uniform and
//!   Gaussian sampling. Every stochastic API in the workspace
//!   threads one of these through explicitly, so all experiments reproduce
//!   bit-exactly from a seed.
//! * [`ziggurat`] — [`Exp1`], a table-driven Exp(1) sampler that takes no
//!   logarithm; the annealers draw their gate gaps and Metropolis tests
//!   from it.
//! * [`parallel`] — the deterministic, order-preserving thread fan-out every
//!   parallel surface (SA/anneal reads, batch solves, grid sweeps) shares.
//! * [`stats`] — percentiles and the zero-safe ratio used by the paper's
//!   ΔE% analyses and the per-job report fields.
//!
//! Design goals follow the workspace guides: simplicity and robustness over
//! cleverness, no macro tricks, extensive documentation, and tests (unit +
//! property) alongside every module.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cmat;
pub mod complex;
pub mod linalg;
pub mod parallel;
pub mod rmat;
pub mod rng;
pub mod stats;
pub mod ziggurat;

pub use cmat::{CMatrix, CVector};
pub use complex::Complex64;
pub use rmat::{RMatrix, RVector};
pub use rng::Rng64;
pub use ziggurat::Exp1;

/// `hqw-oracle`'s products and solves for this crate's unit tests. The
/// oracle links the library build of this crate, so to a unit test its
/// matrices are a second type: they cross over entry by entry.
#[cfg(test)]
mod oracle {
    use crate::{RMatrix, RVector};
    use hqw_oracle::hqw_math as lib;

    fn to_lib(m: &RMatrix) -> lib::RMatrix {
        lib::RMatrix::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)])
    }

    fn from_lib(m: &lib::RMatrix) -> RMatrix {
        RMatrix::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)])
    }

    pub fn matmul(a: &RMatrix, b: &RMatrix) -> RMatrix {
        from_lib(&hqw_oracle::rmat::matmul(&to_lib(a), &to_lib(b)))
    }

    pub fn gram(a: &RMatrix) -> RMatrix {
        from_lib(&hqw_oracle::rmat::gram(&to_lib(a)))
    }

    pub fn transpose(a: &RMatrix) -> RMatrix {
        from_lib(&hqw_oracle::rmat::transpose(&to_lib(a)))
    }

    /// Solves `a · x = b` through the oracle's real LU.
    pub fn lu_solve(a: &RMatrix, b: &RVector) -> RVector {
        let b = lib::RVector::from_vec(b.as_slice().to_vec());
        let lu = hqw_oracle::linalg::LuReal::new(&to_lib(a)).unwrap();
        RVector::from_vec(lu.solve(&b).as_slice().to_vec())
    }
}
