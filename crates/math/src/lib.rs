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
//!   solvers/inverses, for zero-forcing, MMSE and sphere-decoder front ends.
//! * [`rng`] — deterministic, seedable xoshiro256++ RNG with uniform,
//!   Gaussian and categorical sampling. Every stochastic API in the workspace
//!   threads one of these through explicitly, so all experiments reproduce
//!   bit-exactly from a seed.
//! * [`ziggurat`] — [`Exp1`], a table-driven Exp(1) sampler that takes no
//!   logarithm; the annealers draw their gate gaps and Metropolis tests
//!   from it.
//! * [`parallel`] — the deterministic, order-preserving thread fan-out every
//!   parallel surface (SA/anneal reads, batch solves, grid sweeps) shares.
//! * [`stats`] — descriptive statistics, percentiles, histograms and the
//!   fixed-width binning used by the paper's ΔE% analyses.
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

/// Tolerance used by the workspace when comparing floating-point energies.
///
/// QUBO energies in this workspace are sums of `O(N²)` products of
/// `O(1)`-magnitude terms; `1e-9` absolute tolerance distinguishes distinct
/// discrete energy levels for every problem size used in the experiments
/// while absorbing accumulated rounding error.
pub const ENERGY_EPS: f64 = 1e-9;

/// Returns true when two energies should be considered the same level.
///
/// Uses a mixed absolute/relative criterion so that it works both near zero
/// (noiseless-instance ground energies) and for large magnitudes.
#[inline]
pub fn energy_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= ENERGY_EPS || diff <= f64::max(a.abs(), b.abs()) * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_eq_absolute_near_zero() {
        assert!(energy_eq(0.0, 1e-10));
        assert!(!energy_eq(0.0, 1e-3));
    }

    #[test]
    fn energy_eq_relative_for_large_values() {
        assert!(energy_eq(1e12, 1e12 + 0.1));
        assert!(!energy_eq(1e12, 1e12 + 1e3));
    }
}
