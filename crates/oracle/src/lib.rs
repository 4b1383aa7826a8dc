//! # hqw-oracle — test oracles for the hqw workspace
//!
//! The reference models, problem generators and checks that the
//! workspace's tests and its kernel bench use, and that no served path
//! calls. Keeping them here leaves the served crates (`hqw-math`,
//! `hqw-qubo`, `hqw-phy`, `hqw-anneal`, `hqw-core`, `hqw-bench` and
//! `hqw`) holding only the code that serves; every crate takes this one as
//! a dev-dependency only, and CI checks that no normal build links it.
//!
//! Each module is named after the served module its items came from:
//!
//! * [`ising`] — the adjacency-list [`Ising`] model; [`model`] converts
//!   between it and [`hqw_qubo::Qubo`], and [`csr`] flattens it into the
//!   served [`hqw_qubo::CsrIsing`].
//! * [`generator`] — random, sparse-random and planted QUBOs.
//! * [`local`] — steepest descent.
//! * [`rmat`] / [`linalg`] — transpose, dense products and the real LU
//!   solve that check the served decompositions.
//! * [`rng`] — child generators over `Rng64`'s draws.
//! * [`energy_eq`] — the tolerance for comparing two energies.
//!
//! The unit tests of `hqw-math` and `hqw-qubo` build a second copy of
//! their crate, whose types differ from the ones this crate links; they
//! reach the oracle through the re-exports below and copy values across.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![allow(clippy::needless_range_loop)]

pub mod csr;
pub mod generator;
pub mod ising;
pub mod linalg;
pub mod local;
pub mod model;
pub mod rmat;
pub mod rng;

pub use hqw_math;
pub use hqw_qubo;
pub use ising::Ising;

/// Tolerance used when comparing floating-point energies.
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
