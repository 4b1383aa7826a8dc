//! # hqw-qubo — QUBO/Ising substrate
//!
//! The paper's entire computational pipeline operates on Quadratic
//! Unconstrained Binary Optimization (QUBO) problems (its Eq. 1):
//!
//! ```text
//!   E({q₁,…,q_N}) = Σ_{i≤j} Q_ij q_i q_j ,   q_i ∈ {0, 1}
//! ```
//!
//! and on the trivially-equivalent Ising form (±1 spins) that annealing
//! hardware natively programs. This crate provides:
//!
//! * [`Qubo`] — dense upper-triangular QUBO with energy evaluation and
//!   incremental single-flip deltas ([`model`]).
//! * [`CsrIsing`] / [`LocalFieldState`] — the flat (CSR) Ising form every
//!   sweep kernel runs on, built from the QUBO with its offset, with
//!   incrementally-maintained local fields: O(1) flip proposals,
//!   O(degree) only on accepted flips ([`csr`]).
//! * [`SampleSet`] — aggregated solver output with occurrence counting
//!   ([`solution`]).
//! * [`preprocess`] — the Lewis–Glover variable-fixing scheme evaluated in
//!   the paper's §3.1 / Figure 3.
//! * [`constraints`] — the soft-information pair-constraint injection of
//!   §3.1 / Figure 4.
//! * Classical solvers: the paper's Greedy Search ([`greedy`], §4.1),
//!   tabu search ([`tabu`]), simulated annealing ([`sa`]), parallel
//!   tempering ([`pt`]) and exact solvers ([`exact`]) used for
//!   ground-truth verification.
//!
//! The adjacency-list Ising model, the random problem generators and local
//! search, which only tests and benches use, live in the dev-only
//! `hqw-oracle` crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Numeric kernels below index several arrays by one loop variable (often with
// an `i != j` guard); iterator rewrites obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod constraints;
pub mod csr;
pub mod exact;
pub mod greedy;
pub mod model;
pub mod preprocess;
pub mod pt;
pub mod sa;
pub mod solution;
pub mod tabu;

pub use csr::{CsrIsing, LocalFieldState};
pub use greedy::{greedy_search, greedy_search_csr};
pub use model::Qubo;
pub use pt::{parallel_tempering, PtParams};
pub use solution::{bits_to_spins, spins_to_bits, Sample, SampleSet};
pub use tabu::{tabu_from_random, tabu_search, TabuParams};

/// `hqw-oracle`'s generators and checks for this crate's unit tests. The
/// oracle links the library build of this crate, so to a unit test its
/// problems and sample sets are a second type: they cross over value by
/// value.
#[cfg(test)]
mod oracle {
    use crate::Qubo;
    use hqw_math::Rng64;
    use hqw_oracle::hqw_qubo as lib;

    fn from_lib(q: &lib::Qubo) -> Qubo {
        let n = q.num_vars();
        let mut own = Qubo::new(n);
        for i in 0..n {
            for j in i..n {
                own.set(i, j, q.get(i, j));
            }
        }
        own
    }

    fn to_lib(q: &Qubo) -> lib::Qubo {
        let n = q.num_vars();
        let mut copy = lib::Qubo::new(n);
        for i in 0..n {
            for j in i..n {
                copy.set(i, j, q.get(i, j));
            }
        }
        copy
    }

    pub fn random_qubo(n: usize, rng: &mut Rng64) -> Qubo {
        from_lib(&hqw_oracle::generator::random_qubo(n, rng))
    }

    pub fn sparse_random_qubo(n: usize, density: f64, rng: &mut Rng64) -> Qubo {
        from_lib(&hqw_oracle::generator::sparse_random_qubo(n, density, rng))
    }

    pub fn planted_qubo(n: usize, pairs: usize, rng: &mut Rng64) -> (Qubo, Vec<u8>) {
        let (q, planted) = hqw_oracle::generator::planted_qubo(n, pairs, rng);
        (from_lib(&q), planted)
    }

    pub fn steepest_descent(q: &Qubo, start: &[u8]) -> (Vec<u8>, f64, usize) {
        hqw_oracle::local::steepest_descent(&to_lib(q), start)
    }
}
