//! Random problem generators for tests and benches.
//!
//! The *evaluation* instances of the paper come from the MIMO reduction in
//! `hqw-phy`; the generators here produce structure-free problems used to
//! exercise solvers, preprocessing and the annealing engines in isolation.

use crate::ising::Ising;
use crate::model::from_ising_with_constant;
use hqw_math::Rng64;
use hqw_qubo::Qubo;

/// Dense random QUBO with i.i.d. uniform coefficients in `[-1, 1]`.
pub fn random_qubo(n: usize, rng: &mut Rng64) -> Qubo {
    let mut q = Qubo::new(n);
    for i in 0..n {
        for j in i..n {
            q.set(i, j, rng.next_range(-1.0, 1.0));
        }
    }
    q
}

/// Dense random QUBO with the given edge density in `(0, 1]` (diagonal terms
/// are always present).
pub fn sparse_random_qubo(n: usize, density: f64, rng: &mut Rng64) -> Qubo {
    assert!(
        (0.0..=1.0).contains(&density),
        "sparse_random_qubo: density out of range"
    );
    let mut q = Qubo::new(n);
    for i in 0..n {
        q.set(i, i, rng.next_range(-1.0, 1.0));
        for j in i + 1..n {
            if rng.next_f64() < density {
                q.set(i, j, rng.next_range(-1.0, 1.0));
            }
        }
    }
    q
}

/// QUBO with a *planted* optimum: the returned `bits` are guaranteed to be a
/// global minimizer with energy `-(weight sum)`.
///
/// Construction: for each chosen pair, add a ferromagnetic-in-disguise term
/// that is minimized exactly when both variables match the planted values.
/// Used to validate samplers on instances with a known answer at sizes where
/// enumeration is impossible.
///
/// # Panics
/// Panics when `n == 0`, or when `pairs > 0` and `n < 2` (no two distinct
/// variables to couple).
pub fn planted_qubo(n: usize, pairs: usize, rng: &mut Rng64) -> (Qubo, Vec<u8>) {
    assert!(n > 0, "planted_qubo: need at least one variable");
    assert!(
        pairs == 0 || n >= 2,
        "planted_qubo: {pairs} coupled pairs need at least two variables, got n = {n}"
    );
    let planted: Vec<u8> = (0..n).map(|_| rng.next_bool() as u8).collect();
    let mut ising = Ising::new(n);
    for _ in 0..pairs {
        let i = rng.next_index(n);
        let mut j = rng.next_index(n);
        while j == i {
            j = rng.next_index(n);
        }
        let w = rng.next_range(0.1, 1.0);
        // Energy term −w·s_i s_j σ_i σ_j where σ are the planted spins:
        // minimized when s matches the planted correlation.
        let si = if planted[i] == 1 { 1.0 } else { -1.0 };
        let sj = if planted[j] == 1 { 1.0 } else { -1.0 };
        ising.add_coupling(i, j, -w * si * sj);
    }
    // Tie-break the global Z2 symmetry with a weak field on variable 0 so the
    // planted state is the unique optimum (up to degenerate zero-weight vars).
    let s0 = if planted[0] == 1 { 1.0 } else { -1.0 };
    ising.add_h(0, -0.05 * s0);

    let (qubo, _constant) = from_ising_with_constant(&ising, 0.0);
    (qubo, planted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_qubo::exact::exhaustive_minimum;

    #[test]
    fn random_qubo_is_deterministic_per_seed() {
        let a = random_qubo(10, &mut Rng64::new(5));
        let b = random_qubo(10, &mut Rng64::new(5));
        for i in 0..10 {
            for j in i..10 {
                assert_eq!(a.get(i, j), b.get(i, j));
            }
        }
    }

    #[test]
    fn sparse_density_zero_is_diagonal_only() {
        let q = sparse_random_qubo(8, 0.0, &mut Rng64::new(1));
        for i in 0..8 {
            for j in i + 1..8 {
                assert_eq!(q.get(i, j), 0.0);
            }
        }
        assert!(q.nonzero_count() <= 8);
    }

    #[test]
    fn planted_single_variable_has_only_the_tie_break() {
        let (q, planted) = planted_qubo(1, 0, &mut Rng64::new(4));
        assert_eq!(q.num_vars(), 1);
        assert_eq!(exhaustive_minimum(&q).0, planted);
    }

    #[test]
    #[should_panic(expected = "need at least two variables")]
    fn planted_pairs_on_one_variable_are_rejected() {
        // Used to loop forever drawing a partner `j != i` from one index.
        planted_qubo(1, 1, &mut Rng64::new(5));
    }

    #[test]
    fn planted_repeated_pairs_accumulate_in_place() {
        // Three variables and many pairs: every pair repeats, so each
        // repeat updates its existing edge instead of adding one.
        let (q, planted) = planted_qubo(3, 40, &mut Rng64::new(6));
        assert_eq!(q.nonzero_count(), 6);
        assert_eq!(exhaustive_minimum(&q).0, planted);
    }

    #[test]
    fn planted_state_is_global_minimum() {
        let mut rng = Rng64::new(11);
        for _ in 0..5 {
            let (q, planted) = planted_qubo(10, 25, &mut rng);
            let (_, e_best) = exhaustive_minimum(&q);
            let e_planted = q.energy(&planted);
            assert!(
                (e_planted - e_best).abs() < 1e-9,
                "planted {e_planted} vs best {e_best}"
            );
        }
    }
}
