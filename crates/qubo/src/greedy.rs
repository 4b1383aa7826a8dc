//! Greedy Search (GS) — the paper's classical module (§4.1).
//!
//! > "Initially, GS solves the QUBO with a candidate solution determined by
//! > greedy descent. The bits are sorted in ascending order by the magnitude
//! > of |½Q_ii + ¼Σ_{k<i} Q_ki + ¼Σ_{k>i} Q_ik|. The first bit is assigned
//! > q_i = 0 if the corresponding magnitude is positive and 1 otherwise.
//! > Then the procedure is iterated recursively on the remaining variables
//! > by assigning the value that minimizes the energy of the QUBO form
//! > considering only the variables that are set."
//!
//! The sort key is exactly the Ising linear field `h_i` (the paper's own
//! footnote: "sorted by the absolute magnitude of matrix's diagonal elements
//! in the Ising model"). This module implements one reading of the prose,
//! which departs from its literal wording in two places:
//!
//! * **Descending order.** The text says *ascending*, but the cited greedy
//!   descent (Venturelli & Kondratyev 2018) fixes the **largest**-magnitude
//!   field first, which is also the order that behaves like a descent.
//! * **Dynamic selection.** Rather than fixing the order once from the bare
//!   `h_i`, each step re-selects the unset variable with the strongest
//!   *effective* field (bare field plus couplings to already-set spins),
//!   matching "iterated recursively … considering only the variables that
//!   are set".
//!
//! The departure is measured, not assumed. Over 60 noiseless 8-user 16-QAM
//! instances (seed 2026), the four order/selection combinations gave these
//! seed qualities (mean ΔE_IS%, lower is better; exact rate = fraction of
//! instances where the seed is the ground state):
//!
//! | order / selection | mean ΔE_IS% | exact rate |
//! |---|---|---|
//! | descending / dynamic (kept) | 1.21 | 0.400 |
//! | descending / static | 3.82 | 0.017 |
//! | ascending / dynamic | 23.27 | 0.000 |
//! | ascending / static (literal prose) | 12.77 | 0.000 |
//!
//! Complexity: `O(n²)` for dense problems — "nearly negligible computation
//! time" as the paper requires of its classical stage.

use crate::csr::CsrIsing;
use crate::model::Qubo;

/// Runs Greedy Search on a QUBO, returning `(bits, energy)`: a wrapper
/// over [`greedy_search_csr`] on the QUBO's CSR.
///
/// Deterministic: ties in field magnitude are broken by variable index, and
/// a zero effective field assigns `q = 1` (spin up), matching the paper's
/// "0 if the corresponding \[field\] is positive and 1 otherwise".
///
/// # Panics
/// Panics when a linear field is NaN.
pub fn greedy_search(qubo: &Qubo) -> (Vec<u8>, f64) {
    let (csr, _offset) = CsrIsing::from_qubo(qubo);
    greedy_search_csr(qubo, &csr)
}

/// Greedy Search on `qubo` read from `csr`, its Ising form as
/// [`CsrIsing::from_qubo`] builds it (not rescaled), returning
/// `(bits, energy)`; a caller that already holds the CSR builds none.
///
/// # Panics
/// Panics when a linear field is NaN, or `csr` is not `qubo`'s size.
pub fn greedy_search_csr(qubo: &Qubo, csr: &CsrIsing) -> (Vec<u8>, f64) {
    assert_eq!(csr.num_vars(), qubo.num_vars(), "greedy: size mismatch");
    let bits = greedy_bits(csr);
    let energy = qubo.energy(&bits);
    (bits, energy)
}

/// Greedy Search on the Ising form, returning bits (`q = 1` for `s = +1`).
fn greedy_bits(csr: &CsrIsing) -> Vec<u8> {
    /// A variable not yet assigned.
    const UNSET: u8 = 2;
    let n = csr.num_vars();
    let mut bits = vec![UNSET; n];

    // Effective field of each unset variable, updated as spins are fixed.
    let mut field: Vec<f64> = csr.h_slice().to_vec();
    assert!(!field.iter().any(|f| f.is_nan()), "greedy: NaN field");

    for _ in 0..n {
        // Pick the unset variable with the largest |effective field|; ties
        // go to the lowest index. The choice is a select, not a branch:
        // which variable wins varies from problem to problem.
        let mut k = usize::MAX;
        let mut best_mag = f64::NEG_INFINITY;
        for (i, (&bit, &f)) in bits.iter().zip(&field).enumerate() {
            let mag = f.abs();
            let take = (bit == UNSET) & ((mag > best_mag) | (k == usize::MAX));
            k = if take { i } else { k };
            best_mag = if take { mag } else { best_mag };
        }

        // Assign the value minimizing the energy contribution f_k · s_k:
        // s_k = −sign(f_k), with the zero-field tie going to +1 (q = 1).
        let s = if field[k] > 0.0 { -1.0 } else { 1.0 };
        bits[k] = u8::from(s > 0.0);

        // Fold the fixed spin into its neighbors' effective fields. A set
        // variable's field is never read again, so it is updated too.
        let (cols, ws) = csr.row(k);
        for (&j, &jij) in cols.iter().zip(ws) {
            field[j as usize] += jij * s;
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_minimum;
    use crate::oracle::random_qubo;
    use hqw_math::Rng64;

    #[test]
    fn solves_separable_problem_exactly() {
        // E = −q0 + 2 q1 − 3 q2: optimum is q = (1, 0, 1), E = −4.
        let mut q = Qubo::new(3);
        q.set(0, 0, -1.0);
        q.set(1, 1, 2.0);
        q.set(2, 2, -3.0);
        let (bits, e) = greedy_search(&q);
        assert_eq!(bits, vec![1, 0, 1]);
        assert_eq!(e, -4.0);
    }

    #[test]
    fn respects_couplings_once_first_bit_fixed() {
        // Strong diagonal on q0 forces q0 = 1 first; then the coupling
        // +10·q0·q1 makes q1 = 0 optimal despite its negative diagonal.
        let mut q = Qubo::new(2);
        q.set(0, 0, -8.0);
        q.set(1, 1, -1.0);
        q.set(0, 1, 10.0);
        let (bits, e) = greedy_search(&q);
        assert_eq!(bits, vec![1, 0]);
        assert_eq!(e, -8.0);
    }

    #[test]
    fn zero_field_assigns_one() {
        let q = Qubo::new(2); // all-zero problem: every field is 0
        let (bits, _) = greedy_search(&q);
        assert_eq!(bits, vec![1, 1]);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut rng = Rng64::new(99);
        let q = random_qubo(12, &mut rng);
        let a = greedy_search(&q);
        let b = greedy_search(&q);
        assert_eq!(a, b);
    }

    #[test]
    fn energy_matches_reported_bits() {
        let mut rng = Rng64::new(7);
        for _ in 0..10 {
            let q = random_qubo(10, &mut rng);
            let (bits, e) = greedy_search(&q);
            assert!((q.energy(&bits) - e).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_is_no_worse_than_median_random_state() {
        // GS should comfortably beat the average random assignment. This is a
        // statistical sanity check on 16-variable random QUBOs.
        let mut rng = Rng64::new(21);
        let mut wins = 0;
        let trials = 20;
        for _ in 0..trials {
            let q = random_qubo(16, &mut rng);
            let (_, e_greedy) = greedy_search(&q);
            let mut rand_mean = 0.0;
            let reads = 64;
            for _ in 0..reads {
                let bits: Vec<u8> = (0..16).map(|_| rng.next_bool() as u8).collect();
                rand_mean += q.energy(&bits);
            }
            rand_mean /= reads as f64;
            if e_greedy <= rand_mean {
                wins += 1;
            }
        }
        assert!(
            wins >= trials - 1,
            "greedy lost to random mean too often: {wins}/{trials}"
        );
    }

    #[test]
    fn dynamic_descending_finds_optimum_on_small_instances_often() {
        // On 8-variable random problems, dynamic/descending GS should find
        // the exact optimum for a clear majority of instances ("a good
        // initial guess", per the paper, though "often not the global
        // optimum").
        let mut rng = Rng64::new(3);
        let mut hits = 0;
        let trials = 30;
        for _ in 0..trials {
            let q = random_qubo(8, &mut rng);
            let (_, e_greedy) = greedy_search(&q);
            let (_, e_best) = exhaustive_minimum(&q);
            if (e_greedy - e_best).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(
            hits * 2 > trials,
            "greedy optimum rate too low: {hits}/{trials}"
        );
    }
}
