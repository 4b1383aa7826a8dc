//! QUBO-simplifying preprocessing — the paper's §3.1 "Simplifying the QUBO
//! form" (Figure 3), i.e. the Lewis–Glover variable-fixing rules.
//!
//! A variable whose diagonal term dominates every coupling it participates in
//! has the same optimal value in *every* optimum, so it can be fixed before
//! quantum processing, halving the search space per fixed variable:
//!
//! * If `Q_ii + Σ_k min(0, Q̃_ik) ≥ 0`, the contribution of `q_i = 1` can
//!   never be negative, so some optimum has `q_i = 0` → **fix to 0**.
//! * If `Q_ii + Σ_k max(0, Q̃_ik) ≤ 0`, the contribution of `q_i = 1` can
//!   never be positive, so some optimum has `q_i = 1` → **fix to 1**.
//!
//! (`Q̃` is the symmetric coupling view; the paper's prose states the
//! positive-diagonal direction and cites Lewis & Glover \[34\] for the full
//! scheme.) Rules are applied to a fixpoint: fixing one variable folds its
//! value into its neighbors' diagonals, which can enable further fixing.
//!
//! The paper's empirical finding — reproduced by the `fig3` bench binary —
//! is that MIMO-detection QUBOs stop simplifying at all beyond ~32–40
//! variables, making the scheme unhelpful for 5G-scale problems.

use crate::model::Qubo;

/// Outcome of preprocessing a QUBO.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// The reduced problem over the surviving variables (possibly 0-sized).
    pub reduced: Qubo,
    /// For each original variable: `Some(bit)` when fixed, `None` when free.
    pub fixed: Vec<Option<u8>>,
    /// Maps reduced-problem index → original variable index.
    pub reduced_to_original: Vec<usize>,
    /// Constant energy contributed by the fixed variables:
    /// `original.energy(x) = reduced.energy(x_free) + offset` for any
    /// completion consistent with the fixed bits.
    pub offset: f64,
}

impl Preprocessed {
    /// Number of variables that were fixed.
    pub fn num_fixed(&self) -> usize {
        self.fixed.iter().filter(|f| f.is_some()).count()
    }

    /// True when at least one variable was fixed.
    pub fn simplified(&self) -> bool {
        self.num_fixed() > 0
    }

    /// Reconstructs a full assignment from a reduced-problem assignment.
    ///
    /// # Panics
    /// Panics when `reduced_bits` has the wrong length.
    pub fn reconstruct(&self, reduced_bits: &[u8]) -> Vec<u8> {
        assert_eq!(
            reduced_bits.len(),
            self.reduced_to_original.len(),
            "reconstruct: reduced state length mismatch"
        );
        let mut full: Vec<u8> = self.fixed.iter().map(|f| f.unwrap_or(0)).collect();
        for (ri, &oi) in self.reduced_to_original.iter().enumerate() {
            full[oi] = reduced_bits[ri];
        }
        full
    }
}

/// Applies the variable-fixing rules to a fixpoint.
///
/// Runs in `O(passes · n²)` for dense problems; the number of passes is at
/// most the number of variables fixed plus one.
pub fn preprocess(qubo: &Qubo) -> Preprocessed {
    let n = qubo.num_vars();
    // Working copies: effective diagonals absorb fixed neighbors; `state`
    // tracks None = free, Some(bit) = fixed.
    let mut diag: Vec<f64> = (0..n).map(|i| qubo.diagonal(i)).collect();
    let mut state: Vec<Option<u8>> = vec![None; n];
    let mut offset = 0.0;

    loop {
        let mut changed = false;
        for i in 0..n {
            if state[i].is_some() {
                continue;
            }
            let mut neg = 0.0;
            let mut pos = 0.0;
            for j in 0..n {
                if j == i || state[j].is_some() {
                    continue;
                }
                let c = qubo.get(i, j);
                if c < 0.0 {
                    neg += c;
                } else {
                    pos += c;
                }
            }
            if diag[i] + neg >= 0.0 {
                // q_i = 1 can never help: fix to 0. No diagonal updates needed
                // (a zero variable contributes nothing).
                state[i] = Some(0);
                changed = true;
            } else if diag[i] + pos <= 0.0 {
                // q_i = 1 can never hurt: fix to 1. Fold into neighbors.
                state[i] = Some(1);
                offset += diag[i];
                for j in 0..n {
                    if j != i && state[j].is_none() {
                        diag[j] += qubo.get(i, j);
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Build the reduced problem over free variables.
    let reduced_to_original: Vec<usize> = (0..n).filter(|&i| state[i].is_none()).collect();
    let m = reduced_to_original.len();
    let mut reduced = Qubo::new(m);
    for (ri, &oi) in reduced_to_original.iter().enumerate() {
        reduced.set(ri, ri, diag[oi]);
        for (rj, &oj) in reduced_to_original.iter().enumerate().skip(ri + 1) {
            let c = qubo.get(oi, oj);
            if c != 0.0 {
                reduced.set(ri, rj, c);
            }
        }
    }

    Preprocessed {
        reduced,
        fixed: state,
        reduced_to_original,
        offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_minimum;
    use crate::oracle::{random_qubo, sparse_random_qubo};
    use hqw_math::Rng64;

    #[test]
    fn dominant_positive_diagonal_fixes_to_zero() {
        // Q_00 = 5 with couplings −1, −2: 5 − 3 ≥ 0 → q0 = 0.
        let mut q = Qubo::new(3);
        q.set(0, 0, 5.0);
        q.set(0, 1, -1.0);
        q.set(0, 2, -2.0);
        q.set(1, 1, -1.0);
        q.set(2, 2, -1.0);
        let p = preprocess(&q);
        assert_eq!(p.fixed[0], Some(0));
        assert!(p.simplified());
    }

    #[test]
    fn dominant_negative_diagonal_fixes_to_one() {
        // Q_00 = −5 with couplings +1, +2: −5 + 3 ≤ 0 → q0 = 1.
        let mut q = Qubo::new(3);
        q.set(0, 0, -5.0);
        q.set(0, 1, 1.0);
        q.set(0, 2, 2.0);
        q.set(1, 1, 1.0);
        q.set(2, 2, 1.0);
        let p = preprocess(&q);
        assert_eq!(p.fixed[0], Some(1));
    }

    #[test]
    fn fixing_cascades_to_fixpoint() {
        // Chain: fixing q0=1 shifts q1's diagonal enough to fix it too.
        let mut q = Qubo::new(2);
        q.set(0, 0, -10.0);
        q.set(0, 1, 3.0); // after q0=1, q1's effective diagonal: 0.5+3 = 3.5 ≥ 0 → q1=0
        q.set(1, 1, 0.5); // not fixable on its own? 0.5 + min(0,3)=0.5 ≥ 0 → actually fixable
        let p = preprocess(&q);
        assert_eq!(p.num_fixed(), 2);
        assert_eq!(p.fixed[0], Some(1));
        assert_eq!(p.fixed[1], Some(0));
        assert_eq!(p.reduced.num_vars(), 0);
        // Offset carries the fixed energy.
        assert_eq!(p.offset, -10.0);
    }

    #[test]
    fn balanced_problem_does_not_simplify() {
        // Diagonal 1 with couplings −2: 1 − 2 < 0 and 1 + 0 > 0 → cannot fix.
        let mut q = Qubo::new(2);
        q.set(0, 0, 1.0);
        q.set(1, 1, 1.0);
        q.set(0, 1, -2.0);
        let p = preprocess(&q);
        assert!(!p.simplified());
        assert_eq!(p.reduced.num_vars(), 2);
    }

    #[test]
    fn preprocessing_preserves_the_optimum() {
        let mut rng = Rng64::new(41);
        for n in [4usize, 6, 8, 10, 12] {
            for density in [0.2, 0.6, 1.0] {
                for _ in 0..5 {
                    let q = sparse_random_qubo(n, density, &mut rng);
                    let p = preprocess(&q);
                    let (_, e_original) = exhaustive_minimum(&q);
                    let e_reduced = if p.reduced.num_vars() == 0 {
                        p.offset
                    } else {
                        let (rb, re) = exhaustive_minimum(&p.reduced);
                        // Reconstruction evaluates consistently.
                        let full = p.reconstruct(&rb);
                        assert!((q.energy(&full) - (re + p.offset)).abs() < 1e-9);
                        re + p.offset
                    };
                    assert!(
                        (e_original - e_reduced).abs() < 1e-9,
                        "optimum changed: {e_original} → {e_reduced} (n={n}, density={density})"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_random_problems_rarely_simplify_at_scale() {
        // The paper's Figure-3 cliff: with many balanced couplings, fixing
        // becomes impossible. Verify directionally on dense uniform QUBOs.
        let mut rng = Rng64::new(4242);
        let mut simplified_small = 0;
        let mut simplified_large = 0;
        for _ in 0..20 {
            if preprocess(&random_qubo(4, &mut rng)).simplified() {
                simplified_small += 1;
            }
            if preprocess(&random_qubo(48, &mut rng)).simplified() {
                simplified_large += 1;
            }
        }
        assert!(
            simplified_small > simplified_large,
            "expected small problems to simplify more often ({simplified_small} vs {simplified_large})"
        );
        assert_eq!(
            simplified_large, 0,
            "48-var dense problems should never simplify"
        );
    }

    #[test]
    fn reconstruct_rejects_wrong_length() {
        let q = Qubo::new(3);
        let p = preprocess(&q);
        let free = p.reduced.num_vars();
        let result = std::panic::catch_unwind(|| p.reconstruct(&vec![0u8; free + 1]));
        assert!(result.is_err());
    }
}
