//! Exact QUBO solvers for ground-truth verification.
//!
//! * [`exhaustive_minimum`] — Gray-code enumeration of all `2ⁿ` states with
//!   `O(n)` incremental updates per state; practical to ~26 variables.
//! * [`branch_and_bound`] — depth-first search with an admissible bound;
//!   reaches the mid-30s of variables on MIMO-style instances, enough to
//!   cross-check the 36-variable problems of Figure 6.
//!
//! The noiseless MIMO instances of the paper have an *analytically known*
//! ground state (the transmitted symbols, §4.2), so these solvers exist to
//! validate that knowledge and to certify preprocessing/constraint
//! transformations on arbitrary instances.

use crate::model::Qubo;

/// Enumerates all `2ⁿ` assignments, returning `(argmin bits, min energy)`.
///
/// Walks states in Gray-code order so consecutive states differ by one bit,
/// updating the energy incrementally via [`Qubo::flip_delta`].
///
/// # Panics
/// Panics when `n > 26` (the enumeration would exceed ~10⁸ states) or `n == 0`.
pub fn exhaustive_minimum(qubo: &Qubo) -> (Vec<u8>, f64) {
    let n = qubo.num_vars();
    assert!(n > 0, "exhaustive_minimum: empty problem");
    assert!(
        n <= 26,
        "exhaustive_minimum: {n} variables is too large; use branch_and_bound"
    );

    let mut bits = vec![0u8; n];
    let mut energy = qubo.energy(&bits); // all-zeros energy (== 0 by Eq. 1)
    let mut best_bits = bits.clone();
    let mut best_energy = energy;

    let total: u64 = 1u64 << n;
    for counter in 1..total {
        // Bit that changes between Gray(counter-1) and Gray(counter).
        let flip = counter.trailing_zeros() as usize;
        energy += qubo.flip_delta(&bits, flip);
        bits[flip] ^= 1;
        if energy < best_energy {
            best_energy = energy;
            best_bits.copy_from_slice(&bits);
        }
    }
    (best_bits, best_energy)
}

/// Depth-first branch and bound, returning `(argmin bits, min energy)`.
///
/// Variables are assigned in descending order of "influence" (|diagonal| +
/// Σ|couplings|) and each node is pruned with an admissible lower bound:
/// the energy of the fixed part plus, for every unset variable, the most
/// optimistic contribution it could ever make (its conditional diagonal plus
/// all negative couplings to other unset variables, if setting it to 1 is
/// beneficial; zero otherwise). Negative pair terms are counted toward both
/// endpoints, which only lowers the bound, keeping it admissible.
///
/// `initial_upper_bound` lets callers seed pruning with a known-good energy
/// (e.g. from greedy search); pass `f64::INFINITY` when unknown.
pub fn branch_and_bound(qubo: &Qubo, initial_upper_bound: f64) -> (Vec<u8>, f64) {
    let n = qubo.num_vars();
    assert!(n > 0, "branch_and_bound: empty problem");

    // Assignment order: most influential variables first.
    let mut order: Vec<usize> = (0..n).collect();
    let influence: Vec<f64> = (0..n)
        .map(|i| {
            let mut s = qubo.diagonal(i).abs();
            for j in 0..n {
                if j != i {
                    s += qubo.get(i, j).abs();
                }
            }
            s
        })
        .collect();
    order.sort_by(|&a, &b| influence[b].partial_cmp(&influence[a]).unwrap());

    let mut bits = vec![0u8; n];
    let mut assigned = vec![false; n];
    let mut best_bits = vec![0u8; n];
    let mut best_energy = initial_upper_bound;
    let mut found = false;

    // If nothing beats the seed bound we still must return a valid state.
    struct Ctx<'a> {
        qubo: &'a Qubo,
        order: Vec<usize>,
        n: usize,
    }

    fn lower_bound(ctx: &Ctx, bits: &[u8], assigned: &[bool], fixed_energy: f64) -> f64 {
        let mut bound = fixed_energy;
        for i in 0..ctx.n {
            if assigned[i] {
                continue;
            }
            // Conditional diagonal: Q_ii plus couplings to fixed ones.
            let mut d = ctx.qubo.diagonal(i);
            for j in 0..ctx.n {
                if j != i && assigned[j] && bits[j] == 1 {
                    d += ctx.qubo.get(i, j);
                }
            }
            // Optimistic free-free couplings (count all negatives).
            let mut neg = 0.0;
            for j in 0..ctx.n {
                if j != i && !assigned[j] {
                    let c = ctx.qubo.get(i, j);
                    if c < 0.0 {
                        neg += c;
                    }
                }
            }
            let best_contrib = (d + neg).min(0.0);
            bound += best_contrib;
        }
        bound
    }

    #[allow(clippy::too_many_arguments)] // recursive worker: explicit state beats a context struct
    fn dfs(
        ctx: &Ctx,
        depth: usize,
        bits: &mut [u8],
        assigned: &mut [bool],
        fixed_energy: f64,
        best_bits: &mut Vec<u8>,
        best_energy: &mut f64,
        found: &mut bool,
    ) {
        if depth == ctx.n {
            if fixed_energy < *best_energy || !*found {
                *best_energy = fixed_energy;
                best_bits.copy_from_slice(bits);
                *found = true;
            }
            return;
        }
        if lower_bound(ctx, bits, assigned, fixed_energy) >= *best_energy && *found {
            return;
        }
        let var = ctx.order[depth];
        // Energy contribution of setting `var` to 1 given the fixed part.
        let mut contrib = ctx.qubo.diagonal(var);
        for j in 0..ctx.n {
            if j != var && assigned[j] && bits[j] == 1 {
                contrib += ctx.qubo.get(var, j);
            }
        }
        // Explore the more promising branch first.
        let branches: [(u8, f64); 2] = if contrib < 0.0 {
            [(1, contrib), (0, 0.0)]
        } else {
            [(0, 0.0), (1, contrib)]
        };
        for (value, delta) in branches {
            bits[var] = value;
            assigned[var] = true;
            dfs(
                ctx,
                depth + 1,
                bits,
                assigned,
                fixed_energy + delta,
                best_bits,
                best_energy,
                found,
            );
            assigned[var] = false;
            bits[var] = 0;
        }
    }

    let ctx = Ctx { qubo, order, n };
    dfs(
        &ctx,
        0,
        &mut bits,
        &mut assigned,
        0.0,
        &mut best_bits,
        &mut best_energy,
        &mut found,
    );

    if !found {
        // The seed upper bound was already optimal; fall back to the all-zero
        // state only if it matches, otherwise re-run unbounded.
        return branch_and_bound(qubo, f64::INFINITY);
    }
    (best_bits, best_energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::random_qubo;
    use hqw_math::Rng64;

    #[test]
    fn exhaustive_on_known_landscape() {
        // E = q0 − 2 q1 + 3 q0 q1: optimum (0,1) at −2.
        let mut q = Qubo::new(2);
        q.set(0, 0, 1.0);
        q.set(1, 1, -2.0);
        q.set(0, 1, 3.0);
        let (bits, e) = exhaustive_minimum(&q);
        assert_eq!(bits, vec![0, 1]);
        assert_eq!(e, -2.0);
    }

    #[test]
    fn exhaustive_handles_all_zero_problem() {
        let q = Qubo::new(4);
        let (_, e) = exhaustive_minimum(&q);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn branch_and_bound_matches_exhaustive() {
        let mut rng = Rng64::new(17);
        for n in [4usize, 8, 12, 16] {
            for _ in 0..5 {
                let q = random_qubo(n, &mut rng);
                let (_, e1) = exhaustive_minimum(&q);
                let (b2, e2) = branch_and_bound(&q, f64::INFINITY);
                assert!((e1 - e2).abs() < 1e-9, "n={n}: exhaustive {e1} vs bnb {e2}");
                assert!((q.energy(&b2) - e2).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn branch_and_bound_with_seed_bound() {
        let mut rng = Rng64::new(23);
        let q = random_qubo(12, &mut rng);
        let (_, e_true) = exhaustive_minimum(&q);
        // Seeding with the exact optimum must still return an optimal state.
        let (bits, e) = branch_and_bound(&q, e_true);
        assert!((e - e_true).abs() < 1e-9);
        assert!((q.energy(&bits) - e).abs() < 1e-9);
        // Seeding with a loose bound too.
        let (_, e2) = branch_and_bound(&q, e_true + 100.0);
        assert!((e2 - e_true).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exhaustive_rejects_oversized_problems() {
        let q = Qubo::new(27);
        let _ = exhaustive_minimum(&q);
    }
}
