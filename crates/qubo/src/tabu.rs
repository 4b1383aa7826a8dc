//! Tabu search over QUBO problems.
//!
//! The paper's related-work section notes that D-Wave's commercial hybrid
//! offering combines quantum annealing with Tabu search \[1\]; this module
//! provides that classical component so the hybrid framework in `hqw-core`
//! can compose it as an initializer or a post-processor.
//!
//! The implementation is a standard single-flip tabu search: best-improving
//! move each iteration, a recency-based tabu list keyed by variable, and an
//! aspiration criterion that overrides tabu status when a move would beat
//! the incumbent.

use crate::model::Qubo;
use hqw_math::Rng64;

/// Tabu search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabuParams {
    /// Tabu tenure: number of iterations a flipped variable stays tabu.
    pub tenure: usize,
    /// Total number of move iterations.
    pub max_iters: usize,
    /// Stop early after this many non-improving iterations.
    pub stall_limit: usize,
}

impl Default for TabuParams {
    fn default() -> Self {
        TabuParams {
            tenure: 10,
            max_iters: 2000,
            stall_limit: 500,
        }
    }
}

/// Runs tabu search from `start`, returning `(best bits, best energy)`.
///
/// Deterministic given the start state (ties broken by variable index). The
/// tenure is clamped to `n − 1` so at least one move is always available.
pub fn tabu_search(qubo: &Qubo, start: &[u8], params: &TabuParams) -> (Vec<u8>, f64) {
    let n = qubo.num_vars();
    assert_eq!(start.len(), n, "tabu_search: start length mismatch");
    assert!(params.max_iters > 0, "tabu_search: max_iters must be > 0");
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let tenure = params.tenure.min(n.saturating_sub(1));

    let mut current = start.to_vec();
    let mut current_energy = qubo.energy(&current);
    let mut best = current.clone();
    let mut best_energy = current_energy;
    // tabu_until[k]: first iteration at which flipping k is allowed again.
    let mut tabu_until = vec![0usize; n];
    let mut stall = 0usize;

    for iter in 0..params.max_iters {
        let mut chosen: Option<(usize, f64)> = None;
        for k in 0..n {
            let delta = qubo.flip_delta(&current, k);
            let is_tabu = tabu_until[k] > iter;
            // Aspiration: tabu moves that beat the incumbent are allowed.
            let aspires = current_energy + delta < best_energy - 1e-12;
            if is_tabu && !aspires {
                continue;
            }
            match chosen {
                Some((_, best_delta)) if delta >= best_delta => {}
                _ => chosen = Some((k, delta)),
            }
        }
        let Some((k, delta)) = chosen else {
            break; // Everything tabu and nothing aspires (tiny n edge case).
        };
        current[k] ^= 1;
        current_energy += delta;
        tabu_until[k] = iter + 1 + tenure;

        if current_energy < best_energy - 1e-12 {
            best_energy = current_energy;
            best.copy_from_slice(&current);
            stall = 0;
        } else {
            stall += 1;
            if stall >= params.stall_limit {
                break;
            }
        }
    }
    // Re-evaluate to shed floating-point drift.
    let best_energy = qubo.energy(&best);
    (best, best_energy)
}

/// Tabu search from a uniform random start.
pub fn tabu_from_random(qubo: &Qubo, params: &TabuParams, rng: &mut Rng64) -> (Vec<u8>, f64) {
    let start: Vec<u8> = (0..qubo.num_vars())
        .map(|_| rng.next_bool() as u8)
        .collect();
    tabu_search(qubo, &start, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_minimum;
    use crate::oracle::random_qubo;
    use crate::oracle::steepest_descent;

    #[test]
    fn finds_optimum_on_small_problems() {
        let mut rng = Rng64::new(51);
        for _ in 0..8 {
            let q = random_qubo(12, &mut rng);
            let (_, e_best) = exhaustive_minimum(&q);
            let (_, e_tabu) = tabu_from_random(&q, &TabuParams::default(), &mut rng);
            assert!(
                (e_tabu - e_best).abs() < 1e-9,
                "tabu missed optimum: {e_tabu} vs {e_best}"
            );
        }
    }

    #[test]
    fn escapes_local_minima() {
        // Find an instance where steepest descent from all-zeros is stuck in
        // a non-global local minimum, then verify tabu escapes it.
        let mut rng = Rng64::new(53);
        let mut exercised = false;
        for _ in 0..40 {
            let q = random_qubo(10, &mut rng);
            let (desc_bits, desc_e, _) = steepest_descent(&q, &[0u8; 10]);
            let (_, e_best) = exhaustive_minimum(&q);
            if desc_e > e_best + 1e-9 {
                exercised = true;
                let (_, e_tabu) = tabu_search(&q, &desc_bits, &TabuParams::default());
                assert!(
                    e_tabu < desc_e - 1e-12,
                    "tabu failed to escape a local minimum"
                );
            }
        }
        assert!(
            exercised,
            "no local-minimum instance found; weaken the RNG seed"
        );
    }

    #[test]
    fn reported_energy_matches_bits() {
        let mut rng = Rng64::new(55);
        let q = random_qubo(16, &mut rng);
        let (bits, e) = tabu_from_random(&q, &TabuParams::default(), &mut rng);
        assert!((q.energy(&bits) - e).abs() < 1e-12);
    }

    #[test]
    fn deterministic_from_same_start() {
        let q = random_qubo(14, &mut Rng64::new(57));
        let start = vec![0u8; 14];
        let a = tabu_search(&q, &start, &TabuParams::default());
        let b = tabu_search(&q, &start, &TabuParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn zero_size_problem_is_fine() {
        let q = Qubo::new(0);
        let (bits, e) = tabu_search(&q, &[], &TabuParams::default());
        assert!(bits.is_empty());
        assert_eq!(e, 0.0);
    }
}
