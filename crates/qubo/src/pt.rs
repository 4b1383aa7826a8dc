//! Parallel tempering (replica exchange) over QUBO problems.
//!
//! Parallel tempering runs several Metropolis chains at different inverse
//! temperatures and periodically proposes swapping the configurations of
//! neighbouring chains. Hot replicas roam the landscape; cold replicas
//! refine; exchanges let a configuration discovered while hot be polished
//! while cold. It is among the strongest general-purpose classical Ising
//! heuristics and serves here as an honest classical baseline for the
//! hybrid fabric's solver pool.
//!
//! The chains run on the flat [`CsrIsing`] representation with
//! incrementally-maintained local fields ([`LocalFieldState`]), the same
//! substrate as the SA kernels: O(1) proposals, O(degree) on accepted
//! flips. All randomness flows from one seeded [`Rng64`] consumed in a
//! fixed serial order (replica sweeps in ladder order, then swap
//! proposals), so a run is a pure function of `(problem, params, seed)` —
//! bit-identical across machines and thread counts.

use crate::csr::{CsrIsing, LocalFieldState};
use crate::model::Qubo;
use crate::solution::spins_to_bits;
use hqw_math::Rng64;

/// Parallel-tempering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtParams {
    /// Number of replicas (temperature rungs).
    pub replicas: usize,
    /// Full Metropolis sweeps per replica.
    pub sweeps: usize,
    /// Propose neighbour swaps every this many sweeps.
    pub swap_interval: usize,
    /// Hottest inverse temperature (smallest β).
    pub beta_min: f64,
    /// Coldest inverse temperature (largest β).
    pub beta_max: f64,
}

impl Default for PtParams {
    fn default() -> Self {
        PtParams {
            replicas: 8,
            sweeps: 128,
            swap_interval: 4,
            beta_min: 0.1,
            beta_max: 10.0,
        }
    }
}

impl PtParams {
    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint: zero replicas,
    /// sweeps or swap interval, or a non-positive / non-finite / inverted
    /// β range.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err("PtParams: need >= 1 replica".to_string());
        }
        if self.sweeps == 0 {
            return Err("PtParams: sweeps must be > 0".to_string());
        }
        if self.swap_interval == 0 {
            return Err("PtParams: swap_interval must be > 0".to_string());
        }
        if !(self.beta_min > 0.0 && self.beta_min.is_finite()) {
            return Err("PtParams: beta_min must be > 0".to_string());
        }
        if !(self.beta_max >= self.beta_min && self.beta_max.is_finite()) {
            return Err("PtParams: beta_max must be >= beta_min".to_string());
        }
        Ok(())
    }
}

/// Geometric β ladder: rung `r` of `n` runs at
/// `beta_min · (beta_max/beta_min)^(r/(n−1))`; a single rung runs cold.
fn beta_ladder(params: &PtParams) -> Vec<f64> {
    let n = params.replicas;
    if n == 1 {
        return vec![params.beta_max];
    }
    let ratio = (params.beta_max / params.beta_min).powf(1.0 / (n - 1) as f64);
    let mut beta = params.beta_min;
    (0..n)
        .map(|_| {
            let b = beta;
            beta *= ratio;
            b
        })
        .collect()
}

/// Runs parallel tempering from random starts, returning
/// `(best bits, best QUBO energy)`.
///
/// Deterministic for a fixed `(qubo, params, seed)` triple. The returned
/// energy is re-evaluated from the bits, so it matches
/// [`Qubo::energy`] exactly.
///
/// # Panics
/// Panics on invalid parameters.
pub fn parallel_tempering(qubo: &Qubo, params: &PtParams, seed: u64) -> (Vec<u8>, f64) {
    if let Err(e) = params.validate() {
        panic!("{e}");
    }
    let n = qubo.num_vars();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let (csr, _offset) = CsrIsing::from_qubo(qubo);
    let betas = beta_ladder(params);
    let mut rng = Rng64::new(seed);

    // Random start per replica, drawn hottest-first so the stream layout is
    // stable under ladder-size changes only at the tail.
    let mut states: Vec<LocalFieldState> = (0..params.replicas)
        .map(|_| {
            let spins: Vec<i8> = (0..n)
                .map(|_| if rng.next_bool() { 1 } else { -1 })
                .collect();
            LocalFieldState::new(&csr, spins)
        })
        .collect();

    let mut best_spins = states[0].spins().to_vec();
    let mut best_energy = states[0].energy();
    for state in &states[1..] {
        if state.energy() < best_energy {
            best_energy = state.energy();
            best_spins.copy_from_slice(state.spins());
        }
    }

    for sweep in 1..=params.sweeps {
        // Metropolis sweep per replica, ladder order.
        for (state, &beta) in states.iter_mut().zip(&betas) {
            for k in 0..n {
                let delta = state.flip_delta(k);
                if delta <= 0.0 || rng.next_f64() < (-beta * delta).exp() {
                    state.flip_with_delta(&csr, k, delta);
                }
            }
            if state.energy() < best_energy {
                best_energy = state.energy();
                best_spins.copy_from_slice(state.spins());
            }
        }
        // Neighbour exchange: swap configurations when the detailed-balance
        // criterion exp((β_i − β_j)(E_i − E_j)) accepts.
        if sweep % params.swap_interval == 0 {
            for r in 0..params.replicas.saturating_sub(1) {
                let d_beta = betas[r] - betas[r + 1];
                let d_energy = states[r].energy() - states[r + 1].energy();
                let log_accept = d_beta * d_energy;
                if log_accept >= 0.0 || rng.next_f64() < log_accept.exp() {
                    states.swap(r, r + 1);
                }
            }
        }
    }

    let bits = spins_to_bits(&best_spins);
    let energy = qubo.energy(&bits);
    (bits, energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_minimum;
    use crate::oracle::random_qubo;

    #[test]
    fn finds_optimum_on_small_problems() {
        let mut rng = Rng64::new(61);
        for trial in 0..8 {
            let q = random_qubo(12, &mut rng);
            let (_, e_best) = exhaustive_minimum(&q);
            let (_, e_pt) = parallel_tempering(&q, &PtParams::default(), 900 + trial);
            assert!(
                (e_pt - e_best).abs() < 1e-9,
                "PT missed optimum: {e_pt} vs {e_best}"
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let q = random_qubo(14, &mut Rng64::new(63));
        let a = parallel_tempering(&q, &PtParams::default(), 7);
        let b = parallel_tempering(&q, &PtParams::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_change_the_stream() {
        // Two seeds must drive different dynamics (the bits may still agree
        // on easy instances, so compare with a hard budget: one replica,
        // one sweep — essentially the random start).
        let q = random_qubo(16, &mut Rng64::new(65));
        let tight = PtParams {
            replicas: 1,
            sweeps: 1,
            ..PtParams::default()
        };
        let a = parallel_tempering(&q, &tight, 1);
        let b = parallel_tempering(&q, &tight, 2);
        assert_ne!(a.0, b.0, "different seeds produced identical bits");
    }

    #[test]
    fn reported_energy_matches_bits() {
        let q = random_qubo(16, &mut Rng64::new(67));
        let (bits, e) = parallel_tempering(&q, &PtParams::default(), 11);
        assert!((q.energy(&bits) - e).abs() < 1e-12);
    }

    #[test]
    fn single_replica_degenerates_to_cold_metropolis() {
        let q = random_qubo(10, &mut Rng64::new(69));
        let params = PtParams {
            replicas: 1,
            ..PtParams::default()
        };
        let (bits, e) = parallel_tempering(&q, &params, 13);
        assert_eq!(bits.len(), 10);
        assert!((q.energy(&bits) - e).abs() < 1e-12);
    }

    #[test]
    fn zero_size_problem_is_fine() {
        let q = Qubo::new(0);
        let (bits, e) = parallel_tempering(&q, &PtParams::default(), 17);
        assert!(bits.is_empty());
        assert_eq!(e, 0.0);
    }

    #[test]
    fn rejects_invalid_params() {
        for bad in [
            PtParams {
                replicas: 0,
                ..PtParams::default()
            },
            PtParams {
                sweeps: 0,
                ..PtParams::default()
            },
            PtParams {
                swap_interval: 0,
                ..PtParams::default()
            },
            PtParams {
                beta_min: 0.0,
                ..PtParams::default()
            },
            PtParams {
                beta_max: 0.05,
                ..PtParams::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
