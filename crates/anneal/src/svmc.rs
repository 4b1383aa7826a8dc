//! Spin-vector Monte Carlo (SVMC) — the semi-classical annealer model.
//!
//! Each qubit is an O(2) rotor, a unit vector in the x-z plane at angle
//! `θ_i ∈ [0, π]` (θ = 0 ↦ spin +1, θ = π ↦ spin −1, θ = π/2 ↦ fully
//! "quantum" x-alignment). The classical energy mirrors the transverse-field
//! Hamiltonian with operators replaced by their expectation on product
//! states (Shin-Smith-Smolin-Vazirani):
//!
//! ```text
//!   E(θ) = −A(s)/2 Σ_i sin θ_i + B(s)/2 ( Σ_i h_i cos θ_i + Σ_{ij} J_ij cos θ_i cos θ_j )
//! ```
//!
//! Metropolis dynamics on the angles at the device temperature. SVMC
//! reproduces much of D-Wave's *incoherent* behaviour (thermal hopping over
//! mean-field barriers) while PIMC additionally captures imaginary-time
//! tunneling — the two together bound what the hardware does, which is why
//! the ablation bench runs both engines on the same workload.
//!
//! Reverse annealing initializes the rotors at the programmed classical
//! poles; readout is `sign(cos θ)`.
//!
//! Gate-first lazy chain: each move draws its proposed angle, then its
//! acceptance uniform `u`, and rejects on `u ≥ gate` (the freeze-out gate
//! of [`crate::engine::FreezeOut`]) before it calls `cos`/`sin` or reads
//! the mean field. This is bit-identical to computing Δ before the draw:
//! the RNG stream is unchanged (the same two draws per rotor, in the same
//! order), and in IEEE arithmetic `gate·e^{−βΔ} ≤ gate`, so every `u`
//! rejected early would have been rejected anyway.

use crate::dwave::DWaveProfile;
use crate::engine::{resolve_initial, AnnealEngine, AnnealParams};
use crate::schedule::AnnealSchedule;
use hqw_math::Rng64;
use hqw_qubo::{CsrIsing, Ising};

/// Rebuild the cached mean fields from scratch every this many sweeps: the
/// incremental updates accumulate float rounding (cos values are not exactly
/// representable), and a periodic refresh bounds the drift without touching
/// the per-proposal O(1) cost.
const FIELD_REFRESH_SWEEPS: usize = 64;

/// Spin-vector Monte Carlo engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvmcEngine;

impl AnnealEngine for SvmcEngine {
    fn name(&self) -> &'static str {
        "SVMC"
    }

    fn run(
        &self,
        problem: &Ising,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
        initial: Option<&[i8]>,
        rng: &mut Rng64,
    ) -> Vec<i8> {
        let csr = CsrIsing::from_ising(problem);
        let n = csr.num_vars();
        if n == 0 {
            return Vec::new();
        }
        let init = resolve_initial(schedule, n, initial);
        anneal(&csr, profile, schedule, params, init, rng)
    }
}

/// Initial rotor angles for a schedule.
fn initial_theta(init: &Option<Vec<i8>>, n: usize) -> Vec<f64> {
    match init {
        Some(state) => state
            .iter()
            .map(|&s| if s > 0 { 0.0 } else { std::f64::consts::PI })
            .collect(),
        // Forward start: transverse field dominates ⇒ x-aligned rotors.
        None => vec![std::f64::consts::FRAC_PI_2; n],
    }
}

/// The sweep loop: f64 fields, one proposal and one acceptance draw per
/// rotor. The `sin θ` cache and the run-AXPY neighbor update replay the
/// identical float stream as the historical code (same inputs, same op
/// order) — both are golden-pinned.
fn anneal(
    csr: &CsrIsing,
    profile: &DWaveProfile,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    init: Option<Vec<i8>>,
    rng: &mut Rng64,
) -> Vec<i8> {
    let n = csr.num_vars();
    let beta = params.beta(profile);

    // Rotor angles plus cached cos/sin (cosines enter neighbors' fields;
    // sines enter only the rotor's own transverse term).
    let theta: Vec<f64> = initial_theta(&init, n);
    let mut cos_t: Vec<f64> = theta.iter().map(|t| t.cos()).collect();
    let mut sin_t: Vec<f64> = theta.iter().map(|t| t.sin()).collect();
    drop(theta);

    // Incrementally-maintained mean fields in cos-space:
    // field[i] = h_i + Σ_j J_ij cos θ_j. A proposal reads its field in
    // O(1); only accepted rotations pay an O(degree) neighbor update.
    let rebuild = |cos_t: &[f64], field: &mut [f64]| {
        for (i, slot) in field.iter_mut().enumerate() {
            let (cols, ws) = csr.row(i);
            let mut f = csr.h(i);
            for (&j, &w) in cols.iter().zip(ws) {
                f += w * cos_t[j as usize];
            }
            *slot = f;
        }
    };
    let mut field: Vec<f64> = vec![0.0; n];
    rebuild(&cos_t, &mut field);

    let total_sweeps = params.total_sweeps(schedule);
    let duration = schedule.duration_us();

    for sweep in 0..total_sweeps {
        let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
        let s = schedule.s_at(t);
        let a_half = profile.a_ghz(s) / 2.0;
        let b_half = profile.b_ghz(s) / 2.0;
        let gate = params.gate(profile.a_ghz(s));
        if gate <= 0.0 {
            continue; // fully frozen
        }
        if sweep > 0 && sweep % FIELD_REFRESH_SWEEPS == 0 {
            rebuild(&cos_t, &mut field);
        }

        for i in 0..n {
            // Propose a fresh angle uniformly in [0, π], then run the
            // lazy-chain acceptance gate first (see the module docs).
            let proposal = rng.next_range(0.0, std::f64::consts::PI);
            let u = rng.next_f64();
            if u >= gate {
                continue;
            }
            // cos/sin are deterministic on a given input, so computing them
            // once and reusing on accept is bit-identical to recomputing.
            let p_cos = proposal.cos();
            let p_sin = proposal.sin();
            let d_cos = p_cos - cos_t[i];
            let delta = b_half * field[i] * d_cos - a_half * (p_sin - sin_t[i]);
            if delta <= 0.0 || u < gate * (-beta * delta).exp() {
                cos_t[i] = p_cos;
                sin_t[i] = p_sin;
                csr.axpy_row(&mut field, i, d_cos);
            }
        }
    }

    cos_t
        .iter()
        .map(|&c| if c >= 0.0 { 1 } else { -1 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreezeOut;
    use hqw_qubo::solution::bits_to_spins;

    fn ferromagnet(n: usize) -> Ising {
        let mut ising = Ising::new(n);
        for i in 0..n {
            ising.set_h(i, -0.4);
            if i + 1 < n {
                ising.set_coupling(i, i + 1, -1.0);
            }
        }
        ising
    }

    #[test]
    fn forward_anneal_finds_ferromagnetic_ground_state() {
        let ising = ferromagnet(8);
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::forward(2.0).unwrap();
        let params = AnnealParams {
            sweeps_per_us: 64,
            beta_override: None,
            freeze_out: Some(FreezeOut::default()),
        };
        let mut rng = Rng64::new(21);
        let mut hits = 0;
        for _ in 0..10 {
            let out = SvmcEngine.run(&ising, &profile, &schedule, &params, None, &mut rng);
            if out.iter().all(|&s| s == 1) {
                hits += 1;
            }
        }
        assert!(hits >= 8, "SVMC FA found the ferromagnet {hits}/10 times");
    }

    #[test]
    fn shallow_reverse_preserves_initial_state() {
        // All-down is a local (not global) minimum of the field-pinned-up
        // ferromagnet; shallow RA must not escape it.
        let ising = ferromagnet(8);
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::reverse(0.95, 0.2).unwrap();
        let params = AnnealParams::default();
        let init = bits_to_spins(&[0, 0, 0, 0, 0, 0, 0, 0]);
        let mut rng = Rng64::new(23);
        let mut preserved = 0;
        for _ in 0..10 {
            let out = SvmcEngine.run(&ising, &profile, &schedule, &params, Some(&init), &mut rng);
            if out == init {
                preserved += 1;
            }
        }
        assert!(preserved >= 8, "shallow SVMC RA preserved {preserved}/10");
    }

    #[test]
    fn deep_reverse_escapes_excited_state() {
        let ising = ferromagnet(6);
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::reverse(0.05, 1.0).unwrap();
        let params = AnnealParams {
            sweeps_per_us: 64,
            beta_override: None,
            freeze_out: Some(FreezeOut::default()),
        };
        let init = vec![-1i8; 6];
        let mut rng = Rng64::new(27);
        let mut recovered = 0;
        for _ in 0..10 {
            let out = SvmcEngine.run(&ising, &profile, &schedule, &params, Some(&init), &mut rng);
            if out.iter().all(|&s| s == 1) {
                recovered += 1;
            }
        }
        assert!(recovered >= 7, "deep SVMC RA recovered {recovered}/10");
    }

    #[test]
    fn deterministic_per_seed() {
        let ising = ferromagnet(5);
        let profile = DWaveProfile::default();
        let schedule = AnnealSchedule::forward(1.0).unwrap();
        let params = AnnealParams::default();
        let a = SvmcEngine.run(
            &ising,
            &profile,
            &schedule,
            &params,
            None,
            &mut Rng64::new(31),
        );
        let b = SvmcEngine.run(
            &ising,
            &profile,
            &schedule,
            &params,
            None,
            &mut Rng64::new(31),
        );
        assert_eq!(a, b);
    }
}
