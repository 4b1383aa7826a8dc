//! The paper's evaluation metrics (§4.3).
//!
//! * **ΔE%** — solution quality as a percentage gap from the ground energy.
//!   The paper's formula `ΔE% = 100·[(E_g − |E_s|)/E_g]` reads sensibly only
//!   when both energies are negative with `E_g` meaning `|E_g|`; we
//!   implement the equivalent, sign-robust relative gap
//!   `ΔE% = 100·(E_s − E_g)/|E_g|` (0 = ground state found), which agrees
//!   with the paper's formula wherever that one is well defined.
//! * **p★** — per-read ground-state probability.
//! * **TTS(C_t%)** — time-to-solution (the paper's Eq. 2): expected time to
//!   observe the ground state at least once with confidence `C_t`, charging
//!   the *programmed schedule duration* per read:
//!   `TTS = duration · log(1 − C_t/100) / log(1 − p★)`.

use hqw_qubo::SampleSet;

/// Energy tolerance when deciding whether a sample hit the ground state.
pub const GROUND_TOL: f64 = 1e-6;

/// Relative optimality gap `ΔE%` of a sample energy against the ground
/// energy (0% = optimum found).
///
/// # Panics
/// Panics when `ground_energy == 0` (noiseless MIMO ground energies are
/// strictly negative: `−‖y‖²`-scaled offsets).
pub fn delta_e_percent(sample_energy: f64, ground_energy: f64) -> f64 {
    assert!(
        ground_energy != 0.0,
        "delta_e_percent: ground energy must be non-zero to normalize"
    );
    100.0 * (sample_energy - ground_energy) / ground_energy.abs()
}

/// Per-read success probability `p★`: the fraction of reads that reached the
/// ground energy (within [`GROUND_TOL`]).
pub fn success_probability(samples: &SampleSet, ground_energy: f64) -> f64 {
    samples.ground_probability(ground_energy, GROUND_TOL)
}

/// Time-to-solution at confidence `confidence_pct` (the paper's Eq. 2).
///
/// Returns `f64::INFINITY` when `p_star ≤ 0` (the solver never succeeds) and
/// clamps to one read's duration when `p_star` is high enough that a single
/// read meets the confidence target.
///
/// # Panics
/// Panics when `duration_us ≤ 0`, `p_star ∉ [0, 1]`, or
/// `confidence_pct ∉ (0, 100)`.
pub fn time_to_solution(duration_us: f64, p_star: f64, confidence_pct: f64) -> f64 {
    assert!(duration_us > 0.0, "time_to_solution: duration must be > 0");
    assert!(
        (0.0..=1.0).contains(&p_star),
        "time_to_solution: p_star out of [0,1]"
    );
    assert!(
        confidence_pct > 0.0 && confidence_pct < 100.0,
        "time_to_solution: confidence out of (0,100)"
    );
    if p_star <= 0.0 {
        return f64::INFINITY;
    }
    if p_star >= 1.0 {
        return duration_us;
    }
    let reads = (1.0 - confidence_pct / 100.0).ln() / (1.0 - p_star).ln();
    duration_us * reads.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_e_is_zero_at_ground() {
        assert_eq!(delta_e_percent(-150.0, -150.0), 0.0);
    }

    #[test]
    fn delta_e_matches_papers_intent_for_negative_energies() {
        // E_g = −100, E_s = −90: ten percent worse.
        assert!((delta_e_percent(-90.0, -100.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn delta_e_handles_positive_ground() {
        // Shifted problems with positive energies still normalize sensibly.
        assert!((delta_e_percent(110.0, 100.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tts_reference_value() {
        // p★ = 0.1, C_t = 99%: reads = ln(0.01)/ln(0.9) ≈ 43.7.
        let tts = time_to_solution(2.0, 0.1, 99.0);
        let expected = 2.0 * (0.01f64.ln() / 0.9f64.ln());
        assert!((tts - expected).abs() < 1e-9);
        assert!((tts - 87.4).abs() < 0.1);
    }

    #[test]
    fn tts_monotone_in_p_star() {
        let a = time_to_solution(1.0, 0.05, 99.0);
        let b = time_to_solution(1.0, 0.5, 99.0);
        assert!(a > b);
    }

    #[test]
    fn tts_edge_cases() {
        assert!(time_to_solution(1.0, 0.0, 99.0).is_infinite());
        assert_eq!(time_to_solution(2.5, 1.0, 99.0), 2.5);
        // Very high p★: still at least one read.
        assert_eq!(time_to_solution(2.5, 0.9999, 50.0), 2.5);
    }

    #[test]
    fn distribution_expands_reads() {
        let set =
            SampleSet::from_reads(vec![(vec![0], -100.0), (vec![0], -100.0), (vec![1], -90.0)]);
        let mut d: Vec<f64> = set
            .energies_per_read()
            .into_iter()
            .map(|e| delta_e_percent(e, -100.0))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(d.len(), 3);
        assert_eq!(d[0], 0.0);
        assert!((d[2] - 10.0).abs() < 1e-12);
        assert!((success_probability(&set, -100.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duration must be > 0")]
    fn tts_rejects_bad_duration() {
        time_to_solution(0.0, 0.5, 99.0);
    }
}
