//! Parameter sweeps — the paper's Challenge 2 ("Optimal parameters").
//!
//! §4.2 sweeps `s_p` (and `c_p` for FR) over 0.25–0.99 in steps of 0.04 and
//! reports the **median best** setting across instances; FR is scored at its
//! *oracle* `c_p` (the best found by exhaustive search, §4.3). These
//! routines implement that methodology for any protocol family.

use crate::metrics::{success_probability, time_to_solution};
use crate::protocol::{paper_sp_grid, Protocol};
use hqw_anneal::sampler::QuantumSampler;
use hqw_qubo::Qubo;

/// One point of a parameter sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Swept parameter value (`s_p` or `c_p`).
    pub param: f64,
    /// Per-read ground-state probability at this setting.
    pub p_star: f64,
    /// Programmed duration of one read (µs).
    pub duration_us: f64,
    /// TTS at 99% confidence (µs; infinite when `p_star = 0`).
    pub tts_us: f64,
    /// Mean sample energy.
    pub mean_energy: f64,
}

/// Sweeps a protocol family over a parameter grid.
///
/// `make_protocol` maps a grid value to a protocol; grid values that produce
/// invalid protocols (e.g. FR with `c_p ≤ s_p`) are skipped. The same
/// `initial` state (if any) is used at every point.
pub fn sweep_protocol(
    sampler: &QuantumSampler,
    qubo: &Qubo,
    ground_energy: f64,
    grid: &[f64],
    make_protocol: impl Fn(f64) -> Protocol,
    initial: Option<&[u8]>,
    seed: u64,
) -> Vec<SweepPoint> {
    // Each point draws its own seed (`seed + index`); invalid protocols
    // are dropped.
    grid.iter()
        .enumerate()
        .filter_map(|(idx, &param)| {
            let protocol = make_protocol(param);
            let schedule = protocol.schedule().ok()?;
            let init = if protocol.requires_initial_state() {
                initial
            } else {
                None
            };
            let result = sampler.sample_qubo(qubo, &schedule, init, seed.wrapping_add(idx as u64));
            let p_star = success_probability(&result.samples, ground_energy);
            Some(SweepPoint {
                param,
                p_star,
                duration_us: schedule.duration_us(),
                tts_us: time_to_solution(schedule.duration_us(), p_star, 99.0),
                mean_energy: result.samples.mean_energy(),
            })
        })
        .collect()
}

/// Sweeps RA over the paper's `s_p` grid from a fixed initial state.
pub fn sweep_ra_sp(
    sampler: &QuantumSampler,
    qubo: &Qubo,
    ground_energy: f64,
    initial: &[u8],
    seed: u64,
) -> Vec<SweepPoint> {
    sweep_protocol(
        sampler,
        qubo,
        ground_energy,
        &paper_sp_grid(),
        Protocol::paper_ra,
        Some(initial),
        seed,
    )
}

/// Sweeps FA over the paper's `s_p` (pause-location) grid.
pub fn sweep_fa_sp(
    sampler: &QuantumSampler,
    qubo: &Qubo,
    ground_energy: f64,
    seed: u64,
) -> Vec<SweepPoint> {
    sweep_protocol(
        sampler,
        qubo,
        ground_energy,
        &paper_sp_grid(),
        Protocol::paper_fa,
        None,
        seed,
    )
}

/// FR at fixed `s_p`, sweeping `c_p` over `grid` — the paper's "oracle
/// scheme" for FR: the **best found** point, or the first valid one when no
/// `c_p` reached the ground state, relabelled `param = s_p`. `None` when no
/// `c_p` on the grid makes a valid FR schedule.
pub fn fr_oracle_cp(
    sampler: &QuantumSampler,
    qubo: &Qubo,
    ground_energy: f64,
    grid: &[f64],
    s_p: f64,
    seed: u64,
) -> Option<SweepPoint> {
    let points = sweep_protocol(
        sampler,
        qubo,
        ground_energy,
        grid,
        |c_p| Protocol::paper_fr(c_p, s_p),
        None,
        seed,
    );
    best_point(&points)
        .or_else(|| points.first().copied())
        .map(|p| SweepPoint { param: s_p, ..p })
}

/// The best sweep point: highest `p★`, ties broken by lower TTS.
pub fn best_point(points: &[SweepPoint]) -> Option<SweepPoint> {
    points
        .iter()
        .copied()
        .max_by(|a, b| {
            a.p_star
                .partial_cmp(&b.p_star)
                .expect("p_star is never NaN")
                .then(b.tts_us.partial_cmp(&a.tts_us).expect("tts ordering"))
        })
        .filter(|p| p.p_star > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_anneal::sampler::{EngineKind, SamplerConfig};
    use hqw_anneal::DWaveProfile;
    use hqw_math::Rng64;
    use hqw_phy::instance::{DetectionInstance, InstanceConfig};
    use hqw_phy::modulation::Modulation;

    fn quick_sampler(reads: usize) -> QuantumSampler {
        QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: reads,
                engine: EngineKind::Pimc { trotter_slices: 8 },
                ..Default::default()
            },
        )
    }

    #[test]
    fn ra_sweep_covers_grid_and_is_consistent() {
        let mut rng = Rng64::new(5);
        let inst =
            DetectionInstance::generate(&InstanceConfig::paper(3, Modulation::Qpsk), &mut rng);
        let sampler = quick_sampler(20);
        let points = sweep_ra_sp(
            &sampler,
            &inst.reduction.qubo,
            inst.ground_energy(),
            &inst.tx_natural_bits,
            3,
        );
        assert_eq!(points.len(), paper_sp_grid().len());
        for p in &points {
            assert!((0.0..=1.0).contains(&p.p_star));
            assert!(p.duration_us > 0.0);
            if p.p_star > 0.0 {
                assert!(p.tts_us >= p.duration_us);
            } else {
                assert!(p.tts_us.is_infinite());
            }
        }
        // Ground-seeded RA at high s_p must succeed somewhere.
        assert!(points.iter().any(|p| p.p_star > 0.5));
    }

    #[test]
    fn fr_oracle_skips_invalid_cp_values() {
        let mut rng = Rng64::new(6);
        let inst =
            DetectionInstance::generate(&InstanceConfig::paper(2, Modulation::Qpsk), &mut rng);
        let sampler = quick_sampler(10);
        // s_p = 0.9: only c_p ∈ (0.9, 1) are valid — most of the grid drops.
        let points = sweep_protocol(
            &sampler,
            &inst.reduction.qubo,
            inst.ground_energy(),
            &paper_sp_grid(),
            |c_p| Protocol::paper_fr(c_p, 0.9),
            None,
            1,
        );
        assert!(points.len() <= 3);
    }

    #[test]
    fn best_point_prefers_high_p_star_then_low_tts() {
        let points = vec![
            SweepPoint {
                param: 0.3,
                p_star: 0.1,
                duration_us: 2.0,
                tts_us: 80.0,
                mean_energy: -1.0,
            },
            SweepPoint {
                param: 0.5,
                p_star: 0.4,
                duration_us: 2.0,
                tts_us: 20.0,
                mean_energy: -1.2,
            },
            SweepPoint {
                param: 0.7,
                p_star: 0.4,
                duration_us: 1.0,
                tts_us: 10.0,
                mean_energy: -1.2,
            },
        ];
        let best = best_point(&points).unwrap();
        assert_eq!(best.param, 0.7);
    }

    #[test]
    fn best_point_of_all_failures_is_none() {
        let points = vec![SweepPoint {
            param: 0.3,
            p_star: 0.0,
            duration_us: 2.0,
            tts_us: f64::INFINITY,
            mean_energy: -1.0,
        }];
        assert!(best_point(&points).is_none());
    }
}
