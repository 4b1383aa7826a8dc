//! Golden-output regression for the PIMC / SVMC engine kernels.
//!
//! Captured from the pre-optimization engines. The kernels promise
//! byte-identical readouts across implementation changes: buffer hoisting,
//! vectorized field updates, storage changes and the gate-first acceptance
//! order must not alter a single RNG draw or float operation.

use hqw_anneal::{
    AnnealEngine, AnnealParams, AnnealSchedule, DWaveProfile, PimcEngine, SvmcEngine,
};
use hqw_math::Rng64;
use hqw_qubo::generator::random_qubo;
use hqw_qubo::Ising;

fn problem() -> Ising {
    let q = random_qubo(16, &mut Rng64::new(55));
    q.to_ising().0
}

fn init16() -> Vec<i8> {
    (0..16).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect()
}

#[test]
fn pimc_forward_golden() {
    let out = PimcEngine::new(8).run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::forward(1.0).unwrap(),
        &AnnealParams::default(),
        None,
        &mut Rng64::new(101),
    );
    assert_eq!(
        out,
        vec![1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1],
        "Exact PIMC forward anneal drifted from the pre-change golden"
    );
}

#[test]
fn pimc_reverse_golden() {
    let out = PimcEngine::new(8).run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::reverse(0.69, 1.0).unwrap(),
        &AnnealParams::default(),
        Some(&init16()),
        &mut Rng64::new(103),
    );
    assert_eq!(
        out,
        vec![-1, -1, -1, 1, -1, 1, -1, -1, 1, -1, -1, -1, 1, 1, -1, -1],
        "Exact PIMC reverse anneal drifted from the pre-change golden"
    );
}

#[test]
fn svmc_forward_golden() {
    let out = SvmcEngine.run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::forward(1.0).unwrap(),
        &AnnealParams::default(),
        None,
        &mut Rng64::new(113),
    );
    assert_eq!(
        out,
        vec![1, -1, -1, -1, -1, -1, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1],
        "Exact SVMC forward anneal drifted from the pre-change golden"
    );
}

#[test]
fn svmc_reverse_golden() {
    let out = SvmcEngine.run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::reverse(0.69, 1.0).unwrap(),
        &AnnealParams::default(),
        Some(&init16()),
        &mut Rng64::new(127),
    );
    assert_eq!(
        out,
        vec![1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, -1, -1, -1, 1],
        "Exact SVMC reverse anneal drifted from the pre-change golden"
    );
}

#[test]
fn sampler_end_to_end_golden() {
    use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
    let q = random_qubo(16, &mut Rng64::new(55));
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 6,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            threads: 1,
            ..Default::default()
        },
    );
    let res = sampler.sample_qubo(&q, &AnnealSchedule::forward(1.0).unwrap(), None, 31);
    let samples: Vec<(Vec<u8>, u64, u64)> = res
        .samples
        .iter()
        .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
        .collect();
    assert_eq!(
        samples,
        vec![(
            vec![1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1],
            0xc02102addc9df5d0,
            6,
        )],
        "Exact sampler pipeline drifted from the pre-change golden"
    );
}
