//! Workspace integration tests: full paths across crates, from wireless bits
//! through the ML→QUBO reduction, the annealer simulator and the hybrid
//! solver, back to wireless bits.

use hqw::anneal::embedding::{ChainStrength, CliqueEmbedding};
use hqw::anneal::sampler::{EngineKind, SamplerConfig, Target};
use hqw::anneal::topology::Chimera;
use hqw::core::stages::{ClassicalInitializer, GreedyInitializer, InitialState, OracleInitializer};
use hqw::core::sweep::sweep_ra_sp;
use hqw::phy::detect::{Detector, ZeroForcing};
use hqw::prelude::*;

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
fn hybrid_recovers_transmissions_across_modulations() {
    // Small noiseless systems: oracle-seeded RA at high s_p must return the
    // transmitted bits for every modulation (end-to-end exactness of the
    // reduction + annealer + selection chain).
    for (m, users) in [
        (Modulation::Bpsk, 6),
        (Modulation::Qpsk, 4),
        (Modulation::Qam16, 2),
        (Modulation::Qam64, 2),
    ] {
        let mut rng = Rng64::new(31 + users as u64);
        let inst = DetectionInstance::generate(&InstanceConfig::paper(users, m), &mut rng);
        let solver = HybridSolver::new(
            quick_sampler(15),
            HybridConfig {
                protocol: Protocol::paper_ra(0.85),
                initializer: Box::new(OracleInitializer),
            },
        );
        let result = solver.solve(&inst, 5);
        assert_eq!(
            result.best_bits,
            inst.tx_natural_bits,
            "{}: hybrid failed to hold the transmitted state",
            m.name()
        );
        assert_eq!(inst.score_ber(&result.best_bits), 0.0, "{}", m.name());
    }
}

#[test]
fn greedy_seeded_hybrid_never_degrades_the_seed() {
    for seed in [1u64, 2, 3] {
        let mut rng = Rng64::new(seed);
        let inst =
            DetectionInstance::generate(&InstanceConfig::paper(4, Modulation::Qam16), &mut rng);
        let solver = HybridSolver::new(
            quick_sampler(20),
            HybridConfig {
                protocol: Protocol::paper_ra(0.69),
                initializer: Box::new(GreedyInitializer),
            },
        );
        let result = solver.solve(&inst, seed);
        let init_energy = result.initial.as_ref().unwrap().energy;
        assert!(result.best_energy <= init_energy + 1e-9);
        // Consistency of the cross-crate energy bookkeeping.
        assert!((inst.reduction.qubo.energy(&result.best_bits) - result.best_energy).abs() < 1e-9);
        assert!(result.delta_e_percent(inst.ground_energy()) >= -1e-9);
    }
}

#[test]
fn ra_sp_band_exists_for_ground_seeded_ra() {
    // The paper's Figure-8 structure: ground-seeded RA fails at deep s_p and
    // succeeds at shallow s_p (the refined-local-search band).
    let mut rng = Rng64::new(2024);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(6, Modulation::Qpsk), &mut rng);
    let sampler = quick_sampler(25);
    let points = sweep_ra_sp(
        &sampler,
        &inst.reduction.qubo,
        inst.ground_energy(),
        &inst.tx_natural_bits,
        9,
    );
    let deep: f64 = points
        .iter()
        .filter(|p| p.param <= 0.33)
        .map(|p| p.p_star)
        .sum();
    let shallow: f64 = points
        .iter()
        .filter(|p| p.param >= 0.85)
        .map(|p| p.p_star)
        .sum();
    assert!(
        shallow > deep,
        "shallow RA should preserve the ground seed better than deep RA ({shallow} vs {deep})"
    );
    assert!(
        points.iter().any(|p| p.p_star > 0.5),
        "ground-seeded RA should succeed somewhere on the grid"
    );
}

#[test]
fn embedded_chimera_pipeline_round_trips() {
    // MIMO instance → logical QUBO → Chimera-embedded Ising → anneal →
    // unembed → wireless bits. End-to-end over the hardware-graph path the
    // mock QPU serves; the reverse-anneal initial state is programmed
    // through the embedding too.
    let mut rng = Rng64::new(77);
    let inst = DetectionInstance::generate(
        &InstanceConfig::paper(2, Modulation::Qpsk), // 4 logical vars
        &mut rng,
    );
    let graph = Chimera::new(1); // K4 fits on a single cell's shore pairing
    let embedding = CliqueEmbedding::new(graph, inst.num_vars());

    let sampler = quick_sampler(20);
    let schedule = AnnealSchedule::reverse(0.85, 1.0).unwrap();
    let target = Target::Embedded(&embedding, ChainStrength::RelativeToMax(2.0));
    let programmed = sampler.program(&inst.reduction.qubo, target);
    let result = sampler.sample_programmed(programmed, &schedule, Some(&inst.tx_natural_bits), 13);
    let chain_break_fraction = result.chain_break_fraction;

    // Score the best unembedded read as wireless bits.
    let bits = &result.samples.best().expect("samples").bits;
    assert!(
        chain_break_fraction <= 0.25,
        "chains should mostly hold at this strength"
    );
    assert_eq!(
        bits, &inst.tx_natural_bits,
        "embedded RA should hold the programmed ground state"
    );
    assert_eq!(inst.score_ber(bits), 0.0);
}

#[test]
fn experiments_quick_scale_is_wired_end_to_end() {
    use hqw::core::experiments::Scale;
    use hqw::core::{run_grid, FigureKind, FigureRows, FigureSpec};
    let figure = |experiment| {
        let spec = FigureSpec {
            experiment,
            scale: Scale::quick(),
            seed: 5,
            threads: 0,
        };
        run_grid(&spec, None).points
    };

    // The Figure-3 experiment exercises phy + qubo across sizes.
    let [FigureRows::Fig3(rows)] = &figure(FigureKind::Fig3)[..] else {
        unreachable!()
    };
    assert!(rows.len() > 20);
    assert!(rows
        .iter()
        .all(|r| (0.0..=1.0).contains(&r.simplified_ratio)));

    // Soft-information study exercises constraints + ICE + sampler.
    let rows: Vec<_> = figure(FigureKind::Fig4SoftInfo)
        .into_iter()
        .flat_map(|p| match p {
            FigureRows::Fig4SoftInfo(rows) => rows,
            _ => unreachable!(),
        })
        .collect();
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.optimum_preserved));
}

/// A zero-forcing seed, composed through the public initializer trait
/// (the paper's §5 linear-solver stage).
struct ZfInitializer;

impl ClassicalInitializer for ZfInitializer {
    fn name(&self) -> &'static str {
        "ZF"
    }

    fn initialize(&self, instance: &DetectionInstance, _rng: &mut Rng64) -> InitialState {
        let detected = ZeroForcing.detect(&instance.system, &instance.h, &instance.y);
        let bits = instance.reduction.gray_to_natural(&detected.gray_bits);
        InitialState {
            energy: instance.reduction.qubo.energy(&bits),
            bits,
            // (2·3)³ operations: the real-stacked ZF solve at 1 GHz.
            latency_us: 0.216,
        }
    }
}

#[test]
fn detector_initializers_integrate_with_the_hybrid() {
    let mut rng = Rng64::new(55);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(3, Modulation::Qam16), &mut rng);
    // Noiseless: ZF seed is exact, so the hybrid must return 0 BER.
    let solver = HybridSolver::new(
        quick_sampler(10),
        HybridConfig {
            protocol: Protocol::paper_ra(0.8),
            initializer: Box::new(ZfInitializer),
        },
    );
    let result = solver.solve(&inst, 3);
    assert_eq!(result.best_bits, inst.tx_natural_bits);
}

#[test]
fn ber_scenario_engine_is_wired_end_to_end() {
    // The full scenario path through the umbrella crate: classical, SA-QUBO
    // and hybrid arms over an SNR grid, deterministic across thread counts.
    use hqw::phy::channel::ChannelModel;
    use hqw::phy::detect::{KBest, ZeroForcing};
    use std::sync::Arc;

    let make_roster = || {
        vec![
            ScenarioDetector::fixed(false, ZeroForcing),
            ScenarioDetector::fixed(false, KBest::new(8)),
            ScenarioDetector::fixed(true, QuboDetector::new(9)),
            ScenarioDetector::fixed(
                true,
                HybridDetector::new(HybridSolver::paper_prototype(quick_sampler(8), 0.65), 9),
            ),
        ]
    };
    let config = |threads| SnrSweepConfig {
        n_users: 3,
        n_rx: 3,
        modulation: Modulation::Qpsk,
        channel: ChannelModel::UnitGainRandomPhase,
        snr_db: vec![6.0, 30.0],
        realizations: 3,
        seed: 11,
        threads,
    };

    let sweep = |threads| -> BerReport {
        run_grid(
            &BerSweep {
                config: &config(threads),
                detectors: make_roster(),
            },
            None,
        )
    };
    let serial = sweep(1);
    assert_eq!(serial.series.len(), 4);
    for series in &serial.series {
        // 30 dB on a 3-user QPSK system is easy for every family.
        assert_eq!(
            series.points[1].ber, 0.0,
            "{}: nonzero BER at 30 dB",
            series.detector
        );
    }
    let parallel = sweep(0);
    assert_eq!(serial.to_json(), parallel.to_json());

    // Arc factories reuse: a detector arm can be built per noise point too.
    let mmse = ScenarioDetector::noise_matched("MMSE", false, |nv| {
        Arc::new(hqw::phy::detect::Mmse::new(nv))
    });
    assert_eq!(mmse.name(), "MMSE");
}
