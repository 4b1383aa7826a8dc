//! Noisy-uplink scenario: classical detectors vs the QUBO path under AWGN,
//! driven through the unified experiment API.
//!
//! The paper's evaluation is noiseless (§4.2); this example sweeps a noisy
//! 4-user 16-QAM uplink across SNR from an `SnrSweepConfig` literal
//! checked by `validate()`, a custom detector roster, the scenario
//! engine, and the unified `Report` surface — then prints the
//! declarative `ExperimentSpec` JSON that `hqw run` would accept to
//! reproduce the sweep's grid shape, plus a soft-output (LLR) demo.
//!
//! ```sh
//! cargo run --release --example noisy_uplink
//! ```

use hqw::phy::channel::{snr_db_to_noise_variance, ChannelModel};
use hqw::phy::detect::{KBest, Mmse, SphereDecoder, ZeroForcing};
use hqw::prelude::*;
use hqw::qubo::sa::SaParams;
use std::sync::Arc;

fn main() {
    // 1. Declare the experiment: 4-user 16-QAM, four SNR points, paired
    //    channel realizations. `validate()` checks it — no panics
    //    downstream.
    let users = 4;
    let config = SnrSweepConfig {
        n_users: users,
        n_rx: users,
        modulation: Modulation::Qam16,
        channel: ChannelModel::UnitGainRandomPhase,
        snr_db: vec![8.0, 12.0, 16.0, 20.0],
        realizations: 8,
        seed: 1313,
        threads: 0, // all cores; results are bit-identical for any value
    };
    config.validate().expect("a valid sweep configuration");

    // 2. A roster mixing the classical families with the QUBO/SA path.
    //    MMSE is noise-matched: it is rebuilt from each point's variance.
    let detectors = vec![
        ScenarioDetector::fixed(false, ZeroForcing),
        ScenarioDetector::noise_matched("MMSE", false, |nv| Arc::new(Mmse::new(nv))),
        ScenarioDetector::fixed(false, KBest::new(8)),
        ScenarioDetector::fixed(false, SphereDecoder::exact()),
        ScenarioDetector::fixed(
            true,
            QuboDetector::with_params(
                SaParams {
                    sweeps: 96,
                    num_reads: 16,
                    threads: 1,
                    ..SaParams::default()
                },
                1313,
            ),
        ),
    ];

    // 3. Run and render through the unified Report surface.
    let report = run_grid(
        &BerSweep {
            config: &config,
            detectors,
        },
        None,
    );
    println!(
        "BER vs SNR, {users}-user 16-QAM uplink ({} channel uses per point)",
        config.realizations
    );
    println!();
    println!("{}", report.render_table());

    // The sphere decoder is exact ML: nothing may beat it at any SNR.
    let ml = report
        .series
        .iter()
        .find(|s| s.detector == "SD")
        .expect("exact sphere decoder in the roster");
    for series in &report.series {
        for (p, ml_p) in series.points.iter().zip(&ml.points) {
            assert!(
                p.ber + 1e-12 >= ml_p.ber,
                "{} beat exact ML at {} dB",
                series.detector,
                p.snr_db
            );
        }
    }
    println!(
        "Expected shape: ZF worst, MMSE better, K-best near the exact sphere decoder; the \
         QUBO-SA arm tracks ML when the anneal finds the QUBO optimum — and exact-ML sphere \
         decoding lower-bounds every arm's BER (asserted above)."
    );
    println!();

    // 4. The same sweep as data: this document (run with the standard
    //    roster) is what `hqw run <file>.json` executes.
    println!("Declarative spec for `hqw run`:");
    println!("{}", ExperimentSpec::Ber(config).to_json());

    // 5. Soft output from the quantum path: the annealer's sample set is a
    //    (rough) Boltzmann ensemble, so occurrence-weighted bit marginals
    //    give per-bit reliabilities a channel decoder can consume.
    let noise_var = snr_db_to_noise_variance(14.0, users);
    let mut inst_config = InstanceConfig::paper(users, Modulation::Qam16);
    inst_config.noise_variance = noise_var;
    let mut rng = Rng64::new(4242);
    let inst = DetectionInstance::generate(&inst_config, &mut rng);
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 80,
            ..Default::default()
        },
    );
    let solver = HybridSolver::paper_prototype(sampler, 0.69);
    let result = solver.solve(&inst, 99);
    let llrs = hqw::phy::llr::sample_llrs(&result.samples, inst.num_vars());
    let hard_ber = inst.score_ber(&result.best_bits);
    let confident = llrs.iter().filter(|l| l.abs() > 1.0).count();
    let correct_confident = llrs
        .iter()
        .zip(&inst.tx_natural_bits)
        .filter(|(l, _)| l.abs() > 1.0)
        .filter(|(l, &b)| (if **l > 0.0 { 0u8 } else { 1u8 }) == b)
        .count();
    println!(
        "Soft output at 14 dB: hybrid hard BER {:.1}%; {}/{} bits confident (|LLR| > 1), of \
         which {} agree with the transmission — reliabilities a channel decoder can exploit.",
        100.0 * hard_ber,
        confident,
        inst.num_vars(),
        correct_confident
    );
}
