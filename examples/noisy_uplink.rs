//! Noisy-uplink scenario: classical detectors vs the QUBO path under AWGN,
//! driven through the unified experiment API.
//!
//! The paper's evaluation is noiseless (§4.2); this example sweeps a noisy
//! 4-user 16-QAM uplink across SNR from an `SnrSweepConfig` literal
//! checked by `validate()`, a custom detector roster, the scenario
//! engine, and the unified `Report` surface — then prints the
//! declarative `ExperimentSpec` JSON that `hqw run` would accept to
//! reproduce the sweep's grid shape.
//!
//! ```sh
//! cargo run --release --example noisy_uplink
//! ```

use hqw::phy::channel::ChannelModel;
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
}
