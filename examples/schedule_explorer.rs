//! Schedule explorer: how the switch/pause location `s_p` shapes reverse
//! annealing — the trade-off at the heart of the paper's §4.3.
//!
//! "s_p should not be too close to 1, since quantum fluctuations require to
//! be strong enough to perturb the initialized state. At the same time, s_p
//! cannot be too close to 0, since the information related to the initial
//! state would be wiped out."
//!
//! ```sh
//! cargo run --release --example schedule_explorer
//! ```

use hqw::core::metrics::delta_e_percent;
use hqw::core::sweep::{sweep_fa_sp, sweep_ra_sp};
use hqw::prelude::*;

fn main() {
    let mut rng = Rng64::new(2024);
    let config = InstanceConfig::paper(8, Modulation::Qam16);
    let instance = DetectionInstance::generate(&config, &mut rng);
    let eg = instance.ground_energy();
    let qubo = &instance.reduction.qubo;

    // Seed RA with a greedy-search candidate, as the paper's prototype does.
    let (gs_bits, gs_energy) = hqw::qubo::greedy_search(qubo);
    println!(
        "Greedy seed quality: ΔE_IS = {:.2}%",
        delta_e_percent(gs_energy, eg)
    );
    println!();

    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 150,
            ..Default::default()
        },
    );

    let ra = sweep_ra_sp(&sampler, qubo, eg, &gs_bits, 11);
    let ra_truth = sweep_ra_sp(&sampler, qubo, eg, &instance.tx_natural_bits, 12);
    let fa = sweep_fa_sp(&sampler, qubo, eg, 13);

    println!("  s_p   dur(µs)  FA p★    RA(GS) p★  RA(ground) p★");
    println!("  ---------------------------------------------------");
    for ((f, r), t) in fa.iter().zip(&ra).zip(&ra_truth) {
        // Bar chart of the ground-seeded RA line (the paper's red curve).
        let bar = "#".repeat((t.p_star * 30.0).round() as usize);
        println!(
            "  {:>4.2}  {:>6.2}   {:>6.3}   {:>7.3}    {:>7.3}  {bar}",
            f.param, r.duration_us, f.p_star, r.p_star, t.p_star
        );
    }
    println!();
    println!(
        "Reading the table: RA(ground) fails at low s_p (the programmed state is wiped out by \
         strong fluctuations) and succeeds once s_p is high enough to act as a refined local \
         search — while plain FA stays near zero everywhere. RA's duration also shrinks with \
         s_p: shallower reversals are cheaper, which the paper's TTS metric rewards."
    );
}
