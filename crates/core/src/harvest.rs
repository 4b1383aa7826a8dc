//! Initial-state harvesting for the ΔE_IS% studies (Figures 7 and 8).
//!
//! The paper: "We obtain sample states of various ΔE_IS% using over 750,000
//! samples" — i.e. the candidate initial states fed to RA are not synthetic
//! bit-flips but *states the annealer itself produces*, binned by their
//! quality. This matters physically: annealer samples live in the low-energy
//! basins of the problem, which is exactly the population a classical
//! pre-stage would hand to the quantum refiner.

use crate::metrics::delta_e_percent;
use hqw_anneal::sampler::QuantumSampler;
use hqw_anneal::schedule::AnnealSchedule;
use hqw_qubo::Qubo;

/// One harvested initial state.
#[derive(Debug, Clone)]
pub struct HarvestedState {
    /// Natural-labeled bits.
    pub bits: Vec<u8>,
    /// QUBO energy.
    pub energy: f64,
    /// Quality gap ΔE_IS% against the ground energy.
    pub delta_e_is: f64,
}

/// Harvests distinct excited states from forward-anneal sample sets, keeping
/// up to `per_bin` states per `bin_width`-percent ΔE_IS bin over
/// `[0, max_delta_e)`. Exact ground states are excluded (they belong to the
/// paper's separate `ΔE_IS% = 0` reference line).
///
/// Runs batches of forward anneals until either every bin is full or
/// `max_reads` reads have been spent.
///
/// # Panics
/// Panics on a non-positive bin width or zero `per_bin`/`max_reads`.
#[allow(clippy::too_many_arguments)] // a flat signature reads better than a one-use config struct
pub fn harvest_states(
    sampler: &QuantumSampler,
    qubo: &Qubo,
    ground_energy: f64,
    bin_width: f64,
    max_delta_e: f64,
    per_bin: usize,
    max_reads: usize,
    seed: u64,
) -> Vec<Vec<HarvestedState>> {
    assert!(bin_width > 0.0, "harvest_states: bin width must be > 0");
    assert!(per_bin > 0 && max_reads > 0, "harvest_states: zero budget");
    let nbins = (max_delta_e / bin_width).ceil() as usize;
    let mut bins: Vec<Vec<HarvestedState>> = vec![Vec::new(); nbins];

    // A mid-anneal pause improves sample diversity; any forward schedule
    // works since we only want representative excited states.
    let schedule =
        AnnealSchedule::forward_with_pause(0.45, 1.0, 1.45).expect("static schedule is valid");

    let mut reads_spent = 0usize;
    let mut batch_seed = seed;
    while reads_spent < max_reads {
        let result = sampler.sample_qubo(qubo, &schedule, None, batch_seed);
        batch_seed = batch_seed.wrapping_add(0x9E37_79B9);
        reads_spent += result.samples.total_reads() as usize;
        for sample in result.samples.iter() {
            let de = delta_e_percent(sample.energy, ground_energy);
            if de <= 1e-9 || de >= max_delta_e {
                continue;
            }
            let bin = ((de / bin_width) as usize).min(nbins - 1);
            let slot = &mut bins[bin];
            if slot.len() < per_bin && !slot.iter().any(|s| s.bits == sample.bits) {
                slot.push(HarvestedState {
                    bits: sample.bits.clone(),
                    energy: sample.energy,
                    delta_e_is: de,
                });
            }
        }
        if bins.iter().all(|b| b.len() >= per_bin) {
            break;
        }
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_anneal::sampler::{EngineKind, SamplerConfig};
    use hqw_anneal::DWaveProfile;
    use hqw_math::Rng64;
    use hqw_phy::instance::{DetectionInstance, InstanceConfig};
    use hqw_phy::modulation::Modulation;

    #[test]
    fn harvested_states_land_in_their_bins() {
        let mut rng = Rng64::new(2024);
        let inst =
            DetectionInstance::generate(&InstanceConfig::paper(4, Modulation::Qam16), &mut rng);
        let sampler = QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: 200,
                engine: EngineKind::Pimc { trotter_slices: 8 },
                ..Default::default()
            },
        );
        let eg = inst.ground_energy();
        let bins = harvest_states(&sampler, &inst.reduction.qubo, eg, 2.0, 10.0, 3, 600, 7);
        assert_eq!(bins.len(), 5);
        let mut total = 0;
        for (b, states) in bins.iter().enumerate() {
            for st in states {
                total += 1;
                assert!(st.delta_e_is > 0.0);
                assert!(
                    st.delta_e_is >= b as f64 * 2.0 && st.delta_e_is < (b + 1) as f64 * 2.0,
                    "state at {} in bin {b}",
                    st.delta_e_is
                );
                assert!((inst.reduction.qubo.energy(&st.bits) - st.energy).abs() < 1e-9);
                assert!(
                    st.bits != inst.tx_natural_bits,
                    "ground state must be excluded"
                );
            }
        }
        assert!(total >= 3, "harvest found too few states ({total})");
    }

    #[test]
    #[should_panic(expected = "bin width must be > 0")]
    fn zero_bin_width_rejected() {
        let mut rng = Rng64::new(1);
        let inst =
            DetectionInstance::generate(&InstanceConfig::paper(2, Modulation::Qpsk), &mut rng);
        let sampler = QuantumSampler::new(DWaveProfile::calibrated(), SamplerConfig::default());
        harvest_states(
            &sampler,
            &inst.reduction.qubo,
            inst.ground_energy(),
            0.0,
            10.0,
            1,
            10,
            1,
        );
    }
}
