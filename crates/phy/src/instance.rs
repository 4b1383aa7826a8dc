//! Detection-instance generation — the paper's §4.2 workload.
//!
//! > "We synthesize 10-20 (QUBO) instances of random MIMO detection for
//! > various user numbers and modulations (BPSK, QPSK, 16-QAM, and 64-QAM)
//! > with unit gain signal and unit gain wireless channel with random phase
//! > … In the experiments, we exclude the wireless noise (AWGN)."
//!
//! A [`DetectionInstance`] bundles the channel realization, the observation,
//! the transmitted ground truth (in both Gray/wireless and natural/QUBO
//! labelings), and the reduced QUBO. On noiseless instances the QUBO ground
//! state is analytically known (the transmitted bits, with ML residual 0),
//! which is what makes the paper's success-probability and TTS metrics
//! computable without search.

use crate::channel::{add_awgn, ChannelModel};
use crate::mimo::MimoSystem;
use crate::modulation::Modulation;
use crate::reduction::{reduce_to_qubo, ReducedProblem};
use hqw_math::{CMatrix, CVector, Rng64};

/// Configuration for instance synthesis.
#[derive(Debug, Clone, Copy)]
pub struct InstanceConfig {
    /// Number of transmitting users.
    pub n_users: usize,
    /// Number of base-station antennas (the paper uses `n_rx = n_users`).
    pub n_rx: usize,
    /// Modulation for all users.
    pub modulation: Modulation,
    /// Channel model (paper: [`ChannelModel::UnitGainRandomPhase`]).
    pub channel: ChannelModel,
    /// AWGN per-antenna variance (paper: 0.0 — noiseless).
    pub noise_variance: f64,
}

impl InstanceConfig {
    /// The paper's evaluation configuration for a given user count and
    /// modulation: square system, unit-gain random-phase channel, no AWGN.
    pub fn paper(n_users: usize, modulation: Modulation) -> Self {
        InstanceConfig {
            n_users,
            n_rx: n_users,
            modulation,
            channel: ChannelModel::UnitGainRandomPhase,
            noise_variance: 0.0,
        }
    }

    /// Config producing exactly `n_vars` QUBO variables (the paper sizes
    /// problems by variable count, e.g. its 36-variable Figure 6 set).
    ///
    /// # Panics
    /// Panics when `n_vars` is not divisible by the modulation's bits/symbol.
    pub fn paper_with_vars(n_vars: usize, modulation: Modulation) -> Self {
        let bps = modulation.bits_per_symbol();
        assert!(
            n_vars.is_multiple_of(bps),
            "paper_with_vars: {n_vars} variables not divisible by {bps} bits/symbol"
        );
        Self::paper(n_vars / bps, modulation)
    }

    /// Number of QUBO variables instances of this config produce.
    pub fn num_vars(&self) -> usize {
        self.n_users * self.modulation.bits_per_symbol()
    }
}

/// One MIMO detection problem with ground truth and its QUBO reduction.
#[derive(Debug, Clone)]
pub struct DetectionInstance {
    /// System description.
    pub system: MimoSystem,
    /// Channel realization.
    pub h: CMatrix,
    /// Received vector (after optional AWGN).
    pub y: CVector,
    /// Transmitted bits, Gray/wireless labeling, user-major.
    pub tx_gray_bits: Vec<u8>,
    /// Transmitted bits, natural/QUBO labeling, user-major.
    pub tx_natural_bits: Vec<u8>,
    /// The ML→QUBO reduction of `(h, y)`.
    pub reduction: ReducedProblem,
    /// Whether AWGN was injected (`false` ⇒ ground truth is exact).
    pub noisy: bool,
}

impl DetectionInstance {
    /// Synthesizes one instance.
    pub fn generate(config: &InstanceConfig, rng: &mut Rng64) -> Self {
        let system = MimoSystem::new(config.n_users, config.n_rx, config.modulation);
        let h = config.channel.generate(config.n_rx, config.n_users, rng);
        Self::from_channel(system, h, config.noise_variance, rng)
    }

    /// Synthesizes one instance over a *given* channel realization, drawing
    /// the transmitted bits (and AWGN, when `noise_variance > 0`) from `rng`.
    ///
    /// This is the assembly step shared by [`DetectionInstance::generate`]
    /// and the temporally-correlated
    /// [`ChannelTrack`](crate::channel::ChannelTrack), which synthesizes its
    /// own channel matrices; the RNG draw order (bits, then noise) is part of
    /// the determinism contract between the two.
    ///
    /// # Panics
    /// Panics when `h` does not match the system dimensions.
    pub fn from_channel(
        system: MimoSystem,
        h: CMatrix,
        noise_variance: f64,
        rng: &mut Rng64,
    ) -> Self {
        let tx_gray_bits = system.random_bits(rng);
        let x = system.modulate(&tx_gray_bits);
        let mut y = system.transmit(&h, &x);
        let noisy = noise_variance > 0.0;
        if noisy {
            add_awgn(&mut y, noise_variance, rng);
        }
        let reduction = reduce_to_qubo(&system, &h, &y);
        let tx_natural_bits = reduction.gray_to_natural(&tx_gray_bits);
        DetectionInstance {
            system,
            h,
            y,
            tx_gray_bits,
            tx_natural_bits,
            reduction,
            noisy,
        }
    }

    /// Synthesizes a batch of instances (the paper uses 10–50 per setting).
    pub fn generate_batch(
        config: &InstanceConfig,
        count: usize,
        rng: &mut Rng64,
    ) -> Vec<DetectionInstance> {
        (0..count).map(|_| Self::generate(config, rng)).collect()
    }

    /// Number of QUBO variables.
    pub fn num_vars(&self) -> usize {
        self.reduction.qubo.num_vars()
    }

    /// QUBO energy of the transmitted bits. On noiseless instances this is
    /// the exact ground energy (`= −ml_offset`, residual 0); on noisy
    /// instances it upper-bounds the ground energy.
    pub fn tx_energy(&self) -> f64 {
        self.reduction.qubo.energy(&self.tx_natural_bits)
    }

    /// Ground energy of the QUBO.
    ///
    /// # Panics
    /// Panics for noisy instances, where the transmitted vector need not be
    /// the ML solution; certify with an exact solver instead.
    pub fn ground_energy(&self) -> f64 {
        assert!(
            !self.noisy,
            "ground_energy: only exact for noiseless instances"
        );
        self.tx_energy()
    }

    /// Scores solver output (natural-labeled bits) as a wireless bit error
    /// rate against the transmitted data.
    pub fn score_ber(&self, natural_bits: &[u8]) -> f64 {
        let gray = self.reduction.natural_to_gray(natural_bits);
        crate::metrics::bit_error_rate(&self.tx_gray_bits, &gray)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_oracle::energy_eq;
    use hqw_qubo::exact::exhaustive_minimum;

    #[test]
    fn paper_config_matches_section_4_2() {
        let c = InstanceConfig::paper(8, Modulation::Qam16);
        assert_eq!(c.n_rx, 8);
        assert_eq!(c.noise_variance, 0.0);
        assert_eq!(c.channel, ChannelModel::UnitGainRandomPhase);
        assert_eq!(c.num_vars(), 32);
    }

    #[test]
    fn paper_with_vars_sizes_all_modulations() {
        for m in Modulation::ALL {
            let c = InstanceConfig::paper_with_vars(36, m);
            assert_eq!(c.num_vars(), 36, "{}", m.name());
        }
    }

    #[test]
    fn noiseless_ground_energy_is_negative_ml_offset() {
        let mut rng = Rng64::new(101);
        for m in Modulation::ALL {
            let c = InstanceConfig::paper_with_vars(12, m);
            let inst = DetectionInstance::generate(&c, &mut rng);
            assert!(
                energy_eq(inst.ground_energy(), -inst.reduction.ml_offset),
                "{}: ground {} vs −offset {}",
                m.name(),
                inst.ground_energy(),
                -inst.reduction.ml_offset
            );
        }
    }

    #[test]
    fn noiseless_ground_state_verified_by_enumeration() {
        let mut rng = Rng64::new(103);
        let c = InstanceConfig::paper_with_vars(12, Modulation::Qam16);
        let inst = DetectionInstance::generate(&c, &mut rng);
        let (best, e) = exhaustive_minimum(&inst.reduction.qubo);
        assert!(energy_eq(e, inst.ground_energy()));
        assert_eq!(best, inst.tx_natural_bits);
    }

    #[test]
    fn score_ber_zero_on_truth_positive_on_flip() {
        let mut rng = Rng64::new(105);
        let c = InstanceConfig::paper(4, Modulation::Qpsk);
        let inst = DetectionInstance::generate(&c, &mut rng);
        assert_eq!(inst.score_ber(&inst.tx_natural_bits), 0.0);
        let mut flipped = inst.tx_natural_bits.clone();
        flipped[0] ^= 1;
        assert!(inst.score_ber(&flipped) > 0.0);
    }

    #[test]
    fn batch_instances_are_distinct() {
        let mut rng = Rng64::new(107);
        let c = InstanceConfig::paper(4, Modulation::Qpsk);
        let batch = DetectionInstance::generate_batch(&c, 5, &mut rng);
        assert_eq!(batch.len(), 5);
        for i in 0..5 {
            for j in i + 1..5 {
                assert!(
                    batch[i].h.max_abs_diff(&batch[j].h) > 1e-9,
                    "instances {i} and {j} share a channel"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "only exact for noiseless")]
    fn noisy_instances_refuse_ground_energy() {
        let mut rng = Rng64::new(109);
        let mut c = InstanceConfig::paper(4, Modulation::Qpsk);
        c.noise_variance = 0.1;
        let inst = DetectionInstance::generate(&c, &mut rng);
        let _ = inst.ground_energy();
    }

    #[test]
    fn deterministic_per_seed() {
        let c = InstanceConfig::paper(6, Modulation::Qam16);
        let a = DetectionInstance::generate(&c, &mut Rng64::new(7));
        let b = DetectionInstance::generate(&c, &mut Rng64::new(7));
        assert_eq!(a.tx_gray_bits, b.tx_gray_bits);
        assert!(a.h.max_abs_diff(&b.h) == 0.0);
    }
}
