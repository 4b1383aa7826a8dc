//! Property-based tests for the PHY substrate.
//!
//! The central property: the ML→QUBO reduction is *exact* — for random
//! channels, observations and assignments, the QUBO energy plus offset
//! equals the maximum-likelihood residual computed directly.

use hqw_math::Rng64;
use hqw_phy::channel::{ChannelModel, ChannelTrack, TrackConfig};
use hqw_phy::instance::{DetectionInstance, InstanceConfig};
use hqw_phy::mimo::MimoSystem;
use hqw_phy::modulation::Modulation;
use hqw_phy::reduction::reduce_to_qubo;
use proptest::prelude::*;

fn any_channel() -> impl Strategy<Value = ChannelModel> {
    prop_oneof![
        Just(ChannelModel::RayleighIid),
        Just(ChannelModel::UnitGainRandomPhase),
        Just(ChannelModel::Identity),
    ]
}

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reduction_is_exact_on_random_assignments(
        seed in any::<u64>(),
        m in any_modulation(),
        n_users in 1usize..5,
        extra_rx in 0usize..3,
        model in any_channel(),
        noisy in any::<bool>(),
    ) {
        let mut rng = Rng64::new(seed);
        // The identity channel is square; the others also run rectangular.
        let n_rx = match model {
            ChannelModel::Identity => n_users,
            _ => n_users + extra_rx,
        };
        let sys = MimoSystem::new(n_users, n_rx, m);
        let h = model.generate(n_rx, n_users, &mut rng);
        let tx = sys.random_bits(&mut rng);
        let x = sys.modulate(&tx);
        let mut y = sys.transmit(&h, &x);
        if noisy {
            hqw_phy::channel::add_awgn(&mut y, 0.3, &mut rng);
        }
        let reduced = reduce_to_qubo(&sys, &h, &y);
        let n_vars = sys.bits_per_use();
        for _ in 0..6 {
            let bits: Vec<u8> = (0..n_vars).map(|_| rng.next_bool() as u8).collect();
            let cand = reduced.bits_to_symbols(&bits);
            let direct = sys.ml_metric(&h, &y, &cand);
            let via_qubo = reduced.ml_metric(&bits);
            let tol = 1e-8 * (1.0 + direct.abs());
            prop_assert!((direct - via_qubo).abs() < tol,
                "{} {} {n_users}x{n_rx}: direct {direct} vs qubo {via_qubo}",
                m.name(), model.name());
        }
    }

    #[test]
    fn modulate_demodulate_round_trip(seed in any::<u64>(), m in any_modulation(),
                                      n_users in 1usize..8) {
        let mut rng = Rng64::new(seed);
        let sys = MimoSystem::new(n_users, n_users, m);
        let bits = sys.random_bits(&mut rng);
        let x = sys.modulate(&bits);
        prop_assert_eq!(sys.demodulate(&x), bits);
    }

    #[test]
    fn gray_natural_relabeling_is_bijective(seed in any::<u64>(), m in any_modulation()) {
        let mut rng = Rng64::new(seed);
        let bps = m.bits_per_symbol();
        let bits: Vec<u8> = (0..bps).map(|_| rng.next_bool() as u8).collect();
        let (mut nat, mut gray) = (vec![0; bps], vec![0; bps]);
        m.gray_to_natural(&bits, &mut nat);
        m.natural_to_gray(&nat, &mut gray);
        prop_assert_eq!(gray, bits.clone());
        // And both labelings denote the same symbol.
        let via_gray = m.modulate(&bits);
        let via_natural = m.natural_bits_to_symbol(&nat);
        prop_assert!((via_gray - via_natural).abs() < 1e-12);
    }

    #[test]
    fn noiseless_instances_have_zero_residual_truth(
        seed in any::<u64>(),
        m in any_modulation(),
        n_users in 1usize..5,
    ) {
        let mut rng = Rng64::new(seed);
        let cfg = InstanceConfig::paper(n_users, m);
        let inst = DetectionInstance::generate(&cfg, &mut rng);
        prop_assert!(inst.reduction.ml_metric(&inst.tx_natural_bits) < 1e-8);
        prop_assert_eq!(inst.score_ber(&inst.tx_natural_bits), 0.0);
    }

    #[test]
    fn unit_gain_channels_have_unit_entries(seed in any::<u64>(), n in 1usize..10) {
        let mut rng = Rng64::new(seed);
        let h = ChannelModel::UnitGainRandomPhase.generate(n, n, &mut rng);
        for r in 0..n {
            for c in 0..n {
                prop_assert!((h[(r, c)].abs() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn channel_track_rho_zero_is_the_iid_batch_generator(
        seed in any::<u64>(),
        m in any_modulation(),
        n_users in 1usize..4,
        noisy in any::<bool>(),
    ) {
        // With ρ = 0 every frame's channel IS the innovation draw, so the
        // track must match DetectionInstance::generate_batch on the i.i.d.
        // Rayleigh config bit for bit — same channel, bits, noise, QUBO.
        let cfg = TrackConfig {
            n_users,
            n_rx: n_users,
            modulation: m,
            rho: 0.0,
            noise_variance: if noisy { 0.3 } else { 0.0 },
        };
        let frames: Vec<_> = ChannelTrack::new(cfg, seed).take(3).collect();
        let batch = DetectionInstance::generate_batch(
            &cfg.instance_config(), 3, &mut Rng64::new(seed));
        for (a, b) in frames.iter().zip(&batch) {
            prop_assert_eq!(a.h.max_abs_diff(&b.h), 0.0);
            prop_assert_eq!(&a.tx_gray_bits, &b.tx_gray_bits);
            prop_assert_eq!(&a.tx_natural_bits, &b.tx_natural_bits);
            prop_assert_eq!(a.y.sub(&b.y).norm_sqr(), 0.0);
            prop_assert_eq!(a.noisy, b.noisy);
        }
    }

    #[test]
    fn channel_track_rho_one_freezes_the_channel(
        seed in any::<u64>(),
        m in any_modulation(),
        n_users in 1usize..4,
    ) {
        // With ρ = 1 the innovation coefficient √(1−ρ²) vanishes: every
        // frame repeats frame 0's channel exactly, while the transmitted
        // data keeps evolving along the same RNG stream.
        let cfg = TrackConfig {
            n_users,
            n_rx: n_users,
            modulation: m,
            rho: 1.0,
            noise_variance: 0.0,
        };
        let frames: Vec<_> = ChannelTrack::new(cfg, seed).take(4).collect();
        for f in &frames[1..] {
            prop_assert_eq!(frames[0].h.max_abs_diff(&f.h), 0.0);
        }
        // Noiseless frames keep the exact-ground-truth invariant on the
        // frozen channel: the QUBO ground state is the transmitted vector.
        for f in &frames {
            prop_assert!(f.reduction.ml_metric(&f.tx_natural_bits) < 1e-8);
        }
    }
}
