//! Property tests for the adaptive scheduling plane: the learned service
//! predictors are pure integer-state machines — deterministic under
//! replay, clamped to the documented correction range, per-key isolated
//! (EWMA) — and a full static-vs-adaptive comparison grid is bit-identical
//! for any worker thread count.

use hqw_core::fabric::{BackendMix, BackendSpec, SaPoolConfig};
use hqw_core::sched::{
    corrected_us, ClassMix, EwmaPredictor, SchedPolicy, ServicePredictor, Q16_ONE,
};
use hqw_core::stream::CostModel;
use hqw_core::{run_grid, SchedGridConfig};
use hqw_math::Rng64;
use hqw_phy::channel::{snr_db_to_noise_variance, TrackConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::sa::SaParams;
use proptest::prelude::*;

/// One predictor feedback event: `(backend, shape, quoted µs, observed µs)`.
fn arbitrary_trace(rng: &mut Rng64, len: usize) -> Vec<(usize, usize, f64, f64)> {
    (0..len)
        .map(|_| {
            (
                rng.next_index(3),
                8 + 8 * rng.next_index(3),
                rng.next_range(0.5, 5_000.0),
                rng.next_range(0.5, 5_000.0),
            )
        })
        .collect()
}

fn arbitrary_sched_grid(seed: u64) -> SchedGridConfig {
    let mut rng = Rng64::new(seed);
    SchedGridConfig {
        track: TrackConfig {
            n_users: 2,
            n_rx: 2,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(rng.next_range(8.0, 18.0), 2),
        },
        frames_per_cell: 4 + rng.next_index(5),
        cell_counts: vec![1 + rng.next_index(2)],
        arrival_periods_us: vec![rng.next_range(80.0, 350.0)],
        mix: BackendMix {
            name: "pool".into(),
            backends: vec![BackendSpec::SaPool(SaPoolConfig {
                workers: 1 + rng.next_index(2),
                max_batch: 1 + rng.next_index(3),
                sa: SaParams {
                    sweeps: 16,
                    num_reads: 1,
                    threads: 1,
                    ..SaParams::default()
                },
            })],
        },
        policy: SchedPolicy::Ewma {
            shift: rng.next_index(5) as u32,
        },
        classes: ClassMix {
            urllc: 1,
            embb: 1 + rng.next_index(2) as u32,
            bulk: rng.next_index(2) as u32,
        },
        assumed_cost: CostModel {
            us_per_sweep: rng.next_range(0.1, 3.0),
            ..CostModel::default()
        },
        deadline_us: rng.next_range(200.0, 900.0),
        cost: CostModel::default(),
        seed: rng.next_u64(),
        threads: 0,
    }
}

proptest! {
    /// The identity correction is a bitwise no-op on any float — the
    /// invariant that keeps calibrated adaptive runs byte-identical to the
    /// static scheduler.
    #[test]
    fn identity_correction_is_bitwise(bits in any::<u64>()) {
        let us = f64::from_bits(bits);
        prop_assert_eq!(corrected_us(us, Q16_ONE).to_bits(), bits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The learning predictor replays deterministically (twin instances
    /// fed the same trace agree bit-for-bit at every step) and never leaves
    /// the documented correction clamp range.
    #[test]
    fn predictor_state_is_replayable_and_clamped(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let shift = rng.next_index(6) as u32;
        let trace = arbitrary_trace(&mut rng, 64);
        let mut a = EwmaPredictor::new(shift);
        let mut b = EwmaPredictor::new(shift);
        for &(backend, n, quoted, observed) in &trace {
            a.observe(backend, n, quoted, observed);
            b.observe(backend, n, quoted, observed);
            let ca = a.correction_q16(backend, n);
            prop_assert_eq!(ca, b.correction_q16(backend, n));
            prop_assert!((Q16_ONE / 64..=Q16_ONE * 64).contains(&ca));
            prop_assert_eq!(a.mae_us().to_bits(), b.mae_us().to_bits());
        }
        prop_assert_eq!(a.observations(), trace.len() as u64);
    }

    /// EWMA state is per-(backend, shape): feedback for other keys never
    /// perturbs a key's correction, so per-key estimates are independent of
    /// how the scheduler interleaves backends.
    #[test]
    fn ewma_keys_are_isolated(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let shift = rng.next_index(6) as u32;
        let trace = arbitrary_trace(&mut rng, 64);
        let mut interleaved = EwmaPredictor::new(shift);
        let mut solo = EwmaPredictor::new(shift);
        for &(backend, n, quoted, observed) in &trace {
            interleaved.observe(backend, n, quoted, observed);
            if (backend, n) == (0, 8) {
                solo.observe(backend, n, quoted, observed);
            }
            prop_assert_eq!(interleaved.correction_q16(0, 8), solo.correction_q16(0, 8));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The static-vs-adaptive comparison grid is bit-identical for any
    /// worker thread count: per-point scheduler state (predictor included)
    /// never leaks across grid points.
    #[test]
    fn sched_grid_is_thread_count_invariant(seed in any::<u64>()) {
        let mut config = arbitrary_sched_grid(seed);
        prop_assume!(config.validate().is_ok());
        config.threads = 1;
        let serial = run_grid(&config, None).to_json();
        config.threads = 0;
        let parallel = run_grid(&config, None).to_json();
        prop_assert_eq!(serial, parallel);
    }
}
