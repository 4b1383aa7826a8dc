//! Property tests for the realtime fabric service: under a single producer
//! with serialized delivery (one queue shard), the service's admission
//! decisions must be identical to the virtual-time scheduler's on the same
//! arrival sequence — for every arrival process, backend pool, load level
//! and seed. The recorded trace must also survive the trace-document
//! round trip and replay with zero divergence.

use hqw_core::fabric::{
    ArrivalProcess, BackendMix, BackendSpec, FabricGridConfig, FabricMode, RealtimeConfig,
    SaPoolConfig,
};
use hqw_core::fabric_rt::{replay_trace_doc, trace_doc};
use hqw_core::run_fabric_rt_grid;
use hqw_core::sched::{ClassMix, SchedOptions, SchedPolicy};
use hqw_core::stream::CostModel;
use hqw_math::Rng64;
use hqw_phy::channel::{snr_db_to_noise_variance, TrackConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::sa::SaParams;
use proptest::prelude::*;

fn arbitrary_arrival(rng: &mut Rng64) -> ArrivalProcess {
    if rng.next_bool() {
        ArrivalProcess::Periodic
    } else {
        ArrivalProcess::Bursty {
            burst: 1 + rng.next_index(5),
        }
    }
}

/// Half the runs keep the historical static scheduler, half enable the
/// full adaptive plane (learned predictor + priority classes + the
/// deliberately miscalibrated planner model) — the realtime admission
/// equivalence and replay contract must hold under both.
fn arbitrary_sched(rng: &mut Rng64) -> SchedOptions {
    if rng.next_bool() {
        return SchedOptions::default();
    }
    SchedOptions {
        policy: SchedPolicy::Ewma {
            shift: rng.next_index(5) as u32,
        },
        assumed_cost: if rng.next_bool() {
            Some(CostModel {
                us_per_sweep: rng.next_range(0.1, 4.0),
                ..CostModel::default()
            })
        } else {
            None
        },
        classes: ClassMix {
            urllc: 1,
            embb: 1 + rng.next_index(3) as u32,
            bulk: rng.next_index(3) as u32,
        },
    }
}

fn arbitrary_grid(seed: u64) -> FabricGridConfig {
    let mut rng = Rng64::new(seed);
    let arrival = arbitrary_arrival(&mut rng);
    FabricGridConfig {
        track: TrackConfig {
            n_users: 2,
            n_rx: 2,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(rng.next_range(8.0, 18.0), 2),
        },
        frames_per_cell: 4 + rng.next_index(6),
        cell_counts: vec![1 + rng.next_index(3)],
        arrival_periods_us: vec![rng.next_range(60.0, 400.0)],
        mixes: vec![BackendMix {
            name: "pool".into(),
            backends: vec![BackendSpec::SaPool(SaPoolConfig {
                workers: 1 + rng.next_index(3),
                max_batch: 1 + rng.next_index(4),
                sa: SaParams {
                    sweeps: 16,
                    num_reads: 1,
                    threads: 1,
                    ..SaParams::default()
                },
            })],
        }],
        arrival,
        // Single worker, serialized delivery: one producer, one shard.
        mode: FabricMode::Realtime(RealtimeConfig {
            producers: 1,
            queue_shards: 1,
        }),
        sched: arbitrary_sched(&mut rng),
        deadline_us: rng.next_range(150.0, 800.0),
        cost: CostModel::default(),
        seed: rng.next_u64(),
        threads: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: serialized realtime admission == the
    /// virtual-time scheduler, decision for decision, and the recorded
    /// trace replays through the sim with zero divergence.
    #[test]
    fn serialized_realtime_admission_matches_virtual_scheduler(seed in any::<u64>()) {
        let config = arbitrary_grid(seed);
        prop_assume!(config.validate().is_ok());
        let report = run_fabric_rt_grid(&config);
        for point in &report.points {
            prop_assert_eq!(
                point.replay_divergences, 0,
                "mix {} cells {} diverged from the virtual scheduler",
                &point.mix, point.n_cells
            );
        }
        let doc = trace_doc(&config, &report);
        let replay = replay_trace_doc(&doc)
            .unwrap_or_else(|e| panic!("trace doc failed to replay: {e}"));
        prop_assert_eq!(replay.total_divergences(), 0);
    }
}
