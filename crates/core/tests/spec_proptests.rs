//! Property tests for the experiment-spec layer: randomly generated specs
//! must round-trip through the hand-rolled JSON codec exactly —
//! `parse(serialize(spec)) == spec` — and serialization must stay a pure
//! function of the spec.

use hqw_core::experiments::Scale;
use hqw_core::fabric::{
    AnnealerConfig, ArrivalProcess, BackendMix, BackendSpec, FabricGridConfig, FabricMode,
    MockQpuConfig, NetworkModel, PtConfig, RealtimeConfig, SaPoolConfig, TabuConfig,
};
use hqw_core::scenario::SnrSweepConfig;
use hqw_core::sched::{ClassMix, SchedOptions, SchedPolicy};
use hqw_core::sched_grid::SchedGridConfig;
use hqw_core::spec::{CannedKind, CannedSpec, ExperimentSpec};
use hqw_core::stream::{CostModel, DispatchPolicy, StreamGridConfig};
use hqw_math::Rng64;
use hqw_phy::channel::{ChannelModel, TrackConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::pt::PtParams;
use hqw_qubo::sa::{SaParams, SweepKernel};
use hqw_qubo::tabu::TabuParams;
use proptest::prelude::*;

/// A "nice" positive float: numbers of the magnitude specs actually carry,
/// with enough decimal entropy to exercise the float codec.
fn pos_f64(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    rng.next_range(lo, hi)
}

fn arbitrary_modulation(rng: &mut Rng64) -> Modulation {
    Modulation::ALL[rng.next_index(Modulation::ALL.len())]
}

fn arbitrary_track(rng: &mut Rng64) -> TrackConfig {
    let n_users = 1 + rng.next_index(4);
    TrackConfig {
        n_users,
        n_rx: n_users + rng.next_index(3),
        modulation: arbitrary_modulation(rng),
        rho: rng.next_f64(),
        noise_variance: pos_f64(rng, 0.0, 2.0),
    }
}

fn arbitrary_sa(rng: &mut Rng64) -> SaParams {
    let beta_initial = pos_f64(rng, 0.01, 1.0);
    SaParams {
        beta_initial,
        beta_final: beta_initial + pos_f64(rng, 0.1, 20.0),
        sweeps: 1 + rng.next_index(200),
        num_reads: 1 + rng.next_index(32),
        threads: rng.next_index(4),
        kernel: if rng.next_bool() {
            SweepKernel::Fast
        } else {
            SweepKernel::Exact
        },
    }
}

fn arbitrary_cost(rng: &mut Rng64) -> CostModel {
    CostModel {
        base_us: pos_f64(rng, 0.0, 50.0),
        us_per_node: pos_f64(rng, 0.0, 1.0),
        us_per_sweep: pos_f64(rng, 0.0, 5.0),
    }
}

fn arbitrary_backend(rng: &mut Rng64) -> BackendSpec {
    match rng.next_index(6) {
        0 => BackendSpec::SaPool(SaPoolConfig {
            workers: 1 + rng.next_index(4),
            max_batch: 1 + rng.next_index(8),
            sa: arbitrary_sa(rng),
        }),
        4 => {
            let beta_min = pos_f64(rng, 0.01, 1.0);
            BackendSpec::Pt(PtConfig {
                workers: 1 + rng.next_index(4),
                max_batch: 1 + rng.next_index(8),
                pt: PtParams {
                    replicas: 2 + rng.next_index(8),
                    sweeps: 1 + rng.next_index(128),
                    swap_interval: 1 + rng.next_index(8),
                    beta_min,
                    beta_max: beta_min + pos_f64(rng, 0.5, 20.0),
                },
            })
        }
        5 => BackendSpec::Tabu(TabuConfig {
            workers: 1 + rng.next_index(4),
            max_batch: 1 + rng.next_index(8),
            tabu: TabuParams {
                tenure: 1 + rng.next_index(20),
                max_iters: 1 + rng.next_index(2000),
                stall_limit: 1 + rng.next_index(500),
            },
        }),
        k @ (1 | 2) => {
            let config = AnnealerConfig {
                num_reads: 1 + rng.next_index(8),
                anneal_us: pos_f64(rng, 0.5, 10.0),
                sweeps_per_us: 1 + rng.next_index(16),
                capacity: 1 + rng.next_index(4),
                max_batch: 1 + rng.next_index(8),
            };
            if k == 1 {
                BackendSpec::Pimc(config)
            } else {
                BackendSpec::Svmc(config)
            }
        }
        _ => BackendSpec::MockQpu(MockQpuConfig {
            num_reads: 1 + rng.next_index(8),
            anneal_us: pos_f64(rng, 0.5, 10.0),
            sweeps_per_us: 1 + rng.next_index(16),
            trotter_slices: 2 + rng.next_index(30),
            max_batch: 1 + rng.next_index(8),
            network: NetworkModel {
                rtt_base_us: pos_f64(rng, 0.0, 100.0),
                jitter_us: pos_f64(rng, 0.0, 30.0),
            },
            programming_us: pos_f64(rng, 0.0, 300.0),
            embed_derive_us_per_qubit: pos_f64(rng, 0.0, 5.0),
            chain_strength: pos_f64(rng, 0.5, 4.0),
        }),
    }
}

fn arbitrary_arrival(rng: &mut Rng64) -> ArrivalProcess {
    match rng.next_index(4) {
        0 => ArrivalProcess::Periodic,
        1 => ArrivalProcess::Bursty {
            burst: 1 + rng.next_index(8),
        },
        2 => ArrivalProcess::Diurnal {
            amplitude: rng.next_range(0.0, 0.99),
            cycle_frames: 2 + rng.next_index(64),
        },
        _ => ArrivalProcess::HeavyTailed {
            alpha: rng.next_range(1.1, 4.0),
        },
    }
}

fn arbitrary_policy(rng: &mut Rng64) -> SchedPolicy {
    match rng.next_index(3) {
        0 => SchedPolicy::Static,
        1 => SchedPolicy::Ewma {
            shift: rng.next_index(17) as u32,
        },
        _ => SchedPolicy::Ucb {
            explore_milli: rng.next_index(4001) as u32,
        },
    }
}

fn arbitrary_class_mix(rng: &mut Rng64) -> ClassMix {
    if rng.next_bool() {
        ClassMix::default()
    } else {
        ClassMix {
            urllc: 1 + rng.next_index(4) as u32,
            embb: rng.next_index(4) as u32,
            bulk: rng.next_index(4) as u32,
        }
    }
}

fn arbitrary_sched(rng: &mut Rng64) -> SchedOptions {
    SchedOptions {
        policy: arbitrary_policy(rng),
        assumed_cost: if rng.next_bool() {
            Some(arbitrary_cost(rng))
        } else {
            None
        },
        classes: arbitrary_class_mix(rng),
    }
}

fn arbitrary_mode(rng: &mut Rng64) -> FabricMode {
    if rng.next_bool() {
        FabricMode::Virtual
    } else {
        FabricMode::Realtime(RealtimeConfig {
            producers: 1 + rng.next_index(4),
            queue_shards: 1 + rng.next_index(4),
        })
    }
}

fn arbitrary_spec(seed: u64) -> ExperimentSpec {
    let mut rng = Rng64::new(seed);
    match rng.next_index(5) {
        0 => {
            let n_users = 1 + rng.next_index(6);
            ExperimentSpec::Ber(SnrSweepConfig {
                n_users,
                n_rx: n_users + rng.next_index(3),
                modulation: arbitrary_modulation(&mut rng),
                channel: ChannelModel::ALL[rng.next_index(ChannelModel::ALL.len())],
                snr_db: (0..rng.next_index(8))
                    .map(|_| rng.next_range(-10.0, 40.0))
                    .collect(),
                realizations: 1 + rng.next_index(50),
                seed: rng.next_u64(),
                threads: rng.next_index(8),
            })
        }
        1 => {
            let n_policies = 1 + rng.next_index(DispatchPolicy::ALL.len());
            ExperimentSpec::Stream(StreamGridConfig {
                track: arbitrary_track(&mut rng),
                frames: 1 + rng.next_index(256),
                arrival_periods_us: (0..1 + rng.next_index(5))
                    .map(|_| pos_f64(&mut rng, 10.0, 600.0))
                    .collect(),
                rhos: (0..1 + rng.next_index(4)).map(|_| rng.next_f64()).collect(),
                policies: DispatchPolicy::ALL[..n_policies].to_vec(),
                deadline_us: pos_f64(&mut rng, 0.0, 1000.0),
                cost: arbitrary_cost(&mut rng),
                sa: arbitrary_sa(&mut rng),
                seed: rng.next_u64(),
                threads: rng.next_index(8),
            })
        }
        2 => ExperimentSpec::Fabric(FabricGridConfig {
            track: arbitrary_track(&mut rng),
            frames_per_cell: 1 + rng.next_index(64),
            cell_counts: (0..1 + rng.next_index(3))
                .map(|_| 1 + rng.next_index(8))
                .collect(),
            arrival_periods_us: (0..1 + rng.next_index(4))
                .map(|_| pos_f64(&mut rng, 50.0, 600.0))
                .collect(),
            mixes: (0..1 + rng.next_index(3))
                .map(|m| BackendMix {
                    name: format!("mix-{m}"),
                    backends: (0..1 + rng.next_index(3))
                        .map(|_| arbitrary_backend(&mut rng))
                        .collect(),
                })
                .collect(),
            arrival: arbitrary_arrival(&mut rng),
            mode: arbitrary_mode(&mut rng),
            sched: arbitrary_sched(&mut rng),
            deadline_us: pos_f64(&mut rng, 0.0, 2000.0),
            cost: arbitrary_cost(&mut rng),
            seed: rng.next_u64(),
            threads: rng.next_index(8),
        }),
        3 => ExperimentSpec::Sched(SchedGridConfig {
            track: arbitrary_track(&mut rng),
            frames_per_cell: 1 + rng.next_index(32),
            cell_counts: (0..1 + rng.next_index(3))
                .map(|_| 1 + rng.next_index(6))
                .collect(),
            arrival_periods_us: (0..1 + rng.next_index(3))
                .map(|_| pos_f64(&mut rng, 50.0, 600.0))
                .collect(),
            mix: BackendMix {
                name: "mix".into(),
                backends: (0..1 + rng.next_index(3))
                    .map(|_| arbitrary_backend(&mut rng))
                    .collect(),
            },
            policy: arbitrary_policy(&mut rng),
            classes: arbitrary_class_mix(&mut rng),
            assumed_cost: arbitrary_cost(&mut rng),
            deadline_us: pos_f64(&mut rng, 0.0, 2000.0),
            cost: arbitrary_cost(&mut rng),
            seed: rng.next_u64(),
            threads: rng.next_index(8),
        }),
        _ => ExperimentSpec::Canned(CannedSpec {
            experiment: CannedKind::ALL[rng.next_index(CannedKind::ALL.len())],
            scale: Scale {
                instances: 1 + rng.next_index(40),
                reads: 1 + rng.next_index(4000),
                harvest_reads: 1 + rng.next_index(40_000),
                grid_thin: 1 + rng.next_index(6),
            },
            seed: rng.next_u64(),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline property: parse(serialize(spec)) == spec, exactly.
    #[test]
    fn spec_round_trips_through_json(seed in any::<u64>()) {
        let spec = arbitrary_spec(seed);
        prop_assume!(spec.validate().is_ok());
        let text = spec.to_json();
        let parsed = ExperimentSpec::parse(&text)
            .unwrap_or_else(|e| panic!("serialized spec failed to parse: {e}\n{text}"));
        prop_assert_eq!(&parsed, &spec);
        // Serialization is a pure function: a second trip is bit-identical.
        prop_assert_eq!(parsed.to_json(), text);
    }

    /// Seeds — including values above 2^53, which a double cannot hold —
    /// survive the codec exactly.
    #[test]
    fn extreme_seeds_survive(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let raw = match rng.next_index(3) {
            0 => u64::MAX - rng.next_below(1024),
            1 => (1u64 << 53) + rng.next_below(1 << 20),
            _ => rng.next_u64(),
        };
        let spec = ExperimentSpec::Canned(CannedSpec {
            experiment: CannedKind::Fig3,
            scale: Scale::quick(),
            seed: raw,
        });
        let parsed = ExperimentSpec::parse(&spec.to_json()).expect("valid spec");
        prop_assert_eq!(parsed.seed(), raw);
    }
}
