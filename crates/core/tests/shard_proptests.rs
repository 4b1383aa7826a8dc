//! Property tests for the distributed experiment plane: shard partitions
//! must tile the grid exactly, merging any shard partition must reproduce
//! the single-run report byte-for-byte, and a checkpoint journal truncated
//! at any point boundary must resume to the identical report — for every
//! grid family (ber, stream, virtual fabric, sched).

use hqw_core::fabric::{
    ArrivalProcess, BackendMix, BackendSpec, FabricGridConfig, FabricMode, PtConfig, SaPoolConfig,
    TabuConfig,
};
use hqw_core::grid::{assemble_records, run_grid, run_records, spec_grid};
use hqw_core::report::PointRecord;
use hqw_core::scenario::{BerSweep, ScenarioDetector, SnrSweepConfig};
use hqw_core::sched::{ClassMix, SchedOptions, SchedPolicy};
use hqw_core::shard::{grid_len, merge_shards, shard_ids, Checkpoint, ShardReport};
use hqw_core::spec::ExperimentSpec;
use hqw_core::stream::{CostModel, DispatchPolicy, StreamGridConfig};
use hqw_core::SchedGridConfig;
use hqw_math::Rng64;
use hqw_phy::channel::{ChannelModel, TrackConfig};
use hqw_phy::detect::{KBest, ZeroForcing};
use hqw_phy::modulation::Modulation;
use hqw_qubo::pt::PtParams;
use hqw_qubo::sa::SaParams;
use hqw_qubo::tabu::TabuParams;
use proptest::prelude::*;

/// A small random BER spec: enough grid/roster variety to exercise the
/// record codec, small enough that a proptest case stays in milliseconds.
fn arbitrary_ber_spec(rng: &mut Rng64) -> ExperimentSpec {
    let n_users = 1 + rng.next_index(3);
    ExperimentSpec::Ber(SnrSweepConfig {
        n_users,
        n_rx: n_users + rng.next_index(2),
        modulation: if rng.next_bool() {
            Modulation::Bpsk
        } else {
            Modulation::Qpsk
        },
        channel: ChannelModel::UnitGainRandomPhase,
        snr_db: (0..1 + rng.next_index(4))
            .map(|_| rng.next_range(-5.0, 30.0))
            .collect(),
        realizations: 1 + rng.next_index(3),
        seed: rng.next_u64(),
        threads: rng.next_index(3),
    })
}

/// The BER sweep over a cheap classical-only roster (two arms, so the
/// per-column record still carries a real detector roster to validate).
fn mini_sweep(config: &SnrSweepConfig) -> BerSweep<'_> {
    BerSweep {
        config,
        detectors: vec![
            ScenarioDetector::fixed(false, ZeroForcing),
            ScenarioDetector::fixed(false, KBest::new(4)),
        ],
    }
}

/// A small random stream spec (few frames, trimmed SA) for cross-family
/// byte-identity coverage.
fn arbitrary_stream_spec(rng: &mut Rng64) -> ExperimentSpec {
    let n_users = 1 + rng.next_index(2);
    let n_policies = 1 + rng.next_index(DispatchPolicy::ALL.len());
    ExperimentSpec::Stream(StreamGridConfig {
        track: TrackConfig {
            n_users,
            n_rx: n_users,
            modulation: Modulation::Qpsk,
            rho: 0.0,
            noise_variance: rng.next_range(0.05, 0.5),
        },
        frames: 2 + rng.next_index(6),
        arrival_periods_us: (0..1 + rng.next_index(2))
            .map(|_| rng.next_range(80.0, 500.0))
            .collect(),
        rhos: (0..1 + rng.next_index(2)).map(|_| rng.next_f64()).collect(),
        policies: DispatchPolicy::ALL[..n_policies].to_vec(),
        deadline_us: rng.next_range(100.0, 600.0),
        cost: CostModel::default(),
        sa: SaParams {
            sweeps: 8,
            num_reads: 1,
            threads: 1,
            ..SaParams::default()
        },
        seed: rng.next_u64(),
        threads: rng.next_index(3),
    })
}

/// A small random track for the fabric-family specs.
fn arbitrary_track(rng: &mut Rng64) -> TrackConfig {
    let n_users = 1 + rng.next_index(2);
    TrackConfig {
        n_users,
        n_rx: n_users,
        modulation: Modulation::Qpsk,
        rho: rng.next_f64(),
        noise_variance: rng.next_range(0.05, 0.5),
    }
}

/// A tiny SA pool (a few sweeps, one read per job).
fn tiny_sa_pool(rng: &mut Rng64) -> BackendSpec {
    BackendSpec::SaPool(SaPoolConfig {
        workers: 1 + rng.next_index(2),
        max_batch: 1 + rng.next_index(3),
        sa: SaParams {
            sweeps: 8,
            num_reads: 1,
            threads: 1,
            ..SaParams::default()
        },
    })
}

/// A small random virtual fabric spec: an SA-pool mix, optionally a second
/// mix of the parallel-tempering and tabu pools.
fn arbitrary_fabric_spec(rng: &mut Rng64) -> ExperimentSpec {
    let mut mixes = vec![BackendMix {
        name: "sa".into(),
        backends: vec![tiny_sa_pool(rng)],
    }];
    if rng.next_bool() {
        mixes.push(BackendMix {
            name: "pt-tabu".into(),
            backends: vec![
                BackendSpec::Pt(PtConfig {
                    workers: 1,
                    max_batch: 2,
                    pt: PtParams {
                        replicas: 2,
                        sweeps: 4,
                        ..PtParams::default()
                    },
                }),
                BackendSpec::Tabu(TabuConfig {
                    workers: 1,
                    max_batch: 2,
                    tabu: TabuParams {
                        max_iters: 20,
                        stall_limit: 10,
                        ..TabuParams::default()
                    },
                }),
            ],
        });
    }
    ExperimentSpec::Fabric(FabricGridConfig {
        track: arbitrary_track(rng),
        frames_per_cell: 2 + rng.next_index(4),
        cell_counts: (0..1 + rng.next_index(2))
            .map(|_| 1 + rng.next_index(2))
            .collect(),
        arrival_periods_us: (0..1 + rng.next_index(2))
            .map(|_| rng.next_range(80.0, 500.0))
            .collect(),
        mixes,
        arrival: ArrivalProcess::Periodic,
        mode: FabricMode::Virtual,
        deadline_us: rng.next_range(200.0, 900.0),
        cost: CostModel::default(),
        sched: SchedOptions::default(),
        seed: rng.next_u64(),
        threads: rng.next_index(3),
    })
}

/// A small random static-vs-adaptive sched spec.
fn arbitrary_sched_spec(rng: &mut Rng64) -> ExperimentSpec {
    ExperimentSpec::Sched(SchedGridConfig {
        track: arbitrary_track(rng),
        frames_per_cell: 2 + rng.next_index(4),
        cell_counts: vec![1 + rng.next_index(2)],
        arrival_periods_us: (0..1 + rng.next_index(2))
            .map(|_| rng.next_range(80.0, 350.0))
            .collect(),
        mix: BackendMix {
            name: "pool".into(),
            backends: vec![tiny_sa_pool(rng)],
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
        threads: rng.next_index(3),
    })
}

/// A small random spec of any grid family.
fn arbitrary_spec(rng: &mut Rng64) -> ExperimentSpec {
    match rng.next_index(4) {
        0 => arbitrary_ber_spec(rng),
        1 => arbitrary_stream_spec(rng),
        2 => arbitrary_fabric_spec(rng),
        _ => arbitrary_sched_spec(rng),
    }
}

/// Computes the point records `ids` of a spec's grid (the reference the
/// shard and checkpoint reassembly paths are compared against). BER runs
/// over the cheap roster; every other family through its spec engine.
fn all_records(spec: &ExperimentSpec, ids: &[usize]) -> Vec<PointRecord> {
    match spec {
        ExperimentSpec::Ber(config) => run_records(&mini_sweep(config), ids),
        _ => spec_grid(spec).expect("grid spec").run_records(ids),
    }
}

/// The single-process report bytes for a spec.
fn full_run_json(spec: &ExperimentSpec) -> String {
    match spec {
        ExperimentSpec::Ber(config) => run_grid(&mini_sweep(config), None).to_json(),
        ExperimentSpec::Stream(config) => run_grid(config, None).to_json(),
        ExperimentSpec::Fabric(config) => run_grid(config, None).to_json(),
        ExperimentSpec::Sched(config) => run_grid(config, None).to_json(),
        ExperimentSpec::Canned(_) => unreachable!("only grid specs are generated here"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard id sets tile the grid exactly: pairwise disjoint, union
    /// complete, each strictly increasing — for any k/N with N in 1..=8.
    #[test]
    fn shard_ids_partition_any_grid(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let total = rng.next_index(60);
        let count = 1 + rng.next_index(8);
        let mut owner = vec![None; total];
        for index in 1..=count {
            let ids = shard_ids(total, index, count);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
            for id in ids {
                prop_assert!(id < total);
                prop_assert!(owner[id].is_none(), "id {id} assigned to two shards");
                owner[id] = Some(index);
            }
        }
        prop_assert!(owner.iter().all(Option::is_some), "grid not covered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline merge contract: for a random spec and a random N-way
    /// partition, merging the shard reports (shuffled, through the JSON
    /// codec) is byte-identical to the single-process run.
    #[test]
    fn merge_of_any_partition_is_byte_identical(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let spec = arbitrary_spec(&mut rng);
        prop_assume!(spec.validate().is_ok());
        prop_assume!(grid_len(&spec).is_ok()); // skip empty grids
        let total = grid_len(&spec).unwrap();
        let count = 1 + rng.next_index(4);

        let mut shards: Vec<(String, ShardReport)> = (1..=count)
            .map(|index| {
                let ids = shard_ids(total, index, count);
                let records = all_records(&spec, &ids);
                let shard = ShardReport::new(&spec, index, count, records).expect("valid shard");
                // Round-trip through the document codec, as `hqw merge` does.
                let reparsed = ShardReport::parse(&shard.to_json()).expect("round trip");
                (format!("shard{index}.json"), reparsed)
            })
            .collect();
        // Merge order must not matter: rotate by a random amount.
        shards.rotate_left(rng.next_index(count.max(1)));

        let merged = merge_shards(&shards).expect("complete partition merges");
        prop_assert_eq!(merged.to_json(), full_run_json(&spec));
    }

    /// The checkpoint contract: a journal truncated at any point boundary
    /// (with an optional torn trailing line) parses, reports exactly the
    /// missing ids, and — after running just those — reassembles the
    /// byte-identical report.
    #[test]
    fn truncated_checkpoint_resumes_to_identical_bytes(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let spec = arbitrary_spec(&mut rng);
        prop_assume!(spec.validate().is_ok());
        prop_assume!(grid_len(&spec).is_ok());
        let total = grid_len(&spec).unwrap();
        let all_ids: Vec<usize> = (0..total).collect();
        let records = all_records(&spec, &all_ids);

        // Journal the first `kept` points, then maybe tear the next line
        // mid-write (what SIGKILL leaves behind).
        let kept = rng.next_index(total + 1);
        let mut journal = Checkpoint::header_line(&spec).expect("shardable spec");
        journal.push('\n');
        for record in &records[..kept] {
            journal.push_str(&Checkpoint::point_line(record));
            journal.push('\n');
        }
        if rng.next_bool() && kept < total {
            let line = Checkpoint::point_line(&records[kept]);
            journal.push_str(&line[..1 + rng.next_index(line.len().saturating_sub(1))]);
        }

        let ck = Checkpoint::parse(&journal).expect("truncated journal parses");
        prop_assert_eq!(ck.points.len(), kept);
        let remaining = ck.remaining_ids();
        prop_assert_eq!(remaining.len(), total - kept);

        // Resume: run only the missing points, combine, reassemble.
        let mut points = ck.points.clone();
        points.extend(all_records(&spec, &remaining));
        points.sort_by_key(|p| p.id);
        let grid = spec_grid(&spec).expect("grid spec");
        let report = grid.assemble_records(points).expect("complete set reassembles");
        prop_assert_eq!(report.to_json(), full_run_json(&spec));

        // The repaired journal, completed with the remaining lines, is a
        // clean complete checkpoint that assembles to the same bytes.
        let mut repaired = ck.render();
        for record in all_records(&spec, &remaining) {
            repaired.push_str(&Checkpoint::point_line(&record));
            repaired.push('\n');
        }
        let complete = Checkpoint::parse(&repaired).expect("repaired journal parses");
        prop_assert!(complete.is_complete());
        let assembled = complete.assemble().expect("complete journal assembles");
        prop_assert_eq!(assembled.to_json(), full_run_json(&spec));
    }

    /// The record codec round trip straight on the report surface: every
    /// point of a full run, encoded and reassembled, reproduces the bytes.
    #[test]
    fn points_round_trip_on_the_report_surface(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let spec = arbitrary_ber_spec(&mut rng);
        prop_assume!(spec.validate().is_ok());
        prop_assume!(grid_len(&spec).is_ok());
        let ExperimentSpec::Ber(config) = &spec else { unreachable!() };
        let sweep = mini_sweep(config);
        let ids: Vec<usize> = (0..config.snr_db.len()).collect();
        let rebuilt = assemble_records(&sweep, run_records(&sweep, &ids))
            .expect("own points reassemble");
        prop_assert_eq!(rebuilt.to_json(), run_grid(&sweep, None).to_json());
    }
}
