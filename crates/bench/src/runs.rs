//! Runners for the grid experiments (`ber`, `stream`, `fabric`, `sched`,
//! the paper figures) and the realtime `fabric-rt` service: the preset
//! configurations each scale maps to, the shared backend mixes, and the
//! execution + emission wiring.
//!
//! The `hqw` runner reaches these through [`crate::registry`]; every grid
//! experiment runs through the one generic engine ([`hqw_core::grid`]), the
//! same path the shard, merge and checkpoint runners in
//! [`crate::distributed`] take.

use crate::cli::Options;
use hqw_core::fabric::{
    AnnealerConfig, ArrivalProcess, BackendMix, BackendSpec, FabricGridConfig, FabricMode,
    MockQpuConfig, NetworkModel, PtConfig, RealtimeConfig, SaPoolConfig, TabuConfig,
};
use hqw_core::fabric_rt::{run_fabric_rt_grid_observed, trace_doc};
use hqw_core::grid::spec_grid;
use hqw_core::scenario::SnrSweepConfig;
use hqw_core::sched::{ClassMix, SchedOptions, SchedPolicy};
use hqw_core::sched_grid::SchedGridConfig;
use hqw_core::shard::spec_fingerprint;
use hqw_core::spec::ExperimentSpec;
use hqw_core::stream::{CostModel, DispatchPolicy, StreamGridConfig};
use hqw_core::telemetry::Collector;
use hqw_phy::channel::{snr_db_to_noise_variance, ChannelModel, TrackConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::pt::PtParams;
use hqw_qubo::sa::SaParams;
use hqw_qubo::tabu::TabuParams;

/// Operating SNR of the streaming/fabric uplinks (dB).
const SNR_DB: f64 = 14.0;

// ---------------------------------------------------------------------------
// Presets: scale name → grid configuration
// ---------------------------------------------------------------------------

/// The `ber` preset at a given scale (`"quick"`, `"full"`, or standard).
pub fn ber_config(scale_name: &str, seed: u64, threads: usize) -> SnrSweepConfig {
    let (modulation, n_users, snr_db, realizations) = match scale_name {
        "quick" => (Modulation::Qpsk, 3, vec![0.0, 8.0, 16.0, 24.0], 4),
        "full" => (
            Modulation::Qam16,
            4,
            (0..=10).map(|i| 3.0 * i as f64).collect(),
            50,
        ),
        _ => (
            Modulation::Qpsk,
            4,
            (0..=6).map(|i| 4.0 * i as f64).collect(),
            20,
        ),
    };
    SnrSweepConfig {
        n_users,
        n_rx: n_users,
        modulation,
        channel: ChannelModel::UnitGainRandomPhase,
        snr_db,
        realizations,
        seed,
        threads,
    }
}

/// The `stream` preset at a given scale.
pub fn stream_config(scale_name: &str, seed: u64, threads: usize) -> StreamGridConfig {
    let (frames, rhos, arrival_periods_us) = match scale_name {
        "quick" => (64, vec![0.0, 0.5, 0.95], vec![400.0, 160.0, 90.0]),
        "full" => (
            1024,
            vec![0.0, 0.5, 0.9, 0.99],
            vec![400.0, 250.0, 160.0, 120.0, 90.0, 60.0],
        ),
        _ => (
            256,
            vec![0.0, 0.5, 0.9, 0.99],
            vec![400.0, 200.0, 120.0, 80.0],
        ),
    };
    let n_users = 3;
    StreamGridConfig {
        track: TrackConfig {
            n_users,
            n_rx: n_users,
            modulation: Modulation::Qpsk,
            rho: 0.0, // per-cell override
            noise_variance: snr_db_to_noise_variance(SNR_DB, n_users),
        },
        frames,
        arrival_periods_us,
        rhos,
        policies: DispatchPolicy::ALL.to_vec(),
        deadline_us: 300.0,
        cost: CostModel::default(),
        sa: SaParams {
            sweeps: 96,
            num_reads: 1,
            threads: 1,
            ..SaParams::default()
        },
        seed,
        threads,
    }
}

/// The pool compositions swept as the `fabric` backend-mix axis. The two
/// mock-QPU mixes differ only in `max_batch`, which is what the
/// batched-vs-unbatched latency invariant in `ci/check_bench.py` compares.
pub fn fabric_mixes() -> Vec<BackendMix> {
    let sa_pool = BackendSpec::SaPool(SaPoolConfig {
        workers: 2,
        max_batch: 4,
        sa: SaParams {
            sweeps: 48,
            num_reads: 2,
            threads: 1,
            ..SaParams::default()
        },
    });
    let annealer = AnnealerConfig {
        num_reads: 2,
        anneal_us: 2.0,
        sweeps_per_us: 8,
        capacity: 1,
        max_batch: 4,
    };
    let qpu = |max_batch: usize| {
        BackendSpec::MockQpu(MockQpuConfig {
            num_reads: 4,
            anneal_us: 2.0,
            sweeps_per_us: 8,
            trotter_slices: 8,
            max_batch,
            network: NetworkModel {
                rtt_base_us: 30.0,
                jitter_us: 10.0,
            },
            programming_us: 120.0,
            embed_derive_us_per_qubit: 2.0,
            chain_strength: 2.0,
        })
    };
    vec![
        BackendMix {
            name: "sa-pool".into(),
            backends: vec![sa_pool],
        },
        BackendMix {
            name: "hetero".into(),
            backends: vec![
                sa_pool,
                BackendSpec::Pimc(annealer),
                BackendSpec::Svmc(annealer),
                qpu(4),
            ],
        },
        BackendMix {
            name: "qpu-batched".into(),
            backends: vec![qpu(8)],
        },
        BackendMix {
            name: "qpu-unbatched".into(),
            backends: vec![qpu(1)],
        },
    ]
}

/// The `fabric` preset at a given scale.
pub fn fabric_config(scale_name: &str, seed: u64, threads: usize) -> FabricGridConfig {
    let (frames_per_cell, cell_counts, arrival_periods_us) = match scale_name {
        "quick" => (24, vec![2, 4], vec![400.0, 200.0, 120.0]),
        "full" => (
            256,
            vec![1, 2, 4, 8],
            vec![600.0, 400.0, 250.0, 160.0, 100.0],
        ),
        _ => (64, vec![1, 2, 4], vec![400.0, 200.0, 120.0]),
    };
    let n_users = 2;
    FabricGridConfig {
        track: TrackConfig {
            n_users,
            n_rx: n_users,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(SNR_DB, n_users),
        },
        frames_per_cell,
        cell_counts,
        arrival_periods_us,
        mixes: fabric_mixes(),
        arrival: ArrivalProcess::Periodic,
        mode: FabricMode::Virtual,
        sched: SchedOptions::default(),
        deadline_us: 700.0,
        cost: CostModel::default(),
        seed,
        threads,
    }
}

/// The `fabric-rt` preset at a given scale: the wall-clock realtime twin of
/// the `fabric` sweep, trimmed to one representative mix per scale (each
/// point occupies real worker threads for its full makespan) and driven by
/// a bursty arrival process so queue contention is actually exercised.
pub fn fabric_rt_config(scale_name: &str, seed: u64) -> FabricGridConfig {
    let (frames_per_cell, cell_counts, arrival_periods_us) = match scale_name {
        "quick" => (24, vec![2, 4], vec![400.0, 160.0]),
        "full" => (128, vec![2, 4, 8, 16], vec![400.0, 250.0, 160.0, 100.0]),
        _ => (48, vec![2, 4, 8], vec![400.0, 200.0, 120.0]),
    };
    let n_users = 2;
    FabricGridConfig {
        track: TrackConfig {
            n_users,
            n_rx: n_users,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(SNR_DB, n_users),
        },
        frames_per_cell,
        cell_counts,
        arrival_periods_us,
        mixes: vec![fabric_mixes().remove(1)], // hetero: all four backend kinds
        arrival: ArrivalProcess::Bursty { burst: 4 },
        mode: FabricMode::Realtime(RealtimeConfig {
            producers: 2,
            queue_shards: 2,
        }),
        sched: SchedOptions::default(),
        deadline_us: 700.0,
        cost: CostModel::default(),
        seed,
        threads: 0, // ignored in realtime mode: worker counts come from the spec
    }
}

/// The pool composition of the `sched` experiment: the three jitter-free
/// classical solver pools (SA, parallel tempering, tabu). Jitter-free
/// matters: with the true cost model every admission quote is exact, so
/// the calibrated workload pins the adaptive arm byte-identical to static
/// and the comparison isolates miscalibration.
pub fn sched_mix() -> BackendMix {
    BackendMix {
        name: "classical-pool".into(),
        backends: vec![
            BackendSpec::SaPool(SaPoolConfig {
                workers: 2,
                max_batch: 4,
                sa: SaParams {
                    sweeps: 48,
                    num_reads: 2,
                    threads: 1,
                    ..SaParams::default()
                },
            }),
            BackendSpec::Pt(PtConfig {
                workers: 1,
                max_batch: 2,
                pt: PtParams {
                    replicas: 4,
                    sweeps: 24,
                    ..PtParams::default()
                },
            }),
            BackendSpec::Tabu(TabuConfig {
                workers: 1,
                max_batch: 2,
                tabu: TabuParams {
                    max_iters: 150,
                    stall_limit: 60,
                    ..TabuParams::default()
                },
            }),
        ],
    }
}

/// The `sched` preset at a given scale: the static-vs-adaptive scheduling
/// comparison. The mispredicted workload's planner model underestimates
/// sweep cost 10x (`us_per_sweep` 0.15 vs the true 1.5), which is the
/// miscalibration the adaptive arm must learn away.
pub fn sched_config(scale_name: &str, seed: u64, threads: usize) -> SchedGridConfig {
    let (frames_per_cell, cell_counts, arrival_periods_us) = match scale_name {
        "quick" => (24, vec![2], vec![240.0, 60.0]),
        "full" => (128, vec![2, 4, 8], vec![300.0, 160.0, 100.0, 70.0]),
        _ => (48, vec![2, 4], vec![300.0, 140.0, 80.0]),
    };
    let n_users = 2;
    SchedGridConfig {
        track: TrackConfig {
            n_users,
            n_rx: n_users,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(SNR_DB, n_users),
        },
        frames_per_cell,
        cell_counts,
        arrival_periods_us,
        mix: sched_mix(),
        policy: SchedPolicy::Ewma { shift: 1 },
        classes: ClassMix {
            urllc: 1,
            embb: 2,
            bulk: 1,
        },
        assumed_cost: CostModel {
            us_per_sweep: 0.15,
            ..CostModel::default()
        },
        deadline_us: 700.0,
        cost: CostModel::default(),
        seed,
        threads,
    }
}

// ---------------------------------------------------------------------------
// Execution + emission
// ---------------------------------------------------------------------------

/// Runs `body` with a telemetry [`Collector`] when `--telemetry` was given
/// (`None` otherwise), then writes the Chrome trace-event file at the
/// flag's path. Observation never feeds back into the run: the engines
/// compute identical results either way, telemetry only *reads* clocks.
fn with_telemetry<R>(opts: &Options, body: impl FnOnce(Option<&Collector>) -> R) -> R {
    match &opts.telemetry {
        None => body(None),
        Some(path) => {
            let collector = Collector::new();
            let result = body(Some(&collector));
            collector
                .write_chrome_trace(path)
                .expect("write telemetry trace");
            println!(
                "telemetry trace written to {} (open in a Chrome trace viewer)",
                path.display()
            );
            result
        }
    }
}

/// Runs any spec but the realtime fabric's through its grid engine
/// ([`spec_grid`]) and emits table + CSV + JSON.
pub fn run_grid_spec(spec: &ExperimentSpec, opts: &Options) {
    let name = spec.family();
    opts.banner(
        name,
        crate::registry::find(name).map_or("", |e| e.description),
    );
    println!(
        "fingerprint={} threads={} (0 = all cores)",
        spec_fingerprint(spec),
        spec.threads()
    );
    println!();
    let grid = spec_grid(spec).expect("the registry routes only grid specs here");
    let report = with_telemetry(opts, |t| grid.run_report(t));
    opts.emit_report(report.as_ref());
}

/// Runs the wall-clock realtime fabric service and emits table + CSV +
/// JSON, plus the replay-trace document (`fabric_rt_trace.json` under
/// `--out`) that the `hqw replay` subcommand and the `realtime-replay` CI
/// job feed back through the virtual-time sim.
pub fn run_fabric_rt(config: &FabricGridConfig, opts: &Options) {
    opts.banner(
        "Realtime fabric",
        "wall-clock fabric service: concurrent producers, sharded queues, worker pools",
    );
    let FabricMode::Realtime(rt) = config.mode else {
        unreachable!("registry routes only realtime specs here");
    };
    println!(
        "{} users QPSK at {SNR_DB} dB per cell, {} frames/cell, deadline {} us, \
         {} arrivals, {} producers x {} queue shards, {} mixes x {} cell-counts x {} loads",
        config.track.n_users,
        config.frames_per_cell,
        config.deadline_us,
        config.arrival.name(),
        rt.producers,
        rt.queue_shards,
        config.mixes.len(),
        config.cell_counts.len(),
        config.arrival_periods_us.len(),
    );
    println!();
    let report = with_telemetry(opts, |t| run_fabric_rt_grid_observed(config, t));
    if let Some(summary) = &report.telemetry {
        println!("Per-stage latency breakdown (telemetry, all grid points):");
        println!("{}", summary.table().render());
    }
    opts.emit_report(&report);
    let trace_path = opts.csv_path("fabric_rt_trace.json");
    std::fs::write(&trace_path, trace_doc(config, &report)).expect("write replay trace");
    println!("replay trace written to {}", trace_path.display());
    let divergences: usize = report.points.iter().map(|p| p.replay_divergences).sum();
    assert_eq!(
        divergences, 0,
        "realtime routing diverged from the virtual-time sim"
    );
}
