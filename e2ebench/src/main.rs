//! Measurement harness behind `e2ebench/run.py`.
//!
//! ```text
//! e2ebench <setup|run|trace> --workload <detect-ra|fabric-hybrid>
//!          --seed N --seconds S [--trace-dir DIR]
//! ```
//!
//! * `setup` builds and validates the workload's specs, generates its
//!   inputs, warms up, and prints the spec's thread topology (what
//!   `run.py`'s thread guard checks). `run.py` times whole `setup`
//!   launches for `setup_s`.
//! * `run` does the same set-up, then the timed phase: a fixed amount of
//!   work derived from `--seconds` (so `ber` and `served_rate` repeat
//!   exactly for a given seed), followed by an untimed correctness check.
//! * `trace` probes each layer through its public entry point and runs the
//!   realtime fabric with telemetry, writing the Chrome trace that
//!   `hqw run --telemetry` writes.
//!
//! Every mode prints one JSON line of raw measurements on stdout; `run.py`
//! aggregates it into the benchmark's metrics.

use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::DWaveProfile;
use hqw_core::fabric::{
    run_fabric_grid, ArrivalProcess, BackendMix, BackendSpec, FabricGridConfig, FabricJob,
    FabricMode, MockQpuConfig, NetworkModel, RealtimeConfig, SaPoolConfig,
};
use hqw_core::fabric_rt::{run_fabric_rt_grid, run_fabric_rt_grid_observed};
use hqw_core::sched::{PriorityClass, SchedOptions};
use hqw_core::stages::{ClassicalInitializer, GreedyInitializer};
use hqw_core::stream::CostModel;
use hqw_core::telemetry::Collector;
use hqw_core::{HybridSolver, Protocol};
use hqw_math::Rng64;
use hqw_phy::channel::{snr_db_to_noise_variance, ChannelTrack, TrackConfig};
use hqw_phy::detect::{Detector, Mmse};
use hqw_phy::metrics::bit_error_rate;
use hqw_phy::modulation::Modulation;
use hqw_phy::DetectionInstance;
use hqw_qubo::sa::{sample_qubo, SaParams};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Operating SNR of every workload (dB), as in the repository's presets.
const SNR_DB: f64 = 14.0;

/// detect-ra frames per requested second of measurement (a probe on a
/// 2-core x86-64 box ran 260-281 frames/s).
const RA_FRAMES_PER_SECOND: u64 = 250;
/// detect-ra frames solved, untimed, before the timed loop.
const RA_WARMUP_FRAMES: usize = 8;
/// Frames per cell of a traced realtime call: the trace costs about 1 KB
/// per frame, so 2,000 (rt-hybrid) and 8,000 (rt-soak) frames keep each
/// trace file within a few MB.
const TRACE_FRAMES_PER_CELL: usize = 500;
/// Telemetry-on / telemetry-off call pairs behind `trace.overhead`.
const TRACE_PAIRS: usize = 3;
/// fabric-hybrid frames per cell of one call (4 cells, so 256 frames).
const FABRIC_FRAMES_PER_CELL: usize = 64;
/// fabric-hybrid calls per requested second of measurement.
const FABRIC_CALLS_PER_SECOND: u64 = 10;
/// fabric-hybrid calls made, untimed, before the timed loop.
const FABRIC_WARMUP_CALLS: usize = 2;
/// Every this many fabric-hybrid calls, one is replayed for the
/// determinism check.
const FABRIC_REPLAY_EVERY: usize = 8;

// ---------------------------------------------------------------------------
// Workloads and their specs
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    DetectRa,
    FabricHybrid,
    RtHybrid,
    RtSoak,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "detect-ra" => Some(Workload::DetectRa),
            "fabric-hybrid" => Some(Workload::FabricHybrid),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DetectRa => "detect-ra",
            Workload::FabricHybrid => "fabric-hybrid",
            Workload::RtHybrid => "rt-hybrid",
            Workload::RtSoak => "rt-soak",
        }
    }
}

/// An independent 64-bit seed for stream `stream` of the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    Rng64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn qpsk_track(n_users: usize, rho: f64) -> TrackConfig {
    TrackConfig {
        n_users,
        n_rx: n_users,
        modulation: Modulation::Qpsk,
        rho,
        noise_variance: snr_db_to_noise_variance(SNR_DB, n_users),
    }
}

/// The paper's hybrid detector as the `ber` roster builds it: greedy search
/// seeding reverse annealing at `s_p = 0.65`, PIMC with 16 reads over 8
/// Trotter slices, serial reads.
fn ra_solver() -> HybridSolver {
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 16,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            threads: 1,
            ..Default::default()
        },
    );
    HybridSolver::paper_prototype(sampler, 0.65)
}

/// The hybrid pool's SA pool: 2 worker slots, 48 sweeps x 2 reads per job.
fn hybrid_sa_pool() -> BackendSpec {
    BackendSpec::SaPool(SaPoolConfig {
        workers: 2,
        max_batch: 4,
        sa: SaParams {
            sweeps: 48,
            num_reads: 2,
            threads: 1,
            ..SaParams::default()
        },
    })
}

/// The hybrid pool's mock QPU: PIMC behind a cached Chimera embedding,
/// batches of up to 4 (the `fabric` preset's QPU).
fn hybrid_mock_qpu() -> BackendSpec {
    BackendSpec::MockQpu(MockQpuConfig {
        num_reads: 4,
        anneal_us: 2.0,
        sweeps_per_us: 8,
        trotter_slices: 8,
        max_batch: 4,
        network: NetworkModel {
            rtt_base_us: 30.0,
            jitter_us: 10.0,
        },
        programming_us: 120.0,
        embed_derive_us_per_qubit: 2.0,
        chain_strength: 2.0,
    })
}

/// Shape of one fabric call: its cells, arrivals and backend pool.
struct RtShape {
    n_users: usize,
    n_cells: usize,
    period_us: f64,
    arrival: ArrivalProcess,
    backends: Vec<BackendSpec>,
}

fn rt_shape(workload: Workload) -> RtShape {
    match workload {
        // The paper's hybrid pool just under the virtual knee: a small,
        // non-zero fallback share.
        Workload::FabricHybrid | Workload::RtHybrid => RtShape {
            n_users: 4,
            n_cells: 4,
            period_us: 250.0,
            arrival: ArrivalProcess::Bursty { burst: 4 },
            backends: vec![hybrid_sa_pool(), hybrid_mock_qpu()],
        },
        // Far past the knee: most frames take admission-reject -> MMSE.
        Workload::RtSoak => RtShape {
            n_users: 2,
            n_cells: 16,
            period_us: 40.0,
            arrival: ArrivalProcess::Periodic,
            backends: vec![BackendSpec::SaPool(SaPoolConfig {
                workers: 1,
                max_batch: 4,
                sa: SaParams {
                    sweeps: 4,
                    num_reads: 1,
                    threads: 1,
                    ..SaParams::default()
                },
            })],
        },
        Workload::DetectRa => unreachable!("detect-ra runs no fabric"),
    }
}

/// One realtime fabric call's grid: a single point, one producer, one queue
/// shard.
fn rt_config(shape: &RtShape, frames_per_cell: usize, seed: u64) -> FabricGridConfig {
    FabricGridConfig {
        track: qpsk_track(shape.n_users, 0.9),
        frames_per_cell,
        cell_counts: vec![shape.n_cells],
        arrival_periods_us: vec![shape.period_us],
        mixes: vec![BackendMix {
            name: "pool".into(),
            backends: shape.backends.clone(),
        }],
        arrival: shape.arrival,
        mode: FabricMode::Realtime(RealtimeConfig {
            producers: 1,
            queue_shards: 1,
        }),
        deadline_us: 700.0,
        cost: CostModel::default(),
        sched: SchedOptions::default(),
        seed,
        threads: 1,
    }
}

/// The same grid on the virtual clock (`run_fabric_traced` per point): a
/// fabric-hybrid call, and the oracle a realtime call must match.
fn virtual_twin(config: &FabricGridConfig) -> FabricGridConfig {
    FabricGridConfig {
        mode: FabricMode::Virtual,
        ..config.clone()
    }
}

/// Solver threads a backend spins up per call (what the thread guard checks).
fn backend_threads(spec: &BackendSpec) -> usize {
    match spec {
        BackendSpec::SaPool(c) => c.sa.threads,
        // The annealer simulators and the mock QPU build their samplers
        // with one thread; PT and tabu are serial.
        _ => 1,
    }
}

// ---------------------------------------------------------------------------
// Process resource usage
// ---------------------------------------------------------------------------

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("e2ebench reads thread CPU time and peak RSS through 64-bit Linux calls");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut [i64; 2]) -> i32;
}

/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID).
fn thread_cpu_s() -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable 64-bit Linux `struct timespec` and 3 is
    // CLOCK_THREAD_CPUTIME_ID.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// Peak resident set of this process (KiB).
fn peak_rss_kb() -> u64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable `struct rusage` with the 64-bit Linux layout
    // (checked by the cfg above), and 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u.maxrss_kb.max(0) as u64
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// A flat JSON object under construction. Floats print with Rust's
/// shortest round-trip formatting, so a reader recovers every bit.
#[derive(Default)]
struct Obj(Vec<String>);

impl Obj {
    fn raw(mut self, key: &str, value: String) -> Obj {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    fn num(self, key: &str, value: f64) -> Obj {
        assert!(value.is_finite(), "{key} is not finite");
        self.raw(key, format!("{value:?}"))
    }

    fn int(self, key: &str, value: u64) -> Obj {
        self.raw(key, value.to_string())
    }

    fn text(self, key: &str, value: &str) -> Obj {
        self.raw(key, format!("\"{value}\""))
    }

    fn nums(self, key: &str, values: &[f64]) -> Obj {
        let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    fn build(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// The thread topology of a workload, as `run.py`'s thread guard reads it.
fn topology_json(producers: usize, shards: usize, lanes: usize, threads: &[usize]) -> String {
    let threads: Vec<String> = threads.iter().map(usize::to_string).collect();
    Obj::default()
        .int("producers", producers as u64)
        .int("queue_shards", shards as u64)
        .int("backend_lanes", lanes as u64)
        .raw("threads", format!("[{}]", threads.join(", ")))
        .build()
}

// ---------------------------------------------------------------------------
// detect-ra: the paper's pipeline in a closed loop with one caller
// ---------------------------------------------------------------------------

struct RaSetup {
    solver: HybridSolver,
    frames: Vec<DetectionInstance>,
    seeds: Vec<u64>,
}

fn ra_setup(seed: u64, seconds: u64) -> RaSetup {
    let solver = ra_solver();
    let n = (seconds * RA_FRAMES_PER_SECOND) as usize;
    let frames: Vec<DetectionInstance> = ChannelTrack::new(qpsk_track(8, 0.0), derive(seed, 1))
        .take(n)
        .collect();
    let mut rng = Rng64::new(derive(seed, 2));
    let seeds = (0..n).map(|_| rng.next_u64()).collect();
    for inst in ChannelTrack::new(qpsk_track(8, 0.0), derive(seed, 3)).take(RA_WARMUP_FRAMES) {
        black_box(solver.solve(&inst, 0));
    }
    RaSetup {
        solver,
        frames,
        seeds,
    }
}

fn ra_topology(setup: &RaSetup) -> String {
    topology_json(1, 1, 1, &[setup.solver.sampler.config.threads])
}

fn ra_run(setup: &RaSetup) -> Obj {
    let n = setup.frames.len();
    let mut frame_us = Vec::with_capacity(n);
    let mut frame_cpu_us = Vec::with_capacity(n);
    let mut ber_sum = 0.0;
    let mut failed = 0u64;

    for (inst, &seed) in setup.frames.iter().zip(&setup.seeds) {
        let c0 = thread_cpu_s();
        let t0 = Instant::now();
        let result = setup.solver.solve(inst, seed);
        let bits = &result.best_bits;
        if bits.len() != inst.num_vars() || bits.iter().any(|&b| b > 1) {
            failed += 1;
        } else {
            let gray = inst.reduction.natural_to_gray(bits);
            ber_sum += bit_error_rate(&inst.tx_gray_bits, &gray);
        }
        frame_us.push(t0.elapsed().as_secs_f64() * 1e6);
        frame_cpu_us.push((thread_cpu_s() - c0) * 1e6);
    }
    Obj::default()
        .int("frames", n as u64)
        .int("failed", failed)
        .int("peak_rss_kb", peak_rss_kb())
        .num("ber", ber_sum / n as f64)
        .nums("frame_us", &frame_us)
        .nums("frame_cpu_us", &frame_cpu_us)
}

// ---------------------------------------------------------------------------
// fabric-hybrid: the hybrid pool on the virtual clock, one caller
// ---------------------------------------------------------------------------

struct FabricSetup {
    calls: Vec<FabricGridConfig>,
}

fn fabric_setup(seed: u64, seconds: u64) -> Result<FabricSetup, String> {
    let shape = rt_shape(Workload::FabricHybrid);
    let n_calls = (seconds * FABRIC_CALLS_PER_SECOND) as usize;
    let calls: Vec<FabricGridConfig> = (0..n_calls)
        .map(|i| {
            virtual_twin(&rt_config(
                &shape,
                FABRIC_FRAMES_PER_CELL,
                derive(seed, 100 + i as u64),
            ))
        })
        .collect();
    for config in &calls {
        config.validate().map_err(|e| e.to_string())?;
    }
    let warmup = virtual_twin(&rt_config(&shape, FABRIC_FRAMES_PER_CELL, derive(seed, 99)));
    for _ in 0..FABRIC_WARMUP_CALLS {
        black_box(run_fabric_grid(&warmup));
    }
    Ok(FabricSetup { calls })
}

fn fabric_topology(setup: &FabricSetup) -> String {
    // The virtual clock runs every backend and the fallback in the caller.
    let backends = &setup.calls[0].mixes[0].backends;
    let threads: Vec<usize> = backends.iter().map(backend_threads).collect();
    topology_json(1, 1, 1, &threads)
}

fn fabric_run(setup: &FabricSetup) -> Obj {
    let mut calls = Vec::with_capacity(setup.calls.len());
    for (i, config) in setup.calls.iter().enumerate() {
        let c0 = thread_cpu_s();
        let t0 = Instant::now();
        let report = run_fabric_grid(config);
        let call_s = t0.elapsed().as_secs_f64();
        let cpu_s = thread_cpu_s() - c0;
        let point = &report.points[0];
        let mut call = Obj::default()
            .int("frames", point.jobs as u64)
            .int(
                "expected_frames",
                (config.cell_counts[0] * config.frames_per_cell) as u64,
            )
            .num("call_s", call_s)
            .num("cpu_s", cpu_s)
            .int(
                "fallbacks",
                (point.fallback_rate * point.jobs as f64).round() as u64,
            )
            .num("ber", point.ber);
        // Untimed replay of every FABRIC_REPLAY_EVERY-th call: the virtual
        // clock is deterministic, so it must reproduce the BER bit for bit.
        if i % FABRIC_REPLAY_EVERY == 0 {
            call = call.num("replay_ber", run_fabric_grid(config).points[0].ber);
        }
        calls.push(call.build());
    }
    Obj::default()
        .int("peak_rss_kb", peak_rss_kb())
        .raw("calls", format!("[{}]", calls.join(", ")))
}

// ---------------------------------------------------------------------------
// Traced pass: per-layer probes through public entry points
// ---------------------------------------------------------------------------

/// Median per-op µs of `op` over `blocks` blocks of `per_block` calls.
fn probe_us(blocks: usize, per_block: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per_op: Vec<f64> = (0..blocks)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..per_block {
                op(b * per_block + i);
            }
            t0.elapsed().as_secs_f64() * 1e6 / per_block as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[per_op.len() / 2]
}

fn frames(n_users: usize, n: usize, seed: u64) -> Vec<DetectionInstance> {
    ChannelTrack::new(qpsk_track(n_users, 0.9), seed)
        .take(n)
        .collect()
}

/// Fabric jobs as the service would see them: 8-spin frames of one cell.
fn fabric_jobs(n: usize, seed: u64) -> Vec<FabricJob> {
    frames(4, n, seed)
        .into_iter()
        .enumerate()
        .map(|(frame, inst)| FabricJob {
            cell: 0,
            frame,
            arrival_us: 0.0,
            seed: derive(seed, frame as u64),
            class: PriorityClass::Embb,
            inst,
        })
        .collect()
}

/// `(layer metric, value, unit)` rows of the probes.
fn layer_probes(seed: u64) -> Vec<(String, f64, &'static str)> {
    let mut rows: Vec<(String, f64, &'static str)> = Vec::new();

    // phy: channel-track frame generation at 4/8/16 spins, MMSE at 4.
    for n_users in [2, 4, 8] {
        let mut track = ChannelTrack::new(qpsk_track(n_users, 0.9), derive(seed, 10));
        let us = probe_us(7, 400, |_| {
            black_box(track.next());
        });
        rows.push((format!("phy.frame_gen_us.n{}", 2 * n_users), us, "us"));
    }
    let soak_frames = frames(2, 2000, derive(seed, 11));
    let mmse = Mmse::new(qpsk_track(2, 0.9).noise_variance);
    let us = probe_us(7, 2000, |i| {
        let inst = &soak_frames[i % soak_frames.len()];
        black_box(mmse.detect(&inst.system, &inst.h, &inst.y));
    });
    rows.push(("phy.mmse_us.n4".into(), us, "us"));

    // qubo: SA at the hybrid pool's per-job schedule (48 sweeps x 2 reads).
    let hybrid_frames = frames(4, 256, derive(seed, 12));
    let sa = SaParams {
        sweeps: 48,
        num_reads: 2,
        threads: 1,
        ..SaParams::default()
    };
    let mut rng = Rng64::new(derive(seed, 13));
    let us = probe_us(7, 200, |i| {
        let qubo = &hybrid_frames[i % hybrid_frames.len()].reduction.qubo;
        black_box(sample_qubo(qubo, &sa, &mut rng));
    });
    let sweeps = (sa.sweeps * sa.num_reads) as f64;
    rows.push(("qubo.sa_ns_per_sweep.n8".into(), us * 1e3 / sweeps, "ns"));

    // anneal + solver: detect-ra's PIMC reverse anneal from the greedy
    // seed, and the greedy seed itself.
    let solver = ra_solver();
    let schedule = Protocol::paper_ra(0.65)
        .schedule()
        .expect("paper RA schedule is valid");
    let greedy = GreedyInitializer::default();
    for (n_users, count) in [(4, 40), (8, 20)] {
        let probe_frames = frames(n_users, 64, derive(seed, 14));
        let mut rng = Rng64::new(derive(seed, 15));
        let starts: Vec<Vec<u8>> = probe_frames
            .iter()
            .map(|inst| greedy.initialize(inst, &mut rng).bits)
            .collect();
        let reads = solver.sampler.config.num_reads as f64;
        let us = probe_us(5, count, |i| {
            let k = i % probe_frames.len();
            black_box(solver.sampler.sample_qubo(
                &probe_frames[k].reduction.qubo,
                &schedule,
                Some(&starts[k]),
                k as u64,
            ));
        });
        rows.push((
            format!("anneal.pimc_read_us.n{}", 2 * n_users),
            us / reads,
            "us",
        ));
    }
    let ra_frames = frames(8, 512, derive(seed, 16));
    let us = probe_us(7, 512, |i| {
        black_box(greedy.initialize(&ra_frames[i % ra_frames.len()], &mut rng));
    });
    rows.push(("solver.greedy_us.n16".into(), us, "us"));

    // fabric: solve_batch per backend at batch 1 and at max_batch (after
    // one untimed call, so the mock QPU's embedding is cached), and the
    // measured cost over the CostModel charge at max_batch.
    let cost = CostModel::default();
    let jobs = fabric_jobs(64, derive(seed, 17));
    for (spec, name, calls) in [
        (hybrid_sa_pool(), "sa_pool", 64),
        (hybrid_mock_qpu(), "mock_qpu", 16),
    ] {
        let mut backend = spec.build();
        let max_batch = backend.max_batch();
        let first: Vec<&FabricJob> = jobs.iter().take(max_batch).collect();
        black_box(backend.solve_batch(&cost, &first));
        for batch in [1, max_batch] {
            let mut charged_us = 0.0;
            let mut solved = 0;
            let us = probe_us(5, calls / batch, |i| {
                let at = (i * batch) % (jobs.len() - batch + 1);
                let refs: Vec<&FabricJob> = jobs[at..at + batch].iter().collect();
                charged_us += backend.solve_batch(&cost, &refs).service_us;
                solved += batch;
            }) / batch as f64;
            rows.push((format!("fabric.{name}.us_per_job.b{batch}"), us, "us"));
            if batch == max_batch {
                let quote_us = charged_us / solved as f64;
                rows.push((format!("fabric.{name}.quote_ratio"), us / quote_us, "ratio"));
            }
        }
    }
    rows
}

/// One traced realtime workload: telemetry-on calls (the Chrome trace of
/// the first is written to `trace_path`) alternating with telemetry-off
/// calls, plus the self-check oracle timed on its own.
fn rt_trace(
    workload: Workload,
    seed: u64,
    trace_path: &std::path::Path,
) -> Vec<(String, f64, &'static str)> {
    let shape = rt_shape(workload);
    let suffix = workload.name();
    let config = rt_config(&shape, TRACE_FRAMES_PER_CELL, derive(seed, 200));
    black_box(run_fabric_rt_grid(&config));

    let mut traced_fps = Vec::new();
    let mut plain_fps = Vec::new();
    let mut decide_ns = Vec::new();
    for pair in 0..TRACE_PAIRS {
        let collector = Collector::new();
        let traced = run_fabric_rt_grid_observed(&config, Some(&collector));
        traced_fps.push(traced.points[0].frames_per_sec);
        if pair == 0 {
            collector
                .write_chrome_trace(trace_path)
                .expect("write the telemetry trace");
        }
        let plain = run_fabric_rt_grid(&config);
        plain_fps.push(plain.points[0].frames_per_sec);
        decide_ns.push(plain.points[0].decision_ns_per_job);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };

    let twin = virtual_twin(&config);
    let t0 = Instant::now();
    let oracle = run_fabric_grid(&twin);
    let selfcheck_s = t0.elapsed().as_secs_f64();

    let plain = median(&mut plain_fps);
    let mut rows = vec![
        (format!("rt.serve_frames_per_sec.{suffix}"), plain, "1/s"),
        (
            format!("sched.decide_ns_per_job.{suffix}"),
            median(&mut decide_ns),
            "ns",
        ),
        (format!("rt.selfcheck_s.{suffix}"), selfcheck_s, "s"),
        (
            format!("trace.overhead.{suffix}"),
            median(&mut traced_fps) / plain,
            "ratio",
        ),
    ];
    for backend in &oracle.points[0].backends {
        let lookups = backend.embed_cache_hits + backend.embed_cache_misses;
        if lookups > 0 {
            rows.push((
                format!("fabric.{}.embed_hit_rate", backend.name.replace('-', "_")),
                backend.embed_cache_hits as f64 / lookups as f64,
                "ratio",
            ));
        }
    }
    rows
}

fn trace_pass(seed: u64, trace_dir: &std::path::Path) -> Obj {
    let mut rows = layer_probes(seed);
    let mut traces = Vec::new();
    for workload in [Workload::RtHybrid, Workload::RtSoak] {
        let path = trace_dir.join(format!("{}.trace.json", workload.name()));
        rows.extend(rt_trace(workload, seed, &path));
        traces.push(format!(
            "\"{}\": \"{}\"",
            workload.name(),
            path.display().to_string().replace('\\', "\\\\")
        ));
    }
    let layers: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\": [{value:?}, \"{unit}\"]"))
        .collect();
    Obj::default()
        .raw("layers", format!("{{{}}}", layers.join(", ")))
        .raw("traces", format!("{{{}}}", traces.join(", ")))
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: e2ebench <setup|run|trace> --workload <detect-ra|fabric-hybrid> \
                     --seed N --seconds S [--trace-dir DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mode = argv.first().ok_or("missing mode")?.clone();
    if !matches!(mode.as_str(), "setup" | "run" | "trace") {
        return Err(format!("unknown mode {mode:?}"));
    }
    let (mut workload, mut seed, mut seconds, mut trace_dir) = (None, None, None, None);
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("--seconds must be 1..=600, got {value:?}"))?,
                )
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let head = Obj::default()
        .text("workload", args.workload.name())
        .int("seed", args.seed)
        .int("nproc", nproc as u64);

    let out = if args.mode == "trace" {
        let Some(dir) = &args.trace_dir else {
            eprintln!("error: trace mode needs --trace-dir\n{USAGE}");
            return ExitCode::from(2);
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        head.raw("trace", trace_pass(args.seed, dir).build())
    } else {
        let timed = args.mode == "run";
        let (topology, body) = match args.workload {
            Workload::DetectRa => {
                let setup = ra_setup(args.seed, args.seconds);
                (ra_topology(&setup), timed.then(|| ra_run(&setup)))
            }
            workload => match fabric_setup(args.seed, args.seconds) {
                Ok(setup) => (fabric_topology(&setup), timed.then(|| fabric_run(&setup))),
                Err(e) => {
                    eprintln!("error: invalid {} spec: {e}", workload.name());
                    return ExitCode::from(2);
                }
            },
        };
        let head = head.raw("topology", topology);
        match body {
            Some(body) => head.raw("run", body.build()),
            None => head,
        }
    };
    println!("{}", out.build());
    ExitCode::SUCCESS
}
