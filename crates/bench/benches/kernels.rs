//! Hot-kernel benchmarks with a JSON trajectory emitter (std-only harness).
//!
//! The build environment is offline, so this harness is hand-rolled rather
//! than Criterion: each benchmark runs a warm-up, then `REPEATS` timed
//! batches, and reports **min / median / stddev** per-iteration times (min
//! is the low-noise estimator for CPU-bound kernels and drives every derived
//! ratio; median and stddev expose how noisy the box was). Kernels being
//! compared against each other run **interleaved** — batch 1 of A, batch 1
//! of B, batch 2 of A, … — so slow drift (thermal throttling, a background
//! task) biases both sides equally instead of whichever ran last.
//!
//! The headline comparisons are the sweep-kernel reworks:
//!
//! * `baseline_adjlist` — the pre-change kernel, reproduced verbatim below:
//!   recomputes the local field from the `Vec<Vec<(usize, f64)>>` adjacency
//!   list on every proposal (O(degree) per proposal).
//! * `incremental_csr` — the `Exact` kernel: flat CSR, incrementally
//!   maintained local fields (O(1) per proposal), contiguous-run AXPY
//!   neighbor updates. Bit-identical to the historical outputs.
//! * `fast_csr` — the `Fast` kernel: bit-packed spins, f32 fields,
//!   graph-colored sweep order, draw-skipping accepts/rejects.
//!   Statistically equivalent, not bit-identical.
//!
//! The PIMC/SVMC engine reads run their one (gate-first, bit-identical)
//! kernel; the PIMC rows include the shapes the system serves: the paper
//! detector's 16-read reverse anneal on 16 spins and the mock QPU's 4-read
//! forward anneal on its 32-qubit embedding.
//! Output: a human-readable table on stdout plus
//! `BENCH_kernels.json` at the workspace root (override with the
//! `BENCH_OUT` environment variable), including a `machine` stanza so the
//! regression gate (`ci/check_bench.py`) can judge ratios in context — on a
//! single-core box the serial-vs-parallel comparison is pure noise, and the
//! gate knows it. Run with:
//!
//! ```text
//! cargo bench -p hqw-bench
//! ```

use hqw_anneal::embedding::{ChainStrength, CliqueEmbedding};
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::topology::Chimera;
use hqw_anneal::{AnnealParams, AnnealSchedule, DWaveProfile};
use hqw_math::Rng64;
use hqw_phy::{DetectionInstance, InstanceConfig, Modulation};
use hqw_qubo::csr::CsrIsing;
use hqw_qubo::generator::sparse_random_qubo;
use hqw_qubo::greedy::{greedy_search, GreedyConfig};
use hqw_qubo::sa::{sa_read_csr, sa_read_fast, sample_qubo, SaParams};
use hqw_qubo::{Ising, Qubo};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per benchmark (minimum wins; median/stddev reported).
const REPEATS: usize = 7;

/// One benchmark measurement.
struct Measurement {
    name: String,
    /// Problem size (spins), when meaningful.
    n: usize,
    /// Iterations per timed batch.
    iters: usize,
    /// Best-of-`REPEATS` nanoseconds per iteration (drives derived ratios).
    ns_per_iter: f64,
    /// Median of the `REPEATS` batch times (ns/iter).
    ns_median: f64,
    /// Sample standard deviation across batches (ns/iter).
    ns_stddev: f64,
}

/// Reduces `REPEATS` per-batch ns/iter samples to a [`Measurement`].
fn reduce(name: &str, n: usize, iters: usize, mut samples: Vec<f64>) -> Measurement {
    samples.sort_by(|a, b| a.total_cmp(b));
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
        / (samples.len() - 1).max(1) as f64;
    let stddev = var.sqrt();
    println!(
        "{name:<44} {min:>12.0} ns/iter  (median {median:.0}, stddev {stddev:.0}, n={n}, iters={iters})"
    );
    Measurement {
        name: name.to_string(),
        n,
        iters,
        ns_per_iter: min,
        ns_median: median,
        ns_stddev: stddev,
    }
}

/// Times one batch of `iters` calls, returning ns/iter.
fn time_batch(iters: usize, f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Benchmarks several kernels **interleaved**: after a warm-up batch each,
/// timed batches alternate A, B, …, A, B, … so clock drift hits every
/// contestant equally — the honest way to form same-run ratios.
fn bench_interleaved(
    names: &[&str],
    n: usize,
    iters: usize,
    fns: &mut [&mut dyn FnMut()],
) -> Vec<Measurement> {
    assert_eq!(names.len(), fns.len());
    for f in fns.iter_mut() {
        for _ in 0..iters {
            f(); // warm-up
        }
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(REPEATS); fns.len()];
    for _ in 0..REPEATS {
        for (i, f) in fns.iter_mut().enumerate() {
            samples[i].push(time_batch(iters, *f));
        }
    }
    names
        .iter()
        .zip(samples)
        .map(|(name, s)| reduce(name, n, iters, s))
        .collect()
}

/// The **pre-change** SA sweep kernel, reproduced exactly: recomputes the
/// local field from the adjacency list on every proposal.
fn sa_read_ising_baseline(
    ising: &Ising,
    params: &SaParams,
    start: &[i8],
    rng: &mut Rng64,
) -> Vec<i8> {
    let n = ising.num_vars();
    let mut spins = start.to_vec();
    let ratio = if params.sweeps > 1 {
        (params.beta_final / params.beta_initial).powf(1.0 / (params.sweeps - 1) as f64)
    } else {
        1.0
    };
    let mut beta = params.beta_initial;
    for _ in 0..params.sweeps {
        for k in 0..n {
            let delta = ising.flip_delta(&spins, k);
            if delta <= 0.0 || rng.next_f64() < (-beta * delta).exp() {
                spins[k] = -spins[k];
            }
        }
        beta *= ratio;
    }
    spins
}

fn random_spins(n: usize, rng: &mut Rng64) -> Vec<i8> {
    (0..n)
        .map(|_| if rng.next_bool() { 1 } else { -1 })
        .collect()
}

/// Sweep-kernel three-way (baseline / Exact / Fast) at several sizes;
/// returns measurements plus derived `(key, ratio)` pairs.
fn bench_sweep_kernels(out: &mut Vec<Measurement>, derived: &mut Vec<(String, f64)>) {
    // Density 1.0 = the paper's regime: the ML→QUBO reduction produces fully
    // dense couplings, which is exactly where per-proposal O(degree)
    // recomputation hurts most. The dense point runs a production-length
    // deep quench (β: 0.1 → 100 over 256 sweeps) so the measurement window
    // covers both regimes a real read anneals through — the hot phase,
    // where the incremental AXPY update dominates, and the frozen tail,
    // where the Fast kernel's certain-reject skips and draw-free Metropolis
    // filtering take over. The sparse point keeps a short hot schedule and
    // tracks hardware-graph-like (embedded/Chimera) workloads.
    for &(n, density, sweeps, beta_final, iters) in &[
        (256usize, 1.0f64, 256usize, 100.0f64, 10usize),
        (512, 0.10, 64, 10.0, 10),
    ] {
        let mut rng = Rng64::new(12);
        let q = sparse_random_qubo(n, density, &mut rng);
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        let start = random_spins(n, &mut rng);
        let params = SaParams {
            sweeps,
            beta_final,
            num_reads: 1,
            ..SaParams::default()
        };
        // Build the lazy caches outside the timed region: production reads
        // amortize coloring/f32 mirrors across a whole read batch.
        csr.coloring();
        csr.weights_f32();

        let (mut s0, mut s1, mut s2) = (0u64, 0u64, 0u64);
        let mut base = || {
            s0 += 1;
            black_box(sa_read_ising_baseline(
                &ising,
                &params,
                black_box(&start),
                &mut Rng64::new(s0),
            ));
        };
        let mut exact = || {
            s1 += 1;
            black_box(sa_read_csr(
                &csr,
                &params,
                black_box(&start),
                &mut Rng64::new(s1),
            ));
        };
        let mut fast = || {
            s2 += 1;
            black_box(sa_read_fast(
                &csr,
                &params,
                black_box(&start),
                &mut Rng64::new(s2),
            ));
        };
        let ms = bench_interleaved(
            &[
                &format!("sa_sweep/baseline_adjlist/{n}"),
                &format!("sa_sweep/incremental_csr/{n}"),
                &format!("sa_sweep/fast_csr/{n}"),
            ]
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
            n,
            iters,
            &mut [&mut base, &mut exact, &mut fast],
        );
        let exact_speedup = ms[0].ns_per_iter / ms[1].ns_per_iter;
        let fast_speedup = ms[0].ns_per_iter / ms[2].ns_per_iter;
        println!(
            "  -> sweep-kernel speedup at {n} spins: exact {exact_speedup:.2}x, fast {fast_speedup:.2}x"
        );
        derived.push((format!("sa_sweep_speedup_{n}"), exact_speedup));
        derived.push((format!("sa_sweep_speedup_fast_{n}"), fast_speedup));
        out.extend(ms);
    }
}

/// Parallel-read scaling of `sample_qubo` (bit-identical output per seed,
/// any thread count). Serial and all-cores run interleaved.
fn bench_parallel_reads(out: &mut Vec<Measurement>, derived: &mut Vec<(String, f64)>) {
    let n = 256;
    let mut rng = Rng64::new(13);
    let q: Qubo = sparse_random_qubo(n, 0.1, &mut rng);
    let params_for = |threads: usize| SaParams {
        sweeps: 32,
        num_reads: 16,
        threads,
        ..SaParams::default()
    };
    let serial_params = params_for(1);
    let parallel_params = params_for(0);
    let (mut s0, mut s1) = (0u64, 0u64);
    let mut serial = || {
        s0 += 1;
        black_box(sample_qubo(&q, &serial_params, &mut Rng64::new(s0)));
    };
    let mut parallel = || {
        s1 += 1;
        black_box(sample_qubo(&q, &parallel_params, &mut Rng64::new(s1)));
    };
    let ms = bench_interleaved(
        &[
            &format!("sample_qubo/16reads_serial/{n}"),
            &format!("sample_qubo/16reads_all-cores/{n}"),
        ]
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>(),
        n,
        5,
        &mut [&mut serial, &mut parallel],
    );
    let speedup = ms[0].ns_per_iter / ms[1].ns_per_iter;
    println!("  -> parallel 16-read speedup: {speedup:.2}x");
    derived.push(("parallel_16reads_speedup_256".to_string(), speedup));
    out.extend(ms);
}

/// Annealer-engine read costs: one reverse-anneal submission per
/// iteration. PIMC-16 and SVMC run 4 reads on a medium random instance;
/// PIMC-8 runs the paper detector's problem (an 8-user QPSK frame, 16
/// spins, greedy seed, `s_p = 0.65`) with 4 reads, the row's historical
/// shape, and with the 16 reads that `detect-ra` and the `ber` roster
/// actually submit. The last row is the mock QPU's served shape: 4
/// forward-anneal reads of a 4-user QPSK frame through the 32-qubit C₂
/// clique embedding.
fn bench_engine_reads(out: &mut Vec<Measurement>) {
    let mut rng = Rng64::new(14);
    let q = sparse_random_qubo(64, 0.3, &mut rng);
    let schedule = AnnealSchedule::reverse(0.69, 1.0).unwrap();
    let init: Vec<u8> = (0..64).map(|_| rng.next_bool() as u8).collect();
    let frame = DetectionInstance::generate(
        &InstanceConfig::paper(8, Modulation::Qpsk),
        &mut Rng64::new(15),
    );
    let paper_q = frame.reduction.qubo;
    let (paper_init, _) = greedy_search(&paper_q, GreedyConfig::default());
    let paper_schedule = AnnealSchedule::reverse(0.65, 1.0).unwrap();
    let sampler_for = |engine: EngineKind, num_reads: usize, params: AnnealParams| {
        QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads,
                engine,
                params,
                threads: 1,
                ..Default::default()
            },
        )
    };
    for (label, engine, reads, q, init, schedule, iters) in [
        (
            "pimc16",
            EngineKind::Pimc { trotter_slices: 16 },
            4,
            &q,
            &init,
            &schedule,
            5,
        ),
        ("svmc", EngineKind::Svmc, 4, &q, &init, &schedule, 5),
        (
            "pimc8_paper",
            EngineKind::Pimc { trotter_slices: 8 },
            4,
            &paper_q,
            &paper_init,
            &paper_schedule,
            40,
        ),
        (
            "pimc8_16reads",
            EngineKind::Pimc { trotter_slices: 8 },
            16,
            &paper_q,
            &paper_init,
            &paper_schedule,
            10,
        ),
    ] {
        let n = q.num_vars();
        let sampler = sampler_for(engine, reads, AnnealParams::default());
        let mut seed = 0u64;
        let mut read = || {
            seed += 1;
            black_box(sampler.sample_qubo(q, schedule, Some(init), seed));
        };
        out.extend(bench_interleaved(
            &[&format!("anneal_read/ra_{label}/{n}")],
            n,
            iters,
            &mut [&mut read],
        ));
    }

    // The mock QPU (`fabric` preset): 2 µs forward anneals at 8 sweeps/µs,
    // 8 Trotter slices, chain strength 2× the largest coupling.
    let qpu_frame = DetectionInstance::generate(
        &InstanceConfig::paper(4, Modulation::Qpsk),
        &mut Rng64::new(16),
    );
    let qpu_q = qpu_frame.reduction.qubo;
    let graph = Chimera::new(2);
    let embedding = CliqueEmbedding::new(graph, qpu_q.num_vars());
    let qpu_schedule = AnnealSchedule::forward(2.0).unwrap();
    let qpu = sampler_for(
        EngineKind::Pimc { trotter_slices: 8 },
        4,
        AnnealParams {
            sweeps_per_us: 8,
            ..AnnealParams::default()
        },
    );
    let n = graph.num_qubits();
    let mut seed = 0u64;
    let mut read = || {
        seed += 1;
        black_box(qpu.sample_qubo_embedded(
            &qpu_q,
            &embedding,
            ChainStrength::RelativeToMax(2.0),
            &qpu_schedule,
            None,
            seed,
        ));
    };
    out.extend(bench_interleaved(
        &[&format!("anneal_read/fa_mockqpu_pimc8/{n}")],
        n,
        40,
        &mut [&mut read],
    ));
}

/// Minimal JSON emitter (no external crates available offline).
fn write_json(path: &std::path::Path, results: &[Measurement], derived: &[(String, f64)]) {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"kernels\",\n");
    s.push_str(&format!(
        "  \"machine\": {{\"available_parallelism\": {cores}, \"os\": \"{}\", \"arch\": \"{}\", \"repeats\": {REPEATS}}},\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
    ));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"iters\": {}, \"ns_per_iter\": {:.1}, \"ns_median\": {:.1}, \"ns_stddev\": {:.1}}}{}\n",
            m.name,
            m.n,
            m.iters,
            m.ns_per_iter,
            m.ns_median,
            m.ns_stddev,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"derived\": {\n");
    for (i, (key, val)) in derived.iter().enumerate() {
        s.push_str(&format!(
            "    \"{key}\": {val:.2}{}\n",
            if i + 1 < derived.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, s).expect("write bench JSON");
    println!("wrote {}", path.display());
}

fn main() {
    // `--bench` / filter arguments from `cargo bench` are accepted and
    // ignored; the suite is small enough to always run whole.
    let mut results = Vec::new();
    let mut derived = Vec::new();
    bench_sweep_kernels(&mut results, &mut derived);
    bench_parallel_reads(&mut results, &mut derived);
    bench_engine_reads(&mut results);

    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| default_path.to_string());
    write_json(std::path::Path::new(&path), &results, &derived);

    // Wall-clock assertions are opt-in: shared CI runners are too noisy to
    // gate merges on timing ratios. Set BENCH_ASSERT_MIN_SPEEDUP (e.g. 3.0)
    // to enforce, locally or on a quiet box, that at least one ≥256-spin
    // instance meets the bar (the dense instance is the headline; the sparse
    // point has a lower algorithmic ceiling — speedup scales with degree).
    if let Ok(min) = std::env::var("BENCH_ASSERT_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("BENCH_ASSERT_MIN_SPEEDUP: not a number");
        let best = derived
            .iter()
            .filter(|(k, _)| k.starts_with("sa_sweep_speedup"))
            .map(|&(_, sp)| sp)
            .fold(0.0, f64::max);
        assert!(
            best >= min,
            "best sweep-kernel speedup is {best:.2}x, below the required {min}x ({derived:?})"
        );
    }
}
