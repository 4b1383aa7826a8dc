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
//! The headline comparison is the SA sweep-kernel rework:
//!
//! * `baseline_adjlist` — the pre-change kernel, reproduced verbatim below:
//!   recomputes the local field from the `Vec<Vec<(usize, f64)>>` adjacency
//!   list on every proposal (O(degree) per proposal).
//! * `incremental_csr` — the SA kernel: flat CSR, incrementally
//!   maintained local fields (O(1) per proposal), a gather AXPY over the
//!   flipped spin's CSR row. Bit-identical to the historical outputs.
//!
//! `sa_job/48x2/8` times the SA pool's served job: one `sample_qubo` call
//! at 48 sweeps × 2 reads on a 4-user QPSK frame's 8-spin QUBO.
//!
//! The PIMC/SVMC engine reads run their one (gate-first, bit-identical)
//! kernel; the PIMC rows include the shapes the system serves: the paper
//! detector's 16-read reverse anneal on 16 spins (also at `s_p` 0.60 and
//! 0.55, where reads flip many times), the paper's 16-read FA on the same
//! frame, and the mock QPU's 4-read forward anneal on its 32-qubit
//! embedding. `served/detect_ra_frame/16` times detect-ra's whole served
//! frame (the hybrid solve and the decision's relabel) per frame over a
//! fixed set of 2,000 frames. `program/qubo_to_csr`
//! times `CsrIsing::from_qubo`, the one-pass build that programs each
//! served frame, and `program/embed_c2/8` the mock QPU's programming of
//! an 8-variable job: that build plus the clique embedding onto C₂.
//! `program/reduce_qubo/{16,8}` times `reduce_to_qubo`, the ML→QUBO
//! reduction behind every synthesized frame, on detect-ra's 8-user and the
//! fabric's 4-user QPSK frame, interleaved with
//! `program/reduce_qubo_dense/{16,8}`: the pre-change derivation (dense
//! `H̃·T` product, its Gram, an `Ising`, then its QUBO conversion),
//! reproduced verbatim below.
//! `rng/exp1` times one Exp(1) ziggurat draw, the draw behind every
//! annealer gate gap and Metropolis test, in ns per draw.
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
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig, Target};
use hqw_anneal::topology::Chimera;
use hqw_anneal::{AnnealParams, AnnealSchedule, DWaveProfile};
use hqw_core::protocol::Protocol;
use hqw_core::HybridSolver;
use hqw_math::{CMatrix, CVector, Exp1, RMatrix, Rng64};
use hqw_oracle::csr::from_ising;
use hqw_oracle::generator::sparse_random_qubo;
use hqw_oracle::model::{from_ising_with_constant, to_ising};
use hqw_oracle::rmat::{gram, matmul};
use hqw_oracle::Ising;
use hqw_phy::channel::{snr_db_to_noise_variance, ChannelTrack, TrackConfig};
use hqw_phy::mimo::MimoSystem;
use hqw_phy::reduction::reduce_to_qubo;
use hqw_phy::{DetectionInstance, InstanceConfig, Modulation};
use hqw_qubo::csr::CsrIsing;
use hqw_qubo::greedy::greedy_search;
use hqw_qubo::sa::{sa_read_csr, sample_qubo, SaParams};
use hqw_qubo::Qubo;
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

/// Sweep-kernel baseline vs CSR kernel at two sizes; returns measurements
/// plus derived `(key, ratio)` pairs.
fn bench_sweep_kernels(out: &mut Vec<Measurement>, derived: &mut Vec<(String, f64)>) {
    // Density 1.0 = the paper's regime: the ML→QUBO reduction produces fully
    // dense couplings, which is exactly where per-proposal O(degree)
    // recomputation hurts most. The dense point runs a production-length
    // deep quench (β: 0.1 → 100 over 256 sweeps) so the measurement window
    // covers both regimes a real read anneals through — the hot phase,
    // where the incremental AXPY update dominates, and the frozen tail,
    // where almost every proposal is rejected. The sparse point keeps a
    // short hot schedule and tracks hardware-graph-like (embedded/Chimera)
    // workloads.
    for &(n, density, sweeps, beta_final, iters) in &[
        (256usize, 1.0f64, 256usize, 100.0f64, 10usize),
        (512, 0.10, 64, 10.0, 10),
    ] {
        let mut rng = Rng64::new(12);
        let q = sparse_random_qubo(n, density, &mut rng);
        let (ising, _) = to_ising(&q);
        let csr = from_ising(&ising);
        let start = random_spins(n, &mut rng);
        let params = SaParams {
            sweeps,
            beta_final,
            num_reads: 1,
            ..SaParams::default()
        };
        let (mut s0, mut s1) = (0u64, 0u64);
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
        let ms = bench_interleaved(
            &[
                &format!("sa_sweep/baseline_adjlist/{n}"),
                &format!("sa_sweep/incremental_csr/{n}"),
            ]
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
            n,
            iters,
            &mut [&mut base, &mut exact],
        );
        let speedup = ms[0].ns_per_iter / ms[1].ns_per_iter;
        println!("  -> sweep-kernel speedup at {n} spins: {speedup:.2}x");
        derived.push((format!("sa_sweep_speedup_{n}"), speedup));
        out.extend(ms);
    }
}

/// The SA pool's served job (`fabric` preset): one `sample_qubo` call at
/// 48 sweeps × 2 reads, serial, on a 4-user QPSK frame's 8-spin QUBO.
fn bench_sa_job(out: &mut Vec<Measurement>) {
    let frame = DetectionInstance::generate(
        &InstanceConfig::paper(4, Modulation::Qpsk),
        &mut Rng64::new(16),
    );
    let q = frame.reduction.qubo;
    let n = q.num_vars();
    let params = SaParams {
        sweeps: 48,
        num_reads: 2,
        threads: 1,
        ..SaParams::default()
    };
    let mut seed = 0u64;
    out.extend(bench_interleaved(
        &[&format!("sa_job/48x2/{n}")],
        n,
        2_000,
        &mut [&mut || {
            seed += 1;
            black_box(sample_qubo(&q, &params, &mut Rng64::new(seed)));
        }],
    ));
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

/// Annealer-engine read costs: one submission per iteration. PIMC-16
/// and SVMC run 4 reverse-anneal reads on a medium random instance;
/// PIMC-8 runs the paper detector's problem (an 8-user QPSK frame, 16
/// spins, greedy seed, `s_p = 0.65`) with 4 reads, the row's historical
/// shape, with the 16 reads that `detect-ra` and the `ber` roster
/// actually submit, and with one read, which shows what a submission
/// costs beyond its reads. The same 16-read submission at `s_p` 0.60 and
/// 0.55 is the regime where reverse reads flip many times. The paper's FA
/// (`paper_fa(0.45)`, a forward anneal with a 1 µs pause) runs 16 reads of
/// the same frame, the figures' forward path. The last row is the mock
/// QPU's served shape: 4 forward-anneal reads of a 4-user QPSK frame
/// through the 32-qubit C₂ clique embedding.
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
    let (paper_init, _) = greedy_search(&paper_q);
    let paper_schedule = AnnealSchedule::reverse(0.65, 1.0).unwrap();
    let sp060 = AnnealSchedule::reverse(0.60, 1.0).unwrap();
    let sp055 = AnnealSchedule::reverse(0.55, 1.0).unwrap();
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
        (
            "pimc8_1read",
            EngineKind::Pimc { trotter_slices: 8 },
            1,
            &paper_q,
            &paper_init,
            &paper_schedule,
            160,
        ),
        (
            "pimc8_16reads_sp060",
            EngineKind::Pimc { trotter_slices: 8 },
            16,
            &paper_q,
            &paper_init,
            &sp060,
            4,
        ),
        (
            "pimc8_16reads_sp055",
            EngineKind::Pimc { trotter_slices: 8 },
            16,
            &paper_q,
            &paper_init,
            &sp055,
            2,
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

    let fa = sampler_for(
        EngineKind::Pimc { trotter_slices: 8 },
        16,
        AnnealParams::default(),
    );
    let fa_schedule = Protocol::paper_fa(0.45).schedule().unwrap();
    let n = paper_q.num_vars();
    let mut seed = 0u64;
    let mut read = || {
        seed += 1;
        black_box(fa.sample_qubo(&paper_q, &fa_schedule, None, seed));
    };
    out.extend(bench_interleaved(
        &[&format!("anneal_read/fa_pimc8_16reads/{n}")],
        n,
        10,
        &mut [&mut read],
    ));

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
        let target = Target::Embedded(&embedding, ChainStrength::RelativeToMax(2.0));
        black_box(qpu.sample_programmed(qpu.program(&qpu_q, target), &qpu_schedule, None, seed));
    };
    out.extend(bench_interleaved(
        &[&format!("anneal_read/fa_mockqpu_pimc8/{n}")],
        n,
        40,
        &mut [&mut read],
    ));
}

/// detect-ra's served frame: `HybridSolver::solve` (greedy search seeding
/// a 16-read PIMC-8 reverse anneal at `s_p` 0.65, serial reads) plus the
/// decision's `natural_to_gray`, over a fixed set of 2,000 8-user QPSK
/// `ChannelTrack` frames at 14 dB, each with a fixed seed. One batch is
/// one pass over the set, so a row is ns per frame, averaged over the set.
fn bench_served_frame(out: &mut Vec<Measurement>) {
    const FRAMES: usize = 2_000;
    let track = TrackConfig {
        n_users: 8,
        n_rx: 8,
        modulation: Modulation::Qpsk,
        rho: 0.0,
        noise_variance: snr_db_to_noise_variance(14.0, 8),
    };
    let frames: Vec<DetectionInstance> = ChannelTrack::new(track, 99).take(FRAMES).collect();
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 16,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            threads: 1,
            ..Default::default()
        },
    );
    let solver = HybridSolver::paper_prototype(sampler, 0.65);
    let mut at = 0;
    let mut frame = || {
        let inst = &frames[at];
        let result = solver.solve(inst, at as u64);
        black_box(inst.reduction.natural_to_gray(&result.best_bits));
        at = (at + 1) % FRAMES;
    };
    out.extend(bench_interleaved(
        &["served/detect_ra_frame/16"],
        16,
        FRAMES,
        &mut [&mut frame],
    ));
}

/// Programming a served frame: `CsrIsing::from_qubo` on the detector's
/// 8-user QPSK problem (16 spins), ns per build. Every served greedy
/// seed, SA read and anneal submission starts with this build. Then the
/// mock QPU's programming of its 8-variable job (a 4-user QPSK frame):
/// `from_qubo` plus the clique embedding onto the 32 qubits of C₂.
fn bench_programming(out: &mut Vec<Measurement>) {
    let frame = DetectionInstance::generate(
        &InstanceConfig::paper(8, Modulation::Qpsk),
        &mut Rng64::new(15),
    );
    let q = frame.reduction.qubo;
    let n = q.num_vars();
    out.extend(bench_interleaved(
        &[&format!("program/qubo_to_csr/{n}")],
        n,
        20_000,
        &mut [&mut || {
            black_box(CsrIsing::from_qubo(black_box(&q)));
        }],
    ));

    let qpu_q = DetectionInstance::generate(
        &InstanceConfig::paper(4, Modulation::Qpsk),
        &mut Rng64::new(16),
    )
    .reduction
    .qubo;
    let n = qpu_q.num_vars();
    let embedding = CliqueEmbedding::new(Chimera::new(2), n);
    let mut physical = CsrIsing::default();
    out.extend(bench_interleaved(
        &[&format!("program/embed_c2/{n}")],
        n,
        20_000,
        &mut [&mut || {
            let (logical, _) = CsrIsing::from_qubo(black_box(&qpu_q));
            embedding.embed(&logical, ChainStrength::RelativeToMax(2.0), &mut physical);
            black_box(&physical);
        }],
    ));
}

/// The **pre-change** ML→QUBO reduction, reproduced exactly: the
/// spin-weight matrix `T`, the dense product `H̃T`, its Gram and
/// `tr_matvec`, an adjacency-list `Ising`, then its QUBO conversion (the
/// products, model and conversion from `hqw-oracle`).
fn reduce_to_qubo_dense(system: &MimoSystem, h: &CMatrix, y: &CVector) -> (Qubo, f64) {
    let modulation = system.modulation;
    let n_tx = system.n_tx;
    let bps = modulation.bits_per_symbol();
    let mi = modulation.i_bits();
    let scale = modulation.scale();
    let n_vars = n_tx * bps;
    let mut t = RMatrix::zeros(2 * n_tx, n_vars);
    for u in 0..n_tx {
        let base = u * bps;
        for (k, &w) in Modulation::rail_weights(mi).iter().enumerate() {
            t[(u, base + k)] = w * scale;
        }
        for (k, &w) in Modulation::rail_weights(modulation.q_bits())
            .iter()
            .enumerate()
        {
            t[(n_tx + u, base + mi + k)] = w * scale;
        }
    }

    let h_stacked = h.to_real_stacked();
    let y_stacked = y.to_real_stacked();
    let ht = matmul(&h_stacked, &t);
    let a = gram(&ht);
    let b = ht.tr_matvec(&y_stacked);
    let h = (0..n_vars).map(|i| -2.0 * b[i]).collect();
    let mut couplings = Vec::with_capacity(n_vars * n_vars.saturating_sub(1) / 2);
    let mut const_term = y_stacked.norm_sqr();
    for i in 0..n_vars {
        const_term += a[(i, i)];
        for j in i + 1..n_vars {
            let jij = 2.0 * a[(i, j)];
            if jij != 0.0 {
                couplings.push((i, j, jij));
            }
        }
    }
    let ising = Ising::from_couplings(h, couplings);
    from_ising_with_constant(&ising, const_term)
}

/// The ML→QUBO reduction of one served QPSK frame (Rayleigh, 14 dB), ns
/// per reduction: 8 users (16 spins, detect-ra's frame) and 4 users
/// (8 spins, the fabric's frame), each against the dense baseline.
fn bench_reduction(out: &mut Vec<Measurement>, derived: &mut Vec<(String, f64)>) {
    for (users, iters) in [(8usize, 20_000usize), (4, 50_000)] {
        let config = TrackConfig {
            n_users: users,
            n_rx: users,
            modulation: Modulation::Qpsk,
            rho: 0.0,
            noise_variance: snr_db_to_noise_variance(14.0, users),
        };
        let frame = ChannelTrack::new(config, 18).next().expect("endless track");
        let (sys, h, y) = (frame.system, frame.h, frame.y);
        let (dense_q, dense_offset) = reduce_to_qubo_dense(&sys, &h, &y);
        let direct = reduce_to_qubo(&sys, &h, &y);
        assert!(
            direct.qubo == dense_q && direct.ml_offset.to_bits() == dense_offset.to_bits(),
            "direct reduction differs from the dense baseline"
        );
        let n = sys.bits_per_use();
        let ms = bench_interleaved(
            &[
                &format!("program/reduce_qubo_dense/{n}"),
                &format!("program/reduce_qubo/{n}"),
            ],
            n,
            iters,
            &mut [
                &mut || {
                    black_box(reduce_to_qubo_dense(&sys, black_box(&h), black_box(&y)));
                },
                &mut || {
                    black_box(reduce_to_qubo(&sys, black_box(&h), black_box(&y)));
                },
            ],
        );
        let speedup = ms[0].ns_per_iter / ms[1].ns_per_iter;
        println!("  -> reduction speedup at {n} spins: {speedup:.2}x");
        derived.push((format!("reduce_qubo_speedup_{n}"), speedup));
        out.extend(ms);
    }
}

/// One [`Exp1`] draw, ns per draw. Draws are timed in blocks so the
/// harness's per-iteration indirect call does not count.
fn bench_exp1(out: &mut Vec<Measurement>) {
    const BLOCK: usize = 1024;
    const ITERS: usize = 200;
    let exp1 = Exp1::new();
    let mut rng = Rng64::new(17);
    let mut block = || {
        for _ in 0..BLOCK {
            black_box(exp1.sample(&mut rng));
        }
    };
    time_batch(ITERS, &mut block); // warm-up
    let samples = (0..REPEATS)
        .map(|_| time_batch(ITERS, &mut block) / BLOCK as f64)
        .collect();
    out.push(reduce("rng/exp1", 0, ITERS * BLOCK, samples));
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
    bench_sa_job(&mut results);
    bench_parallel_reads(&mut results, &mut derived);
    bench_engine_reads(&mut results);
    bench_served_frame(&mut results);
    bench_programming(&mut results);
    bench_reduction(&mut results, &mut derived);
    bench_exp1(&mut results);

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
