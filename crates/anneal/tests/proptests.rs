//! Property-based tests for the annealer substrate.

use hqw_anneal::cache::EmbeddingCache;
use hqw_anneal::embedding::{ChainStrength, CliqueEmbedding};
use hqw_anneal::engine::{AnnealParams, FreezeOut};
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::schedule::AnnealSchedule;
use hqw_anneal::topology::Chimera;
use hqw_anneal::{AnnealEngine, DWaveProfile, PimcEngine, SvmcEngine};
use hqw_math::Rng64;
use hqw_qubo::generator::random_qubo;
use hqw_qubo::solution::bits_to_spins;
use hqw_qubo::{CsrIsing, Ising};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ra_schedules_satisfy_paper_identities(s_p in 0.01f64..0.99, t_p in 0.0f64..4.0) {
        let sched = AnnealSchedule::reverse(s_p, t_p).unwrap();
        // Duration identity from §4.1: 2(1−s_p) + t_p.
        prop_assert!((sched.duration_us() - (2.0 * (1.0 - s_p) + t_p)).abs() < 1e-9);
        prop_assert!(sched.requires_initial_state());
        prop_assert!((sched.min_s() - s_p).abs() < 1e-9);
        // s(t) stays within [s_p, 1].
        for k in 0..=20 {
            let t = sched.duration_us() * k as f64 / 20.0;
            let s = sched.s_at(t);
            prop_assert!(s >= s_p - 1e-9 && s <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn fa_pause_schedules_are_monotone_outside_the_pause(
        s_p in 0.05f64..0.95, t_p in 0.0f64..3.0, extra in 0.05f64..2.0
    ) {
        let t_a = s_p + extra;
        let sched = AnnealSchedule::forward_with_pause(s_p, t_p, t_a).unwrap();
        prop_assert!((sched.duration_us() - (t_a + t_p)).abs() < 1e-9);
        // s is non-decreasing for forward schedules.
        let mut prev = -1.0;
        for k in 0..=40 {
            let t = sched.duration_us() * k as f64 / 40.0;
            let s = sched.s_at(t);
            prop_assert!(s >= prev - 1e-9, "s(t) decreased on a forward schedule");
            prev = s;
        }
    }

    #[test]
    fn fr_schedules_touch_cp_then_sp(
        s_p in 0.05f64..0.8, d in 0.05f64..0.19, t_p in 0.0f64..2.0
    ) {
        let c_p = (s_p + d).min(0.99);
        prop_assume!(c_p > s_p && c_p < 1.0);
        let t_a = s_p + 1.0;
        let sched = AnnealSchedule::forward_reverse(c_p, s_p, t_p, t_a).unwrap();
        prop_assert!((sched.s_at(c_p) - c_p).abs() < 1e-9, "peak misses c_p");
        prop_assert!((sched.s_at(2.0 * c_p - s_p) - s_p).abs() < 1e-9, "valley misses s_p");
        prop_assert!(!sched.requires_initial_state());
    }

    #[test]
    fn freeze_gate_is_monotone_and_bounded(a_ref in 0.1f64..5.0, exp in 0.2f64..4.0) {
        let gate = FreezeOut { a_ref_ghz: a_ref, exponent: exp };
        let mut prev = 0.0;
        for k in 0..=20 {
            let a = k as f64 * 0.5;
            let g = gate.gate(a);
            prop_assert!((0.0..=1.0).contains(&g));
            prop_assert!(g >= prev - 1e-12, "gate not monotone in A");
            prev = g;
        }
        prop_assert_eq!(gate.gate(0.0), 0.0);
        prop_assert_eq!(gate.gate(a_ref * 2.0), 1.0);
    }

    #[test]
    fn chimera_ids_and_coords_are_bijective(m in 1usize..6) {
        let c = Chimera::new(m);
        for id in (0..c.num_qubits()).step_by(7) {
            prop_assert_eq!(c.id(c.coord(id)), id);
        }
        // Coupling is symmetric.
        let mut rng = Rng64::new(m as u64);
        for _ in 0..16 {
            let a = rng.next_index(c.num_qubits());
            let b = rng.next_index(c.num_qubits());
            prop_assert_eq!(c.coupled(a, b), c.coupled(b, a));
        }
    }

    #[test]
    fn embedding_round_trips_arbitrary_logical_states(
        m in 1usize..4, seed in any::<u64>()
    ) {
        let graph = Chimera::new(m);
        let n = 4 * m;
        let emb = CliqueEmbedding::new(graph, n);
        let mut rng = Rng64::new(seed);
        let logical: Vec<i8> = (0..n).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        let physical = emb.embed_state(&logical, &mut rng);
        let (back, broken) = emb.unembed(&physical);
        prop_assert_eq!(back, logical);
        prop_assert_eq!(broken, 0);
    }

    #[test]
    fn cached_embeddings_are_identical_to_fresh_derivations(
        m in 1usize..4, seed in any::<u64>()
    ) {
        // The fabric's embedding cache must be a pure memoization: a cached
        // embedding is indistinguishable from a fresh derivation — same
        // chains, and the same embedded physical problem.
        let mut rng = Rng64::new(seed);
        let n = 1 + rng.next_index(4 * m);
        let mut cache = EmbeddingCache::new();
        let first = cache.get(Chimera::new(m), n);
        let cached = cache.get(Chimera::new(m), n);
        prop_assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let fresh = CliqueEmbedding::new(Chimera::new(m), n);
        for l in 0..n {
            prop_assert_eq!(first.chain(l), fresh.chain(l));
            prop_assert_eq!(cached.chain(l), fresh.chain(l));
        }
        prop_assert_eq!(cached.qubits_used(), fresh.qubits_used());

        // Same embedded problem: identical physical energies everywhere we
        // probe.
        let q = random_qubo(n, &mut rng);
        let (logical, _) = q.to_ising();
        let strength = ChainStrength::RelativeToMax(2.0);
        let from_cache = cached.embed(&logical, strength);
        let from_fresh = fresh.embed(&logical, strength);
        for _ in 0..4 {
            let state: Vec<i8> = (0..from_fresh.num_vars())
                .map(|_| if rng.next_bool() { 1 } else { -1 })
                .collect();
            prop_assert_eq!(
                from_cache.energy(&state).to_bits(),
                from_fresh.energy(&state).to_bits()
            );
        }
    }

    #[test]
    fn cached_partial_clique_embeddings_round_trip_states(
        m in 1usize..4, seed in any::<u64>()
    ) {
        // embed_state → unembed through a *cached* embedding of a partial
        // clique (n ≤ 4m) recovers the logical state with zero broken
        // chains — the invariant the mock-QPU backend's reverse-anneal
        // programming relies on.
        let mut rng = Rng64::new(seed);
        let n = 1 + rng.next_index(4 * m);
        let mut cache = EmbeddingCache::new();
        let emb = cache.get(Chimera::new(m), n);
        let logical: Vec<i8> = (0..n).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        let physical = emb.embed_state(&logical, &mut rng);
        let (back, broken) = emb.unembed(&physical);
        prop_assert_eq!(back, logical);
        prop_assert_eq!(broken, 0);
    }

    #[test]
    fn sampler_is_deterministic_and_thread_invariant(
        seed in any::<u64>(), n in 2usize..10, reads in 1usize..12
    ) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let schedule = AnnealSchedule::forward(0.5).unwrap();
        let mk = |threads| QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: reads,
                engine: EngineKind::Pimc { trotter_slices: 4 },
                params: AnnealParams { sweeps_per_us: 8, ..Default::default() },
                threads,
                ..Default::default()
            },
        );
        let a = mk(1).sample_qubo(&q, &schedule, None, seed);
        let b = mk(2).sample_qubo(&q, &schedule, None, seed);
        let av: Vec<_> = a.samples.iter().map(|s| (s.bits.clone(), s.occurrences)).collect();
        let bv: Vec<_> = b.samples.iter().map(|s| (s.bits.clone(), s.occurrences)).collect();
        prop_assert_eq!(av, bv);
    }

    #[test]
    fn reverse_reads_report_consistent_energies(seed in any::<u64>(), n in 2usize..8) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let init: Vec<u8> = (0..n).map(|_| rng.next_bool() as u8).collect();
        let sampler = QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: 6,
                engine: EngineKind::Pimc { trotter_slices: 4 },
                params: AnnealParams { sweeps_per_us: 8, ..Default::default() },
                ..Default::default()
            },
        );
        let schedule = AnnealSchedule::reverse(0.6, 0.5).unwrap();
        let out = sampler.sample_qubo(&q, &schedule, Some(&init), seed);
        for s in out.samples.iter() {
            prop_assert!((q.energy(&s.bits) - s.energy).abs() < 1e-9);
            prop_assert_eq!(s.bits.len(), n);
        }
        prop_assert_eq!(out.samples.total_reads(), 6);
        // Spin view of the initial state is well-formed.
        let spins = bits_to_spins(&init);
        prop_assert!(spins.iter().all(|&s| s == 1 || s == -1));
    }

    #[test]
    fn cached_fields_hold_on_embedded_hardware_graphs(
        seed in any::<u64>(), m in 1usize..4
    ) {
        // The engines' per-replica caches rest on the CSR local-field
        // invariant; exercise it on the physical (Chimera-embedded, chained)
        // problems the annealer actually sweeps, after long random flip
        // sequences.
        let n = 4 * m;
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (logical, _) = q.to_ising();
        let emb = CliqueEmbedding::new(Chimera::new(m), n);
        let physical = emb.embed(&logical, hqw_anneal::embedding::ChainStrength::RelativeToMax(2.0));
        let csr = hqw_qubo::CsrIsing::from_ising(&physical);
        let nq = csr.num_vars();
        let start: Vec<i8> =
            (0..nq).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        let mut state = hqw_qubo::LocalFieldState::new(&csr, start);
        for _ in 0..300 {
            let k = rng.next_index(nq);
            let exact = csr.flip_delta(state.spins(), k);
            prop_assert!((state.flip_delta(k) - exact).abs()
                < 1e-9 * (1.0 + exact.abs()));
            state.flip(&csr, k);
        }
        prop_assert!(state.max_field_error(&csr) < 1e-8, "h_eff drifted on hardware graph");
        prop_assert!((state.energy() - physical.energy(state.spins())).abs()
            < 1e-8 * (1.0 + state.energy().abs()));
    }

    #[test]
    fn engines_are_deterministic_on_reverse_schedules(
        seed in any::<u64>(), n in 2usize..8
    ) {
        // The incremental per-slice caches must not introduce any hidden
        // state: identical seeds give identical reads, for both engines and
        // for reverse (initial-state-programmed) schedules.
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let init: Vec<u8> = (0..n).map(|_| rng.next_bool() as u8).collect();
        let schedule = AnnealSchedule::reverse(0.6, 0.4).unwrap();
        for engine in [EngineKind::Pimc { trotter_slices: 4 }, EngineKind::Svmc] {
            let mk = || QuantumSampler::new(
                DWaveProfile::calibrated(),
                SamplerConfig {
                    num_reads: 4,
                    engine,
                    params: AnnealParams { sweeps_per_us: 8, ..Default::default() },
                    threads: 1,
                    ..Default::default()
                },
            );
            let a = mk().sample_qubo(&q, &schedule, Some(&init), seed);
            let b = mk().sample_qubo(&q, &schedule, Some(&init), seed);
            let av: Vec<_> = a.samples.iter().map(|s| (s.bits.clone(), s.occurrences)).collect();
            let bv: Vec<_> = b.samples.iter().map(|s| (s.bits.clone(), s.occurrences)).collect();
            prop_assert_eq!(av, bv);
        }
    }
}

// ---------------------------------------------------------------------------
// Gate-first kernels against the draw-after reference
// ---------------------------------------------------------------------------

/// The PIMC sweep as it read before the gate-first reorder: Δ and `exp`
/// for every proposal, then the acceptance draw; cluster segments grown
/// through an `in_cluster` mask and a `members` list.
fn pimc_draw_after(
    engine: &PimcEngine,
    problem: &Ising,
    profile: &DWaveProfile,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    rng: &mut Rng64,
) -> Vec<i8> {
    let csr = CsrIsing::from_ising(problem);
    let n = csr.num_vars();
    let p = engine.trotter_slices;
    let beta = params.beta(profile);
    let mut spins: Vec<i8> = match initial {
        Some(state) => (0..p).flat_map(|_| state.iter().copied()).collect(),
        None => (0..p * n)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect(),
    };
    let mut h_eff: Vec<f64> = vec![0.0; p * n];
    for k in 0..p {
        csr.fill_local_fields(&spins[k * n..(k + 1) * n], &mut h_eff[k * n..(k + 1) * n]);
    }
    let flip_and_update = |spins: &mut [i8], h_eff: &mut [f64], base: usize, i: usize| {
        let s_new = -spins[base + i];
        spins[base + i] = s_new;
        let ds = 2.0 * s_new as f64;
        csr.axpy_row(&mut h_eff[base..base + n], i, ds);
    };
    let total_sweeps = params.total_sweeps(schedule);
    let duration = schedule.duration_us();
    let p_f = p as f64;
    let mut in_cluster = vec![false; p];
    let mut members: Vec<usize> = Vec::with_capacity(p);
    for sweep in 0..total_sweeps {
        let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
        let s = schedule.s_at(t);
        let j_perp = engine.j_perp(profile, beta, s);
        let k_cl = beta * profile.b_ghz(s) / (2.0 * p_f);
        let gate = params.gate(profile.a_ghz(s));
        if gate <= 0.0 {
            continue;
        }
        for k in 0..p {
            let up = if k + 1 == p { 0 } else { k + 1 };
            let down = if k == 0 { p - 1 } else { k - 1 };
            let base = k * n;
            for i in 0..n {
                let sik = spins[base + i] as f64;
                let field = h_eff[base + i];
                let time_neighbors = (spins[up * n + i] + spins[down * n + i]) as f64;
                let delta = -2.0 * sik * k_cl * field + 2.0 * sik * j_perp * time_neighbors;
                let accept = if delta <= 0.0 {
                    gate
                } else {
                    gate * (-delta).exp()
                };
                if rng.next_f64() < accept {
                    flip_and_update(&mut spins, &mut h_eff, base, i);
                }
            }
        }
        let p_bond = 1.0 - (-2.0 * j_perp).exp();
        for i in 0..n {
            let start = rng.next_index(p);
            let s0 = spins[start * n + i];
            in_cluster[start] = true;
            members.push(start);
            let mut k = start;
            loop {
                let next = if k + 1 == p { 0 } else { k + 1 };
                if in_cluster[next] || spins[next * n + i] != s0 || rng.next_f64() >= p_bond {
                    break;
                }
                in_cluster[next] = true;
                members.push(next);
                k = next;
            }
            k = start;
            loop {
                let prev = if k == 0 { p - 1 } else { k - 1 };
                if in_cluster[prev] || spins[prev * n + i] != s0 || rng.next_f64() >= p_bond {
                    break;
                }
                in_cluster[prev] = true;
                members.push(prev);
                k = prev;
            }
            let mut delta = 0.0;
            for &kk in &members {
                delta += -2.0 * s0 as f64 * k_cl * h_eff[kk * n + i];
            }
            let accept = if delta <= 0.0 {
                gate
            } else {
                gate * (-delta).exp()
            };
            if rng.next_f64() < accept {
                for &kk in &members {
                    flip_and_update(&mut spins, &mut h_eff, kk * n, i);
                }
            }
            for &kk in &members {
                in_cluster[kk] = false;
            }
            members.clear();
        }
    }
    (0..n)
        .map(|i| {
            let sum: i32 = (0..p).map(|k| spins[k * n + i] as i32).sum();
            if sum >= 0 {
                1
            } else {
                -1
            }
        })
        .collect()
}

/// The SVMC sweep as it read before the gate-first reorder: `cos`/`sin`,
/// Δ and `exp` for every proposal, then the acceptance draw.
fn svmc_draw_after(
    problem: &Ising,
    profile: &DWaveProfile,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    rng: &mut Rng64,
) -> Vec<i8> {
    let csr = CsrIsing::from_ising(problem);
    let n = csr.num_vars();
    let beta = params.beta(profile);
    let theta: Vec<f64> = match initial {
        Some(state) => state
            .iter()
            .map(|&s| if s > 0 { 0.0 } else { std::f64::consts::PI })
            .collect(),
        None => vec![std::f64::consts::FRAC_PI_2; n],
    };
    let mut cos_t: Vec<f64> = theta.iter().map(|t| t.cos()).collect();
    let mut sin_t: Vec<f64> = theta.iter().map(|t| t.sin()).collect();
    let rebuild = |cos_t: &[f64], field: &mut [f64]| {
        for (i, slot) in field.iter_mut().enumerate() {
            let (cols, ws) = csr.row(i);
            let mut f = csr.h(i);
            for (&j, &w) in cols.iter().zip(ws) {
                f += w * cos_t[j as usize];
            }
            *slot = f;
        }
    };
    let mut field: Vec<f64> = vec![0.0; n];
    rebuild(&cos_t, &mut field);
    let total_sweeps = params.total_sweeps(schedule);
    let duration = schedule.duration_us();
    for sweep in 0..total_sweeps {
        let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
        let s = schedule.s_at(t);
        let a_half = profile.a_ghz(s) / 2.0;
        let b_half = profile.b_ghz(s) / 2.0;
        let gate = params.gate(profile.a_ghz(s));
        if gate <= 0.0 {
            continue;
        }
        if sweep > 0 && sweep % 64 == 0 {
            rebuild(&cos_t, &mut field);
        }
        for i in 0..n {
            let proposal = rng.next_range(0.0, std::f64::consts::PI);
            let p_cos = proposal.cos();
            let p_sin = proposal.sin();
            let d_cos = p_cos - cos_t[i];
            let delta = b_half * field[i] * d_cos - a_half * (p_sin - sin_t[i]);
            let accept = if delta <= 0.0 {
                gate
            } else {
                gate * (-beta * delta).exp()
            };
            if rng.next_f64() < accept {
                cos_t[i] = p_cos;
                sin_t[i] = p_sin;
                csr.axpy_row(&mut field, i, d_cos);
            }
        }
    }
    cos_t
        .iter()
        .map(|&c| if c >= 0.0 { 1 } else { -1 })
        .collect()
}

/// A random Ising on `n` spins: fields and couplings uniform in (−1, 1),
/// each pair coupled with probability `density`.
fn random_ising(n: usize, density: f64, rng: &mut Rng64) -> Ising {
    let mut ising = Ising::new(n);
    for i in 0..n {
        ising.set_h(i, rng.next_range(-1.0, 1.0));
        for j in i + 1..n {
            if rng.next_f64() < density {
                ising.set_coupling(i, j, rng.next_range(-1.0, 1.0));
            }
        }
    }
    ising
}

/// Schedule kinds the equivalence covers: forward, reverse at a random
/// `s_p` (with a programmed state), and forward-reverse.
fn schedule_of(kind: usize, rng: &mut Rng64) -> AnnealSchedule {
    match kind {
        0 => AnnealSchedule::forward(rng.next_range(0.2, 2.0)).unwrap(),
        1 => AnnealSchedule::reverse(rng.next_range(0.05, 0.95), rng.next_range(0.0, 1.5)).unwrap(),
        _ => {
            let s_p = rng.next_range(0.1, 0.7);
            let c_p = s_p + rng.next_range(0.05, 0.25);
            AnnealSchedule::forward_reverse(c_p, s_p, rng.next_range(0.0, 1.0), s_p + 1.0).unwrap()
        }
    }
}

/// Runs the engine and the draw-after reference from the same seed and
/// requires identical readouts and an identical trailing RNG state.
#[allow(clippy::too_many_arguments)]
fn assert_matches_reference(
    engine: Option<PimcEngine>,
    ising: &Ising,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let profile = DWaveProfile::calibrated();
    let (mut rng_new, mut rng_ref) = (Rng64::new(seed), Rng64::new(seed));
    let (new, reference) = match engine {
        Some(pimc) => (
            pimc.run(ising, &profile, schedule, params, initial, &mut rng_new),
            pimc_draw_after(
                &pimc,
                ising,
                &profile,
                schedule,
                params,
                initial,
                &mut rng_ref,
            ),
        ),
        None => (
            SvmcEngine.run(ising, &profile, schedule, params, initial, &mut rng_new),
            svmc_draw_after(ising, &profile, schedule, params, initial, &mut rng_ref),
        ),
    };
    prop_assert_eq!(new, reference);
    prop_assert_eq!(
        rng_new.next_u64(),
        rng_ref.next_u64(),
        "RNG streams diverged"
    );
    Ok(())
}

/// Random anneal parameters: the freeze-out gate on (default or random
/// shape) or off (`gate = 1`), and an occasional hot beta override so
/// uphill moves pass the gate often.
fn random_params(rng: &mut Rng64) -> AnnealParams {
    let freeze_out = match rng.next_index(3) {
        0 => None,
        1 => Some(FreezeOut::default()),
        _ => Some(FreezeOut {
            a_ref_ghz: rng.next_range(0.5, 8.0),
            exponent: rng.next_range(0.5, 3.0),
        }),
    };
    AnnealParams {
        sweeps_per_us: 1 + rng.next_index(24),
        beta_override: rng.next_bool().then(|| rng.next_range(0.05, 20.0)),
        freeze_out,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gate_first_kernels_match_the_draw_after_reference(
        seed in any::<u64>(), n in 1usize..21
    ) {
        let mut rng = Rng64::new(seed);
        let density = if rng.next_bool() { 1.0 } else { rng.next_range(0.05, 0.4) };
        let ising = random_ising(n, density, &mut rng);
        let kind = rng.next_index(3);
        let schedule = schedule_of(kind, &mut rng);
        let initial: Vec<i8> = (0..n).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        let initial = schedule.requires_initial_state().then_some(initial.as_slice());
        let params = random_params(&mut rng);
        let pimc = PimcEngine::new([2, 3, 8, 16][rng.next_index(4)]);
        let run_seed = rng.next_u64();
        assert_matches_reference(Some(pimc), &ising, &schedule, &params, initial, run_seed)?;
        assert_matches_reference(None, &ising, &schedule, &params, initial, run_seed)?;
    }
}

#[test]
fn gate_first_kernels_match_the_draw_after_reference_on_every_shape() {
    // Every (slices, schedule kind, gate on/off) shape once, on one dense
    // and one sparse problem.
    let mut rng = Rng64::new(0x6A7E);
    for density in [1.0, 0.2] {
        let ising = random_ising(12, density, &mut rng);
        let initial: Vec<i8> = (0..12)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect();
        for kind in 0..3 {
            let schedule = schedule_of(kind, &mut rng);
            let initial = schedule
                .requires_initial_state()
                .then_some(initial.as_slice());
            for freeze_out in [None, Some(FreezeOut::default())] {
                let params = AnnealParams {
                    sweeps_per_us: 16,
                    freeze_out,
                    ..Default::default()
                };
                for trotter_slices in [2, 3, 8, 16] {
                    let pimc = PimcEngine::new(trotter_slices);
                    let seed = rng.next_u64();
                    assert_matches_reference(Some(pimc), &ising, &schedule, &params, initial, seed)
                        .unwrap();
                }
                assert_matches_reference(None, &ising, &schedule, &params, initial, rng.next_u64())
                    .unwrap();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lockstep lanes against the one-lane reference
// ---------------------------------------------------------------------------

/// A problem the kernel serves: a random dense Ising, or a random logical
/// QUBO minor-embedded (with chains) on a Chimera graph.
fn lockstep_problem(rng: &mut Rng64) -> Ising {
    if rng.next_bool() {
        random_ising(1 + rng.next_index(16), 1.0, rng)
    } else {
        let m = 1 + rng.next_index(2);
        let n_logical = 1 + rng.next_index(4 * m);
        let (logical, _) = random_qubo(n_logical, rng).to_ising();
        CliqueEmbedding::new(Chimera::new(m), n_logical)
            .embed(&logical, ChainStrength::RelativeToMax(2.0))
    }
}

/// Runs `lanes` reads of one submission through the lockstep kernel and
/// each lane's seed alone through the draw-after reference; every lane's
/// readout and trailing RNG state must match its lone reference run.
fn assert_lanes_match_reference(
    lanes: usize,
    ising: &Ising,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    rng: &mut Rng64,
) -> Result<(), TestCaseError> {
    let profile = DWaveProfile::calibrated();
    let pimc = PimcEngine::new([2, 3, 8][rng.next_index(3)]);
    let seeds: Vec<u64> = (0..lanes).map(|_| rng.next_u64()).collect();
    let mut lane_rngs: Vec<Rng64> = seeds.iter().map(|&s| Rng64::new(s)).collect();
    let reads = pimc.run_reads(ising, &profile, schedule, params, initial, &mut lane_rngs);
    prop_assert_eq!(reads.len(), lanes);
    for ((read, lane_rng), &seed) in reads.iter().zip(&mut lane_rngs).zip(&seeds) {
        let mut alone = Rng64::new(seed);
        let reference = pimc_draw_after(
            &pimc, ising, &profile, schedule, params, initial, &mut alone,
        );
        prop_assert_eq!(read, &reference);
        prop_assert_eq!(lane_rng.next_u64(), alone.next_u64(), "lane RNG diverged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lockstep_lanes_match_the_one_lane_reference(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let ising = lockstep_problem(&mut rng);
        let n = ising.num_vars();
        let schedule = schedule_of(rng.next_index(3), &mut rng);
        let initial: Vec<i8> = (0..n).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        let initial = schedule.requires_initial_state().then_some(initial.as_slice());
        let mut params = random_params(&mut rng);
        params.sweeps_per_us = params.sweeps_per_us.min(12);
        for lanes in [1, 2, 3, 5, 16] {
            assert_lanes_match_reference(lanes, &ising, &schedule, &params, initial, &mut rng)?;
        }
    }
}
