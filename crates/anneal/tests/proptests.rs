//! Property-based tests for the annealer substrate.

use hqw_anneal::cache::EmbeddingCache;
use hqw_anneal::embedding::{ChainStrength, CliqueEmbedding};
use hqw_anneal::engine::{AnnealParams, FreezeOut};
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::schedule::AnnealSchedule;
use hqw_anneal::topology::Chimera;
use hqw_anneal::{AnnealEngine, DWaveProfile, PimcEngine, SvmcEngine};
use hqw_math::Rng64;
use hqw_oracle::csr::from_ising;
use hqw_oracle::generator::random_qubo;
use hqw_oracle::Ising;
use hqw_qubo::solution::bits_to_spins;
use hqw_qubo::CsrIsing;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ra_schedules_satisfy_paper_identities(s_p in 0.01f64..0.99, t_p in 0.0f64..4.0) {
        let sched = AnnealSchedule::reverse(s_p, t_p).unwrap();
        // Duration identity from §4.1: 2(1−s_p) + t_p.
        prop_assert!((sched.duration_us() - (2.0 * (1.0 - s_p) + t_p)).abs() < 1e-9);
        prop_assert!(sched.requires_initial_state());
        let min_s = sched.points().iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
        prop_assert!((min_s - s_p).abs() < 1e-9);
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
        let mut physical = Vec::new();
        emb.embed_state(&logical, &mut rng, &mut physical);
        let mut back = Vec::new();
        let broken = emb.unembed(&physical, &mut back);
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
        let (logical, _) = CsrIsing::from_qubo(&q);
        let strength = ChainStrength::RelativeToMax(2.0);
        let (mut from_cache, mut from_fresh) = (CsrIsing::default(), CsrIsing::default());
        cached.embed(&logical, strength, &mut from_cache);
        fresh.embed(&logical, strength, &mut from_fresh);
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
        let mut physical = Vec::new();
        emb.embed_state(&logical, &mut rng, &mut physical);
        let mut back = Vec::new();
        let broken = emb.unembed(&physical, &mut back);
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
        let (logical, _) = CsrIsing::from_qubo(&q);
        let emb = CliqueEmbedding::new(Chimera::new(m), n);
        let mut csr = CsrIsing::default();
        emb.embed(&logical, ChainStrength::RelativeToMax(2.0), &mut csr);
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
        prop_assert!((state.energy() - csr.energy(state.spins())).abs()
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
// Batched reads against lone reads
// ---------------------------------------------------------------------------

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

/// A problem the kernel serves: a random dense Ising, or a random logical
/// QUBO minor-embedded (with chains) on a Chimera graph.
fn served_problem(rng: &mut Rng64) -> CsrIsing {
    if rng.next_bool() {
        from_ising(&random_ising(1 + rng.next_index(16), 1.0, rng))
    } else {
        let m = 1 + rng.next_index(2);
        let n_logical = 1 + rng.next_index(4 * m);
        let (logical, _) = CsrIsing::from_qubo(&random_qubo(n_logical, rng));
        let mut physical = CsrIsing::default();
        CliqueEmbedding::new(Chimera::new(m), n_logical).embed(
            &logical,
            ChainStrength::RelativeToMax(2.0),
            &mut physical,
        );
        physical
    }
}

/// Runs `reads` reads of one submission through `run_reads` and each
/// read's seed through a lone `run`; every readout and trailing RNG state
/// must match.
fn assert_batch_matches_lone_runs(
    engine: &dyn AnnealEngine,
    reads: usize,
    ising: &CsrIsing,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    rng: &mut Rng64,
) -> Result<(), TestCaseError> {
    let profile = DWaveProfile::calibrated();
    let seeds: Vec<u64> = (0..reads).map(|_| rng.next_u64()).collect();
    let mut rngs: Vec<Rng64> = seeds.iter().map(|&s| Rng64::new(s)).collect();
    let batch = engine.run_reads(ising, &profile, schedule, params, initial, &mut rngs);
    prop_assert_eq!(batch.len(), reads);
    for ((read, batch_rng), &seed) in batch.iter().zip(&mut rngs).zip(&seeds) {
        let mut alone = Rng64::new(seed);
        let lone = engine.run(ising, &profile, schedule, params, initial, &mut alone);
        prop_assert_eq!(read, &lone);
        prop_assert_eq!(batch_rng.next_u64(), alone.next_u64(), "read RNG diverged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_reads_matches_lone_runs(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let ising = served_problem(&mut rng);
        let n = ising.num_vars();
        let schedule = schedule_of(rng.next_index(3), &mut rng);
        let initial: Vec<i8> = (0..n).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        let initial = schedule.requires_initial_state().then_some(initial.as_slice());
        let mut params = random_params(&mut rng);
        params.sweeps_per_us = params.sweeps_per_us.min(12);
        let pimc = PimcEngine::new([2, 3, 8][rng.next_index(3)]);
        for reads in [1, 2, 3, 5, 16] {
            assert_batch_matches_lone_runs(
                &pimc, reads, &ising, &schedule, &params, initial, &mut rng,
            )?;
        }
        assert_batch_matches_lone_runs(
            &SvmcEngine, 3, &ising, &schedule, &params, initial, &mut rng,
        )?;
    }
}

/// PIMC at its smallest shapes, 1 and 2 spins (one slice row per spin, so
/// the slice index divides by 1 or 2), forward and reverse, through `run`
/// and `run_reads`: every read is a ±1 state of the right length, batches
/// equal lone runs, and a field-pinned problem anneals to its ground state.
#[test]
fn pimc_serves_one_and_two_spin_problems() {
    let profile = DWaveProfile::calibrated();
    let params = AnnealParams::default();
    let mut rng = Rng64::new(31);
    for n in [1, 2] {
        // Ground state all-up: fields pin it, the coupling is ferromagnetic.
        let mut ising = Ising::new(n);
        for i in 0..n {
            ising.set_h(i, -1.0);
        }
        if n == 2 {
            ising.set_coupling(0, 1, -0.5);
        }
        let ising = from_ising(&ising);
        let down = vec![-1i8; n];
        for (schedule, initial) in [
            (AnnealSchedule::forward(2.0).unwrap(), None),
            (
                AnnealSchedule::reverse(0.3, 1.0).unwrap(),
                Some(down.as_slice()),
            ),
        ] {
            for slices in [2, 8] {
                let pimc = PimcEngine::new(slices);
                assert_batch_matches_lone_runs(
                    &pimc, 16, &ising, &schedule, &params, initial, &mut rng,
                )
                .unwrap();
                let mut rngs: Vec<Rng64> = (0..16).map(|k| Rng64::new(100 + k)).collect();
                let reads =
                    pimc.run_reads(&ising, &profile, &schedule, &params, initial, &mut rngs);
                assert!(reads
                    .iter()
                    .all(|r| r.len() == n && r.iter().all(|&s| s * s == 1)));
                let ground = reads.iter().filter(|r| r.iter().all(|&s| s == 1)).count();
                assert!(
                    ground >= 12,
                    "n {n}, P {slices}, {schedule:?}: {ground}/16 reads in the ground state"
                );
            }
        }
    }
}
