//! Heap allocations of the served paths, counted after warm-up by a
//! counting global allocator and pinned at their measured means:
//!
//! * a served detect-ra frame: `HybridSolver::solve` (greedy search
//!   seeding a 16-read PIMC-8 reverse anneal at `s_p = 0.65`) plus the
//!   decision's `natural_to_gray`, on 8-user QPSK frames at 14 dB;
//! * an 8-user QPSK `ChannelTrack::next` (frame synthesis);
//! * a mock-QPU job in `solve_batch` batches of 4, its embedding cached,
//!   on the backend `BackendSpec::MockQpu(config).build()` makes;
//! * a seeded embedded job at the mock QPU's 4-user shape: a 4-read
//!   PIMC-8 reverse anneal at `s_p = 0.65` from a greedy seed, through the
//!   clique embedding on C₂, plus the decision's `natural_to_gray`.
//!
//! A served frame keeps its buffers per thread (the frame's CSR, the
//! anneal's replicas, template, levels, readouts and tally; an embedded
//! job also its physical CSR and physical start state), and its solver
//! keeps its schedule, so what it allocates is what it returns. A change that allocates per read or per
//! symbol again fails here. Counts are per thread, so tests running side
//! by side do not see each other's allocations.

use hqw_anneal::{
    AnnealParams, AnnealSchedule, ChainStrength, Chimera, CliqueEmbedding, DWaveProfile,
    EngineKind, QuantumSampler, SamplerConfig, Target,
};
use hqw_core::fabric::{BackendSpec, FabricJob, MockQpuConfig};
use hqw_core::sched::PriorityClass;
use hqw_core::stream::CostModel;
use hqw_core::{ClassicalInitializer, GreedyInitializer, HybridSolver, NetworkModel};
use hqw_math::Rng64;
use hqw_phy::channel::snr_db_to_noise_variance;
use hqw_phy::instance::DetectionInstance;
use hqw_phy::{ChannelTrack, Modulation, TrackConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// This thread's allocations per call of `op` over `calls` calls, after
/// `warmup` calls.
fn allocations_per_call(warmup: usize, calls: usize, mut op: impl FnMut(usize)) -> f64 {
    (0..warmup).for_each(&mut op);
    let before = ALLOCATIONS.with(Cell::get);
    (warmup..warmup + calls).for_each(&mut op);
    (ALLOCATIONS.with(Cell::get) - before) as f64 / calls as f64
}

fn qpsk_track(n_users: usize, rho: f64, seed: u64) -> ChannelTrack {
    let config = TrackConfig {
        n_users,
        n_rx: n_users,
        modulation: Modulation::Qpsk,
        rho,
        noise_variance: snr_db_to_noise_variance(14.0, n_users),
    };
    ChannelTrack::new(config, seed)
}

#[test]
fn a_served_detect_ra_frame_allocates_what_it_returns() {
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
    let frames: Vec<DetectionInstance> = qpsk_track(8, 0.0, 99).take(300).collect();
    let per_frame = allocations_per_call(50, 250, |i| {
        let inst = &frames[i];
        let result = solver.solve(inst, i as u64);
        black_box(inst.reduction.natural_to_gray(&result.best_bits));
    });
    // Greedy's bits and fields, the sample set and one `Vec` per distinct
    // sample, the decision and its Gray bits: 6.544 when pinned, 7.544
    // while each frame rebuilt its schedule, 84.1 before the thread's
    // buffers were kept.
    assert!(per_frame <= 6.6, "{per_frame} allocations per served frame");
}

#[test]
fn eight_user_frame_synthesis_allocates_per_frame_not_per_symbol() {
    let mut track = qpsk_track(8, 0.0, 5);
    let per_frame = allocations_per_call(50, 250, |_| {
        black_box(track.next());
    });
    // 10 when pinned, 35 while each symbol's relabel allocated.
    assert!(per_frame <= 10.0, "{per_frame} allocations per frame");
}

#[test]
fn a_forward_mock_qpu_job_allocates_its_sample_set_and_decision() {
    let config = MockQpuConfig {
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
    };
    let mut backend = BackendSpec::MockQpu(config).build();
    let mut seeds = Rng64::new(0x000A_110C);
    let jobs: Vec<FabricJob> = qpsk_track(4, 0.9, 2026)
        .take(400)
        .enumerate()
        .map(|(frame, inst)| FabricJob {
            cell: 0,
            frame,
            arrival_us: 0.0,
            seed: seeds.next_u64(),
            class: PriorityClass::Embb,
            inst,
        })
        .collect();
    let cost = CostModel::default();
    let per_batch = allocations_per_call(10, 90, |b| {
        let batch: Vec<&FabricJob> = jobs[4 * b..4 * b + 4].iter().collect();
        black_box(backend.solve_batch(&cost, &batch));
    });
    let per_job = per_batch / 4.0;
    // 6.4 when pinned (the job's decision among them), 11.4 while each
    // job built its physical CSR afresh, 42.4 while every read allocated
    // its readout.
    assert!(per_job <= 6.5, "{per_job} allocations per mock-QPU job");
}

#[test]
fn a_seeded_embedded_job_allocates_what_it_returns() {
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 4,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            params: AnnealParams {
                sweeps_per_us: 8,
                ..AnnealParams::default()
            },
            threads: 1,
            ..Default::default()
        },
    );
    let embedding = CliqueEmbedding::new(Chimera::new(2), 8);
    let target = Target::Embedded(&embedding, ChainStrength::RelativeToMax(2.0));
    let schedule = AnnealSchedule::reverse(0.65, 1.0).unwrap();
    let frames: Vec<DetectionInstance> = qpsk_track(4, 0.9, 2026).take(400).collect();
    let mut rng = Rng64::new(3);
    let seeds: Vec<Vec<u8>> = (frames.iter())
        .map(|inst| GreedyInitializer.initialize(inst, &mut rng).bits)
        .collect();
    let per_job = allocations_per_call(40, 360, |i| {
        let inst = &frames[i];
        let programmed = sampler.program(&inst.reduction.qubo, target);
        let result = sampler.sample_programmed(programmed, &schedule, Some(&seeds[i]), i as u64);
        let best = result.samples.best().expect("QPU produced no samples");
        black_box(inst.reduction.natural_to_gray(&best.bits));
    });
    // The sample set and one `Vec` per distinct sample, and the Gray bits:
    // 3.017 when pinned, 4.017 while each job built its physical start
    // state afresh.
    assert!(
        per_job <= 3.1,
        "{per_job} allocations per seeded embedded job"
    );
}
