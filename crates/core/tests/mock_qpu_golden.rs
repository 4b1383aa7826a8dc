//! Golden output of the mock QPU's served jobs: 4-read forward PIMC-8
//! anneals (2 µs at 8 sweeps/µs) of QPSK `ChannelTrack` frames at 14 dB
//! through the Chimera clique embedding, at `fabric-hybrid`'s backend
//! configuration. Two shapes: 2-user frames (4 logical variables on C₁)
//! and 4-user frames (8 on C₂).
//!
//! Programming the embedded problem must not move a single decision:
//! every job's best bits, the bits of its best energy and its sample
//! set's counts are pinned here, and the backend
//! `BackendSpec::MockQpu(config).build()` makes (a `LocalPool` whose
//! solver embeds) must decide each job's best sample in `solve_batch`.

use hqw_anneal::{
    AnnealParams, AnnealSchedule, ChainStrength, Chimera, CliqueEmbedding, DWaveProfile,
    EngineKind, QuantumSampler, SamplerConfig, Target,
};
use hqw_core::fabric::{BackendSpec, FabricJob, MockQpuConfig};
use hqw_core::sched::PriorityClass;
use hqw_core::stream::CostModel;
use hqw_core::NetworkModel;
use hqw_math::Rng64;
use hqw_phy::channel::snr_db_to_noise_variance;
use hqw_phy::{ChannelTrack, Modulation, TrackConfig};

/// One line per job: the best bits, `best_energy.to_bits()` in hex, and
/// each distinct sample's occurrences in the sample set's order.
const GOLDEN: [&str; 32] = [
    "0001 c01dd3b4589bfcf3 1,2,1",
    "1111 c032448188a0310c 3,1",
    "1000 c00a0c36c38e6e20 1,1,2",
    "1101 c02443adcff04c8b 1,1,1,1",
    "1000 bff4676f0cba3e0c 1,1,1,1",
    "0110 c023624048a3445e 2,1,1",
    "0111 bfe0b2123833b41c 1,3",
    "0100 bffd0bfdcabacb72 3,1",
    "1100 c00c086a849b7cd3 1,1,2",
    "0010 c01155c018d55cc3 1,3",
    "1010 bfe93082f54b310e 1,1,1,1",
    "1011 c030b5187818223d 1,1,1,1",
    "0101 c02503ce85451b6c 2,1,1",
    "0011 c0326cfaafef643e 1,2,1",
    "0111 c016c9a60585dfc2 3,1",
    "0111 c0214824d9fffe5d 1,1,1,1",
    "01001110 c03c5252dccd6f92 1,1,1,1",
    "01011011 c045ace0f5b311bd 1,2,1",
    "00011001 c040164d936fab85 1,1,1,1",
    "11001001 c03424a42fafa696 1,1,1,1",
    "10010101 c03b5c7a3e023d02 1,1,1,1",
    "01101010 c0297e2d4c5f7b58 1,1,1,1",
    "00010111 c02ea4429c13b464 1,1,1,1",
    "10110100 c042c5d365d19285 1,1,1,1",
    "01001101 bfd5192c72795eb0 1,1,1,1",
    "00101111 c039c24bd8625190 2,1,1",
    "00000100 c028590d2e986057 1,1,1,1",
    "10011111 c0407a936d8884c3 1,1,1,1",
    "01001110 c0541764311ae260 1,1,1,1",
    "11011111 c03929c657f95bfe 1,1,1,1",
    "10111101 c03223d2cf313431 1,1,1,1",
    "01101100 c03937487870e531 1,1,1,1",
];

/// The `fabric-hybrid` mock QPU: batches of up to 4 jobs.
fn config() -> MockQpuConfig {
    MockQpuConfig {
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
    }
}

/// 16 jobs of one cell at `n_users`-user QPSK, each with its own seed.
fn jobs(n_users: usize, seeds: &mut Rng64) -> Vec<FabricJob> {
    let track = TrackConfig {
        n_users,
        n_rx: n_users,
        modulation: Modulation::Qpsk,
        rho: 0.9,
        noise_variance: snr_db_to_noise_variance(14.0, n_users),
    };
    ChannelTrack::new(track, 2026)
        .take(16)
        .enumerate()
        .map(|(frame, inst)| FabricJob {
            cell: 0,
            frame,
            arrival_us: 0.0,
            seed: seeds.next_u64(),
            class: PriorityClass::Embb,
            inst,
        })
        .collect()
}

fn job_lines() -> Vec<String> {
    let config = config();
    let mut backend = BackendSpec::MockQpu(config).build();
    // The sampler and embedding the backend programs, built by hand so
    // the test sees each job's whole sample set.
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: config.num_reads,
            engine: EngineKind::Pimc {
                trotter_slices: config.trotter_slices,
            },
            params: AnnealParams {
                sweeps_per_us: config.sweeps_per_us,
                ..AnnealParams::default()
            },
            threads: 1,
            ..Default::default()
        },
    );
    let schedule = AnnealSchedule::forward(config.anneal_us).unwrap();
    let strength = ChainStrength::RelativeToMax(config.chain_strength);
    let cost = CostModel::default();
    let mut seeds = Rng64::new(0x0E0B_ED00);
    let mut lines = Vec::new();
    for (n_users, m) in [(2, 1), (4, 2)] {
        let jobs = jobs(n_users, &mut seeds);
        let refs: Vec<&FabricJob> = jobs.iter().collect();
        let decisions: Vec<Vec<u8>> = refs
            .chunks(config.max_batch)
            .flat_map(|batch| backend.solve_batch(&cost, batch).decisions)
            .map(|decision| decision.gray_bits)
            .collect();
        let embedding = CliqueEmbedding::new(Chimera::new(m), 2 * n_users);
        for (job, gray_bits) in jobs.iter().zip(decisions) {
            let qubo = &job.inst.reduction.qubo;
            let programmed = sampler.program(qubo, Target::Embedded(&embedding, strength));
            let result = sampler.sample_programmed(programmed, &schedule, None, job.seed);
            let best = result.samples.best().expect("QPU produced no samples");
            assert_eq!(
                gray_bits,
                job.inst.reduction.natural_to_gray(&best.bits),
                "{n_users} users, frame {}: the backend decided another sample",
                job.frame
            );
            let bits: String = best.bits.iter().map(|b| b.to_string()).collect();
            let counts: Vec<String> = result
                .samples
                .iter()
                .map(|s| s.occurrences.to_string())
                .collect();
            lines.push(format!(
                "{bits} {:016x} {}",
                best.energy.to_bits(),
                counts.join(",")
            ));
        }
    }
    lines
}

#[test]
fn mock_qpu_jobs_are_pinned() {
    let lines = job_lines();
    assert_eq!(
        lines,
        GOLDEN,
        "mock-QPU decisions drifted; this run gave:\n{}",
        lines.join("\n")
    );
}
