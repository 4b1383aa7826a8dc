//! Golden output of the fabric's PIMC and SVMC annealer lanes at the
//! `fabric` preset's `AnnealerConfig`: 2 forward reads of 2 µs at 8
//! sweeps/µs per job, one slot, batches of up to 4. Two shapes: 2-user and
//! 4-user QPSK `ChannelTrack` frames at 14 dB.
//!
//! Every batch the backend `BackendSpec::{Pimc, Svmc}(config).build()`
//! makes is pinned here: the bits of its charged `service_us` and each
//! job's decided Gray bits, so a change to how a lane programs, seeds,
//! anneals, selects or charges its jobs fails here.

use hqw_core::fabric::{AnnealerConfig, BackendSpec, FabricJob};
use hqw_core::sched::PriorityClass;
use hqw_core::stream::CostModel;
use hqw_math::Rng64;
use hqw_phy::channel::snr_db_to_noise_variance;
use hqw_phy::{ChannelTrack, Modulation, TrackConfig};

/// One line per batch: the lane, the frames' user count, the batch's
/// `service_us.to_bits()` in hex, and each job's Gray bits in batch order.
const GOLDEN: [&str; 16] = [
    "pimc 2u 406d000000000000 1100 1110 1011 0101",
    "pimc 2u 406d000000000000 0011 0110 0011 0000",
    "pimc 2u 406d000000000000 1110 1101 0101 1011",
    "pimc 2u 406d000000000000 1111 0001 1111 1000",
    "pimc 4u 406d000000000000 11001010 10010000 10011010 01100000",
    "pimc 4u 406d000000000000 00000101 11011011 11001001 01110101",
    "pimc 4u 406d000000000000 11110100 01111100 11000100 00010101",
    "pimc 4u 406d000000000000 00011101 00110111 10101101 00010110",
    "svmc 2u 406d000000000000 0001 1110 1111 0101",
    "svmc 2u 406d000000000000 0011 0110 1010 0000",
    "svmc 2u 406d000000000000 1110 1101 0101 1011",
    "svmc 2u 406d000000000000 1111 0001 1111 1000",
    "svmc 4u 406d000000000000 11101010 10011000 10011110 01000000",
    "svmc 4u 406d000000000000 00000101 01111011 11010001 01010101",
    "svmc 4u 406d000000000000 11110100 01111100 11000100 00010101",
    "svmc 4u 406d000000000000 00011001 01110111 10100011 00010111",
];

/// The `fabric` preset's annealer-simulator configuration.
fn config() -> AnnealerConfig {
    AnnealerConfig {
        num_reads: 2,
        anneal_us: 2.0,
        sweeps_per_us: 8,
        capacity: 1,
        max_batch: 4,
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
    ChannelTrack::new(track, 2027)
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

fn batch_lines() -> Vec<String> {
    let cost = CostModel::default();
    let mut lines = Vec::new();
    for (lane, spec) in [
        ("pimc", BackendSpec::Pimc(config())),
        ("svmc", BackendSpec::Svmc(config())),
    ] {
        let mut backend = spec.build();
        // Both lanes see the same jobs.
        let mut seeds = Rng64::new(0x1A7E_5EED);
        for n_users in [2, 4] {
            let jobs = jobs(n_users, &mut seeds);
            let refs: Vec<&FabricJob> = jobs.iter().collect();
            for batch in refs.chunks(config().max_batch) {
                let outcome = backend.solve_batch(&cost, batch);
                assert_eq!(outcome.decisions.len(), batch.len());
                let bits: Vec<String> = (outcome.decisions.iter())
                    .map(|d| d.gray_bits.iter().map(|b| b.to_string()).collect())
                    .collect();
                lines.push(format!(
                    "{lane} {n_users}u {:016x} {}",
                    outcome.service_us.to_bits(),
                    bits.join(" ")
                ));
            }
        }
    }
    lines
}

#[test]
fn annealer_lane_batches_are_pinned() {
    let lines = batch_lines();
    assert_eq!(
        lines,
        GOLDEN,
        "annealer-lane decisions or charges drifted; this run gave:\n{}",
        lines.join("\n")
    );
}
