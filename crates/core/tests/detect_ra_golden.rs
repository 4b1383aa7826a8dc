//! Golden output of the served detect-ra pipeline: greedy search seeding a
//! PIMC reverse anneal (8 Trotter slices, 16 serial reads, `s_p = 0.65`)
//! on 8-user QPSK `ChannelTrack` frames at 14 dB.
//!
//! Building the problem the kernels read, or reusing a read's buffers,
//! must not move a single decision: every frame's best bits, the bits of
//! its best energy and its sample set's counts are pinned here.

use hqw_anneal::{DWaveProfile, EngineKind, QuantumSampler, SamplerConfig};
use hqw_core::HybridSolver;
use hqw_math::Rng64;
use hqw_phy::channel::snr_db_to_noise_variance;
use hqw_phy::{ChannelTrack, Modulation, TrackConfig};

/// One line per frame: the best bits, `best_energy.to_bits()` in hex, and
/// each distinct sample's occurrences in the sample set's order.
const GOLDEN: [&str; 32] = [
    "0001000111000011 c05399fe1fdd24f1 16",
    "1011010111100101 c06090c8601577b5 14,2",
    "1100100000011011 c05914e90bab5d5f 15,1",
    "1011000100100000 c05bc6eabc159a0f 16",
    "1101000100001011 c05d552c177b51e5 16",
    "0101111101101100 c0665638520d01df 16",
    "1110011100110111 c065ef2ebbc37d0a 16",
    "0011011100001011 c05e7d15f128df4a 16",
    "1011100001010011 c05a4b14c674b0a3 16",
    "0000111100100111 c058aabf69ff1792 16",
    "0010001000000100 c04ca5f2b2879eb4 16",
    "0001000110101111 c069f82b5b1664f7 16",
    "0111000001100111 c05a9a8b15f7b177 16",
    "0110001100110010 c0512e1e88efffd8 16",
    "0110110111011000 c063260a927df05e 16",
    "0100110001011101 c06a1b19d0d7637e 11,3,1,1",
    "1000011011010110 c05161d264ed1370 1,15",
    "1001010100110000 c058de41a6e36cd7 16",
    "0110001101101000 c062a6eb6a9dc987 16",
    "1111000110001011 c073cef1efdee162 15,1",
    "0110100110101100 c068ae76d4141f51 14,2",
    "0110010111011110 c06bf917b772f4ad 16",
    "0011100000110111 c064166332bb4bf2 14,2",
    "1111000101110100 c05872f8a68582ff 16",
    "1100101111010001 c0653ae50ece38e6 16",
    "1100011010100011 c058eb458895150a 16",
    "1101101010110010 c0657c03190f0062 9,1,1,3,1,1",
    "0101001010110111 c06160fb1e22b157 16",
    "1111111101101000 c066aa0a808e8263 15,1",
    "1011000010111001 c060e17f9d416729 15,1",
    "0001000000010000 c0347ddc4cde684a 15,1",
    "0100001000000101 c055a1a37b876cef 15,1",
];

fn frame_lines() -> Vec<String> {
    let solver = HybridSolver::paper_prototype(
        QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: 16,
                engine: EngineKind::Pimc { trotter_slices: 8 },
                threads: 1,
                ..Default::default()
            },
        ),
        0.65,
    );
    let track = TrackConfig {
        n_users: 8,
        n_rx: 8,
        modulation: Modulation::Qpsk,
        rho: 0.0,
        noise_variance: snr_db_to_noise_variance(14.0, 8),
    };
    let mut seeds = Rng64::new(0xDE7E_C7A0);
    ChannelTrack::new(track, 2025)
        .take(GOLDEN.len())
        .map(|inst| {
            let result = solver.solve(&inst, seeds.next_u64());
            let bits: String = result.best_bits.iter().map(|b| b.to_string()).collect();
            let counts: Vec<String> = result
                .samples
                .iter()
                .map(|s| s.occurrences.to_string())
                .collect();
            format!(
                "{bits} {:016x} {}",
                result.best_energy.to_bits(),
                counts.join(",")
            )
        })
        .collect()
}

#[test]
fn detect_ra_frames_are_pinned() {
    let lines = frame_lines();
    assert_eq!(
        lines,
        GOLDEN,
        "detect-ra decisions drifted; this run gave:\n{}",
        lines.join("\n")
    );
}
