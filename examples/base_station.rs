//! Base-station scenario: a stream of channel uses flows through the
//! paper's hybrid classical-quantum detector.
//!
//! Each channel use gets a Greedy Search seed refined by Reverse Annealing;
//! the stream is solved as one data-parallel batch. The example reports
//! link-level quality plus the programmed-time budget per channel use.
//!
//! ```sh
//! cargo run --release --example base_station
//! ```

use hqw::core::stages::GreedyInitializer;
use hqw::prelude::*;

fn main() {
    let uses = 12;
    let mut rng = Rng64::new(2026);
    let config = InstanceConfig::paper(6, Modulation::Qam16); // 24 vars/use
    let stream = DetectionInstance::generate_batch(&config, uses, &mut rng);

    // One thread per solve: the batch itself fans out across cores.
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 100,
            threads: 1,
            ..Default::default()
        },
    );
    let solver = HybridSolver::new(
        sampler,
        HybridConfig {
            protocol: Protocol::paper_ra(0.69),
            initializer: Box::new(GreedyInitializer),
        },
    );

    let t0 = std::time::Instant::now();
    let results = solver.solve_batch(&stream, 99, 0);
    println!("Processed {uses} channel uses in {:?}", t0.elapsed());

    // Link-level quality.
    let mut bits_total = 0usize;
    let mut bit_errors = 0usize;
    let mut exact = 0usize;
    for (inst, result) in stream.iter().zip(&results) {
        let ber = inst.score_ber(&result.best_bits);
        bits_total += inst.num_vars();
        bit_errors += (ber * inst.num_vars() as f64).round() as usize;
        if result.best_bits == inst.tx_natural_bits {
            exact += 1;
        }
    }
    println!(
        "Link quality: {}/{} channel uses decoded exactly; aggregate BER {:.3}%",
        exact,
        uses,
        100.0 * bit_errors as f64 / bits_total as f64
    );

    // Programmed-time budget per use (the quantity a real deployment cares
    // about): classical latency + QPU sampling time.
    let classical_us = results[0].classical_us;
    let quantum_us = results[0].quantum_timing.sampling_us();
    println!(
        "Programmed time per use: classical {classical_us:.2} µs + quantum {quantum_us:.0} µs \
         ({} reads × {:.2} µs anneal + readout overheads)",
        results[0].quantum_timing.num_reads, results[0].quantum_timing.anneal_us_per_read,
    );
}
