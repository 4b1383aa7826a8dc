//! Golden-output regression for the SA kernel.
//!
//! These samples were captured from the pre-optimization sweep kernel (the
//! first incremental-CSR implementation). The SA kernel promises
//! **byte-identical** outputs across implementation changes — same bits, same
//! tracked-energy float bit patterns, same occurrence counts — so any
//! optimization that reorders a float operation or consumes the RNG
//! differently trips this test.

use hqw_math::Rng64;
use hqw_oracle::generator::random_qubo;
use hqw_qubo::sa::{sample_qubo, SaParams};

/// (bits, tracked-energy bit pattern, occurrences) triples in sample order.
fn collect(set: &hqw_qubo::SampleSet) -> Vec<(Vec<u8>, u64, u64)> {
    set.iter()
        .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
        .collect()
}

#[test]
fn converged_cold_schedule_golden() {
    let q = random_qubo(24, &mut Rng64::new(71));
    let params = SaParams {
        sweeps: 64,
        num_reads: 8,
        threads: 1,
        ..SaParams::default()
    };
    let set = sample_qubo(&q, &params, &mut Rng64::new(9));
    let expected_bits: Vec<u8> = vec![
        1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1,
    ];
    assert_eq!(
        collect(&set),
        vec![(expected_bits, 0xc0347a87ef39245b, 8)],
        "Exact kernel drifted from the pre-change golden (cold schedule)"
    );
}

#[test]
fn hot_short_schedule_golden() {
    // Hot + short keeps every read distinct, so this golden pins eight
    // independent Metropolis trajectories (start-state draws, accept draws,
    // tracked-energy accumulation order) rather than one converged optimum.
    let q = random_qubo(24, &mut Rng64::new(71));
    let params = SaParams {
        beta_initial: 0.2,
        beta_final: 1.5,
        sweeps: 6,
        num_reads: 5,
        threads: 1,
    };
    let set = sample_qubo(&q, &params, &mut Rng64::new(17));
    let expected: Vec<(Vec<u8>, u64, u64)> = vec![
        (
            vec![
                1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1,
            ],
            0xc0347a87ef39245a,
            1,
        ),
        (
            vec![
                1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1,
            ],
            0xc03313a8236bdcf8,
            1,
        ),
        (
            vec![
                1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1,
            ],
            0xc032ff9039df3519,
            1,
        ),
        (
            vec![
                0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1,
            ],
            0xc031b203edb78b5e,
            1,
        ),
        (
            vec![
                1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1,
            ],
            0xc03146b074f9d4d2,
            1,
        ),
    ];
    assert_eq!(
        collect(&set),
        expected,
        "Exact kernel drifted from the pre-change golden (hot schedule)"
    );
}

#[test]
fn goldens_hold_at_every_thread_count() {
    // The same goldens through the parallel fan-out: 1 thread, several, all.
    let q = random_qubo(24, &mut Rng64::new(71));
    for threads in [2, 3, 0] {
        let params = SaParams {
            sweeps: 64,
            num_reads: 8,
            threads,
            ..SaParams::default()
        };
        let set = sample_qubo(&q, &params, &mut Rng64::new(9));
        let samples = collect(&set);
        assert_eq!(samples.len(), 1, "threads={threads}");
        assert_eq!(samples[0].1, 0xc0347a87ef39245b, "threads={threads}");
        assert_eq!(samples[0].2, 8, "threads={threads}");
    }
}
