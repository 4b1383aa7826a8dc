//! QUBO-backed detection: the anneal path wrapped as a [`Detector`].
//!
//! This is the adapter that lets the paper's quantum-annealing detection
//! pipeline stand in any line-up of classical detectors: `(H, y)` is reduced
//! to QUBO form with the QuAMax transform ([`crate::reduction`]) and handed
//! to the simulated-annealing sampler in `hqw-qubo` (the classical stand-in
//! for the QPU; `hqw-core::scenario::HybridDetector` is the same adapter
//! around the full annealer-backed `HybridSolver`). The best sample is
//! converted back to Gray-labeled wireless bits and constellation symbols.
//!
//! Determinism: [`Detector::detect`] takes no RNG, so the sampler seed is
//! derived from the detector's stored base seed XOR a fingerprint of the
//! instance data (`H`, `y`). The detector is therefore a pure function of
//! its inputs — repeated calls, and calls from different worker threads of
//! the scenario engine, produce bit-identical results.

use super::{DetectionResult, Detector, DetectorMeta};
use crate::mimo::MimoSystem;
use crate::reduction::reduce_to_qubo;
use hqw_math::{CMatrix, CVector, Rng64};
use hqw_qubo::sa::{sample_qubo, SaParams};

/// FNV-1a fingerprint of an instance's channel and observation.
///
/// Folds the IEEE-754 bit patterns of every matrix/vector entry, so any
/// change to the instance changes the fingerprint (up to hash collisions)
/// and equal instances always agree. Used to derive per-instance sampler
/// seeds inside seedless [`Detector::detect`] calls.
pub fn instance_fingerprint(h: &CMatrix, y: &CVector) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut fold = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for r in 0..h.rows() {
        for c in 0..h.cols() {
            fold(h[(r, c)].re);
            fold(h[(r, c)].im);
        }
    }
    for i in 0..y.len() {
        fold(y[i].re);
        fold(y[i].im);
    }
    hash
}

/// Detector that routes through the ML→QUBO reduction into simulated
/// annealing — the classical-hardware twin of the paper's QPU detection
/// path, and the anneal-backed arm of the BER-vs-SNR scenario engine.
#[derive(Debug, Clone, Copy)]
pub struct QuboDetector {
    /// Simulated-annealing parameters for the sampling stage.
    pub params: SaParams,
    /// Base seed; the effective per-call seed is
    /// `seed ^ instance_fingerprint(h, y)`.
    pub seed: u64,
}

impl QuboDetector {
    /// Creates a detector with default SA parameters.
    pub fn new(seed: u64) -> Self {
        QuboDetector {
            params: SaParams::default(),
            seed,
        }
    }

    /// Creates a detector with explicit SA parameters.
    ///
    /// # Panics
    /// Panics with the [`SaParams::validate`] message on invalid
    /// parameters.
    pub fn with_params(params: SaParams, seed: u64) -> Self {
        params.validate().unwrap_or_else(|e| panic!("{e}"));
        QuboDetector { params, seed }
    }
}

impl Detector for QuboDetector {
    fn name(&self) -> &'static str {
        "QUBO-SA"
    }

    fn detect(&self, system: &MimoSystem, h: &CMatrix, y: &CVector) -> DetectionResult {
        let reduction = reduce_to_qubo(system, h, y);
        let mut rng = Rng64::new(self.seed ^ instance_fingerprint(h, y));
        let samples = sample_qubo(&reduction.qubo, &self.params, &mut rng);
        let best = samples.best().expect("SA always returns ≥ 1 read");
        let symbols = reduction.bits_to_symbols(&best.bits);
        let gray_bits = reduction.natural_to_gray(&best.bits);
        DetectionResult {
            symbols,
            gray_bits,
            meta: DetectorMeta {
                nodes_visited: 0,
                sweeps: (self.params.sweeps * self.params.num_reads) as u64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::noiseless;
    use crate::modulation::Modulation;

    fn quick_params() -> SaParams {
        SaParams {
            sweeps: 64,
            num_reads: 16,
            ..Default::default()
        }
    }

    #[test]
    fn recovers_noiseless_transmissions() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let sc = noiseless(m, 3, 81);
            let det = QuboDetector::with_params(quick_params(), 7).detect(&sc.system, &sc.h, &sc.y);
            assert_eq!(det.gray_bits, sc.tx_bits, "{}", m.name());
        }
    }

    #[test]
    fn detect_is_a_pure_function_of_its_inputs() {
        let sc = noiseless(Modulation::Qam16, 3, 83);
        let d = QuboDetector::with_params(quick_params(), 11);
        let a = d.detect(&sc.system, &sc.h, &sc.y);
        let b = d.detect(&sc.system, &sc.h, &sc.y);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_separates_instances_and_is_stable() {
        let a = noiseless(Modulation::Qpsk, 3, 85);
        let b = noiseless(Modulation::Qpsk, 3, 86);
        assert_eq!(
            instance_fingerprint(&a.h, &a.y),
            instance_fingerprint(&a.h, &a.y)
        );
        assert_ne!(
            instance_fingerprint(&a.h, &a.y),
            instance_fingerprint(&b.h, &b.y)
        );
    }

    #[test]
    fn reports_sweep_metadata() {
        let sc = noiseless(Modulation::Qpsk, 2, 87);
        let d = QuboDetector::with_params(quick_params(), 3);
        let det = d.detect(&sc.system, &sc.h, &sc.y);
        assert_eq!(det.meta.sweeps, 64 * 16);
        assert_eq!(det.meta.nodes_visited, 0);
    }

    #[test]
    #[should_panic(expected = "sweeps must be > 0")]
    fn invalid_params_rejected() {
        QuboDetector::with_params(
            SaParams {
                sweeps: 0,
                ..Default::default()
            },
            1,
        );
    }
}
