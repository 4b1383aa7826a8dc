//! Soft information: per-bit max-log log-likelihood ratios.
//!
//! Backs the paper's §3.1 "soft information to narrow the search space"
//! scheme (Figure 4): the receiver first equalizes the channel (ZF/MMSE),
//! then computes per-bit confidences on each user's equalized symbol; bits
//! with high |LLR| become pair-constraint candidates for
//! `hqw_qubo::constraints`.
//!
//! Max-log approximation on a per-user Gaussian channel:
//!
//! ```text
//!   LLR_b ≈ ( min_{p : bit_b(p)=1} |x̂ − p|² − min_{p : bit_b(p)=0} |x̂ − p|² ) / σ²
//! ```
//!
//! Sign convention: **positive LLR ⇒ bit 0 is more likely**.

use crate::modulation::Modulation;
use hqw_math::Complex64;

/// Per-bit soft information for one user symbol.
///
/// `llrs[k]` is the max-log LLR of the `k`-th Gray-labeled bit.
pub fn symbol_llrs(modulation: Modulation, equalized: Complex64, noise_variance: f64) -> Vec<f64> {
    assert!(
        noise_variance > 0.0,
        "symbol_llrs: noise variance must be > 0"
    );
    let constellation = modulation.constellation();
    let bps = modulation.bits_per_symbol();
    let mut min0 = vec![f64::INFINITY; bps];
    let mut min1 = vec![f64::INFINITY; bps];
    for (bits, point) in &constellation {
        let dist = (equalized - *point).norm_sqr();
        for (k, &b) in bits.iter().enumerate() {
            if b == 0 {
                min0[k] = min0[k].min(dist);
            } else {
                min1[k] = min1[k].min(dist);
            }
        }
    }
    (0..bps)
        .map(|k| (min1[k] - min0[k]) / noise_variance)
        .collect()
}

/// Selects high-confidence bits: indices (user-major, Gray labels) whose
/// |LLR| meets `threshold`, paired with the likely bit value.
pub fn confident_bits(llrs: &[f64], threshold: f64) -> Vec<(usize, u8)> {
    assert!(threshold >= 0.0, "confident_bits: negative threshold");
    llrs.iter()
        .enumerate()
        .filter(|(_, &l)| l.abs() >= threshold)
        .map(|(i, &l)| (i, if l > 0.0 { 0u8 } else { 1u8 }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{add_awgn, ChannelModel};
    use crate::mimo::MimoSystem;
    use hqw_math::linalg::QrReal;
    use hqw_math::{CVector, Rng64};

    #[test]
    fn llr_signs_match_transmitted_bits_noiseless() {
        // With the equalized point exactly on a constellation point, every
        // bit's LLR should point at the transmitted value.
        for m in Modulation::ALL {
            for (bits, point) in m.constellation() {
                let llrs = symbol_llrs(m, point, 0.1);
                for (k, &b) in bits.iter().enumerate() {
                    if b == 0 {
                        assert!(llrs[k] > 0.0, "{} bit {k}: LLR {}", m.name(), llrs[k]);
                    } else {
                        assert!(llrs[k] < 0.0, "{} bit {k}: LLR {}", m.name(), llrs[k]);
                    }
                }
            }
        }
    }

    #[test]
    fn llr_magnitude_shrinks_with_noise_variance() {
        let m = Modulation::Qam16;
        let point = m.constellation()[5].1;
        let low_noise = symbol_llrs(m, point, 0.01);
        let high_noise = symbol_llrs(m, point, 1.0);
        for k in 0..4 {
            assert!(low_noise[k].abs() > high_noise[k].abs());
        }
    }

    #[test]
    fn boundary_symbol_has_weak_llr() {
        // A point halfway between two constellation points has ~zero LLR on
        // the bit distinguishing them.
        let m = Modulation::Bpsk;
        let llrs = symbol_llrs(m, Complex64::new(0.0, 0.0), 0.5);
        assert!(llrs[0].abs() < 1e-9);
    }

    #[test]
    fn receiver_llrs_recover_bits_at_high_snr() {
        let mut rng = Rng64::new(91);
        let sys = MimoSystem::new(4, 4, Modulation::Qam16);
        let h = ChannelModel::UnitGainRandomPhase.generate(4, 4, &mut rng);
        let bits = sys.random_bits(&mut rng);
        let x = sys.modulate(&bits);
        let mut y = sys.transmit(&h, &x);
        add_awgn(&mut y, 1e-4, &mut rng);
        // ZF-equalize without slicing, then per-user max-log LLRs.
        let qr = QrReal::new(&h.to_real_stacked());
        let estimates = CVector::from_real_stacked(&qr.solve_least_squares(&y.to_real_stacked()));
        let llrs: Vec<f64> = (0..sys.n_tx)
            .flat_map(|u| symbol_llrs(sys.modulation, estimates[u], 1e-4))
            .collect();
        assert_eq!(llrs.len(), 16);
        for (k, &b) in bits.iter().enumerate() {
            let decided = if llrs[k] > 0.0 { 0u8 } else { 1u8 };
            assert_eq!(decided, b, "bit {k}");
        }
    }

    #[test]
    fn confident_bits_filters_by_threshold() {
        let llrs = [5.0, -0.5, -8.0, 0.1];
        let picks = confident_bits(&llrs, 1.0);
        assert_eq!(picks, vec![(0, 0), (2, 1)]);
        assert_eq!(confident_bits(&llrs, 100.0), vec![]);
    }
}

/// Per-bit LLRs estimated from an annealer **sample set** — soft output for
/// the hybrid detector.
///
/// The anneal distribution is (approximately) a low-temperature Boltzmann
/// distribution over candidate solutions, so occurrence-weighted bit
/// marginals carry genuine reliability information — this is how a
/// quantum-assisted detector feeds a soft-decision channel decoder (the
/// soft-information applications the paper cites [20, 31, 57]).
///
/// `LLR_k = ln( (N_k(0) + α) / (N_k(1) + α) )` with additive smoothing
/// `α = 0.5` (Krichevsky–Trofimov), so all-agree bits get large finite
/// LLRs instead of ±∞. Sign convention matches [`symbol_llrs`]:
/// **positive ⇒ bit 0 more likely**. Bits are in the sample set's own
/// labeling (natural/QUBO for annealer output; convert with
/// `ReducedProblem::natural_to_gray` before handing to a decoder).
///
/// # Panics
/// Panics when the sample set is empty or `n_bits` mismatches the samples.
pub fn sample_llrs(samples: &hqw_qubo::SampleSet, n_bits: usize) -> Vec<f64> {
    assert!(!samples.is_empty(), "sample_llrs: empty sample set");
    let mut ones = vec![0.0f64; n_bits];
    let mut total = 0.0f64;
    for s in samples.iter() {
        assert_eq!(s.bits.len(), n_bits, "sample_llrs: bit-length mismatch");
        let w = s.occurrences as f64;
        total += w;
        for (k, &b) in s.bits.iter().enumerate() {
            if b == 1 {
                ones[k] += w;
            }
        }
    }
    const ALPHA: f64 = 0.5;
    ones.iter()
        .map(|&n1| ((total - n1 + ALPHA) / (n1 + ALPHA)).ln())
        .collect()
}

#[cfg(test)]
mod sample_llr_tests {
    use super::*;
    use hqw_qubo::SampleSet;

    #[test]
    fn unanimous_samples_give_confident_llrs() {
        let set = SampleSet::from_reads(vec![
            (vec![0, 1], -5.0),
            (vec![0, 1], -5.0),
            (vec![0, 1], -5.0),
        ]);
        let llrs = sample_llrs(&set, 2);
        assert!(llrs[0] > 1.0, "bit 0 always 0 ⇒ strongly positive LLR");
        assert!(llrs[1] < -1.0, "bit 1 always 1 ⇒ strongly negative LLR");
        assert!(
            llrs[0].is_finite() && llrs[1].is_finite(),
            "smoothing keeps LLRs finite"
        );
    }

    #[test]
    fn split_samples_give_weak_llrs() {
        let set = SampleSet::from_reads(vec![(vec![0], -1.0), (vec![1], -1.0)]);
        let llrs = sample_llrs(&set, 1);
        assert!(llrs[0].abs() < 1e-9, "50/50 split ⇒ zero LLR");
    }

    #[test]
    fn occurrence_weighting_matters() {
        let set = SampleSet::from_reads(vec![
            (vec![0], -2.0),
            (vec![0], -2.0),
            (vec![0], -2.0),
            (vec![1], -1.0),
        ]);
        let llrs = sample_llrs(&set, 1);
        // 3 zeros vs 1 one: ln(3.5/1.5) ≈ 0.847.
        assert!((llrs[0] - (3.5f64 / 1.5).ln()).abs() < 1e-9);
    }

    #[test]
    fn hybrid_soft_output_matches_ground_truth_signs() {
        // End-to-end: anneal a noiseless instance, derive sample LLRs, and
        // check every confident bit agrees with the transmitted data.
        use hqw_math::Rng64;
        let mut rng = Rng64::new(17);
        let inst = crate::instance::DetectionInstance::generate(
            &crate::instance::InstanceConfig::paper(2, Modulation::Qpsk),
            &mut rng,
        );
        // Build a sample set concentrated on the ground state plus strays.
        let truth = inst.tx_natural_bits.clone();
        let mut stray = truth.clone();
        stray[0] ^= 1;
        let e_truth = inst.reduction.qubo.energy(&truth);
        let e_stray = inst.reduction.qubo.energy(&stray);
        let reads: Vec<(Vec<u8>, f64)> = std::iter::repeat_n((truth.clone(), e_truth), 9)
            .chain(std::iter::once((stray, e_stray)))
            .collect();
        let set = hqw_qubo::SampleSet::from_reads(reads);
        let llrs = sample_llrs(&set, truth.len());
        for (k, &b) in truth.iter().enumerate() {
            let decided = if llrs[k] > 0.0 { 0u8 } else { 1u8 };
            assert_eq!(decided, b, "soft bit {k} disagrees with the transmission");
        }
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_sample_set_rejected() {
        sample_llrs(&SampleSet::new(), 4);
    }
}
