//! Descriptive statistics: percentiles and the zero-safe ratio.
//!
//! These utilities back the paper's analyses: the ΔE% percentile
//! distributions of Figure 6 and the median-based parameter selection of
//! §4.3.

/// Computes the `p`-th percentile (0–100) with linear interpolation.
///
/// Sorts a copy of the input; suitable for analysis-sized sample sets.
///
/// # Panics
/// Panics on an empty sample or `p` outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile: empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile: p out of range");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in sample"));
    percentile_sorted(&sorted, p)
}

/// Percentile of an already-sorted sample (ascending).
///
/// # Panics
/// Panics on an empty sample or `p` outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile: empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile: p out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median convenience wrapper.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Sorts a copy of `values` ascending — the shared pre-step every engine's
/// latency aggregation runs before its [`percentile_sorted`] queries, so
/// the NaN-rejecting comparator lives in one place.
///
/// # Panics
/// Panics when `values` contains a NaN.
pub fn sorted_ascending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("sorted_ascending: NaN in sample"));
    sorted
}

/// Batch percentile queries over an unsorted sample: one sort, one
/// [`percentile_sorted`] call per requested percentile.
///
/// Unlike [`percentile`], an empty sample is not an error: every query
/// yields 0.0, so an experiment point with no observations reports zeroed
/// latency fields instead of panicking or emitting NaN.
///
/// # Panics
/// Panics when `values` contains a NaN or a percentile falls outside
/// `[0, 100]`.
pub fn percentiles_of(values: &[f64], ps: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return ps
            .iter()
            .map(|p| {
                assert!((0.0..=100.0).contains(p), "percentiles_of: p out of range");
                0.0
            })
            .collect();
    }
    let sorted = sorted_ascending(values);
    ps.iter().map(|&p| percentile_sorted(&sorted, p)).collect()
}

/// `num / den`, except a zero denominator yields 0.0 instead of NaN or
/// ±∞ — the guard every per-job report ratio (`decision_ns_per_job`,
/// `ber`, `fallback_rate`, …) uses so a point with zero jobs emits a
/// well-formed report.
pub fn safe_ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert!((percentile(&v, 50.0) - 25.0).abs() < 1e-12);
        assert!((percentile(&v, 25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn median_odd_sample() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn percentiles_of_empty_sample_is_all_zero() {
        assert_eq!(percentiles_of(&[], &[0.0, 50.0, 99.9, 100.0]), vec![0.0; 4]);
    }

    #[test]
    fn percentiles_of_single_element_is_constant() {
        assert_eq!(
            percentiles_of(&[7.5], &[0.0, 33.0, 50.0, 100.0]),
            vec![7.5; 4]
        );
    }

    #[test]
    fn percentiles_of_exact_boundaries_match_percentile_sorted() {
        // Unsorted input; p = 0/25/50/100 land exactly on order statistics
        // of a 5-element sample (rank = p/100 * 4 is integral).
        let v = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(
            percentiles_of(&v, &[0.0, 25.0, 50.0, 75.0, 100.0]),
            vec![10.0, 20.0, 30.0, 40.0, 50.0]
        );
        // And interpolated queries agree with the sorted-path reference.
        let sorted = sorted_ascending(&v);
        assert_eq!(
            percentiles_of(&v, &[99.0])[0],
            percentile_sorted(&sorted, 99.0)
        );
    }

    #[test]
    #[should_panic(expected = "p out of range")]
    fn percentiles_of_rejects_out_of_range_even_when_empty() {
        percentiles_of(&[], &[101.0]);
    }

    #[test]
    fn sorted_ascending_leaves_input_untouched() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(sorted_ascending(&v), vec![1.0, 2.0, 3.0]);
        assert_eq!(v, [3.0, 1.0, 2.0]);
    }

    #[test]
    fn safe_ratio_guards_zero_denominators() {
        assert_eq!(safe_ratio(5.0, 2.0), 2.5);
        assert_eq!(safe_ratio(5.0, 0.0), 0.0);
        assert_eq!(safe_ratio(0.0, 0.0), 0.0);
        assert_eq!(safe_ratio(-3.0, 0.0), 0.0);
    }
}
