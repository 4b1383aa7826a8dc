//! Descriptive statistics, percentiles, histograms and fixed-width binning.
//!
//! These utilities back the paper's analyses: the ΔE% percentile
//! distributions of Figure 6, the 2%-wide ΔE_IS% bins of Figure 7, and the
//! median-based parameter selection of §4.3.

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

/// A fixed-width histogram over `[lo, hi)`.
///
/// Values outside the range are counted in `underflow` / `overflow` rather
/// than silently dropped, so totals always reconcile.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Count of samples below `lo`.
    pub underflow: u64,
    /// Count of samples at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "Histogram: need at least one bin");
        assert!(hi > lo, "Histogram: hi must exceed lo");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width()) as usize;
            // Guard against x == hi-epsilon rounding up to bins().
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total in-range count.
    pub fn total_in_range(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total including under/overflow.
    pub fn total(&self) -> u64 {
        self.total_in_range() + self.underflow + self.overflow
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.width()
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.bin_lo(i) + 0.5 * self.width()
    }
}

/// Groups `(key, value)` observations into fixed-width key bins and reduces
/// each bin's values with a caller-supplied statistic.
///
/// This is the helper behind Figure 7's "ΔE_IS% binned in steps of δ = 2%":
/// `bin_reduce(obs, 0.0, 10.0, 2.0, |v| ...)` yields one entry per bin with
/// the bin center and the reduced value (`None` for empty bins).
pub fn bin_reduce<F>(
    observations: &[(f64, f64)],
    lo: f64,
    hi: f64,
    width: f64,
    mut reduce: F,
) -> Vec<(f64, Option<f64>)>
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(width > 0.0, "bin_reduce: width must be positive");
    assert!(hi > lo, "bin_reduce: hi must exceed lo");
    let nbins = ((hi - lo) / width).ceil() as usize;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); nbins];
    for &(k, v) in observations {
        if k < lo || k >= hi {
            continue;
        }
        let idx = (((k - lo) / width) as usize).min(nbins - 1);
        buckets[idx].push(v);
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, vals)| {
            let center = lo + (i as f64 + 0.5) * width;
            let reduced = if vals.is_empty() {
                None
            } else {
                Some(reduce(&vals))
            };
            (center, reduced)
        })
        .collect()
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

    #[test]
    fn histogram_counts_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 25.0]);
        assert_eq!(h.count(0), 2); // 0.0, 1.9
        assert_eq!(h.count(1), 1); // 2.0
        assert_eq!(h.count(4), 1); // 9.99
        assert_eq!(h.underflow, 1); // -1.0
        assert_eq!(h.overflow, 2); // 10.0, 25.0
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_lo(1), 2.0);
        assert_eq!(h.bin_center(0), 1.0);
    }

    #[test]
    fn bin_reduce_matches_figure7_binning() {
        // Keys 0..10 in 2%-wide bins, reduce = mean.
        let obs: Vec<(f64, f64)> = vec![
            (0.5, 10.0),
            (1.5, 20.0),  // bin [0,2): mean 15
            (3.0, 5.0),   // bin [2,4): mean 5
            (9.9, 1.0),   // bin [8,10): mean 1
            (11.0, 99.0), // out of range, ignored
        ];
        let bins = bin_reduce(&obs, 0.0, 10.0, 2.0, |v| {
            v.iter().sum::<f64>() / v.len() as f64
        });
        assert_eq!(bins.len(), 5);
        assert_eq!(bins[0], (1.0, Some(15.0)));
        assert_eq!(bins[1], (3.0, Some(5.0)));
        assert_eq!(bins[2], (5.0, None));
        assert_eq!(bins[4], (9.0, Some(1.0)));
    }
}
