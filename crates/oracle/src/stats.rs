//! Incremental mean/variance, a reference for the batch statistics, and
//! histogram frequencies.

use hqw_math::stats::Histogram;

/// Normalized frequencies of `h`'s bins (fractions of the total including
/// overflow).
pub fn frequencies(h: &Histogram) -> Vec<f64> {
    let total = h.total().max(1) as f64;
    (0..h.bins()).map(|i| h.count(i) as f64 / total).collect()
}

/// Incremental mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator; 0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_math::stats::median;

    #[test]
    fn summary_of_known_sample() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        let mut s = RunningStats::new();
        for &x in &sample {
            s.add(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((median(&sample) - 2.5).abs() < 1e-12);
        // Sample std dev of 1..4 is sqrt(5/3).
        assert!((s.std_dev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_matches_batch() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let mut rs = RunningStats::new();
        for &x in &data {
            rs.add(x);
        }
        // Two-pass batch oracle: mean, then the n−1 sample variance.
        let mean = data.iter().sum::<f64>() / 100.0;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 99.0;
        assert_eq!(rs.count(), 100);
        assert!((rs.mean() - mean).abs() < 1e-12);
        assert!((rs.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(rs.min(), data.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(
            rs.max(),
            data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64).cos()).collect();
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.add(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &data[..20] {
            left.add(x);
        }
        for &x in &data[20..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_with_empty() {
        let mut a = RunningStats::new();
        a.add(1.0);
        a.add(2.0);
        let b = RunningStats::new();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 2);
        let mut empty = RunningStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_frequencies_sum_below_one_with_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend([0.1, 0.6, 2.0]);
        let f = frequencies(&h);
        assert!((f[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 2.0 / 3.0).abs() < 1e-12);
    }
}
