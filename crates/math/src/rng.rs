//! Deterministic random number generation.
//!
//! The whole workspace threads explicit RNG state through every stochastic
//! API so that experiments reproduce bit-exactly from a seed, across threads
//! (each parallel anneal read derives its own child generator with
//! [`Rng64::split`]).
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through
//! splitmix64 as its authors recommend. It is not cryptographic; it is a
//! fast, high-quality generator for Monte-Carlo simulation.

/// A seedable xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second Gaussian from the last Box-Muller draw.
    gauss_spare: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including 0) produces a valid, full-period state because the
    /// raw seed is expanded through splitmix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each parallel anneal read / each pipeline stage its own
    /// stream while keeping the parent deterministic: the child's seed is a
    /// fresh 64-bit draw from the parent.
    pub fn split(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        Self::unit_f64(self.next_u53())
    }

    /// Uniform integer in `[0, 2⁵³)`: the draw behind [`Rng64::next_f64`],
    /// which returns exactly [`Rng64::unit_f64`] of it.
    #[inline]
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// The `f64` value `m · 2⁻⁵³` of a [`Rng64::next_u53`] draw `m` (exact).
    #[inline]
    pub fn unit_f64(m: u64) -> f64 {
        m as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Integer form of the Bernoulli test `next_f64() < p`: for every draw
    /// `m` of [`Rng64::next_u53`], `m < unit_threshold(p)` holds exactly
    /// when `unit_f64(m) < p` does.
    ///
    /// Scaling by `2⁵³` is exact in binary floating point, so
    /// `m · 2⁻⁵³ < p ⇔ m < p · 2⁵³ ⇔ m < ⌈p · 2⁵³⌉` for integer `m`. A
    /// kernel that tests the same `p` many times computes the threshold once
    /// and compares integers. `p ≤ 0` (and NaN) gives 0, which no draw
    /// passes; `p ≥ 1` gives `2⁵³`, which every draw passes.
    pub fn unit_threshold(p: f64) -> u64 {
        if p >= 1.0 {
            1 << 53
        } else if p > 0.0 {
            (p * (1u64 << 53) as f64).ceil() as u64
        } else {
            0
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below: n must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[inline]
    pub fn next_index(&mut self, n: usize) -> usize {
        self.next_below(n as u64) as usize
    }

    /// Fair coin flip.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn next_bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard Gaussian (`μ = 0`, `σ = 1`) via Box-Muller with caching.
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Gaussian with the given mean and standard deviation.
    #[inline]
    pub fn next_gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_gaussian()
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples an index from unnormalized non-negative weights.
    ///
    /// # Panics
    /// Panics when `weights` is empty or sums to a non-positive value.
    pub fn next_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "next_weighted: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "next_weighted: weights must sum to a positive finite value"
        );
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1 // Floating-point fallback.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut rng = Rng64::new(0);
        // A bad (all-zero) xoshiro state would return 0 forever.
        let any_nonzero = (0..8).any(|_| rng.next_u64() != 0);
        assert!(any_nonzero);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut rng = Rng64::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Rng64::new(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng64::new(17);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = Rng64::new(23);
        let mut parent2 = Rng64::new(23);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Child and parent streams differ.
        let mut parent = Rng64::new(29);
        let mut child = parent.split();
        let equal = (0..32)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(equal < 2);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::new(31);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = Rng64::new(37);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.next_weighted(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn unit_threshold_is_the_integer_form_of_next_f64_below_p() {
        // Edge probabilities: zero, the smallest subnormal, one ULP of the
        // draw grid, a half, one below one, one.
        let edges = [
            0.0,
            5e-324,
            1.0 / (1u64 << 53) as f64,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ];
        // Draws on and beside every edge threshold, plus the extremes.
        let mut draws = vec![
            0u64,
            1,
            (1 << 52) - 1,
            1 << 52,
            (1 << 53) - 2,
            (1 << 53) - 1,
        ];
        for &p in &edges {
            let t = Rng64::unit_threshold(p);
            draws.extend([t.saturating_sub(1), t, t + 1].map(|m| m.min((1 << 53) - 1)));
        }
        let mut rng = Rng64::new(41);
        let mut probs: Vec<f64> = edges.to_vec();
        probs.extend((0..200).map(|_| rng.next_f64()));
        probs.extend([-0.5, 1.5, f64::NAN]);
        draws.extend((0..200).map(|_| rng.next_u53()));
        for &p in &probs {
            let t = Rng64::unit_threshold(p);
            for &m in &draws {
                assert_eq!(m < t, Rng64::unit_f64(m) < p, "p={p:e} m={m}");
            }
            // On a live stream the integer and float tests agree draw for draw.
            let (mut a, mut b) = (Rng64::new(p.to_bits()), Rng64::new(p.to_bits()));
            for _ in 0..64 {
                assert_eq!(a.next_u53() < t, b.next_f64() < p);
            }
        }
        assert_eq!(Rng64::unit_threshold(0.0), 0);
        assert_eq!(Rng64::unit_threshold(1.0), 1 << 53);
        assert_eq!(Rng64::unit_threshold(0.5), 1 << 52);
        assert_eq!(Rng64::unit_threshold(5e-324), 1);
    }

    #[test]
    fn next_f64_is_the_scaled_u53_draw() {
        let (mut a, mut b) = (Rng64::new(43), Rng64::new(43));
        for _ in 0..1000 {
            assert_eq!(
                a.next_f64().to_bits(),
                Rng64::unit_f64(b.next_u53()).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "next_below: n must be positive")]
    fn next_below_zero_panics() {
        Rng64::new(1).next_below(0);
    }
}
