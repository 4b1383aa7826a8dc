//! Exp(1) sampling by the ziggurat method.
//!
//! Marsaglia & Tsang, "The Ziggurat Method for Generating Random
//! Variables" (J. Stat. Softw. 5(8), 2000), exponential case with 256
//! layers. The density `f(t) = e^{−t}` is covered by 255 stacked
//! rectangles plus a base strip, each of area `V`: layer `i ≥ 1` spans
//! `[0, x_i] × [f(x_i), f(x_{i−1})]` with `x_255 = R`, `x_{i−1} =
//! −ln(V/x_i + f(x_i))` and `f(x_0) = 1`; the base is `[0, R] × [0, f(R)]`
//! plus the tail beyond `R`, so `V = (R + 1)·e^{−R}`.
//!
//! A draw picks a layer uniformly and a point `x` uniformly across its
//! width, both from one `u64`. If `x` lies below the next layer's width,
//! the point is under the curve and `x` is returned: one table load, one
//! integer compare and one multiply, for 97.8% of draws. Otherwise a
//! stacked layer tests the wedge against `e^{−x}` with a fresh uniform,
//! and the base layer falls into the tail, which by memorylessness is
//! `R` plus a fresh Exp(1) draw, so no draw ever takes a logarithm. A
//! rejected wedge starts over.
//!
//! Rounding: the result is exact in distribution up to two errors. The
//! tables are built in `f64`, so the layers' areas are equal only to
//! within `ε = max_i |A_i/V − 1|` (6·10⁻¹⁴ measured, under the 10⁻¹²
//! the tests check), which moves any probability by at most `ε`. The
//! point across a layer sits on a 2⁻⁵³ grid, which moves any tail
//! `P(E > t)` by about 2⁻⁵³.

use crate::Rng64;
use std::sync::OnceLock;

/// Right edge of the widest stacked layer, where the tail begins
/// (Marsaglia & Tsang's `r = 7.69711747013104972`, to `f64`).
const R: f64 = 7.697_117_470_131_05;

/// Area of every layer; the base layer's includes the tail beyond [`R`]
/// (`v = 0.0039496598225815571993`, to `f64`).
const V: f64 = 0.003_949_659_822_581_557;

/// Layers, selected by the low byte of a draw.
const LAYERS: usize = 256;

/// The span of the 53-bit point draw, `2⁵³`.
const SPAN: f64 = (1u64 << 53) as f64;

/// What the fast path reads of one layer.
#[derive(Debug, Clone, Copy)]
struct Layer {
    /// Points `m` below this lie inside the next layer's width, under the
    /// curve: `m < below` ⇒ `m·2⁻⁵³ < x_{i−1}/x_i` (the base layer:
    /// `< R/q`). Rounded down, so a point it misses still meets the exact
    /// density test.
    below: u64,
    /// Layer width per unit of the point draw: `x = m·width`.
    width: f64,
}

/// The ziggurat's tables, built once from [`R`] and [`V`].
#[derive(Debug)]
struct Tables {
    layers: [Layer; LAYERS],
    /// `f(x_i) = e^{−x_i}`, the bottom edge of stacked layer `i` and the
    /// top of layer `i + 1`; `density[0] = 1` closes the top layer.
    density: [f64; LAYERS],
}

impl Tables {
    fn build() -> Self {
        let mut x = [0.0; LAYERS];
        x[LAYERS - 1] = R;
        for i in (1..LAYERS - 1).rev() {
            x[i] = -(V / x[i + 1] + (-x[i + 1]).exp()).ln();
        }
        let density: [f64; LAYERS] =
            std::array::from_fn(|i| if i == 0 { 1.0 } else { (-x[i]).exp() });
        // The base strip's pseudo-width: area V at height f(R).
        let q = V / density[LAYERS - 1];
        let layers = std::array::from_fn(|i| {
            let (inner, outer) = if i == 0 { (R, q) } else { (x[i - 1], x[i]) };
            Layer {
                below: (inner / outer * SPAN) as u64,
                width: outer / SPAN,
            }
        });
        Tables { layers, density }
    }

    /// Everything past the fast path: wedges, the tail and restarts, from
    /// the draw `u` the fast path rejected.
    #[cold]
    #[inline(never)]
    fn sample_slow(&self, mut u: u64, rng: &mut Rng64) -> f64 {
        let mut offset = 0.0;
        loop {
            let i = (u & 0xFF) as usize;
            let m = u >> 11;
            let layer = self.layers[i];
            let x = m as f64 * layer.width;
            if m < layer.below {
                return offset + x;
            }
            if i == 0 {
                offset += R;
            } else {
                let (bottom, top) = (self.density[i], self.density[i - 1]);
                if bottom + rng.next_f64() * (top - bottom) < (-x).exp() {
                    return offset + x;
                }
            }
            u = rng.next_u64();
        }
    }
}

/// A sampler of the standard exponential distribution, `P(E > t) = e^{−t}`.
///
/// A handle to the shared tables: copy it into a hot loop once and call
/// [`Exp1::sample`] per draw.
#[derive(Debug, Clone, Copy)]
pub struct Exp1 {
    tables: &'static Tables,
}

impl Default for Exp1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Exp1 {
    /// The sampler; builds the tables on first use.
    pub fn new() -> Self {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        Exp1 {
            tables: TABLES.get_or_init(Tables::build),
        }
    }

    /// One Exp(1) draw, `≥ 0` and finite.
    #[inline]
    pub fn sample(self, rng: &mut Rng64) -> f64 {
        let u = rng.next_u64();
        let layer = self.tables.layers[(u & 0xFF) as usize];
        let m = u >> 11;
        if m < layer.below {
            return m as f64 * layer.width;
        }
        self.tables.sample_slow(u, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widths `x_i` back out of the tables.
    fn edges(t: &Tables) -> Vec<f64> {
        t.layers.iter().map(|l| l.width * SPAN).collect()
    }

    #[test]
    fn every_layer_has_area_v_and_the_top_closes_at_one() {
        let t = Tables::build();
        let x = edges(&t);
        assert_eq!(x[LAYERS - 1], R);
        let base = R * (-R).exp() + (-R).exp();
        assert!((base / V - 1.0).abs() < 1e-12, "base area {base}");
        for i in 1..LAYERS {
            let area = x[i] * (t.density[i - 1] - t.density[i]);
            assert!((area / V - 1.0).abs() < 1e-12, "layer {i}: area {area}");
            assert!(x[i - 1] < x[i] || i == 1, "layer {i} not nested");
        }
        // One more step of the recursion lands on the peak f(0) = 1.
        let top = V / x[1] + t.density[1];
        assert!((top - 1.0).abs() < 1e-12, "top layer closes at {top}");
        assert_eq!(t.layers[1].below, 0, "the top layer is all wedge");
    }

    /// The χ² quantile at 1 − 10⁻³ (Wilson–Hilferty).
    fn chi2_critical(dof: usize) -> f64 {
        let c = 2.0 / (9.0 * dof as f64);
        dof as f64 * (1.0 - c + 3.090_232 * c.sqrt()).powi(3)
    }

    #[test]
    fn draws_match_the_exponential_on_equal_mass_bins() {
        // 8192 bins of mass 2⁻¹³: the last three start beyond R
        // (−ln(3/8192) ≈ 7.91), so the tail path fills them.
        const DRAWS: usize = 4_000_000;
        const BINS: usize = 8192;
        assert!(-(3.0 / BINS as f64).ln() > R);
        let exp1 = Exp1::new();
        let t = exp1.tables;
        let mut rng = Rng64::new(0xE1);
        let mut counts = vec![0u64; BINS];
        let (mut wedges, mut tails) = (0, 0);
        for _ in 0..DRAWS {
            // The path the draw's first u64 takes.
            let u = rng.clone().next_u64();
            let i = (u & 0xFF) as usize;
            if u >> 11 >= t.layers[i].below {
                if i == 0 {
                    tails += 1;
                } else {
                    wedges += 1;
                }
            }
            let e = exp1.sample(&mut rng);
            assert!(e >= 0.0 && e.is_finite(), "draw {e}");
            let cdf = -(-e).exp_m1();
            counts[((cdf * BINS as f64) as usize).min(BINS - 1)] += 1;
        }
        let expected = DRAWS as f64 / BINS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&o| (o as f64 - expected).powi(2) / expected)
            .sum();
        let critical = chi2_critical(BINS - 1);
        assert!(chi2 < critical, "chi2 {chi2:.1} >= {critical:.1}");
        // Kolmogorov–Smirnov on the bin edges at α = 10⁻³: the χ² test
        // spreads its power over 8191 degrees of freedom, this one sees a
        // smooth misplacement of mass, such as a wedge test that accepts
        // too much.
        let mut seen = 0;
        let d = counts
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                seen += c;
                (seen as f64 / DRAWS as f64 - (j + 1) as f64 / BINS as f64).abs()
            })
            .fold(0.0, f64::max);
        let d_critical = 1.949 / (DRAWS as f64).sqrt();
        assert!(d < d_critical, "KS distance {d:.5} >= {d_critical:.5}");
        let beyond_r: u64 = counts[BINS - 3..].iter().sum();
        assert!(beyond_r > 0, "no draw beyond R");
        // About 2.2% of draws start in a wedge and 0.045% in the tail.
        assert!(wedges > DRAWS / 200, "{wedges} wedge tests");
        assert!(tails > DRAWS / 5000, "{tails} tail draws");
    }
}
