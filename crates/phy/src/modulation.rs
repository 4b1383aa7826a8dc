//! Modulation: Gray-coded BPSK, QPSK, 16-QAM and 64-QAM.
//!
//! Two views of the same constellation coexist here, and keeping them
//! straight is what makes the ML→QUBO reduction exact:
//!
//! * **Modem view (Gray labels).** [`Modulation::modulate`] maps transmit
//!   bits to symbols with per-rail Gray labeling (adjacent amplitude levels
//!   differ in one bit), the standard wireless practice shown in the paper's
//!   Figure 4.
//! * **Solver view (natural labels).** A square-QAM symbol is *linear in
//!   spins* only under natural (binary-weighted) labeling:
//!   `level = Σ_k w_k·s_k` with `w = [2^{m−1}, …, 2, 1]` and `s_k ∈ {−1,+1}`.
//!   This linearity is what keeps `‖y − H·x(q)‖²` quadratic — i.e. a QUBO.
//!
//! [`Modulation::gray_to_natural`] / [`Modulation::natural_to_gray`] convert
//! per-rail between the two labelings, so ground-truth transmit bits can be
//! expressed in QUBO variable space and solver outputs can be scored as
//! wireless bits.
//!
//! Constellations are energy-normalized: every modulation has
//! `E[|x|²] = 1` ("unit gain signal", §4.2).

use hqw_math::Complex64;

/// Supported modulations (the paper evaluates all four).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying: 1 bit/symbol, real axis only.
    Bpsk,
    /// Quadrature PSK: 2 bits/symbol.
    Qpsk,
    /// Square 16-QAM: 4 bits/symbol.
    Qam16,
    /// Square 64-QAM: 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// All supported modulations, in the paper's order.
    pub const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
        }
    }

    /// Parses a [`Modulation::name`] back (`None` for unknown names) — the
    /// experiment-spec layer's inverse of `name`.
    pub fn from_name(name: &str) -> Option<Modulation> {
        Modulation::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Bits per complex symbol (= QUBO variables per user, as in the paper's
    /// sizing: a 36-variable problem is 36 BPSK / 18 QPSK / 9 16-QAM / 6
    /// 64-QAM users).
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Bits on the in-phase (real) rail.
    pub fn i_bits(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        }
    }

    /// Bits on the quadrature (imaginary) rail (0 for BPSK).
    pub fn q_bits(self) -> usize {
        self.bits_per_symbol() - self.i_bits()
    }

    /// Number of constellation points.
    pub fn order(self) -> usize {
        1 << self.bits_per_symbol()
    }

    /// Energy-normalization scale: symbols are `scale ×` the odd-integer
    /// lattice so that `E[|x|²] = 1`.
    ///
    /// Lattice mean energies: BPSK 1, QPSK 2, 16-QAM 10, 64-QAM 42.
    pub fn scale(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2.0_f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10.0_f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42.0_f64.sqrt(),
        }
    }

    /// Spin weights of one rail with `m` bits: `[2^{m−1}, …, 2, 1]`
    /// (unscaled lattice units). `level = Σ w_k s_k` spans the odd integers
    /// `{−(2^m−1), …, 2^m−1}` as the spins range over `{−1,+1}^m`.
    pub fn rail_weights(m: usize) -> Vec<f64> {
        (0..m).map(|k| (1usize << (m - 1 - k)) as f64).collect()
    }

    /// Per-rail amplitude levels in lattice units, ascending
    /// (e.g. `[-3, -1, 1, 3]` for 2 bits). A 0-bit rail has the single
    /// level 0 (BPSK's quadrature rail).
    pub fn rail_levels(m: usize) -> Vec<f64> {
        if m == 0 {
            return vec![0.0];
        }
        let count = 1usize << m;
        (0..count)
            .map(|i| (2 * i as i64 - (count as i64 - 1)) as f64)
            .collect()
    }

    /// Gray-encodes a natural (binary) level index.
    pub fn gray_encode(index: usize) -> usize {
        index ^ (index >> 1)
    }

    /// Decodes a Gray code back to the natural level index.
    pub fn gray_decode(gray: usize) -> usize {
        let mut index = gray;
        let mut shift = 1;
        while (gray >> shift) > 0 {
            index ^= gray >> shift;
            shift += 1;
        }
        index
    }

    /// Modulates `bits_per_symbol` Gray-labeled bits (MSB first, I rail then
    /// Q rail) into a normalized complex symbol.
    ///
    /// # Panics
    /// Panics when `bits.len() != bits_per_symbol()` or a bit is not 0/1.
    pub fn modulate(self, bits: &[u8]) -> Complex64 {
        assert_eq!(
            bits.len(),
            self.bits_per_symbol(),
            "modulate: expected {} bits",
            self.bits_per_symbol()
        );
        assert!(bits.iter().all(|&b| b <= 1), "modulate: bits must be 0/1");
        let mi = self.i_bits();
        let i_level = Self::gray_bits_to_level(&bits[..mi]);
        let q_level = Self::gray_bits_to_level(&bits[mi..]);
        Complex64::new(i_level, q_level) * self.scale()
    }

    /// Hard-demodulates a (possibly noisy) symbol back to Gray-labeled bits.
    pub fn demodulate(self, symbol: Complex64) -> Vec<u8> {
        let lattice = symbol * (1.0 / self.scale());
        let mut bits = Self::level_to_gray_bits(lattice.re, self.i_bits());
        bits.extend(Self::level_to_gray_bits(lattice.im, self.q_bits()));
        bits
    }

    /// The full constellation as `(gray_bits, symbol)` pairs.
    pub fn constellation(self) -> Vec<(Vec<u8>, Complex64)> {
        let bps = self.bits_per_symbol();
        (0..self.order())
            .map(|code| {
                let bits: Vec<u8> = (0..bps)
                    .map(|k| ((code >> (bps - 1 - k)) & 1) as u8)
                    .collect();
                let sym = self.modulate(&bits);
                (bits, sym)
            })
            .collect()
    }

    /// Slices an arbitrary complex value to the nearest constellation point,
    /// returning `(gray_bits, symbol)`.
    pub fn slice(self, value: Complex64) -> (Vec<u8>, Complex64) {
        let bits = self.demodulate(value);
        let sym = self.modulate(&bits);
        (bits, sym)
    }

    /// Converts one symbol's Gray-labeled bits to natural (QUBO-variable)
    /// labels, rail by rail, into `natural_bits`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn gray_to_natural(self, gray_bits: &[u8], natural_bits: &mut [u8]) {
        self.relabel(gray_bits, natural_bits, Self::gray_decode);
    }

    /// Converts one symbol's natural (QUBO-variable) bits to Gray labels,
    /// into `gray_bits`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn natural_to_gray(self, natural_bits: &[u8], gray_bits: &mut [u8]) {
        self.relabel(natural_bits, gray_bits, Self::gray_encode);
    }

    /// Symbol value from natural-labeled bits — linear in the spins
    /// `s = 2q − 1`: the solver-side mapping.
    pub fn natural_bits_to_symbol(self, natural_bits: &[u8]) -> Complex64 {
        assert_eq!(natural_bits.len(), self.bits_per_symbol());
        let mi = self.i_bits();
        let wi = Self::rail_weights(mi);
        let wq = Self::rail_weights(self.q_bits());
        let mut i_level = 0.0;
        for (k, &w) in wi.iter().enumerate() {
            i_level += w * (2.0 * natural_bits[k] as f64 - 1.0);
        }
        let mut q_level = 0.0;
        for (k, &w) in wq.iter().enumerate() {
            q_level += w * (2.0 * natural_bits[mi + k] as f64 - 1.0);
        }
        Complex64::new(i_level, q_level) * self.scale()
    }

    // --- helpers -----------------------------------------------------------

    /// Maps each rail's code through `f` (MSB first), `bits` into `out`.
    fn relabel(self, bits: &[u8], out: &mut [u8], f: impl Fn(usize) -> usize) {
        assert_eq!(bits.len(), self.bits_per_symbol());
        assert_eq!(out.len(), bits.len());
        let mi = self.i_bits();
        let (out_i, out_q) = out.split_at_mut(mi);
        for (rail, out) in [(&bits[..mi], out_i), (&bits[mi..], out_q)] {
            let m = rail.len();
            let code = rail.iter().fold(0usize, |acc, &b| (acc << 1) | b as usize);
            let relabeled = f(code);
            for (k, bit) in out.iter_mut().enumerate() {
                *bit = ((relabeled >> (m - 1 - k)) & 1) as u8;
            }
        }
    }

    /// Gray-labeled rail bits (MSB first) → lattice amplitude level.
    fn gray_bits_to_level(bits: &[u8]) -> f64 {
        let m = bits.len();
        if m == 0 {
            return 0.0;
        }
        let gray = bits.iter().fold(0usize, |acc, &b| (acc << 1) | b as usize);
        let index = Self::gray_decode(gray);
        (2 * index as i64 - ((1i64 << m) - 1)) as f64
    }

    /// Lattice amplitude → nearest level → Gray-labeled rail bits.
    fn level_to_gray_bits(level: f64, m: usize) -> Vec<u8> {
        if m == 0 {
            return Vec::new();
        }
        let count = 1i64 << m;
        // Nearest odd-integer level index: round((level + count−1) / 2).
        let raw = ((level + (count - 1) as f64) / 2.0).round() as i64;
        let index = raw.clamp(0, count - 1) as usize;
        let gray = Self::gray_encode(index);
        (0..m).map(|k| ((gray >> (m - 1 - k)) & 1) as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_symbol_match_paper_sizing() {
        // 36 variables = 36 BPSK / 18 QPSK / 9 16-QAM / 6 64-QAM users.
        assert_eq!(36 / Modulation::Bpsk.bits_per_symbol(), 36);
        assert_eq!(36 / Modulation::Qpsk.bits_per_symbol(), 18);
        assert_eq!(36 / Modulation::Qam16.bits_per_symbol(), 9);
        assert_eq!(36 / Modulation::Qam64.bits_per_symbol(), 6);
    }

    #[test]
    fn modulate_demodulate_round_trip_all_points() {
        for m in Modulation::ALL {
            for (bits, sym) in m.constellation() {
                assert_eq!(m.demodulate(sym), bits, "{} {:?}", m.name(), bits);
            }
        }
    }

    #[test]
    fn constellations_are_unit_energy() {
        for m in Modulation::ALL {
            let pts = m.constellation();
            let mean: f64 = pts.iter().map(|(_, s)| s.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((mean - 1.0).abs() < 1e-12, "{}: E|x|²={mean}", m.name());
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in Modulation::ALL {
            let pts = m.constellation();
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!(
                        (pts[i].1 - pts[j].1).abs() > 1e-9,
                        "{}: duplicate points",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn gray_labels_differ_in_one_bit_between_adjacent_levels() {
        // Check the I rail of 16-QAM: levels −3,−1,1,3 must have Gray labels
        // with Hamming distance 1 between neighbors.
        let m = Modulation::Qam16;
        let labels: Vec<Vec<u8>> = [-3.0, -1.0, 1.0, 3.0]
            .iter()
            .map(|&lvl| {
                let sym = Complex64::new(lvl, -3.0) * m.scale();
                m.demodulate(sym)[..2].to_vec()
            })
            .collect();
        for w in labels.windows(2) {
            let dist: usize = w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count();
            assert_eq!(
                dist, 1,
                "adjacent levels not Gray: {:?} vs {:?}",
                w[0], w[1]
            );
        }
    }

    #[test]
    fn gray_encode_decode_round_trip() {
        for i in 0..64 {
            assert_eq!(Modulation::gray_decode(Modulation::gray_encode(i)), i);
        }
    }

    #[test]
    fn natural_and_gray_labelings_are_bijective() {
        for m in Modulation::ALL {
            let mut natural = vec![0; m.bits_per_symbol()];
            let mut gray = natural.clone();
            for (gray_bits, _) in m.constellation() {
                m.gray_to_natural(&gray_bits, &mut natural);
                m.natural_to_gray(&natural, &mut gray);
                assert_eq!(gray, gray_bits);
            }
        }
    }

    #[test]
    fn natural_bits_reproduce_the_same_symbol() {
        // The solver-side linear map must agree with the modem on every point.
        for m in Modulation::ALL {
            let mut natural = vec![0; m.bits_per_symbol()];
            for (gray_bits, sym) in m.constellation() {
                m.gray_to_natural(&gray_bits, &mut natural);
                let sym2 = m.natural_bits_to_symbol(&natural);
                assert!(
                    (sym - sym2).abs() < 1e-12,
                    "{}: {:?}: {} vs {}",
                    m.name(),
                    gray_bits,
                    sym,
                    sym2
                );
            }
        }
    }

    #[test]
    fn rail_weights_are_binary() {
        assert_eq!(Modulation::rail_weights(3), vec![4.0, 2.0, 1.0]);
        assert_eq!(Modulation::rail_weights(1), vec![1.0]);
        assert!(Modulation::rail_weights(0).is_empty());
    }

    #[test]
    fn rail_levels_are_odd_integers() {
        assert_eq!(Modulation::rail_levels(2), vec![-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(Modulation::rail_levels(0), vec![0.0]);
    }

    #[test]
    fn slicing_recovers_from_small_noise() {
        for m in Modulation::ALL {
            for (bits, sym) in m.constellation() {
                let noisy = sym + Complex64::new(0.3, -0.25) * m.scale();
                let (sliced_bits, _) = m.slice(noisy);
                assert_eq!(sliced_bits, bits, "{}: noise flipped a symbol", m.name());
            }
        }
    }

    #[test]
    fn bpsk_has_no_quadrature_component() {
        for (_, sym) in Modulation::Bpsk.constellation() {
            assert_eq!(sym.im, 0.0);
        }
        assert_eq!(Modulation::Bpsk.q_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "expected 4 bits")]
    fn modulate_rejects_wrong_length() {
        Modulation::Qam16.modulate(&[1, 0]);
    }
}
