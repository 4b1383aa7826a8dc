//! Dense QUBO model (the paper's Eq. 1).
//!
//! Storage is the upper triangle (including the diagonal) in row-major
//! order, matching the paper's convention that `Q ∈ ℝ^{N×N}` is upper
//! triangular: linear terms live on the diagonal (`q² = q` for binary
//! variables) and each pair interaction is stored once at `(min, max)`.

/// A QUBO problem: minimize `E(q) = Σ_{i≤j} Q_ij q_i q_j` over `q ∈ {0,1}ⁿ`.
#[derive(Clone, PartialEq)]
pub struct Qubo {
    n: usize,
    /// Upper-triangular coefficients, row-major:
    /// `(i,j)` with `j ≥ i` lives at `i·n − i(i−1)/2 + (j − i)`.
    coeffs: Vec<f64>,
}

impl std::fmt::Debug for Qubo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Qubo(n={}, nnz={}, max|Q|={:.4})",
            self.n,
            self.nonzero_count(),
            self.max_abs_coeff()
        )
    }
}

impl Qubo {
    /// Creates an all-zero QUBO over `n` variables.
    pub fn new(n: usize) -> Self {
        Qubo {
            n,
            coeffs: vec![0.0; n * (n + 1) / 2],
        }
    }

    /// Number of binary variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    #[inline]
    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.n);
        // Row i starts after Σ_{r<i}(n−r) = i(2n−i+1)/2 entries.
        i * (2 * self.n - i + 1) / 2 + (j - i)
    }

    /// Coefficient `Q_ij`; the index pair is canonicalized, so `get(3, 1)`
    /// returns the stored `Q_{1,3}`.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "Qubo::get: index out of range");
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        self.coeffs[self.tri_index(a, b)]
    }

    /// Sets coefficient `Q_ij` (indices canonicalized).
    ///
    /// # Panics
    /// Panics when an index is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "Qubo::set: index out of range");
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        let idx = self.tri_index(a, b);
        self.coeffs[idx] = value;
    }

    /// Adds to coefficient `Q_ij` (indices canonicalized).
    ///
    /// # Panics
    /// Panics when an index is out of range.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "Qubo::add: index out of range");
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        let idx = self.tri_index(a, b);
        self.coeffs[idx] += value;
    }

    /// Linear (diagonal) coefficient `Q_ii`.
    #[inline]
    pub fn diagonal(&self, i: usize) -> f64 {
        self.get(i, i)
    }

    /// Evaluates the QUBO energy of a 0/1 assignment.
    ///
    /// # Panics
    /// Panics when `bits.len() != num_vars()` (debug builds also check that
    /// each entry is 0 or 1).
    pub fn energy(&self, bits: &[u8]) -> f64 {
        assert_eq!(bits.len(), self.n, "Qubo::energy: state length mismatch");
        debug_assert!(bits.iter().all(|&b| b <= 1), "bits must be 0/1");
        let mut e = 0.0;
        let mut idx = 0;
        for i in 0..self.n {
            if bits[i] == 0 {
                idx += self.n - i;
                continue;
            }
            // q_i = 1: add Q_ii and all Q_ij with q_j = 1, j > i.
            e += self.coeffs[idx];
            for j in i + 1..self.n {
                if bits[j] == 1 {
                    e += self.coeffs[idx + (j - i)];
                }
            }
            idx += self.n - i;
        }
        e
    }

    /// Energy change from flipping bit `k` in `bits` (without applying it).
    ///
    /// `ΔE = (1 − 2 q_k) · (Q_kk + Σ_{j≠k} Q̃_kj q_j)` where `Q̃` is the
    /// symmetric view of the couplings.
    ///
    /// # Panics
    /// Panics when lengths mismatch or `k` is out of range.
    pub fn flip_delta(&self, bits: &[u8], k: usize) -> f64 {
        assert_eq!(bits.len(), self.n, "Qubo::flip_delta: length mismatch");
        assert!(k < self.n, "Qubo::flip_delta: index out of range");
        let mut field = self.diagonal(k);
        for j in 0..self.n {
            if j != k && bits[j] == 1 {
                field += self.get(k, j);
            }
        }
        let sign = 1.0 - 2.0 * bits[k] as f64;
        sign * field
    }

    /// Largest absolute coefficient (0 for an empty problem).
    pub fn max_abs_coeff(&self) -> f64 {
        self.coeffs.iter().map(|c| c.abs()).fold(0.0, f64::max)
    }

    /// Number of non-zero coefficients.
    pub fn nonzero_count(&self) -> usize {
        self.coeffs.iter().filter(|&&c| c != 0.0).count()
    }

    /// The upper triangle, row-major: row `i` holds `Q_ii`, then `Q_ij`
    /// for `j = i+1..n`.
    pub(crate) fn triangle(&self) -> &[f64] {
        &self.coeffs
    }

    /// Uniformly rescales every coefficient.
    pub fn scale(&mut self, k: f64) {
        for c in &mut self.coeffs {
            *c *= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-variable QUBO with known landscape:
    /// E = q0 − 2 q1 + 3 q0 q1  →  E(00)=0, E(10)=1, E(01)=−2, E(11)=2.
    fn tiny() -> Qubo {
        let mut q = Qubo::new(2);
        q.set(0, 0, 1.0);
        q.set(1, 1, -2.0);
        q.set(0, 1, 3.0);
        q
    }

    #[test]
    fn energy_of_all_states() {
        let q = tiny();
        assert_eq!(q.energy(&[0, 0]), 0.0);
        assert_eq!(q.energy(&[1, 0]), 1.0);
        assert_eq!(q.energy(&[0, 1]), -2.0);
        assert_eq!(q.energy(&[1, 1]), 2.0);
    }

    #[test]
    fn get_canonicalizes_indices() {
        let q = tiny();
        assert_eq!(q.get(1, 0), 3.0);
        assert_eq!(q.get(0, 1), 3.0);
    }

    #[test]
    fn flip_delta_matches_full_recompute() {
        let q = tiny();
        for bits in [[0u8, 0], [1, 0], [0, 1], [1, 1]] {
            for k in 0..2 {
                let mut flipped = bits;
                flipped[k] ^= 1;
                let expected = q.energy(&flipped) - q.energy(&bits);
                assert!((q.flip_delta(&bits, k) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn add_accumulates() {
        let mut q = Qubo::new(3);
        q.add(2, 0, 1.5);
        q.add(0, 2, 2.5);
        assert_eq!(q.get(0, 2), 4.0);
    }

    #[test]
    fn stats_helpers() {
        let q = tiny();
        assert_eq!(q.nonzero_count(), 3);
        assert_eq!(q.max_abs_coeff(), 3.0);
        let entries = [(0, 0), (0, 1), (1, 1)].map(|(i, j)| q.get(i, j));
        assert_eq!(entries, [1.0, 3.0, -2.0]);
    }

    #[test]
    fn scale_multiplies_energy() {
        let mut q = tiny();
        q.scale(2.0);
        assert_eq!(q.energy(&[1, 1]), 4.0);
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn energy_rejects_wrong_length() {
        tiny().energy(&[0, 1, 0]);
    }
}
