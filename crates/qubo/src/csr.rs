//! Flat (CSR) Ising representation and incrementally-maintained local
//! fields — the shared substrate of every Monte-Carlo sweep kernel.
//!
//! An adjacency list (`Vec<Vec<(usize, f64)>>`) is convenient to build but
//! pointer-chases on every neighbor visit. [`CsrIsing`] stores the
//! mirrored adjacency as three contiguous arrays
//! (`row_ptr` / `col_idx` / `weight`), and [`LocalFieldState`] keeps the
//! effective local field `h_eff[k] = h_k + Σ_j J_kj s_j` cached per spin so
//! a single-flip proposal costs **O(1)** instead of O(degree):
//!
//! * proposal:  `ΔE = −2 s_k h_eff[k]` — two multiplies, no memory walk;
//! * accepted flip: update the caches of `k`'s neighbors — O(degree), but
//!   only on *accepted* moves.
//!
//! A full Metropolis sweep therefore costs `O(n + accepted·deg)` rather than
//! `O(n·deg)`, which is the difference between toy 12-spin tests and the
//! large-MIMO instances the roadmap targets. The tracked energy makes
//! per-read energy reporting free as well.
//!
//! Build the CSR from the QUBO: [`CsrIsing::from_qubo`] writes the fields,
//! rows and offset in one pass over the triangle, bit-identical to
//! flattening the adjacency-list model of `hqw-oracle`'s `to_ising`, and
//! [`CsrIsing::normalize`] auto-scales it in place as that model's
//! `normalize` would. Every served frame's greedy seed, SA read and anneal
//! submission starts there; the minor embedding writes its physical CSR
//! with [`CsrIsing::refill_from_couplings`].

use crate::model::Qubo;

/// A compressed-sparse-row view of an Ising problem.
///
/// Rows mirror both endpoints of every edge, so
/// `row(k)` enumerates every neighbor of `k` exactly once.
#[derive(Debug, Clone, Default)]
pub struct CsrIsing {
    h: Vec<f64>,
    /// Neighbors of `i` live at `row_ptr[i]..row_ptr[i+1]`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    weight: Vec<f64>,
}

impl CsrIsing {
    /// Rebuilds this CSR, in its own buffers, as the problem on `n` spins
    /// with zero fields and couplings `(i, j, J_ij)`, each pair given once
    /// in either orientation (a repeated pair is not merged): row `k` lists
    /// `k`'s partners in `couplings` order, as the adjacency list of an
    /// Ising model built from the same couplings does. Set the fields with
    /// [`CsrIsing::add_h`]. Walks `couplings` twice, to count degrees and
    /// to fill the rows; once the buffers have grown to the problem's
    /// size, a rebuild allocates nothing.
    ///
    /// # Panics
    /// Panics on a self-coupling or an index out of range.
    pub fn refill_from_couplings<I>(&mut self, n: usize, couplings: I)
    where
        I: IntoIterator<Item = (usize, usize, f64)> + Clone,
    {
        let CsrIsing {
            h,
            row_ptr,
            col_idx,
            weight,
        } = self;
        h.clear();
        h.resize(n, 0.0);
        row_ptr.clear();
        row_ptr.resize(n + 1, 0);
        couplings.clone().into_iter().for_each(|(i, j, _)| {
            assert!(i != j, "CsrIsing::refill_from_couplings: self-coupling");
            row_ptr[i + 1] += 1;
            row_ptr[j + 1] += 1;
        });
        for k in 0..n {
            row_ptr[k + 1] += row_ptr[k];
        }
        let nnz = row_ptr[n] as usize;
        col_idx.clear();
        col_idx.resize(nnz, 0);
        weight.clear();
        weight.resize(nnz, 0.0);
        // `row_ptr[k]` is where row `k`'s next entry goes; once every row
        // is filled it holds row `k + 1`'s start, so shift it back by one.
        couplings.into_iter().for_each(|(i, j, w)| {
            for (a, b) in [(i, j), (j, i)] {
                let p = row_ptr[a] as usize;
                (col_idx[p], weight[p]) = (b as u32, w);
                row_ptr[a] += 1;
            }
        });
        row_ptr.copy_within(0..n, 1);
        row_ptr[0] = 0;
    }

    /// The Ising form of `qubo` and its offset, flattened in one pass:
    /// fields, rows, weights and offset equal the flattened `to_ising`
    /// model of `hqw-oracle` bit for bit.
    ///
    /// Row `k` is built whole: column `k` of the triangle (`Q_ik`, `i < k`),
    /// the diagonal, then row `k` (`Q_kj`, `j > k`), skipping zeros. That
    /// writes each row's neighbours in ascending order, as `to_ising`'s
    /// row-major edge creation leaves them, and adds `Q_ik/4`, `Q_kk/2`,
    /// `Q_kj/4` to `h_k` in the order `to_ising` does. The offset sums
    /// each row's `Q_kk/2` and `Q_kj/4` in that same order. O(n²).
    pub fn from_qubo(qubo: &Qubo) -> (Self, f64) {
        let mut csr = CsrIsing::default();
        let offset = csr.refill_from_qubo(qubo);
        (csr, offset)
    }

    /// Rebuilds this CSR as [`CsrIsing::from_qubo`]`(qubo)`, bit for bit,
    /// in its own buffers, and returns the offset: once they have grown to
    /// the problem's size, a rebuild allocates nothing.
    pub fn refill_from_qubo(&mut self, qubo: &Qubo) -> f64 {
        let n = qubo.num_vars();
        let tri = qubo.triangle();
        let CsrIsing {
            h,
            row_ptr,
            col_idx,
            weight,
        } = self;
        h.clear();
        row_ptr.clear();
        col_idx.clear();
        weight.clear();
        h.reserve(n);
        row_ptr.reserve(n + 1);
        col_idx.reserve(n * n.saturating_sub(1));
        weight.reserve(n * n.saturating_sub(1));
        let mut offset = 0.0;
        row_ptr.push(0u32);
        let mut row_start = 0;
        for k in 0..n {
            let mut hk = 0.0;
            // Column k above the diagonal: Q_0k sits at k, and Q_(i+1)k
            // n − i − 1 entries after Q_ik (row i holds n − i entries).
            let mut at = k;
            for i in 0..k {
                let c = tri[at];
                if c != 0.0 {
                    col_idx.push(i as u32);
                    weight.push(c / 4.0);
                    hk += c / 4.0;
                }
                at += n - i - 1;
            }
            let row = &tri[row_start..row_start + n - k];
            row_start += n - k;
            hk += row[0] / 2.0;
            offset += row[0] / 2.0;
            for (j, &c) in (k + 1..n).zip(&row[1..]) {
                if c != 0.0 {
                    col_idx.push(j as u32);
                    weight.push(c / 4.0);
                    hk += c / 4.0;
                    offset += c / 4.0;
                }
            }
            h.push(hk);
            row_ptr.push(col_idx.len() as u32);
        }
        offset
    }

    /// Rescales in place so that `max(max|h|, max|J|) == 1` (no-op for an
    /// all-zero problem) and returns the applied factor, bit for bit as the
    /// oracle's adjacency-list model normalizes.
    pub fn normalize(&mut self) -> f64 {
        let m = self.max_abs();
        if m > 0.0 {
            let k = 1.0 / m;
            self.h.iter_mut().for_each(|h| *h *= k);
            self.weight.iter_mut().for_each(|w| *w *= k);
            k
        } else {
            1.0
        }
    }

    /// Largest absolute field or coupling, `max(max|h|, max|J|)` (0 when
    /// every coefficient is zero).
    pub fn max_abs(&self) -> f64 {
        let max_abs = |xs: &[f64]| xs.iter().map(|x| x.abs()).fold(0.0, f64::max);
        f64::max(max_abs(&self.h), max_abs(&self.weight))
    }

    /// Adds to `h_i`.
    pub fn add_h(&mut self, i: usize, value: f64) {
        self.h[i] += value;
    }

    /// Adds `delta()` to every coupling, each edge once, from its lower
    /// endpoint, rows in order; both mirrored entries get the sum. On a CSR
    /// built from a QUBO that visits the edges in the order `hqw-oracle`'s
    /// `to_ising` creates them, draw for draw.
    pub fn add_to_couplings(&mut self, mut delta: impl FnMut() -> f64) {
        for i in 0..self.num_vars() {
            for p in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                let j = self.col_idx[p] as usize;
                if j <= i {
                    continue;
                }
                let w = self.weight[p] + delta();
                self.weight[p] = w;
                let (lo, hi) = (self.row_ptr[j] as usize, self.row_ptr[j + 1] as usize);
                let q = lo
                    + self.col_idx[lo..hi]
                        .iter()
                        .position(|&c| c as usize == i)
                        .expect("CsrIsing: rows mirror each other");
                self.weight[q] = w;
            }
        }
    }

    /// Number of spins.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.h.len()
    }

    /// Linear field `h_k`.
    #[inline]
    pub fn h(&self, k: usize) -> f64 {
        self.h[k]
    }

    /// All linear fields.
    #[inline]
    pub fn h_slice(&self) -> &[f64] {
        &self.h
    }

    /// Number of stored (mirrored) neighbor entries — `2 × edges`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Degree of spin `k`.
    #[inline]
    pub fn degree(&self, k: usize) -> usize {
        (self.row_ptr[k + 1] - self.row_ptr[k]) as usize
    }

    /// Neighbor columns and weights of spin `k` as parallel slices.
    #[inline]
    pub fn row(&self, k: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[k] as usize;
        let hi = self.row_ptr[k + 1] as usize;
        (&self.col_idx[lo..hi], &self.weight[lo..hi])
    }

    /// Local field `h_k + Σ_j J_kj s_j` recomputed from scratch. O(degree).
    #[inline]
    pub fn local_field(&self, spins: &[i8], k: usize) -> f64 {
        debug_assert_eq!(spins.len(), self.num_vars());
        let (cols, ws) = self.row(k);
        let mut f = self.h[k];
        for (&j, &w) in cols.iter().zip(ws) {
            f += w * spins[j as usize] as f64;
        }
        f
    }

    /// Energy change from flipping spin `k` (from-scratch; prefer
    /// [`LocalFieldState::flip_delta`] in sweep loops).
    #[inline]
    pub fn flip_delta(&self, spins: &[i8], k: usize) -> f64 {
        -2.0 * spins[k] as f64 * self.local_field(spins, k)
    }

    /// Ising energy of a ±1 assignment, counting each edge once.
    pub fn energy(&self, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.num_vars(), "CsrIsing::energy: length");
        let mut e = 0.0;
        for k in 0..self.num_vars() {
            let sk = spins[k] as f64;
            e += self.h[k] * sk;
            let (cols, ws) = self.row(k);
            for (&j, &w) in cols.iter().zip(ws) {
                // Each edge is mirrored; count it from its lower endpoint.
                if (j as usize) > k {
                    e += w * sk * spins[j as usize] as f64;
                }
            }
        }
        e
    }

    /// Fills `out[k] = h_k + Σ_j J_kj s_j` for every spin. O(n + edges).
    ///
    /// `spins` may be any slice of ±1 values of length `num_vars()` — engines
    /// use this to (re)build per-replica caches.
    pub fn fill_local_fields(&self, spins: &[i8], out: &mut [f64]) {
        assert_eq!(spins.len(), self.num_vars());
        assert_eq!(out.len(), self.num_vars());
        for k in 0..self.num_vars() {
            let (cols, ws) = self.row(k);
            let mut f = self.h[k];
            for (&j, &w) in cols.iter().zip(ws) {
                f += w * spins[j as usize] as f64;
            }
            out[k] = f;
        }
    }

    /// `field[j] += w_kj * ds` for every neighbor `j` of `k`, in row
    /// order: the sweep kernels' flip update.
    #[inline]
    pub fn axpy_row(&self, field: &mut [f64], k: usize, ds: f64) {
        let (cols, ws) = self.row(k);
        for (&j, &w) in cols.iter().zip(ws) {
            field[j as usize] += w * ds;
        }
    }
}

/// Spins plus incrementally-maintained local fields and tracked energy.
///
/// The invariant after every operation: for all `k`,
/// `h_eff[k] == csr.local_field(spins, k)` (up to float accumulation) and
/// `energy == csr.energy(spins)`.
#[derive(Debug, Clone)]
pub struct LocalFieldState {
    spins: Vec<i8>,
    h_eff: Vec<f64>,
    energy: f64,
}

impl LocalFieldState {
    /// Builds the caches for an initial assignment. O(n + edges).
    ///
    /// # Panics
    /// Panics when `spins.len() != csr.num_vars()`.
    pub fn new(csr: &CsrIsing, spins: Vec<i8>) -> Self {
        assert_eq!(spins.len(), csr.num_vars(), "LocalFieldState: length");
        debug_assert!(spins.iter().all(|&s| s == 1 || s == -1));
        let mut h_eff = vec![0.0; spins.len()];
        csr.fill_local_fields(&spins, &mut h_eff);
        let energy = csr.energy(&spins);
        LocalFieldState {
            spins,
            h_eff,
            energy,
        }
    }

    /// Current spins.
    #[inline]
    pub fn spins(&self) -> &[i8] {
        &self.spins
    }

    /// Consumes the state, returning the spins.
    #[inline]
    pub fn into_spins(self) -> Vec<i8> {
        self.spins
    }

    /// Tracked Ising energy of the current spins.
    #[inline]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Energy change from flipping spin `k`. **O(1)**.
    #[inline]
    pub fn flip_delta(&self, k: usize) -> f64 {
        -2.0 * self.spins[k] as f64 * self.h_eff[k]
    }

    /// Flips spin `k`, updating neighbors' cached fields and the tracked
    /// energy. O(degree of `k`).
    ///
    /// The neighbor update is [`CsrIsing::axpy_row`].
    #[inline]
    pub fn flip(&mut self, csr: &CsrIsing, k: usize) {
        let delta = self.flip_delta(k);
        self.flip_with_delta(csr, k, delta);
    }

    /// [`Self::flip`] with a precomputed `flip_delta(k)` — lets sweep loops
    /// reuse the proposal's ΔE instead of recomputing it. Passing anything
    /// other than the current `flip_delta(k)` corrupts the tracked energy.
    #[inline]
    pub fn flip_with_delta(&mut self, csr: &CsrIsing, k: usize, delta: f64) {
        debug_assert_eq!(delta.to_bits(), self.flip_delta(k).to_bits());
        self.energy += delta;
        let s_new = -self.spins[k];
        self.spins[k] = s_new;
        let delta_s = 2.0 * s_new as f64; // s_new − s_old
        csr.axpy_row(&mut self.h_eff, k, delta_s);
    }

    /// Largest absolute deviation between the cached fields and a
    /// from-scratch recompute (diagnostic; drives the property tests).
    pub fn max_field_error(&self, csr: &CsrIsing) -> f64 {
        (0..self.spins.len())
            .map(|k| (self.h_eff[k] - csr.local_field(&self.spins, k)).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{random_qubo, sparse_random_qubo};
    use hqw_math::Rng64;

    impl LocalFieldState {
        /// Rebuilds the caches from scratch (float-drift reset).
        fn refresh(&mut self, csr: &CsrIsing) {
            csr.fill_local_fields(&self.spins, &mut self.h_eff);
            self.energy = csr.energy(&self.spins);
        }
    }

    fn random_state(n: usize, rng: &mut Rng64) -> Vec<i8> {
        (0..n)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect()
    }

    #[test]
    fn incremental_fields_track_flips() {
        let mut rng = Rng64::new(103);
        let q = random_qubo(12, &mut rng);
        let csr = CsrIsing::from_qubo(&q).0;
        let mut state = LocalFieldState::new(&csr, random_state(12, &mut rng));
        for _ in 0..500 {
            let k = rng.next_index(12);
            let expected = csr.flip_delta(state.spins(), k);
            assert!((state.flip_delta(k) - expected).abs() < 1e-9);
            state.flip(&csr, k);
        }
        assert!(state.max_field_error(&csr) < 1e-9);
        assert!((state.energy() - csr.energy(state.spins())).abs() < 1e-9);
    }

    #[test]
    fn refresh_resets_drift() {
        let mut rng = Rng64::new(107);
        let q = random_qubo(10, &mut rng);
        let csr = CsrIsing::from_qubo(&q).0;
        let mut state = LocalFieldState::new(&csr, random_state(10, &mut rng));
        for _ in 0..100 {
            let k = rng.next_index(10);
            state.flip(&csr, k);
        }
        state.refresh(&csr);
        assert_eq!(state.max_field_error(&csr), 0.0);
    }

    #[test]
    fn empty_problem_is_fine() {
        let csr = CsrIsing::from_qubo(&Qubo::new(0)).0;
        assert_eq!(csr.num_vars(), 0);
        assert_eq!(csr.energy(&[]), 0.0);
        let state = LocalFieldState::new(&csr, Vec::new());
        assert_eq!(state.energy(), 0.0);
    }

    #[test]
    fn axpy_row_matches_gather_bitwise() {
        let mut rng = Rng64::new(113);
        for density in [0.15, 0.6, 1.0] {
            let q = sparse_random_qubo(20, density, &mut rng);
            let csr = CsrIsing::from_qubo(&q).0;
            let mut via_runs = vec![0.25f64; 20];
            let mut via_gather = via_runs.clone();
            for k in 0..20 {
                let ds = if k % 2 == 0 { 2.0 } else { -2.0 };
                csr.axpy_row(&mut via_runs, k, ds);
                let (cols, ws) = csr.row(k);
                for (&j, &w) in cols.iter().zip(ws) {
                    via_gather[j as usize] += w * ds;
                }
            }
            let runs_bits: Vec<u64> = via_runs.iter().map(|f| f.to_bits()).collect();
            let gather_bits: Vec<u64> = via_gather.iter().map(|f| f.to_bits()).collect();
            assert_eq!(runs_bits, gather_bits, "density {density}");
        }
    }
}
