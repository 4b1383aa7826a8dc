//! Sparse Ising model: `E(s) = Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j`, `s ∈ {−1,+1}ⁿ`.
//!
//! The adjacency-list reference for the served [`hqw_qubo::CsrIsing`].
//! Storage is a canonical edge list (`i < j`) plus an adjacency list that
//! mirrors each edge into both endpoints' rows, all in edge-creation order.
//! There is no hash index:
//!
//! * [`Ising::from_couplings`] builds a model whose pairs are known to be
//!   distinct in O(n + edges), with every row reserved at its exact degree
//!   and no lookup.
//! * [`Ising::coupling`] scans the shorter endpoint row, and
//!   [`Ising::set_coupling`] / [`Ising::add_coupling`] scan both rows:
//!   O(degree). Updating an existing edge also needs its index in the edge
//!   list; the first such update derives every row's edge indices in
//!   O(n + edges), so perturbing every edge stays linear and a model that
//!   is only built never pays for them.
//!
//! Both paths append rows and edges in the same order, so a model built
//! either way is bit-identical, and [`crate::csr::from_ising`] flattens it
//! into the CSR that [`hqw_qubo::CsrIsing::from_qubo`] builds directly.

/// A sparse Ising problem over ±1 spins.
#[derive(Clone, Debug, Default)]
pub struct Ising {
    h: Vec<f64>,
    /// Mirrored adjacency: `adj[i]` holds `(j, J_ij)` for every neighbor `j`.
    adj: Vec<Vec<(usize, f64)>>,
    /// `edge_ids[i][p]` is the index into `edges` of the edge `adj[i][p]`;
    /// empty until the first update of an existing edge needs it.
    edge_ids: Vec<Vec<usize>>,
    /// Canonical edge list (`i < j`).
    edges: Vec<(usize, usize, f64)>,
}

impl Ising {
    /// Creates an Ising model over `n` spins with zero fields and couplings.
    pub fn new(n: usize) -> Self {
        Ising {
            h: vec![0.0; n],
            adj: vec![Vec::new(); n],
            edge_ids: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Builds a model from its fields and its couplings `(i, j, J_ij)`,
    /// each pair given once in either orientation. The result equals the
    /// model that `Ising::new(h.len())`, the fields, and `set_coupling` in
    /// `couplings` order would build, without a lookup per edge.
    ///
    /// # Panics
    /// Panics on a self-coupling, an index out of range or a repeated pair.
    pub fn from_couplings(h: Vec<f64>, mut couplings: Vec<(usize, usize, f64)>) -> Self {
        let n = h.len();
        let mut degree = vec![0usize; n];
        for e in &mut couplings {
            let (i, j) = (e.0.min(e.1), e.0.max(e.1));
            assert!(
                i != j,
                "Ising::from_couplings: self-coupling is not allowed"
            );
            assert!(j < n, "Ising::from_couplings: index out of range");
            degree[i] += 1;
            degree[j] += 1;
            (e.0, e.1) = (i, j);
        }
        let mut adj: Vec<Vec<(usize, f64)>> =
            degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for &(i, j, w) in &couplings {
            adj[i].push((j, w));
            adj[j].push((i, w));
        }
        // A repeated pair would leave two entries for one neighbor:
        // reuse `degree` as a last-seen stamp (`i + 1` once row `i` saw `j`).
        degree.fill(0);
        for (i, row) in adj.iter().enumerate() {
            for &(j, _) in row {
                assert!(
                    degree[j] != i + 1,
                    "Ising::from_couplings: pair ({i}, {j}) is repeated"
                );
                degree[j] = i + 1;
            }
        }
        Ising {
            h,
            adj,
            edge_ids: Vec::new(),
            edges: couplings,
        }
    }

    /// Number of spins.
    pub fn num_vars(&self) -> usize {
        self.h.len()
    }

    /// Linear field `h_i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[inline]
    pub fn h(&self, i: usize) -> f64 {
        self.h[i]
    }

    /// All linear fields.
    pub fn h_slice(&self) -> &[f64] {
        &self.h
    }

    /// Sets `h_i`.
    pub fn set_h(&mut self, i: usize, value: f64) {
        self.h[i] = value;
    }

    /// Adds to `h_i`.
    pub fn add_h(&mut self, i: usize, value: f64) {
        self.h[i] += value;
    }

    /// Position of `j` in row `i`, if the edge exists.
    #[inline]
    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        self.adj[i].iter().position(|&(k, _)| k == j)
    }

    /// Index into `edges` of the edge `adj[i][p]`. The first call derives
    /// every row's edge ids in O(n + edges).
    fn edge_id(&mut self, i: usize, p: usize) -> usize {
        if self.edge_ids.is_empty() {
            self.edge_ids = self
                .adj
                .iter()
                .map(|row| Vec::with_capacity(row.len()))
                .collect();
            // Rows list their edges in creation order, which is edge order.
            for (idx, &(a, b, _)) in self.edges.iter().enumerate() {
                self.edge_ids[a].push(idx);
                self.edge_ids[b].push(idx);
            }
        }
        self.edge_ids[i][p]
    }

    /// Coupling `J_ij` (0 when absent).
    ///
    /// # Panics
    /// Panics when `i == j` or an index is out of range.
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "Ising::coupling: self-coupling is not allowed");
        assert!(i < self.num_vars() && j < self.num_vars());
        let (a, b) = if self.adj[i].len() <= self.adj[j].len() {
            (i, j)
        } else {
            (j, i)
        };
        self.slot(a, b).map_or(0.0, |p| self.adj[a][p].1)
    }

    /// Sets coupling `J_ij`, creating or updating the edge.
    ///
    /// Setting an existing edge to zero keeps the edge with weight zero (the
    /// topology is preserved; useful when perturbing programmed weights).
    ///
    /// # Panics
    /// Panics when `i == j` or an index is out of range.
    pub fn set_coupling(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "Ising::set_coupling: self-coupling is not allowed");
        assert!(i < self.num_vars() && j < self.num_vars());
        if let Some(p) = self.slot(i, j) {
            let q = self
                .slot(j, i)
                .expect("Ising: adjacency rows mirror each other");
            self.adj[i][p].1 = value;
            self.adj[j][q].1 = value;
            let e = self.edge_id(i, p);
            self.edges[e].2 = value;
        } else {
            let idx = self.edges.len();
            self.edges.push((i.min(j), i.max(j), value));
            self.adj[i].push((j, value));
            self.adj[j].push((i, value));
            if !self.edge_ids.is_empty() {
                self.edge_ids[i].push(idx);
                self.edge_ids[j].push(idx);
            }
        }
    }

    /// Adds to coupling `J_ij`, creating the edge when absent.
    pub fn add_coupling(&mut self, i: usize, j: usize, value: f64) {
        let current = self.coupling(i, j);
        self.set_coupling(i, j, current + value);
    }

    /// Canonical edge list `(i, j, J_ij)` with `i < j`.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Neighbors of spin `i` as `(j, J_ij)` pairs, in edge-creation order.
    pub fn neighbors(&self, i: usize) -> &[(usize, f64)] {
        &self.adj[i]
    }

    /// Degree of spin `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Evaluates the Ising energy of a ±1 assignment.
    ///
    /// # Panics
    /// Panics when `spins.len() != num_vars()` (debug builds also check each
    /// entry is ±1).
    pub fn energy(&self, spins: &[i8]) -> f64 {
        assert_eq!(
            spins.len(),
            self.num_vars(),
            "Ising::energy: state length mismatch"
        );
        debug_assert!(spins.iter().all(|&s| s == 1 || s == -1), "spins must be ±1");
        let mut e = 0.0;
        for (i, &hi) in self.h.iter().enumerate() {
            e += hi * spins[i] as f64;
        }
        for &(i, j, jij) in &self.edges {
            e += jij * spins[i] as f64 * spins[j] as f64;
        }
        e
    }

    /// Local field at spin `k`: `h_k + Σ_j J_kj s_j`.
    ///
    /// # Panics
    /// Panics when lengths mismatch or `k` is out of range.
    #[inline]
    pub fn local_field(&self, spins: &[i8], k: usize) -> f64 {
        debug_assert_eq!(spins.len(), self.num_vars());
        let mut f = self.h[k];
        for &(j, jij) in &self.adj[k] {
            f += jij * spins[j] as f64;
        }
        f
    }

    /// Energy change from flipping spin `k`: `ΔE = −2 s_k · local_field(k)`.
    #[inline]
    pub fn flip_delta(&self, spins: &[i8], k: usize) -> f64 {
        -2.0 * spins[k] as f64 * self.local_field(spins, k)
    }

    /// Largest absolute linear field (0 when empty).
    pub fn max_abs_h(&self) -> f64 {
        self.h.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Largest absolute coupling (0 when there are no edges).
    pub fn max_abs_j(&self) -> f64 {
        self.edges.iter().map(|e| e.2.abs()).fold(0.0, f64::max)
    }

    /// Uniformly rescales all fields and couplings.
    pub fn scale(&mut self, k: f64) {
        for h in &mut self.h {
            *h *= k;
        }
        for e in &mut self.edges {
            e.2 *= k;
        }
        for row in &mut self.adj {
            for entry in row {
                entry.1 *= k;
            }
        }
    }

    /// Rescales so that `max(max|h|, max|J|) == 1` (no-op for an all-zero
    /// problem). This mirrors the auto-scaling D-Wave front ends apply before
    /// programming, and returns the applied factor.
    pub fn normalize(&mut self) -> f64 {
        let m = f64::max(self.max_abs_h(), self.max_abs_j());
        if m > 0.0 {
            self.scale(1.0 / m);
            1.0 / m
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-spin ferromagnet with a field: E = s0 − s1 − 2 s0 s1.
    fn tiny() -> Ising {
        let mut ising = Ising::new(2);
        ising.set_h(0, 1.0);
        ising.set_h(1, -1.0);
        ising.set_coupling(0, 1, -2.0);
        ising
    }

    #[test]
    fn energy_of_all_states() {
        let m = tiny();
        assert_eq!(m.energy(&[1, 1]), -2.0);
        assert_eq!(m.energy(&[1, -1]), 4.0);
        assert_eq!(m.energy(&[-1, 1]), 0.0);
        assert_eq!(m.energy(&[-1, -1]), -2.0);
    }

    #[test]
    fn local_field_and_flip_delta_consistent() {
        let m = tiny();
        for s0 in [-1i8, 1] {
            for s1 in [-1i8, 1] {
                let spins = [s0, s1];
                for k in 0..2 {
                    let mut flipped = spins;
                    flipped[k] = -flipped[k];
                    let expected = m.energy(&flipped) - m.energy(&spins);
                    assert!(
                        (m.flip_delta(&spins, k) - expected).abs() < 1e-12,
                        "delta mismatch at {spins:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn coupling_is_symmetric_and_updatable() {
        let mut m = tiny();
        assert_eq!(m.coupling(0, 1), -2.0);
        assert_eq!(m.coupling(1, 0), -2.0);
        m.add_coupling(1, 0, 0.5);
        assert_eq!(m.coupling(0, 1), -1.5);
        // Adjacency mirrors stay in sync.
        assert_eq!(m.neighbors(0), &[(1usize, -1.5)]);
        assert_eq!(m.neighbors(1), &[(0usize, -1.5)]);
    }

    #[test]
    fn absent_coupling_reads_zero() {
        let m = Ising::new(3);
        assert_eq!(m.coupling(0, 2), 0.0);
        assert_eq!(m.degree(0), 0);
    }

    #[test]
    fn setting_edge_to_zero_preserves_topology() {
        let mut m = tiny();
        m.set_coupling(0, 1, 0.0);
        assert_eq!(m.coupling(0, 1), 0.0);
        assert_eq!(m.degree(0), 1, "edge should remain in the graph");
    }

    #[test]
    fn normalize_caps_magnitudes_at_one() {
        let mut m = tiny();
        let factor = m.normalize();
        assert!((factor - 0.5).abs() < 1e-12);
        assert!((m.max_abs_j() - 1.0).abs() < 1e-12);
        assert!((m.max_abs_h() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_empty_is_noop() {
        let mut m = Ising::new(4);
        assert_eq!(m.normalize(), 1.0);
    }

    #[test]
    #[should_panic(expected = "self-coupling")]
    fn self_coupling_panics() {
        Ising::new(2).set_coupling(1, 1, 1.0);
    }
}
