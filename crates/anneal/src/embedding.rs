//! Minor embedding of dense (clique) problems onto Chimera hardware.
//!
//! MIMO-detection QUBOs are fully connected, but Chimera qubits have degree
//! ≤ 6, so each *logical* variable must be represented by a *chain* of
//! physical qubits bound together by strong ferromagnetic couplers — the
//! "compilation" step of the paper's QuAMax pipeline ("the compilation
//! parameters are standard and have not been tailored").
//!
//! The clique embedding used here is the cross construction: logical
//! variable `ℓ = 4a + b` (cell-row `a`, shore line `b`) occupies
//!
//! * the horizontal line `b` across all cells of cell-row `a`, and
//! * the vertical line `b` across all cells of cell-column `a`.
//!
//! Chains are connected (the two lines meet in diagonal cell `(a, a)`,
//! where the shores couple), pairwise disjoint, and every pair of chains
//! meets in exactly the cell where one's row crosses the other's column —
//! so `K_{4m}` embeds in `C_m` with chains of length `2m`. (D-Wave's
//! production embedding reaches `K_{4m+1}` with chains of `m+1` using a
//! triangular construction; the cross form trades qubit count for
//! simplicity and is bit-for-bit verifiable, which we favor here.)
//!
//! Unembedding resolves broken chains (chains whose qubits disagree) by
//! majority vote, the standard post-processing default.

use crate::topology::Chimera;
use hqw_math::Rng64;
use hqw_qubo::CsrIsing;

/// Chain-strength policy for binding chain qubits.
#[derive(Debug, Clone, Copy)]
pub enum ChainStrength {
    /// Use exactly this ferromagnetic magnitude.
    Fixed(f64),
    /// `factor × max(max|h|, max|J|)` of the logical problem (≥ a small
    /// floor so zero problems still bind). A factor near 1–2 is the usual
    /// starting point.
    RelativeToMax(f64),
}

impl ChainStrength {
    fn resolve(&self, logical: &CsrIsing) -> f64 {
        match *self {
            ChainStrength::Fixed(v) => {
                assert!(v > 0.0, "ChainStrength::Fixed must be positive");
                v
            }
            ChainStrength::RelativeToMax(factor) => {
                assert!(factor > 0.0, "ChainStrength factor must be positive");
                factor * logical.max_abs().max(1e-9)
            }
        }
    }
}

/// A clique minor-embedding on a Chimera graph.
#[derive(Debug, Clone)]
pub struct CliqueEmbedding {
    graph: Chimera,
    /// `chains[ℓ]` = physical qubit ids representing logical variable `ℓ`.
    chains: Vec<Vec<usize>>,
    /// Physical edges within each chain (the binding couplers).
    chain_edges: Vec<Vec<(usize, usize)>>,
    /// For each logical pair `(i, j)`, i < j: the physical couplers between
    /// chain i and chain j.
    cross_couplers: Vec<Vec<Vec<(usize, usize)>>>,
}

impl CliqueEmbedding {
    /// Builds the cross clique embedding of `n_logical ≤ 4m` variables on
    /// `C_m`.
    ///
    /// # Panics
    /// Panics when `n_logical` is zero or exceeds `4·m`.
    pub fn new(graph: Chimera, n_logical: usize) -> Self {
        let m = graph.m();
        assert!(n_logical > 0, "CliqueEmbedding: need at least one variable");
        assert!(
            n_logical <= 4 * m,
            "CliqueEmbedding: {n_logical} logical variables exceed K_{} on C_{m}",
            4 * m
        );

        let mut chains = Vec::with_capacity(n_logical);
        let mut chain_edges = Vec::with_capacity(n_logical);
        for l in 0..n_logical {
            let a = l / 4;
            let b = l % 4;
            let mut chain = Vec::with_capacity(2 * m);
            let mut edges = Vec::new();
            // Horizontal line: row a, shore qubit 4+b, all columns.
            for col in 0..m {
                chain.push(graph.id((a, col, 4 + b)));
                if col > 0 {
                    edges.push((graph.id((a, col - 1, 4 + b)), graph.id((a, col, 4 + b))));
                }
            }
            // Vertical line: column a, shore qubit b, all rows.
            for row in 0..m {
                chain.push(graph.id((row, a, b)));
                if row > 0 {
                    edges.push((graph.id((row - 1, a, b)), graph.id((row, a, b))));
                }
            }
            // The two lines meet in cell (a, a): intra-cell coupler.
            edges.push((graph.id((a, a, 4 + b)), graph.id((a, a, b))));
            chains.push(chain);
            chain_edges.push(edges);
        }

        // Cross couplers: chain i's vertical line passes through cell
        // (a_j, a_i); chain j's horizontal line passes through the same cell.
        let mut cross = vec![vec![Vec::new(); n_logical]; n_logical];
        for i in 0..n_logical {
            let (ai, bi) = (i / 4, i % 4);
            for j in 0..n_logical {
                if i == j {
                    continue;
                }
                let (aj, bj) = (j / 4, j % 4);
                // Vertical qubit of i in cell (aj, ai) ↔ horizontal qubit of
                // j in cell (aj, ai).
                let v = graph.id((aj, ai, bi));
                let h = graph.id((aj, ai, 4 + bj));
                debug_assert!(graph.coupled(v, h));
                cross[i.min(j)][i.max(j)].push((v, h));
            }
        }

        CliqueEmbedding {
            graph,
            chains,
            chain_edges,
            cross_couplers: cross,
        }
    }

    /// The physical chain of a logical variable.
    pub fn chain(&self, logical: usize) -> &[usize] {
        &self.chains[logical]
    }

    /// Number of logical variables.
    pub fn num_logical(&self) -> usize {
        self.chains.len()
    }

    /// Total physical qubits used.
    pub fn qubits_used(&self) -> usize {
        self.chains.iter().map(|c| c.len()).sum()
    }

    /// Embeds a logical Ising problem into a physical one on the hardware
    /// graph: fields split evenly over chain qubits, logical couplings split
    /// evenly over the available cross couplers, chains bound with
    /// ferromagnetic `−strength`.
    ///
    /// The logical edges are each row's entries above the diagonal, in row
    /// order; a coupling the CSR does not store (an exact zero, for
    /// [`CsrIsing::from_qubo`]) gets no cross coupler. Each physical row
    /// lists chain edges (`ℓ = 0..n`), then cross couplers in that order.
    ///
    /// The physical problem is written into `physical`'s buffers
    /// ([`CsrIsing::refill_from_couplings`]): once they have grown to the
    /// hardware graph's size, an embedding allocates nothing.
    ///
    /// # Panics
    /// Panics when the logical problem size mismatches the embedding.
    pub fn embed(&self, logical: &CsrIsing, strength: ChainStrength, physical: &mut CsrIsing) {
        let n = self.num_logical();
        assert_eq!(logical.num_vars(), n, "embed: embedding size mismatch");
        let binding = strength.resolve(logical);
        let chain_edges = self
            .chain_edges
            .iter()
            .flat_map(move |edges| edges.iter().map(move |&(a, b)| (a, b, -binding)));
        let logical_edges = (0..n).flat_map(move |i| {
            let (cols, ws) = logical.row(i);
            let upper = cols.iter().zip(ws).filter(move |&(&j, _)| j as usize > i);
            upper.map(move |(&j, &jij)| (i, j as usize, jij))
        });
        // Chains are disjoint and each cross coupler joins one pair of
        // chains, so every physical pair is listed exactly once.
        let cross_edges = logical_edges.flat_map(move |(i, j, jij)| {
            let couplers = &self.cross_couplers[i][j];
            assert!(!couplers.is_empty(), "no cross coupler for ({i},{j})");
            let per = jij / couplers.len() as f64;
            couplers.iter().map(move |&(a, b)| (a, b, per))
        });
        physical.refill_from_couplings(self.graph.num_qubits(), chain_edges.chain(cross_edges));
        for (l, chain) in self.chains.iter().enumerate() {
            let h_per_qubit = logical.h(l) / chain.len() as f64;
            for &q in chain {
                physical.add_h(q, h_per_qubit);
            }
        }
    }

    /// Unembeds a physical state into logical spins by per-chain majority
    /// vote (ties break to +1), appended to `out`. Returns the broken chain
    /// count.
    ///
    /// # Panics
    /// Panics when the state length mismatches the hardware size.
    pub fn unembed(&self, physical: &[i8], out: &mut Vec<i8>) -> usize {
        assert_eq!(
            physical.len(),
            self.graph.num_qubits(),
            "unembed: state length mismatch"
        );
        let mut broken = 0;
        out.extend(self.chains.iter().map(|chain| {
            let sum: i32 = chain.iter().map(|&q| physical[q] as i32).sum();
            if sum.unsigned_abs() as usize != chain.len() {
                broken += 1;
            }
            if sum >= 0 {
                1i8
            } else {
                -1
            }
        }));
        broken
    }

    /// Expands a logical state to a chain-consistent physical state (used to
    /// program reverse-anneal initial states through the embedding),
    /// written into `physical`'s buffer.
    pub fn embed_state(&self, logical: &[i8], rng: &mut Rng64, physical: &mut Vec<i8>) {
        assert_eq!(self.num_logical(), logical.len(), "embed_state: length");
        // Unused qubits get random spins (they are uncoupled in `embed`).
        physical.clear();
        let random = |_| if rng.next_bool() { 1 } else { -1 };
        physical.extend((0..self.graph.num_qubits()).map(random));
        for (l, chain) in self.chains.iter().enumerate() {
            for &q in chain {
                physical[q] = logical[l];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_oracle::csr::from_ising;
    use hqw_oracle::generator::{random_qubo, sparse_random_qubo};
    use hqw_oracle::model::to_ising;
    use hqw_oracle::Ising;
    use hqw_qubo::solution::bits_to_spins;
    use hqw_qubo::Qubo;

    #[test]
    fn chains_are_disjoint_and_connected() {
        let graph = Chimera::new(3);
        let emb = CliqueEmbedding::new(graph, 12);
        // Disjoint.
        let mut seen = std::collections::HashSet::new();
        for l in 0..12 {
            for &q in emb.chain(l) {
                assert!(seen.insert(q), "qubit {q} reused");
            }
        }
        // Connected: BFS over hardware couplers restricted to the chain.
        for l in 0..12 {
            let chain: std::collections::HashSet<usize> = emb.chain(l).iter().copied().collect();
            let start = emb.chain(l)[0];
            let mut visited = std::collections::HashSet::from([start]);
            let mut frontier = vec![start];
            while let Some(q) = frontier.pop() {
                for nb in graph.neighbors(q) {
                    if chain.contains(&nb) && visited.insert(nb) {
                        frontier.push(nb);
                    }
                }
            }
            assert_eq!(visited.len(), chain.len(), "chain {l} disconnected");
        }
    }

    #[test]
    fn every_logical_pair_has_a_physical_coupler() {
        let graph = Chimera::new(3);
        let emb = CliqueEmbedding::new(graph, 12);
        for i in 0..12 {
            for j in i + 1..12 {
                assert!(
                    !emb.cross_couplers[i][j].is_empty(),
                    "pair ({i},{j}) has no coupler"
                );
                for &(a, b) in &emb.cross_couplers[i][j] {
                    assert!(graph.coupled(a, b), "({a},{b}) is not a hardware coupler");
                }
            }
        }
    }

    #[test]
    fn embedded_energy_matches_logical_on_chain_consistent_states() {
        // For any chain-consistent physical state: physical energy =
        // logical energy + constant (the chain-binding energy, which is the
        // same for every consistent state).
        let graph = Chimera::new(2);
        let n = 8;
        let mut rng = Rng64::new(7);
        let q = random_qubo(n, &mut rng);
        let (logical, _) = CsrIsing::from_qubo(&q);
        let emb = CliqueEmbedding::new(graph, n);
        let mut physical = CsrIsing::default();
        emb.embed(&logical, ChainStrength::RelativeToMax(2.0), &mut physical);

        // Fix unused qubits to +1 so the (zero-weight) unused terms agree.
        let consistent = |spins: &[i8]| -> Vec<i8> {
            let mut phys = vec![1i8; graph.num_qubits()];
            for (l, chain) in (0..n).map(|l| (l, emb.chain(l))) {
                for &qbit in chain {
                    phys[qbit] = spins[l];
                }
            }
            phys
        };

        let all_up = consistent(&vec![1i8; n]);
        let base_shift = physical.energy(&all_up) - logical.energy(&vec![1i8; n]);
        for _ in 0..10 {
            let bits: Vec<u8> = (0..n).map(|_| rng.next_bool() as u8).collect();
            let spins = bits_to_spins(&bits);
            let phys = consistent(&spins);
            let diff = physical.energy(&phys) - logical.energy(&spins);
            assert!(
                (diff - base_shift).abs() < 1e-9,
                "chain-consistent energies differ: {diff} vs {base_shift}"
            );
        }
    }

    /// `embed` as it was written over `add_h`/`add_coupling` into an
    /// `Ising`, one lookup per coupler: the bit-exact reference for the
    /// one-pass CSR build.
    fn embed_reference(emb: &CliqueEmbedding, logical: &Ising, strength: ChainStrength) -> Ising {
        let binding = match strength {
            ChainStrength::Fixed(v) => v,
            ChainStrength::RelativeToMax(factor) => {
                factor * f64::max(logical.max_abs_h(), logical.max_abs_j()).max(1e-9)
            }
        };
        let mut physical = Ising::new(emb.graph.num_qubits());
        for l in 0..emb.num_logical() {
            let chain = &emb.chains[l];
            let h_per_qubit = logical.h(l) / chain.len() as f64;
            for &q in chain {
                physical.add_h(q, h_per_qubit);
            }
            for &(a, b) in &emb.chain_edges[l] {
                physical.add_coupling(a, b, -binding);
            }
        }
        for &(i, j, jij) in logical.edges() {
            let couplers = &emb.cross_couplers[i][j];
            let per = jij / couplers.len() as f64;
            for &(a, b) in couplers {
                physical.add_coupling(a, b, per);
            }
        }
        physical
    }

    #[test]
    fn embed_is_bit_identical_to_the_add_coupling_build() {
        let relative = ChainStrength::RelativeToMax(2.0);
        let mut cases: Vec<(usize, Qubo, ChainStrength)> =
            [(1, 1, 1), (1, 4, 2), (2, 5, 3), (2, 8, 4), (3, 12, 5)]
                .into_iter()
                .map(|(m, n, seed)| (m, random_qubo(n, &mut Rng64::new(seed)), relative))
                .collect();
        // Holey problems: exact-zero couplings get no cross coupler.
        for (m, n, seed) in [(2, 8, 6), (3, 12, 7)] {
            let q = sparse_random_qubo(n, 0.5, &mut Rng64::new(seed));
            assert!(CsrIsing::from_qubo(&q).0.nnz() < n * (n - 1), "no hole");
            cases.push((m, q.clone(), relative));
            cases.push((m, q, ChainStrength::Fixed(1.5)));
        }
        cases.push((
            2,
            random_qubo(8, &mut Rng64::new(8)),
            ChainStrength::Fixed(0.75),
        ));
        for (m, q, strength) in cases {
            let n = q.num_vars();
            let emb = CliqueEmbedding::new(Chimera::new(m), n);
            let mut got = CsrIsing::default();
            emb.embed(&CsrIsing::from_qubo(&q).0, strength, &mut got);
            let want = from_ising(&embed_reference(&emb, &to_ising(&q).0, strength));
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let at = format!("C{m}, {n} logical, {strength:?}");
            assert_eq!(bits(got.h_slice()), bits(want.h_slice()), "{at}: fields");
            assert_eq!(got.nnz(), want.nnz(), "{at}: coupler count");
            for k in 0..got.num_vars() {
                let ((cols, w), (want_cols, want_w)) = (got.row(k), want.row(k));
                assert_eq!(cols, want_cols, "{at}: qubit {k} row order");
                assert_eq!(bits(w), bits(want_w), "{at}: qubit {k} weights");
            }
        }
    }

    #[test]
    fn unembed_majority_vote_and_break_count() {
        let graph = Chimera::new(2);
        let emb = CliqueEmbedding::new(graph, 4);
        let mut rng = Rng64::new(9);
        let logical = vec![1i8, -1, 1, -1];
        let mut physical = Vec::new();
        emb.embed_state(&logical, &mut rng, &mut physical);
        let mut out = Vec::new();
        let broken = emb.unembed(&physical, &mut out);
        assert_eq!(out, logical);
        assert_eq!(broken, 0);

        // Break one chain minimally: flip a single qubit of chain 0.
        physical[emb.chain(0)[0]] = -1;
        let mut out2 = Vec::new();
        let broken2 = emb.unembed(&physical, &mut out2);
        assert_eq!(broken2, 1);
        assert_eq!(out2[0], 1, "majority should still win");
    }

    #[test]
    fn dw2000q_supports_64_logical_variables() {
        // The 2000Q topology is C16; this construction embeds K_{4m}.
        let graph = Chimera::new(16);
        let emb = CliqueEmbedding::new(graph, 64);
        assert_eq!(emb.qubits_used(), 64 * 32);
        // Chain length 2m = 32 on C16.
        assert_eq!(emb.chain(0).len(), 32);
    }

    #[test]
    #[should_panic(expected = "exceed K_8")]
    fn oversized_clique_rejected() {
        CliqueEmbedding::new(Chimera::new(2), 9);
    }
}
