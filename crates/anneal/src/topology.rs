//! Chimera hardware topology (the D-Wave 2000Q's qubit graph).
//!
//! A Chimera graph `C_m` is an `m × m` grid of unit cells; each cell is a
//! complete bipartite `K_{4,4}` over 8 qubits. The 2000Q is `C_16` — 2048
//! qubits. Qubit indexing follows the D-Wave convention:
//!
//! ```text
//!   id = (row·m + col)·8 + k,   k ∈ 0..8
//! ```
//!
//! `k < 4` is the *vertical* shore (coupled to the cells above/below),
//! `k ≥ 4` the *horizontal* shore (coupled left/right). Intra-cell couplers
//! connect every vertical qubit to every horizontal qubit of the same cell;
//! inter-cell couplers connect same-`k` qubits of adjacent cells along the
//! shore's direction.
//!
//! Logical MIMO problems are dense, so they cannot be programmed directly;
//! [`crate::embedding`] maps them onto this graph with qubit chains.

/// A Chimera graph `C_m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chimera {
    m: usize,
}

/// Coordinates of one qubit: `(row, col, k)`.
pub type QubitCoord = (usize, usize, usize);

impl Chimera {
    /// Creates `C_m`.
    ///
    /// # Panics
    /// Panics when `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "Chimera: m must be positive");
        Chimera { m }
    }

    /// Grid dimension `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total number of qubits (`8·m²`).
    pub fn num_qubits(&self) -> usize {
        8 * self.m * self.m
    }

    /// Linear id of a qubit coordinate.
    ///
    /// # Panics
    /// Panics on out-of-range coordinates.
    pub fn id(&self, (row, col, k): QubitCoord) -> usize {
        assert!(
            row < self.m && col < self.m && k < 8,
            "Chimera: bad coordinate"
        );
        (row * self.m + col) * 8 + k
    }

    /// Coordinate of a linear id.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn coord(&self, id: usize) -> QubitCoord {
        assert!(id < self.num_qubits(), "Chimera: id out of range");
        let k = id % 8;
        let cell = id / 8;
        (cell / self.m, cell % self.m, k)
    }

    /// True when two qubits are directly coupled.
    pub fn coupled(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let (ra, ca, ka) = self.coord(a);
        let (rb, cb, kb) = self.coord(b);
        // Intra-cell: same cell, opposite shores.
        if ra == rb && ca == cb {
            return (ka < 4) != (kb < 4);
        }
        // Inter-cell vertical: same column, adjacent rows, same k < 4.
        if ca == cb && ka == kb && ka < 4 && ra.abs_diff(rb) == 1 {
            return true;
        }
        // Inter-cell horizontal: same row, adjacent columns, same k ≥ 4.
        if ra == rb && ka == kb && ka >= 4 && ca.abs_diff(cb) == 1 {
            return true;
        }
        false
    }

    /// All neighbors of a qubit.
    pub fn neighbors(&self, id: usize) -> Vec<usize> {
        let (row, col, k) = self.coord(id);
        let mut out = Vec::with_capacity(6);
        // Opposite shore of the same cell.
        let shore = if k < 4 { 4..8 } else { 0..4 };
        for kk in shore {
            out.push(self.id((row, col, kk)));
        }
        if k < 4 {
            if row > 0 {
                out.push(self.id((row - 1, col, k)));
            }
            if row + 1 < self.m {
                out.push(self.id((row + 1, col, k)));
            }
        } else {
            if col > 0 {
                out.push(self.id((row, col - 1, k)));
            }
            if col + 1 < self.m {
                out.push(self.id((row, col + 1, k)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dw2000q_has_2048_qubits() {
        // The D-Wave 2000Q topology is C16.
        let c = Chimera::new(16);
        assert_eq!(c.num_qubits(), 2048);
        assert_eq!(c.m(), 16);
    }

    #[test]
    fn id_coord_round_trip() {
        let c = Chimera::new(4);
        for id in 0..c.num_qubits() {
            assert_eq!(c.id(c.coord(id)), id);
        }
    }

    #[test]
    fn intra_cell_is_complete_bipartite() {
        let c = Chimera::new(2);
        for kv in 0..4 {
            for kh in 4..8 {
                assert!(c.coupled(c.id((1, 1, kv)), c.id((1, 1, kh))));
            }
        }
        // Same shore is not coupled.
        assert!(!c.coupled(c.id((0, 0, 0)), c.id((0, 0, 1))));
        assert!(!c.coupled(c.id((0, 0, 4)), c.id((0, 0, 5))));
    }

    #[test]
    fn inter_cell_couplers_follow_shores() {
        let c = Chimera::new(3);
        // Vertical shore couples across rows.
        assert!(c.coupled(c.id((0, 1, 2)), c.id((1, 1, 2))));
        assert!(!c.coupled(c.id((0, 1, 2)), c.id((2, 1, 2)))); // not adjacent
        assert!(!c.coupled(c.id((0, 1, 2)), c.id((1, 1, 3)))); // different k
                                                               // Horizontal shore couples across columns.
        assert!(c.coupled(c.id((1, 0, 6)), c.id((1, 1, 6))));
        assert!(!c.coupled(c.id((1, 0, 6)), c.id((0, 1, 6))));
        // Vertical qubits do not couple across columns.
        assert!(!c.coupled(c.id((0, 0, 0)), c.id((0, 1, 0))));
    }

    #[test]
    fn neighbor_lists_match_coupled_predicate() {
        let c = Chimera::new(3);
        for id in 0..c.num_qubits() {
            let neigh = c.neighbors(id);
            for &other in &neigh {
                assert!(c.coupled(id, other), "{id} ↔ {other}");
            }
            // Count cross-check against brute force.
            let brute = (0..c.num_qubits()).filter(|&o| c.coupled(id, o)).count();
            assert_eq!(neigh.len(), brute, "qubit {id}");
        }
    }

    #[test]
    fn coupler_count_formula_matches_enumeration() {
        for m in 1..=4 {
            let c = Chimera::new(m);
            let mut count = 0;
            for a in 0..c.num_qubits() {
                for b in a + 1..c.num_qubits() {
                    if c.coupled(a, b) {
                        count += 1;
                    }
                }
            }
            // 16 intra-cell per cell; 4 vertical per adjacent row pair per
            // column; 4 horizontal per adjacent column pair per row.
            assert_eq!(count, 16 * m * m + 2 * 4 * m * (m - 1), "m={m}");
        }
    }

    #[test]
    fn corner_qubits_have_reduced_degree() {
        let c = Chimera::new(2);
        // A vertical qubit in the corner cell has 4 intra + 1 inter = 5.
        assert_eq!(c.neighbors(c.id((0, 0, 0))).len(), 5);
        // An interior-column horizontal qubit in C2 has 4 intra + 1 inter.
        assert_eq!(c.neighbors(c.id((0, 0, 4))).len(), 5);
    }
}
