//! Conversions between [`Qubo`] and the adjacency-list [`Ising`].
//!
//! The served path never builds an `Ising`:
//! [`hqw_qubo::CsrIsing::from_qubo`] writes the same fields, rows and
//! offset in one pass. These are its references.

use crate::ising::Ising;
use hqw_qubo::Qubo;

/// Converts to the Ising form. Returns `(ising, offset)` such that for
/// every assignment, `qubo.energy(q) = ising.energy(s) + offset` with
/// `s_i = 2 q_i − 1`.
pub fn to_ising(qubo: &Qubo) -> (Ising, f64) {
    let n = qubo.num_vars();
    let mut couplings = Vec::new();
    let mut h = vec![0.0; n];
    let mut offset = 0.0;
    for i in 0..n {
        let d = qubo.get(i, i);
        h[i] += d / 2.0;
        offset += d / 2.0;
        for j in i + 1..n {
            let c = qubo.get(i, j);
            if c != 0.0 {
                couplings.push((i, j, c / 4.0));
                h[i] += c / 4.0;
                h[j] += c / 4.0;
                offset += c / 4.0;
            }
        }
    }
    (Ising::from_couplings(h, couplings), offset)
}

/// Builds a QUBO from an Ising model (inverse of [`to_ising`]).
///
/// Substituting `s = 2q − 1`:
///
/// ```text
///   Σ h_i s_i      → Σ 2 h_i q_i − Σ h_i
///   Σ J_ij s_i s_j → Σ (4 J_ij q_i q_j − 2 J_ij q_i − 2 J_ij q_j) + Σ J_ij
/// ```
///
/// A QUBO has no constant term, so the conversion returns
/// `(qubo, constant)` with `qubo.energy(q) + constant = ising.energy(s) + offset`
/// for every assignment. Round-tripping a QUBO through [`to_ising`]
/// yields `constant == 0`.
pub fn from_ising_with_constant(ising: &Ising, offset: f64) -> (Qubo, f64) {
    let n = ising.num_vars();
    let mut q = Qubo::new(n);
    let mut constant = offset;
    for i in 0..n {
        q.add(i, i, 2.0 * ising.h(i));
        constant -= ising.h(i);
    }
    for &(i, j, jij) in ising.edges() {
        q.add(i, j, 4.0 * jij);
        q.add(i, i, -2.0 * jij);
        q.add(j, j, -2.0 * jij);
        constant += jij;
    }
    (q, constant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_qubo::bits_to_spins;

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
    fn ising_round_trip_preserves_energy() {
        let q = tiny();
        let (ising, offset) = to_ising(&q);
        for bits in [[0u8, 0], [1, 0], [0, 1], [1, 1]] {
            let spins = bits_to_spins(&bits);
            assert!(
                (q.energy(&bits) - (ising.energy(&spins) + offset)).abs() < 1e-12,
                "mismatch at {bits:?}"
            );
        }
    }

    #[test]
    fn from_ising_with_constant_round_trips() {
        let q = tiny();
        let (ising, offset) = to_ising(&q);
        let (q2, constant) = from_ising_with_constant(&ising, offset);
        assert!(constant.abs() < 1e-12, "QUBO→Ising→QUBO constant leak");
        for bits in [[0u8, 0], [1, 0], [0, 1], [1, 1]] {
            assert!((q.energy(&bits) - q2.energy(&bits)).abs() < 1e-12);
        }
    }
}
