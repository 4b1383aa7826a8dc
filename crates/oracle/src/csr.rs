//! The adjacency-list model flattened into the served CSR.

use crate::ising::Ising;
use hqw_qubo::CsrIsing;

/// Flattens an adjacency-list Ising model: row `k` lists `k`'s neighbours
/// in edge-creation order, as [`Ising::neighbors`] does. O(n + edges).
pub fn from_ising(ising: &Ising) -> CsrIsing {
    let mut csr = CsrIsing::default();
    csr.refill_from_couplings(ising.num_vars(), ising.edges().iter().copied());
    for (i, &h) in ising.h_slice().iter().enumerate() {
        csr.add_h(i, h);
    }
    csr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::random_qubo;
    use crate::model::to_ising;
    use hqw_math::Rng64;

    fn random_state(n: usize, rng: &mut Rng64) -> Vec<i8> {
        (0..n)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect()
    }

    #[test]
    fn csr_matches_adjacency_model() {
        let mut rng = Rng64::new(101);
        let q = random_qubo(14, &mut rng);
        let (ising, _) = to_ising(&q);
        let csr = from_ising(&ising);
        assert_eq!(csr.num_vars(), ising.num_vars());
        let spins = random_state(14, &mut rng);
        assert!((csr.energy(&spins) - ising.energy(&spins)).abs() < 1e-9);
        for k in 0..14 {
            assert_eq!(csr.degree(k), ising.degree(k));
            assert!((csr.local_field(&spins, k) - ising.local_field(&spins, k)).abs() < 1e-12);
            assert!((csr.flip_delta(&spins, k) - ising.flip_delta(&spins, k)).abs() < 1e-12);
        }
    }
}
