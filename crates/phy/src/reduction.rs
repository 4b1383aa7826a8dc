//! The maximum-likelihood-to-QUBO reduction (QuAMax transform).
//!
//! The paper applies "the same mapping" as QuAMax (Kim, Venturelli &
//! Jamieson, SIGCOMM '19 \[29\]) to turn ML detection into the QUBO of Eq. 1.
//! The derivation implemented here:
//!
//! 1. **Real decomposition.** Stack the complex system into real form,
//!    `ỹ = H̃·x̃` with `H̃ = [Re −Im; Im Re]`, so each user contributes two
//!    real "rails" (I and Q).
//! 2. **Spin-linear symbol map.** Under natural labeling each rail amplitude
//!    is linear in spins: `x̃ = T·s`, where `T` places the binary weights
//!    `[2^{m−1}, …, 1]·scale` of each rail's bits (BPSK's Q rail has no
//!    bits and is fixed at 0).
//! 3. **Expansion.** `‖ỹ − H̃T s‖² = sᵀA s + bᵀ s + c` with `A = TᵀG̃T`,
//!    `G̃ = H̃ᵀH̃`, `b = −2 TᵀH̃ᵀỹ`, `c = ‖ỹ‖²`. Since `s_i² = 1`, the
//!    diagonal of `A` is constant and moves into `c`; the rest is an Ising
//!    model (`h = b`, `J_ij = 2A_ij`), converted exactly to QUBO form with
//!    offset tracking.
//!
//! The result: for **every** assignment `q`,
//! `qubo.energy(q) + ml_offset == ‖y − H·x(q)‖²` — property-tested below and
//! in `tests/`. In particular, on the paper's noiseless instances the QUBO
//! ground energy is exactly `−ml_offset` and the ground state is the
//! transmitted symbol vector.
//!
//! Variable ordering: user-major; within a user, I-rail bits MSB→LSB then
//! Q-rail bits MSB→LSB — `n_tx · bits_per_symbol` variables total, matching
//! the paper's problem sizing.

use crate::mimo::MimoSystem;
use crate::modulation::Modulation;
use hqw_math::{CMatrix, CVector, RMatrix};
use hqw_qubo::{Ising, Qubo};

/// Output of the ML→QUBO reduction.
#[derive(Debug, Clone)]
pub struct ReducedProblem {
    /// The QUBO over natural-labeled symbol bits.
    pub qubo: Qubo,
    /// Constant such that `qubo.energy(q) + ml_offset = ‖y − H·x(q)‖²`.
    pub ml_offset: f64,
    /// The system the reduction was built for.
    pub system: MimoSystem,
}

impl ReducedProblem {
    /// ML residual metric of an assignment: `‖y − H·x(q)‖²`, evaluated
    /// through the QUBO (exact up to floating-point rounding).
    pub fn ml_metric(&self, natural_bits: &[u8]) -> f64 {
        self.qubo.energy(natural_bits) + self.ml_offset
    }

    /// Reconstructs per-user transmit symbols from natural-labeled bits.
    pub fn bits_to_symbols(&self, natural_bits: &[u8]) -> CVector {
        let bps = self.system.modulation.bits_per_symbol();
        assert_eq!(natural_bits.len(), self.system.n_tx * bps);
        CVector::from_vec(
            natural_bits
                .chunks(bps)
                .map(|chunk| self.system.modulation.natural_bits_to_symbol(chunk))
                .collect(),
        )
    }

    /// Converts a full natural-labeled assignment to Gray-labeled wireless
    /// bits (user-major).
    pub fn natural_to_gray(&self, natural_bits: &[u8]) -> Vec<u8> {
        let bps = self.system.modulation.bits_per_symbol();
        natural_bits
            .chunks(bps)
            .flat_map(|chunk| self.system.modulation.natural_to_gray(chunk))
            .collect()
    }

    /// Converts Gray-labeled wireless bits to natural-labeled QUBO variables.
    pub fn gray_to_natural(&self, gray_bits: &[u8]) -> Vec<u8> {
        let bps = self.system.modulation.bits_per_symbol();
        gray_bits
            .chunks(bps)
            .flat_map(|chunk| self.system.modulation.gray_to_natural(chunk))
            .collect()
    }
}

/// Builds the spin-weight matrix `T` (`2·n_tx × n_vars`): rail amplitudes as
/// a linear map of spins.
fn spin_weight_matrix(system: &MimoSystem) -> RMatrix {
    let modulation = system.modulation;
    let n_tx = system.n_tx;
    let bps = modulation.bits_per_symbol();
    let mi = modulation.i_bits();
    let scale = modulation.scale();
    let n_vars = n_tx * bps;

    let mut t = RMatrix::zeros(2 * n_tx, n_vars);
    for u in 0..n_tx {
        let base = u * bps;
        for (k, &w) in Modulation::rail_weights(mi).iter().enumerate() {
            t[(u, base + k)] = w * scale; // I rail → stacked row u
        }
        for (k, &w) in Modulation::rail_weights(modulation.q_bits())
            .iter()
            .enumerate()
        {
            t[(n_tx + u, base + mi + k)] = w * scale; // Q rail → stacked row n_tx+u
        }
    }
    t
}

/// Reduces an ML detection problem `(H, y)` to QUBO form.
///
/// # Panics
/// Panics when `h` is not `n_rx × n_tx` or `y` is not length `n_rx`.
pub fn reduce_to_qubo(system: &MimoSystem, h: &CMatrix, y: &CVector) -> ReducedProblem {
    assert_eq!(h.rows(), system.n_rx, "reduce_to_qubo: channel rows");
    assert_eq!(h.cols(), system.n_tx, "reduce_to_qubo: channel cols");
    assert_eq!(y.len(), system.n_rx, "reduce_to_qubo: observation length");

    let n_vars = system.bits_per_use();
    let h_stacked = h.to_real_stacked(); // 2n_rx × 2n_tx
    let y_stacked = y.to_real_stacked(); // 2n_rx
    let t = spin_weight_matrix(system); // 2n_tx × n_vars

    // A = Tᵀ (H̃ᵀH̃) T, computed as (H̃T)ᵀ(H̃T) for numerical symmetry.
    let ht = h_stacked.matmul(&t); // 2n_rx × n_vars
    let a = ht.gram(); // n_vars × n_vars
                       // b = −2 (H̃T)ᵀ ỹ
    let b = ht.tr_matvec(&y_stacked);

    let h = (0..n_vars).map(|i| -2.0 * b[i]).collect();
    let mut couplings = Vec::with_capacity(n_vars * n_vars.saturating_sub(1) / 2);
    let mut const_term = y_stacked.norm_sqr();
    for i in 0..n_vars {
        const_term += a[(i, i)]; // s_i² = 1
        for j in i + 1..n_vars {
            let jij = 2.0 * a[(i, j)];
            if jij != 0.0 {
                couplings.push((i, j, jij));
            }
        }
    }
    let ising = Ising::from_couplings(h, couplings);

    // E_ml(s) = ising.energy(s) + const_term; convert to QUBO exactly.
    let (qubo, ml_offset) = Qubo::from_ising_with_constant(&ising, const_term);
    ReducedProblem {
        qubo,
        ml_offset,
        system: *system,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use hqw_math::Rng64;
    use hqw_qubo::exact::exhaustive_minimum;

    fn setup(
        m: Modulation,
        n: usize,
        seed: u64,
    ) -> (MimoSystem, CMatrix, CVector, Vec<u8>, ReducedProblem) {
        let mut rng = Rng64::new(seed);
        let sys = MimoSystem::new(n, n, m);
        let h = ChannelModel::UnitGainRandomPhase.generate(n, n, &mut rng);
        let bits = sys.random_bits(&mut rng);
        let x = sys.modulate(&bits);
        let y = sys.transmit(&h, &x);
        let reduced = reduce_to_qubo(&sys, &h, &y);
        (sys, h, y, bits, reduced)
    }

    #[test]
    fn qubo_energy_equals_ml_metric_for_all_assignments() {
        // Exhaustive check on a tiny system: 2 users, QPSK → 4 variables.
        let (sys, h, y, _, reduced) = setup(Modulation::Qpsk, 2, 42);
        let n_vars = sys.bits_per_use();
        for code in 0..(1u32 << n_vars) {
            let bits: Vec<u8> = (0..n_vars).map(|k| ((code >> k) & 1) as u8).collect();
            let x = reduced.bits_to_symbols(&bits);
            let direct = sys.ml_metric(&h, &y, &x);
            let via_qubo = reduced.ml_metric(&bits);
            assert!(
                (direct - via_qubo).abs() < 1e-9,
                "code {code:b}: {direct} vs {via_qubo}"
            );
        }
    }

    #[test]
    fn transmitted_bits_are_the_ground_state_noiseless() {
        for m in Modulation::ALL {
            let n = match m {
                Modulation::Bpsk => 8,
                Modulation::Qpsk => 4,
                Modulation::Qam16 => 3,
                Modulation::Qam64 => 2,
            };
            let (_, _, _, gray_bits, reduced) = setup(m, n, 7);
            let natural = reduced.gray_to_natural(&gray_bits);
            // Noiseless: residual is exactly zero at the transmitted bits.
            assert!(
                reduced.ml_metric(&natural) < 1e-9,
                "{}: transmitted bits are not a zero-residual state",
                m.name()
            );
            // And no assignment can beat a zero residual; verify the QUBO
            // minimum matches for enumerable sizes.
            if reduced.qubo.num_vars() <= 16 {
                let (_, e_min) = exhaustive_minimum(&reduced.qubo);
                assert!(
                    (e_min + reduced.ml_offset).abs() < 1e-9,
                    "{}: ground energy is not zero residual",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn ml_offset_makes_energies_nonnegative() {
        let (_, _, _, _, reduced) = setup(Modulation::Qam16, 2, 99);
        let mut rng = Rng64::new(5);
        for _ in 0..100 {
            let bits: Vec<u8> = (0..reduced.qubo.num_vars())
                .map(|_| rng.next_bool() as u8)
                .collect();
            assert!(reduced.ml_metric(&bits) >= -1e-9, "residuals must be ≥ 0");
        }
    }

    #[test]
    fn variable_count_matches_paper_sizing() {
        let (_, _, _, _, r16) = setup(Modulation::Qam16, 9, 1);
        assert_eq!(r16.qubo.num_vars(), 36);
        let (_, _, _, _, r64) = setup(Modulation::Qam64, 6, 1);
        assert_eq!(r64.qubo.num_vars(), 36);
    }

    #[test]
    fn round_trip_bits_symbols() {
        let (sys, _, _, gray_bits, reduced) = setup(Modulation::Qam64, 3, 13);
        let natural = reduced.gray_to_natural(&gray_bits);
        let symbols = reduced.bits_to_symbols(&natural);
        let expected = sys.modulate(&gray_bits);
        for u in 0..sys.n_tx {
            assert!((symbols[u] - expected[u]).abs() < 1e-12);
        }
        assert_eq!(reduced.natural_to_gray(&natural), gray_bits);
    }

    #[test]
    fn rectangular_systems_are_supported() {
        // More receive antennas than users (overdetermined, the easy case).
        let mut rng = Rng64::new(17);
        let sys = MimoSystem::new(2, 4, Modulation::Qpsk);
        let h = ChannelModel::RayleighIid.generate(4, 2, &mut rng);
        let bits = sys.random_bits(&mut rng);
        let x = sys.modulate(&bits);
        let y = sys.transmit(&h, &x);
        let reduced = reduce_to_qubo(&sys, &h, &y);
        let natural = reduced.gray_to_natural(&bits);
        assert!(reduced.ml_metric(&natural) < 1e-9);
    }
}
