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
//! 3. **Expansion.** `‖ỹ − H̃T s‖² = sᵀA s + bᵀ s + c` with `A = (H̃T)ᵀ(H̃T)`,
//!    `b = −2 (H̃T)ᵀỹ`, `c = ‖ỹ‖²`. Each column of `T` has one nonzero, so
//!    `H̃T` is built column by column: bit `j`'s column is its rail's
//!    column of `H̃` times the bit's weight. `A`'s diagonal and upper
//!    triangle and `b` are dot products of those columns (and `ỹ`). Since
//!    `s_i² = 1`, the diagonal of `A` moves into `c`; the rest is an Ising
//!    model (`h = b`, `J_ij = 2A_ij`), substituted straight into QUBO form
//!    (`s = 2q − 1`) with offset tracking.
//!
//!    The build is bit-for-bit the dense derivation it replaced (`H̃·T`
//!    as a full product, its Gram, an `Ising`, then its QUBO conversion,
//!    all from `hqw-oracle`): a column entry is `0 + a·w`, which
//!    is what the dense product's sum leaves (it skips `a = 0`, and every
//!    other term it adds is a signed zero); each dot product starts at
//!    `0` and sums in row order; and every QUBO coefficient and the
//!    offset take their terms in the conversion's order. The unit tests
//!    pin this against the dense derivation.
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
use hqw_math::{CMatrix, CVector};
use hqw_qubo::Qubo;

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
        self.relabel(natural_bits, Modulation::natural_to_gray)
    }

    /// Converts Gray-labeled wireless bits to natural-labeled QUBO variables.
    pub fn gray_to_natural(&self, gray_bits: &[u8]) -> Vec<u8> {
        self.relabel(gray_bits, Modulation::gray_to_natural)
    }

    /// `bits` relabeled symbol by symbol with `f`, into one allocation.
    fn relabel(&self, bits: &[u8], f: fn(Modulation, &[u8], &mut [u8])) -> Vec<u8> {
        let modulation = self.system.modulation;
        let bps = modulation.bits_per_symbol();
        let mut out = vec![0; bits.len()];
        for (symbol, out) in bits.chunks(bps).zip(out.chunks_mut(bps)) {
            f(modulation, symbol, out);
        }
        out
    }
}

/// Writes the columns of `H̃T` into `cols`, bit `j`'s at `j·2n_rx..`: the
/// stacked-`H̃` column of the bit's rail (`[Re; Im]` for the I rail,
/// `[−Im; Re]` for the Q rail) times the bit's weight `w·scale`. An entry is
/// `0 + a·w`, so an exact-zero channel entry gives `+0`, as in the dense
/// product.
fn rail_columns(system: &MimoSystem, h: &CMatrix, cols: &mut [f64]) {
    let n_rx = system.n_rx;
    let modulation = system.modulation;
    let scale = modulation.scale();
    let mut col = cols.chunks_exact_mut(2 * n_rx);
    for u in 0..system.n_tx {
        for (bits, quadrature) in [(modulation.i_bits(), false), (modulation.q_bits(), true)] {
            for k in 0..bits {
                let w = (1usize << (bits - 1 - k)) as f64 * scale;
                let (top, bottom) = col.next().expect("one column per bit").split_at_mut(n_rx);
                for r in 0..n_rx {
                    let z = h[(r, u)];
                    let (t, b) = if quadrature {
                        (-z.im, z.re)
                    } else {
                        (z.re, z.im)
                    };
                    top[r] = 0.0 + t * w;
                    bottom[r] = 0.0 + b * w;
                }
            }
        }
    }
}

/// `Σ_k a_k·b_k`, summed from `0` in index order.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// Reduces an ML detection problem `(H, y)` to QUBO form.
///
/// # Panics
/// Panics when `h` is not `n_rx × n_tx` or `y` is not length `n_rx`.
pub fn reduce_to_qubo(system: &MimoSystem, h: &CMatrix, y: &CVector) -> ReducedProblem {
    assert_eq!(h.rows(), system.n_rx, "reduce_to_qubo: channel rows");
    assert_eq!(h.cols(), system.n_tx, "reduce_to_qubo: channel cols");
    assert_eq!(y.len(), system.n_rx, "reduce_to_qubo: observation length");

    let n = system.bits_per_use();
    let m = 2 * system.n_rx;
    // The QUBO's triangle is allocated before the scratch, so a frame that
    // outlives this call does not sit among freed temporaries.
    let mut q = Qubo::new(n);
    let mut cols = vec![0.0; n * m];
    rail_columns(system, h, &mut cols);
    let col = |j: usize| &cols[j * m..(j + 1) * m];
    let ys = y.to_real_stacked();

    // c = ‖ỹ‖² + Σ A_ii (s_i² = 1), then the Ising→QUBO substitution's
    // −Σ h_i and +Σ J_ij, in that order.
    let mut constant = ys.norm_sqr();
    for i in 0..n {
        constant += dot(col(i), col(i));
    }
    for i in 0..n {
        let hi = -2.0 * dot(col(i), ys.as_slice());
        q.add(i, i, 2.0 * hi);
        constant -= hi;
    }
    for i in 0..n {
        for j in i + 1..n {
            let jij = 2.0 * dot(col(i), col(j));
            if jij != 0.0 {
                q.add(i, j, 4.0 * jij);
                q.add(i, i, -2.0 * jij);
                q.add(j, j, -2.0 * jij);
                constant += jij;
            }
        }
    }
    ReducedProblem {
        qubo: q,
        ml_offset: constant,
        system: *system,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{add_awgn, ChannelModel};
    use crate::modulation::Modulation;
    use hqw_math::{RMatrix, Rng64};
    use hqw_oracle::model::from_ising_with_constant;
    use hqw_oracle::rmat::{gram, matmul};
    use hqw_oracle::Ising;
    use hqw_qubo::exact::exhaustive_minimum;

    /// The dense derivation `reduce_to_qubo` replaced, kept as its
    /// bit-for-bit reference: the spin-weight matrix `T`, the dense product
    /// `H̃T`, its Gram, an `Ising`, then its QUBO conversion.
    /// Returns `H̃T` too, so the rail columns can be pinned on their own.
    fn dense_reference(system: &MimoSystem, h: &CMatrix, y: &CVector) -> (RMatrix, Qubo, f64) {
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
                t[(u, base + k)] = w * scale;
            }
            for (k, &w) in Modulation::rail_weights(modulation.q_bits())
                .iter()
                .enumerate()
            {
                t[(n_tx + u, base + mi + k)] = w * scale;
            }
        }

        let y_stacked = y.to_real_stacked();
        let ht = matmul(&h.to_real_stacked(), &t);
        let a = gram(&ht);
        let b = ht.tr_matvec(&y_stacked);
        let h = (0..n_vars).map(|i| -2.0 * b[i]).collect();
        let mut couplings = Vec::new();
        let mut const_term = y_stacked.norm_sqr();
        for i in 0..n_vars {
            const_term += a[(i, i)];
            for j in i + 1..n_vars {
                let jij = 2.0 * a[(i, j)];
                if jij != 0.0 {
                    couplings.push((i, j, jij));
                }
            }
        }
        let ising = Ising::from_couplings(h, couplings);
        let (qubo, ml_offset) = from_ising_with_constant(&ising, const_term);
        (ht, qubo, ml_offset)
    }

    /// Every modulation, channel model and `n_tx` in 1..=8, square and
    /// with more receive antennas (identity is square only), noiseless
    /// and noisy: the direct build equals the dense reference bit for bit,
    /// in every rail-column entry, every QUBO coefficient and `ml_offset`.
    #[test]
    fn direct_build_is_bit_identical_to_the_dense_derivation() {
        let mut rng = Rng64::new(2024);
        let mut cases = 0;
        for m in Modulation::ALL {
            for model in ChannelModel::ALL {
                for n_tx in 1..=8 {
                    let rx_extra: &[usize] = match model {
                        ChannelModel::Identity => &[0],
                        _ => &[0, 2],
                    };
                    for &extra in rx_extra {
                        for noise in [0.0, 0.3] {
                            let sys = MimoSystem::new(n_tx, n_tx + extra, m);
                            let h = model.generate(sys.n_rx, n_tx, &mut rng);
                            let x = sys.modulate(&sys.random_bits(&mut rng));
                            let mut y = sys.transmit(&h, &x);
                            add_awgn(&mut y, noise, &mut rng);
                            let (ht, qubo, offset) = dense_reference(&sys, &h, &y);
                            let got = reduce_to_qubo(&sys, &h, &y);
                            let n = sys.bits_per_use();
                            let what = format!(
                                "{} {} {n_tx}x{} σ²={noise}",
                                m.name(),
                                model.name(),
                                sys.n_rx
                            );

                            let mut cols = vec![0.0; n * 2 * sys.n_rx];
                            rail_columns(&sys, &h, &mut cols);
                            for (j, col) in cols.chunks(2 * sys.n_rx).enumerate() {
                                for (r, v) in col.iter().enumerate() {
                                    assert_eq!(
                                        v.to_bits(),
                                        ht[(r, j)].to_bits(),
                                        "{what}: H̃T[{r},{j}]"
                                    );
                                }
                            }
                            for i in 0..n {
                                for j in i..n {
                                    assert_eq!(
                                        got.qubo.get(i, j).to_bits(),
                                        qubo.get(i, j).to_bits(),
                                        "{what}: Q[{i},{j}]"
                                    );
                                }
                            }
                            assert_eq!(
                                got.ml_offset.to_bits(),
                                offset.to_bits(),
                                "{what}: ml_offset"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 4 * (2 + 2 + 1) * 8 * 2);
    }

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
