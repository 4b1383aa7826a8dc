//! Soft-information constraint injection — the paper's §3.1 / Figure 4.
//!
//! Given pre-knowledge that some bits are very likely to take particular
//! values (soft information from the wireless receiver), the scheme adds
//! penalty terms to the QUBO that steer the search away from unlikely
//! regions "without harming the global optimum (ideally)":
//!
//! * Figure 4's pair form: `C·(q_a − 1)·(q_b − 1)` — zero when either bit is
//!   1, `+C` when both are 0 — pushes `(q_a, q_b)` toward `(1, 1)`.
//! * The complementary forms for target values 0 are obtained by substituting
//!   `q → (1 − q)`.
//!
//! Expanding `C·(q_a − 1)(q_b − 1) = C·q_a q_b − C·q_a − C·q_b + C` gives the
//! QUBO updates implemented here; the constant `C` is tracked as an offset so
//! energies remain comparable before/after injection.
//!
//! The paper's finding (reproduced by the `fig4_softinfo` bench) is that on
//! noisy analog hardware the constraint strength `C` is hard to tune: too
//! weak does nothing, too strong distorts the landscape and, under coefficient
//! noise, displaces the global optimum.

use crate::model::Qubo;

/// A penalty pushing a pair of variables toward target values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairConstraint {
    /// First variable index.
    pub a: usize,
    /// Second variable index.
    pub b: usize,
    /// Target value for `a` (0 or 1).
    pub target_a: u8,
    /// Target value for `b` (0 or 1).
    pub target_b: u8,
    /// Penalty strength `C > 0`.
    pub strength: f64,
}

/// Applies a pair constraint in place. Returns the constant-offset change
/// (energies of the modified QUBO relate to the original by
/// `E_new(q) = E_old(q) + penalty(q) − offset`, with `penalty ∈ {0, …}`
/// vanishing exactly on target-consistent assignments).
///
/// # Panics
/// Panics on out-of-range indices, `a == b`, non-binary targets, or
/// non-positive strength.
pub fn apply_pair_constraint(qubo: &mut Qubo, c: &PairConstraint) -> f64 {
    let n = qubo.num_vars();
    assert!(
        c.a < n && c.b < n,
        "apply_pair_constraint: index out of range"
    );
    assert!(c.a != c.b, "apply_pair_constraint: a == b");
    assert!(c.target_a <= 1 && c.target_b <= 1, "targets must be 0/1");
    assert!(c.strength > 0.0, "strength must be positive");

    // Work in terms of u = q or (1−q) so both variables target value 1,
    // then expand C·(u_a − 1)(u_b − 1).
    //
    // With t_a = target_a, substituting q_a → (1 − q_a) when t_a == 0 flips
    // signs of the linear pieces; the four cases expand to:
    //
    //   (t_a, t_b) = (1, 1):  C q_a q_b − C q_a − C q_b + C
    //   (1, 0):              −C q_a q_b + 0 q_a           + 0   → C q_a(q_b−1)·(−1)… (expanded below)
    //   (0, 1):   symmetric
    //   (0, 0):   C q_a q_b                                + 0
    //
    // Rather than hand-expanding each case, compute coefficients generically:
    // u = s·q + o with (s, o) = (1, 0) for target 1 and (−1, 1) for target 0.
    let (sa, oa) = if c.target_a == 1 {
        (1.0, 0.0)
    } else {
        (-1.0, 1.0)
    };
    let (sb, ob) = if c.target_b == 1 {
        (1.0, 0.0)
    } else {
        (-1.0, 1.0)
    };
    // C (u_a − 1)(u_b − 1) = C (sa q_a + oa − 1)(sb q_b + ob − 1)
    let ka = oa - 1.0;
    let kb = ob - 1.0;
    // = C [ sa sb q_a q_b + sa kb q_a + sb ka q_b + ka kb ]
    qubo.add(c.a, c.b, c.strength * sa * sb);
    qubo.add(c.a, c.a, c.strength * sa * kb);
    qubo.add(c.b, c.b, c.strength * sb * ka);
    c.strength * ka * kb
}

/// Applies a batch of pair constraints; returns the summed constant offset.
pub fn apply_pair_constraints(qubo: &mut Qubo, constraints: &[PairConstraint]) -> f64 {
    constraints
        .iter()
        .map(|c| apply_pair_constraint(qubo, c))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_minimum;
    use crate::oracle::random_qubo;
    use hqw_math::Rng64;

    /// Penalty evaluated directly from the definition for cross-checking.
    fn reference_penalty(bits: &[u8], c: &PairConstraint) -> f64 {
        let ua = if c.target_a == 1 {
            bits[c.a] as f64
        } else {
            1.0 - bits[c.a] as f64
        };
        let ub = if c.target_b == 1 {
            bits[c.b] as f64
        } else {
            1.0 - bits[c.b] as f64
        };
        c.strength * (ua - 1.0) * (ub - 1.0)
    }

    #[test]
    fn pair_constraint_matches_definition_for_all_targets() {
        for ta in 0..2u8 {
            for tb in 0..2u8 {
                let base = Qubo::new(2);
                let c = PairConstraint {
                    a: 0,
                    b: 1,
                    target_a: ta,
                    target_b: tb,
                    strength: 2.5,
                };
                let mut modified = base.clone();
                let offset = apply_pair_constraint(&mut modified, &c);
                for bits in [[0u8, 0], [0, 1], [1, 0], [1, 1]] {
                    let expected = base.energy(&bits) + reference_penalty(&bits, &c);
                    let actual = modified.energy(&bits) + offset;
                    assert!(
                        (expected - actual).abs() < 1e-12,
                        "targets ({ta},{tb}) bits {bits:?}: {expected} vs {actual}"
                    );
                }
            }
        }
    }

    #[test]
    fn penalty_vanishes_on_target_and_is_positive_off_target() {
        let c = PairConstraint {
            a: 0,
            b: 1,
            target_a: 1,
            target_b: 1,
            strength: 3.0,
        };
        assert_eq!(reference_penalty(&[1, 1], &c), 0.0);
        assert_eq!(reference_penalty(&[1, 0], &c), 0.0); // either-one semantics of Fig. 4
        assert_eq!(reference_penalty(&[0, 0], &c), 3.0);
    }

    #[test]
    fn correct_constraints_preserve_the_global_optimum() {
        // Constraints consistent with the true optimum must not displace it
        // ("without harming the global optimum").
        let mut rng = Rng64::new(71);
        for _ in 0..10 {
            let q = random_qubo(8, &mut rng);
            let (best, e_best) = exhaustive_minimum(&q);
            let mut constrained = q.clone();
            let c = PairConstraint {
                a: 0,
                b: 3,
                target_a: best[0],
                target_b: best[3],
                strength: 5.0,
            };
            let offset = apply_pair_constraint(&mut constrained, &c);
            let (best2, e2) = exhaustive_minimum(&constrained);
            assert!(
                (e2 + offset - e_best).abs() < 1e-9,
                "optimum energy moved: {} vs {}",
                e2 + offset,
                e_best
            );
            assert!(
                (q.energy(&best2) - e_best).abs() < 1e-9,
                "optimum state displaced"
            );
        }
    }

    #[test]
    fn wrong_strong_constraints_can_displace_the_optimum() {
        // The §3.1 failure mode: a confident-but-wrong constraint with large C
        // moves the global optimum. Find an instance demonstrating it.
        let mut rng = Rng64::new(73);
        let mut demonstrated = false;
        for _ in 0..20 {
            let q = random_qubo(8, &mut rng);
            let (best, _) = exhaustive_minimum(&q);
            let mut constrained = q.clone();
            let c = PairConstraint {
                a: 0,
                b: 1,
                target_a: 1 - best[0], // deliberately wrong
                target_b: 1 - best[1],
                strength: 50.0,
            };
            let _ = apply_pair_constraint(&mut constrained, &c);
            let (best2, _) = exhaustive_minimum(&constrained);
            if best2 != best {
                demonstrated = true;
                break;
            }
        }
        assert!(demonstrated, "expected at least one displaced optimum");
    }

    #[test]
    #[should_panic(expected = "a == b")]
    fn pair_constraint_rejects_identical_vars() {
        let mut q = Qubo::new(2);
        apply_pair_constraint(
            &mut q,
            &PairConstraint {
                a: 1,
                b: 1,
                target_a: 1,
                target_b: 1,
                strength: 1.0,
            },
        );
    }
}
