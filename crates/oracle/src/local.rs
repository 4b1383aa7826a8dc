//! Single-flip local search (steepest descent): certifies that solver
//! outputs are at least locally optimal.

use hqw_qubo::Qubo;

/// Descends from `start` by repeatedly applying the single best improving
/// flip until a local minimum is reached. Returns `(bits, energy, steps)`.
///
/// Deterministic: among equally-improving flips, the lowest index wins.
pub fn steepest_descent(qubo: &Qubo, start: &[u8]) -> (Vec<u8>, f64, usize) {
    let n = qubo.num_vars();
    assert_eq!(start.len(), n, "steepest_descent: state length mismatch");
    let mut bits = start.to_vec();
    let mut steps = 0;
    loop {
        let mut best_delta = -1e-12; // strictly improving only
        let mut best_k = None;
        for k in 0..n {
            let d = qubo.flip_delta(&bits, k);
            if d < best_delta {
                best_delta = d;
                best_k = Some(k);
            }
        }
        match best_k {
            Some(k) => {
                bits[k] ^= 1;
                steps += 1;
            }
            None => break,
        }
    }
    let energy = qubo.energy(&bits);
    (bits, energy, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::random_qubo;
    use hqw_math::Rng64;
    use hqw_qubo::exact::exhaustive_minimum;

    #[test]
    fn descends_to_known_optimum() {
        // E = q0 − 2 q1 + 3 q0 q1: optimum (0,1) at −2.
        let mut q = Qubo::new(2);
        q.set(0, 0, 1.0);
        q.set(1, 1, -2.0);
        q.set(0, 1, 3.0);
        let (bits, e, steps) = steepest_descent(&q, &[1, 0]);
        assert_eq!(bits, vec![0, 1]);
        assert_eq!(e, -2.0);
        assert!(steps >= 1);
    }

    #[test]
    fn output_is_always_a_local_minimum() {
        let mut rng = Rng64::new(8);
        for _ in 0..10 {
            let q = random_qubo(14, &mut rng);
            let start: Vec<u8> = (0..14).map(|_| rng.next_bool() as u8).collect();
            let (bits, _, _) = steepest_descent(&q, &start);
            // No single flip strictly improves the energy.
            assert!((0..14).all(|k| q.flip_delta(&bits, k) >= -1e-12));
        }
    }

    #[test]
    fn descent_never_increases_energy() {
        let mut rng = Rng64::new(9);
        let q = random_qubo(12, &mut rng);
        let start: Vec<u8> = (0..12).map(|_| rng.next_bool() as u8).collect();
        let e0 = q.energy(&start);
        let (_, e1, _) = steepest_descent(&q, &start);
        assert!(e1 <= e0 + 1e-12);
    }

    #[test]
    fn local_minimum_is_fixed_point() {
        let mut rng = Rng64::new(10);
        let q = random_qubo(10, &mut rng);
        let (bits, e, _) = steepest_descent(&q, &[0u8; 10]);
        let (bits2, e2, steps2) = steepest_descent(&q, &bits);
        assert_eq!(bits2, bits);
        assert_eq!(e2, e);
        assert_eq!(steps2, 0);
    }

    #[test]
    fn random_restarts_find_optimum_on_small_problems() {
        let mut rng = Rng64::new(11);
        for _ in 0..5 {
            let q = random_qubo(10, &mut rng);
            let (_, e_best) = exhaustive_minimum(&q);
            let e_rr = (0..50)
                .map(|_| {
                    let start: Vec<u8> = (0..10).map(|_| rng.next_bool() as u8).collect();
                    steepest_descent(&q, &start).1
                })
                .fold(f64::INFINITY, f64::min);
            assert!(
                (e_rr - e_best).abs() < 1e-9,
                "50 restarts should crack a 10-var problem ({e_rr} vs {e_best})"
            );
        }
    }
}
