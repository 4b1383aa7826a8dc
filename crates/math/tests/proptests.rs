//! Property-based tests for the numerics substrate.

use hqw_math::linalg::{CholeskyReal, QrReal};
use hqw_math::stats::percentile;
use hqw_math::{CMatrix, CVector, Complex64, RMatrix, RVector, Rng64};
use hqw_oracle::linalg::LuReal;
use hqw_oracle::rmat::{gram, matmul};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e3..1e3f64).prop_filter("finite", |x| x.is_finite())
}

fn complex() -> impl Strategy<Value = Complex64> {
    (finite_f64(), finite_f64()).prop_map(|(re, im)| Complex64::new(re, im))
}

proptest! {
    #[test]
    fn complex_mul_commutes(a in complex(), b in complex()) {
        let ab = a * b;
        let ba = b * a;
        prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn complex_conj_is_involution(a in complex()) {
        prop_assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn complex_norm_multiplicative(a in complex(), b in complex()) {
        let lhs = (a * b).norm_sqr();
        let rhs = a.norm_sqr() * b.norm_sqr();
        prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn complex_distributive(a in complex(), b in complex(), c in complex()) {
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!((lhs - rhs).abs() <= 1e-7 * (1.0 + lhs.abs()));
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = Rng64::new(seed);
        let mut b = Rng64::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_next_below_bounded(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = Rng64::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.next_below(n) < n);
        }
    }

    #[test]
    fn percentile_is_monotone(mut xs in prop::collection::vec(finite_f64(), 1..64),
                              p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
    }
}

// Random well-conditioned matrix strategies go through seeds: generating raw
// element vectors with proptest produces mostly-singular garbage, whereas a
// Gaussian matrix from a seed is almost surely invertible.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_then_multiply_round_trips(seed in any::<u64>(), n in 1usize..10) {
        let mut rng = Rng64::new(seed);
        let a = RMatrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let b = RVector::from_vec((0..n).map(|_| rng.next_gaussian()).collect());
        if let Ok(lu) = LuReal::new(&a) {
            let x = lu.solve(&b);
            let back = a.matvec(&x);
            for i in 0..n {
                prop_assert!((back[i] - b[i]).abs() < 1e-6,
                    "residual {} at {}", (back[i] - b[i]).abs(), i);
            }
        }
    }

    #[test]
    fn qr_factors_reconstruct(seed in any::<u64>(), n in 1usize..8, extra in 0usize..5) {
        let mut rng = Rng64::new(seed);
        let m = n + extra;
        let a = RMatrix::from_fn(m, n, |_, _| rng.next_gaussian());
        let qr = QrReal::new(&a);
        let recon = matmul(qr.q(), qr.r());
        prop_assert!(recon.max_abs_diff(&a) < 1e-8);
        let qtq = gram(qr.q());
        prop_assert!(qtq.max_abs_diff(&RMatrix::identity(n)) < 1e-8);
    }

    #[test]
    fn cholesky_solves_spd_systems(seed in any::<u64>(), n in 1usize..8) {
        let mut rng = Rng64::new(seed);
        let b = RMatrix::from_fn(n + 1, n, |_, _| rng.next_gaussian());
        let mut a = gram(&b);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let rhs = RVector::from_vec((0..n).map(|_| rng.next_gaussian()).collect());
        let ch = CholeskyReal::new(&a).unwrap();
        let x = ch.solve(&rhs);
        let back = a.matvec(&x);
        for i in 0..n {
            prop_assert!((back[i] - rhs[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn complex_stacking_commutes_with_matvec(seed in any::<u64>(), m in 1usize..6, n in 1usize..6) {
        let mut rng = Rng64::new(seed);
        let h = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.next_gaussian(), rng.next_gaussian())
        });
        let x = CVector::from_vec(
            (0..n).map(|_| Complex64::new(rng.next_gaussian(), rng.next_gaussian())).collect(),
        );
        let direct = h.matvec(&x).to_real_stacked();
        let stacked = h.to_real_stacked().matvec(&x.to_real_stacked());
        for i in 0..direct.len() {
            prop_assert!((direct[i] - stacked[i]).abs() < 1e-9);
        }
    }
}
