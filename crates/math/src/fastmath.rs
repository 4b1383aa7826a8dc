//! Polynomial transcendental approximation for Monte-Carlo hot loops.
//!
//! The SA Fast sweep kernel spends most of an uphill proposal inside libm
//! `exp`. A Metropolis acceptance test only needs the ratio to ~10⁻⁷ —
//! anything finer is far below Monte-Carlo resolution — so the Fast kernel
//! trades libm's 0.5-ulp guarantee for a short branchless polynomial. The
//! Exact kernels never call it: their contract is bit-identical replay of
//! the historical libm streams.

/// `eˣ` for `x ∈ [−30, 0]`, accurate to ~6·10⁻⁹ relative.
///
/// Range reduction `eˣ = 2ⁿ·e^f` with `n = round(x·log₂e)` (magic-number
/// rounding, no `round` libcall) and `|f| ≤ ln2/2`, then a degree-7 Taylor
/// for `e^f` and an exponent-bit scale by `2ⁿ`.
///
/// Callers must keep `x` in `[−30, 0]`: the Fast kernel's reject cutoff
/// guarantees it (acceptance below e⁻³⁰ is rejected without drawing).
/// Out-of-range inputs are debug-asserted, not handled.
#[inline]
pub fn exp_fast(x: f64) -> f64 {
    debug_assert!(
        (-30.5..=0.0).contains(&x),
        "exp_fast domain is [-30, 0], got {x}"
    );
    // 1.5·2⁵² — adding and subtracting rounds to nearest integer for
    // |t| < 2⁵¹ without the (potentially libcall) `round`.
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    let t = x * std::f64::consts::LOG2_E;
    let n = (t + MAGIC) - MAGIC;
    let f = (t - n) * std::f64::consts::LN_2; // |f| ≤ ln2/2 ≈ 0.347
    let mut p = 1.0 / 5_040.0; // 1/7!
    p = p * f + 1.0 / 720.0;
    p = p * f + 1.0 / 120.0;
    p = p * f + 1.0 / 24.0;
    p = p * f + 1.0 / 6.0;
    p = p * f + 0.5;
    p = p * f + 1.0;
    p = p * f + 1.0;
    // n ∈ [−44, 0] ⇒ biased exponent ∈ [979, 1023]: always normal.
    let scale = f64::from_bits(((n as i64 + 1023) << 52) as u64);
    scale * p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_fast_matches_libm_over_domain() {
        let mut worst = 0.0f64;
        for i in 0..=30_000 {
            let x = -(i as f64) * 1e-3;
            let got = exp_fast(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst < 1e-8, "worst relative error {worst:.3e}");
    }

    #[test]
    fn exp_fast_endpoints() {
        assert_eq!(exp_fast(0.0), 1.0);
        let got = exp_fast(-30.0);
        let want = (-30.0f64).exp();
        assert!(((got - want) / want).abs() < 1e-8);
    }
}
