//! The annealing-engine abstraction and shared hot-loop machinery.
//!
//! An [`AnnealEngine`] consumes an Ising problem (a [`CsrIsing`]), a
//! device profile, a schedule and (for reverse schedules) a programmed
//! initial state, and returns one classical readout — exactly one "anneal
//! read" of the paper's hardware ([`AnnealEngine::run_reads`] runs a
//! submission's reads on one problem together). Two engines are provided:
//!
//! * [`crate::pimc::PimcEngine`] — path-integral (Trotterized) quantum Monte
//!   Carlo, the standard classical simulation of transverse-field annealing.
//! * [`crate::svmc::SvmcEngine`] — spin-vector Monte Carlo, the
//!   semi-classical O(2)-rotor model often used to mimic D-Wave devices.
//!
//! Time calibration: schedules are expressed in microseconds of *programmed*
//! anneal time; engines convert at [`AnnealParams::sweeps_per_us`] Monte
//! Carlo sweeps per microsecond. All wall-clock metrics in `hqw-core` charge
//! programmed microseconds (as the paper does), never simulator CPU time, so
//! this constant only controls simulation fidelity.

use crate::dwave::DWaveProfile;
use crate::sampler::ConfigError;
use crate::schedule::AnnealSchedule;
use hqw_math::{Exp1, Rng64};
use hqw_qubo::CsrIsing;

/// Transverse-field-gated kinetics ("freeze-out").
///
/// On analog hardware, computational-basis spin flips are *mediated by the
/// transverse field*: in the weak-coupling open-system picture, thermal
/// transition rates scale with the qubit tunneling amplitude, vanishing as
/// `A(s) → 0`. Plain Metropolis dynamics has no such gate — it keeps
/// performing classical repair arbitrarily late in the anneal, which makes
/// the simulator behave like simulated annealing (flattering forward
/// annealing and erasing the freeze-out that locks in both FA's diabatic
/// errors and RA's programmed state).
///
/// The gate multiplies every acceptance probability by
/// `g(s) = min(1, (A(s)/a_ref)^exponent)` — a *lazy* Metropolis chain, so
/// the stationary distribution is untouched while the kinetics slow and
/// stop as fluctuations vanish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreezeOut {
    /// Transverse-field scale (GHz) above which dynamics runs at full rate.
    pub a_ref_ghz: f64,
    /// Rate exponent (2.0 ≈ golden-rule scaling of single-qubit flips).
    pub exponent: f64,
}

impl Default for FreezeOut {
    fn default() -> Self {
        FreezeOut {
            a_ref_ghz: 2.0,
            exponent: 2.0,
        }
    }
}

impl FreezeOut {
    /// Rate factor `g(s) ∈ [0, 1]` at transverse field `a_ghz`.
    #[inline]
    pub fn gate(&self, a_ghz: f64) -> f64 {
        let ratio = (a_ghz / self.a_ref_ghz).max(0.0);
        ratio.powf(self.exponent).min(1.0)
    }
}

/// Sampler of the gaps between the moves a freeze-out gate lets through.
///
/// Within one sweep the gate `g` is a constant, so the moves that pass it
/// form a Bernoulli(g) process in move order and the number of moves
/// skipped before the next passing one is Geometric(g):
/// `P(G = k) = (1−g)^k·g`. [`GateGaps::gap`] draws that gap directly.
///
/// * `g ≥ 1` — every move passes: the gap is 0 and no draw is made, so
///   a walk visits every move in order and draws only what the moves
///   draw. PIMC's forward reads therefore run such a sweep as one dense
///   pass over its moves, with the same draws in the same order.
/// * `g < 1` — `G = ⌊E/λ⌋` from one Exp(1) draw `E` ([`Exp1`]), with
///   `λ = −ln1p(−g)` cached per sweep as `1/λ`:
///   `P(G ≥ k) = P(E ≥ kλ) = e^{−kλ} = (1−g)^k`.
///
/// Rounding bound, on every tail `P(G ≥ k)`:
/// * the ziggurat's table error: its layer areas differ by at most
///   `ε ≤ 6·10⁻¹⁴` relative, which moves any probability by at most `ε`;
/// * its 2⁻⁵³ grid, which moves any tail of `E` by about 2⁻⁵³;
/// * the product `E·(1/λ)`: with `ln1p` within 1 ulp and the reciprocal
///   and the product each within ½ ulp, it is `E/λ·(1+δ)`,
///   `|δ| ≤ 4·2⁻⁵³`, which shifts the tail `e^{−y}` at `y = kλ` by at
///   most `|δ|·y·e^{−y} ≤ 4·2⁻⁵³/e`.
///
/// Every tail is therefore within `ε + 2⁻⁵¹` (below 10⁻¹³) of the exact
/// geometric one.
///
/// Every gap is capped at the moves left, so `pos + gap` never passes the
/// move count. A product beyond `usize`, even `+∞` once `1/λ` overflows
/// at sub-normal `g`, saturates in the cast before the cap; the one NaN,
/// `0·∞` from an `E = 0` draw, casts to 0, which is the exact `⌊0/λ⌋`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GateGaps {
    /// `g ≥ 1`: no move is skipped.
    Every,
    /// `g < 1`: `⌊E·(1/λ)⌋` with the cached `1/λ = −1/ln1p(−g)`.
    Exp { inv_lambda: f64, exp1: Exp1 },
}

impl GateGaps {
    /// The sampler for gate `g > 0`.
    pub(crate) fn new(g: f64) -> Self {
        debug_assert!(g > 0.0, "a closed gate has no passing moves");
        if g >= 1.0 {
            GateGaps::Every
        } else {
            GateGaps::Exp {
                inv_lambda: -1.0 / (-g).ln_1p(),
                exp1: Exp1::new(),
            }
        }
    }

    /// Moves skipped before the next passing one, capped at `left` (the
    /// moves still ahead in the sweep); `left = 0` makes no draw.
    #[inline]
    pub(crate) fn gap(&self, rng: &mut Rng64, left: usize) -> usize {
        if left == 0 {
            return 0;
        }
        match *self {
            GateGaps::Every => 0,
            GateGaps::Exp { inv_lambda, exp1 } => {
                ((exp1.sample(rng) * inv_lambda) as usize).min(left)
            }
        }
    }

    /// Visits the passing moves among `moves` in order, `visit(rng, pos)`
    /// for each. The walk starts afresh, which is exact because the
    /// geometric distribution is memoryless. The gap to the next passing
    /// move is drawn before the current one is visited: the gaps are
    /// independent of the moves, so the order of the draws is free, and
    /// this one lets the gap's draw overlap the move's work.
    #[inline]
    pub(crate) fn walk(
        &self,
        rng: &mut Rng64,
        moves: usize,
        mut visit: impl FnMut(&mut Rng64, usize),
    ) {
        let mut pos = self.gap(rng, moves);
        while pos < moves {
            let next = pos + 1 + self.gap(rng, moves - pos - 1);
            visit(rng, pos);
            pos = next;
        }
    }
}

/// Engine-independent simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealParams {
    /// Monte Carlo sweeps simulated per programmed microsecond.
    pub sweeps_per_us: usize,
    /// Override the device inverse temperature (1/GHz); `None` uses the
    /// profile's physical `β`.
    pub beta_override: Option<f64>,
    /// Transverse-field-gated kinetics; `None` disables the gate (pure
    /// Metropolis dynamics, SA-like late-anneal behaviour).
    pub freeze_out: Option<FreezeOut>,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            sweeps_per_us: 32,
            beta_override: None,
            freeze_out: Some(FreezeOut::default()),
        }
    }
}

impl AnnealParams {
    /// Effective inverse temperature for a profile.
    pub fn beta(&self, profile: &DWaveProfile) -> f64 {
        self.beta_override.unwrap_or_else(|| profile.beta())
    }

    /// Every field as bit patterns (a `None` as a tag alone): two
    /// parameter sets with equal bits drive bit-identical sweeps.
    pub(crate) fn bits(&self) -> [u64; 6] {
        let beta = self.beta_override.map_or(0, f64::to_bits);
        let (a_ref, exponent) = self
            .freeze_out
            .map_or((0, 0), |f| (f.a_ref_ghz.to_bits(), f.exponent.to_bits()));
        [
            self.sweeps_per_us as u64,
            u64::from(self.beta_override.is_some()),
            beta,
            u64::from(self.freeze_out.is_some()),
            a_ref,
            exponent,
        ]
    }

    /// Kinetic gate factor at transverse field `a_ghz` (1.0 when disabled).
    #[inline]
    pub fn gate(&self, a_ghz: f64) -> f64 {
        match &self.freeze_out {
            Some(f) => f.gate(a_ghz),
            None => 1.0,
        }
    }

    /// Number of sweeps for a schedule (at least 1).
    pub fn total_sweeps(&self, schedule: &AnnealSchedule) -> usize {
        ((schedule.duration_us() * self.sweeps_per_us as f64).round() as usize).max(1)
    }

    /// `(sweep index, s, gate)` of every sweep of `schedule` whose
    /// freeze-out gate is open, `s` taken at the sweep's midpoint. A closed
    /// gate (`g = 0`) freezes its sweep, so the engines skip it.
    pub(crate) fn open_sweeps<'a>(
        &'a self,
        profile: &'a DWaveProfile,
        schedule: &'a AnnealSchedule,
    ) -> impl Iterator<Item = (usize, f64, f64)> + 'a {
        let total = self.total_sweeps(schedule);
        let duration = schedule.duration_us();
        (0..total).filter_map(move |sweep| {
            let s = schedule.s_at((sweep as f64 + 0.5) * duration / total as f64);
            let gate = self.gate(profile.a_ghz(s));
            (gate > 0.0).then_some((sweep, s, gate))
        })
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Returns the first violated constraint: `sweeps_per_us == 0`, a
    /// non-positive beta override, or a non-positive freeze-out reference
    /// field or exponent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sweeps_per_us == 0 {
            return Err(ConfigError::ZeroSweepsPerUs);
        }
        if let Some(beta) = self.beta_override {
            if beta.is_nan() || beta <= 0.0 {
                return Err(ConfigError::NonPositiveBeta { beta });
            }
        }
        if let Some(f) = &self.freeze_out {
            if !(f.a_ref_ghz > 0.0 && f.exponent > 0.0) {
                return Err(ConfigError::NonPositiveFreezeOut {
                    a_ref_ghz: f.a_ref_ghz,
                    exponent: f.exponent,
                });
            }
        }
        Ok(())
    }
}

/// One anneal read: problem in, classical state out.
pub trait AnnealEngine: Send + Sync {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Runs one read.
    ///
    /// `initial` is required exactly when `schedule.requires_initial_state()`
    /// (reverse annealing); forward schedules ignore it. `params` must pass
    /// [`AnnealParams::validate`]; [`crate::QuantumSampler`] checks it once
    /// per submission rather than once per read.
    ///
    /// # Panics
    /// Panics when a reverse schedule is given no initial state, or the
    /// initial state length mismatches the problem.
    fn run(
        &self,
        problem: &CsrIsing,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
        initial: Option<&[i8]>,
        rng: &mut Rng64,
    ) -> Vec<i8>;

    /// Runs one read per generator in `rngs` on the same problem and
    /// returns the readouts in `rngs` order.
    ///
    /// Every read consumes only its own generator, in the order
    /// [`AnnealEngine::run`] would, so each readout and each trailing
    /// generator state equals a lone `run` on that generator. The reads
    /// run one after another; [`crate::pimc::PimcEngine`] builds one sweep
    /// plan and one scratch for them all (the sampler keeps the plan across
    /// submissions).
    ///
    /// # Panics
    /// As [`AnnealEngine::run`].
    fn run_reads(
        &self,
        problem: &CsrIsing,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
        initial: Option<&[i8]>,
        rngs: &mut [Rng64],
    ) -> Vec<Vec<i8>> {
        rngs.iter_mut()
            .map(|rng| self.run(problem, profile, schedule, params, initial, rng))
            .collect()
    }
}

/// Validates and resolves the initial state for a schedule.
///
/// # Panics
/// See [`AnnealEngine::run`].
pub(crate) fn resolve_initial<'a>(
    schedule: &AnnealSchedule,
    n: usize,
    initial: Option<&'a [i8]>,
) -> Option<&'a [i8]> {
    if schedule.requires_initial_state() {
        let init = initial
            .expect("reverse annealing schedule requires a programmed initial state (paper §4.1)");
        assert_eq!(init.len(), n, "initial state length mismatch");
        debug_assert!(init.iter().all(|&s| s == 1 || s == -1));
        Some(init)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_local_fields_match_sparse() {
        // The engines sweep over the shared CSR representation; its fields
        // must agree with the adjacency-list model they are built from.
        let mut rng = Rng64::new(3);
        let q = hqw_oracle::generator::random_qubo(12, &mut rng);
        let (ising, _) = hqw_oracle::model::to_ising(&q);
        let csr = hqw_oracle::csr::from_ising(&ising);
        let spins: Vec<i8> = (0..12)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect();
        for i in 0..12 {
            assert!((csr.local_field(&spins, i) - ising.local_field(&spins, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn total_sweeps_scales_with_duration() {
        let p = AnnealParams {
            sweeps_per_us: 10,
            ..Default::default()
        };
        let s = AnnealSchedule::forward(2.5).unwrap();
        assert_eq!(p.total_sweeps(&s), 25);
        let tiny = AnnealSchedule::forward(0.001).unwrap();
        assert_eq!(p.total_sweeps(&tiny), 1, "at least one sweep");
    }

    #[test]
    fn beta_override_takes_precedence() {
        let profile = DWaveProfile::default();
        let default = AnnealParams::default();
        assert!((default.beta(&profile) - profile.beta()).abs() < 1e-12);
        let custom = AnnealParams {
            beta_override: Some(7.0),
            ..Default::default()
        };
        assert_eq!(custom.beta(&profile), 7.0);
    }

    #[test]
    #[should_panic(expected = "requires a programmed initial state")]
    fn reverse_without_initial_panics() {
        let s = AnnealSchedule::reverse(0.5, 1.0).unwrap();
        resolve_initial(&s, 4, None);
    }

    #[test]
    fn an_open_gate_skips_nothing_and_draws_nothing() {
        let gaps = GateGaps::new(1.0);
        assert!(matches!(gaps, GateGaps::Every));
        let mut rng = Rng64::new(9);
        let mut untouched = rng.clone();
        for left in [0, 1, 100, usize::MAX] {
            assert_eq!(gaps.gap(&mut rng, left), 0);
        }
        assert_eq!(rng.next_u64(), untouched.next_u64(), "a draw was made");
    }

    /// The χ² quantile at 1 − 10⁻³ (Wilson–Hilferty).
    fn chi2_critical(dof: usize) -> f64 {
        let c = 2.0 / (9.0 * dof as f64);
        dof as f64 * (1.0 - c + 3.090_232 * c.sqrt()).powi(3)
    }

    #[test]
    fn gaps_match_the_geometric_pmf() {
        const SAMPLES: usize = 20_000;
        const BINS: usize = 16;
        let mut rng = Rng64::new(0x6E0);
        for g in [0.9, 0.5, 0.125, 0.053, 1e-3f64] {
            let q = 1.0 - g;
            // Bins [edge_j, edge_{j+1}) of near-equal Geometric(g) mass;
            // the last one is the tail.
            let mut edges: Vec<u32> = (0..BINS)
                .map(|j| ((1.0 - j as f64 / BINS as f64).ln() / q.ln()).ceil() as u32)
                .collect();
            edges.dedup();
            let tail = |k: u32| q.powi(k as i32);
            let expected: Vec<f64> = (0..edges.len())
                .map(|j| {
                    let next = edges.get(j + 1).map_or(0.0, |&e| tail(e));
                    SAMPLES as f64 * (tail(edges[j]) - next)
                })
                .collect();
            assert!(expected.iter().all(|&e| e >= 5.0), "g={g}: sparse bin");
            let gaps = GateGaps::new(g);
            let mut counts = vec![0u64; edges.len()];
            for _ in 0..SAMPLES {
                let gap = gaps.gap(&mut rng, usize::MAX);
                counts[edges.partition_point(|&e| e as usize <= gap) - 1] += 1;
            }
            let chi2: f64 = counts
                .iter()
                .zip(&expected)
                .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
                .sum();
            let critical = chi2_critical(edges.len() - 1);
            assert!(chi2 < critical, "g={g}: chi2 {chi2:.1} >= {critical:.1}");
        }
    }

    #[test]
    fn gaps_are_capped_at_the_moves_left() {
        // At g = 2⁻⁵³ and sub-normal g the inverted quotient exceeds any
        // move count (or is +∞); the cap keeps `pos + gap` in range, which
        // the overflow-checked profiles verify.
        let mut rng = Rng64::new(12);
        for g in [2f64.powi(-53), f64::MIN_POSITIVE, 1e-310, f64::from_bits(1)] {
            let gaps = GateGaps::new(g);
            for left in [0, 1, 17, usize::MAX] {
                let pos = usize::MAX - left;
                let gap = gaps.gap(&mut rng, left);
                assert!(gap <= left, "g={g}: gap {gap} past {left} moves");
                let end = pos + gap;
                if left <= 17 {
                    assert_eq!(end, usize::MAX, "g={g}: one of {left} moves passed");
                }
            }
            let mut visits = 0u32;
            gaps.walk(&mut rng, usize::MAX, |_, _| visits += 1);
            assert!(visits < 10_000, "g={g}: {visits} passing moves");
        }
    }

    #[test]
    fn forward_ignores_initial() {
        let s = AnnealSchedule::forward(1.0).unwrap();
        assert!(resolve_initial(&s, 4, Some(&[1, 1, -1, 1])).is_none());
    }
}
