//! The annealing-engine abstraction and shared hot-loop machinery.
//!
//! An [`AnnealEngine`] consumes an Ising problem, a device profile, a
//! schedule and (for reverse schedules) a programmed initial state, and
//! returns one classical readout — exactly one "anneal read" of the paper's
//! hardware ([`AnnealEngine::run_reads`] runs a submission's reads on one
//! problem together). Two engines are provided:
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
use hqw_math::Rng64;
use hqw_qubo::Ising;

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
        problem: &Ising,
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
    /// generator state equals a lone `run` on that generator. The default
    /// runs the reads one after another; [`crate::pimc::PimcEngine`]
    /// advances them in lockstep.
    ///
    /// # Panics
    /// As [`AnnealEngine::run`].
    fn run_reads(
        &self,
        problem: &Ising,
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
pub(crate) fn resolve_initial(
    schedule: &AnnealSchedule,
    n: usize,
    initial: Option<&[i8]>,
) -> Option<Vec<i8>> {
    if schedule.requires_initial_state() {
        let init = initial
            .expect("reverse annealing schedule requires a programmed initial state (paper §4.1)");
        assert_eq!(init.len(), n, "initial state length mismatch");
        debug_assert!(init.iter().all(|&s| s == 1 || s == -1));
        Some(init.to_vec())
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
        let q = hqw_qubo::generator::random_qubo(12, &mut rng);
        let (ising, _) = q.to_ising();
        let csr = hqw_qubo::CsrIsing::from_ising(&ising);
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
    fn forward_ignores_initial() {
        let s = AnnealSchedule::forward(1.0).unwrap();
        assert!(resolve_initial(&s, 4, Some(&[1, 1, -1, 1])).is_none());
    }
}
