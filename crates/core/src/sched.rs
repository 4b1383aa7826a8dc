//! The adaptive scheduling plane: learned service-cost predictors, frame
//! priority classes, and the configuration the fabric scheduler consumes.
//!
//! The fabric's admission control (`fabric::FabricScheduler`) budgets
//! against a static [`CostModel`]. Real backends mispredict it — RTT
//! jitter, batching amortization, embedding-cache state — so ROADMAP item 4
//! calls for routing that *learns*: this module provides the
//! [`ServicePredictor`] trait with an EWMA estimator that refines
//! per-(backend, problem-shape) service predictions online from observed
//! batch completions.
//!
//! Everything here is deterministic by construction so the virtual↔realtime
//! replay contract survives:
//!
//! * predictor state is **fixed-point** (Q16.16 correction ratios updated
//!   with integer shifts and counts) — no accumulation-order-dependent
//!   float drift;
//! * a correction of exactly [`Q16_ONE`] applies as a no-op (the quoted µs
//!   are returned bit-identically), so a perfectly-calibrated workload
//!   routes byte-identically to the static scheduler;
//! * priority-class assignment is a pure seeded function of
//!   `(seed, cell, frame)` — and draws **no** randomness at all for the
//!   default single-class mix.
//!
//! Priority classes mirror wireless service tiers: [`PriorityClass::Urllc`]
//! (tight deadline, may preempt), [`PriorityClass::Embb`] (the default
//! best-effort tier) and [`PriorityClass::Bulk`] (relaxed deadline,
//! first to be evicted).

use crate::spec::codec::{named, record, Us};
use crate::stream::CostModel;
use crate::telemetry::LogHistogram;
use hqw_math::Rng64;

/// Fixed-point one: corrections are Q16.16 ratios of observed over
/// predicted service time, so `65536` means "the static model is exact".
pub const Q16_ONE: i64 = 1 << 16;

/// Lower clamp for learned corrections (ratio 1/64): a backend can never
/// look more than 64× faster than its static quote.
const Q16_MIN: i64 = Q16_ONE / 64;

/// Upper clamp for learned corrections (ratio 64).
const Q16_MAX: i64 = Q16_ONE * 64;

/// Applies a Q16.16 correction ratio to a quoted µs figure.
///
/// A correction of exactly [`Q16_ONE`] is a bitwise no-op — the float is
/// returned untouched, which is what keeps a calibrated adaptive run
/// byte-identical to the static scheduler.
pub fn corrected_us(us: f64, q16: i64) -> f64 {
    if q16 == Q16_ONE {
        us
    } else {
        us * (q16 as f64 / Q16_ONE as f64)
    }
}

fn clamp_q16(v: i64) -> i64 {
    v.clamp(Q16_MIN, Q16_MAX)
}

/// Observed/predicted ratio as a clamped Q16.16 integer.
fn ratio_q16(predicted_us: f64, observed_us: f64) -> i64 {
    // NaN-safe: a NaN prediction fails the `> 0.0` test and falls through
    // to the identity correction.
    if !(predicted_us > 0.0 && observed_us.is_finite()) {
        return Q16_ONE;
    }
    clamp_q16(((observed_us / predicted_us) * Q16_ONE as f64).round() as i64)
}

// ---------------------------------------------------------------------------
// Priority classes
// ---------------------------------------------------------------------------

/// Wireless service tier of a frame, ordered by urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PriorityClass {
    /// Ultra-reliable low-latency: half the nominal deadline, may preempt
    /// queued lower-class jobs.
    Urllc,
    /// Enhanced mobile broadband: the nominal deadline (the default tier —
    /// a fabric with classes disabled behaves as all-eMBB).
    #[default]
    Embb,
    /// Background bulk transfer: double the nominal deadline, evicted
    /// first.
    Bulk,
}

impl PriorityClass {
    /// All classes, most-urgent first (report ordering).
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Urllc,
        PriorityClass::Embb,
        PriorityClass::Bulk,
    ];

    /// Canonical lower-case name, as used by the spec codec and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PriorityClass::Urllc => "urllc",
            PriorityClass::Embb => "embb",
            PriorityClass::Bulk => "bulk",
        }
    }

    /// Parses a [`PriorityClass::name`] back (`None` for unknown names).
    pub fn from_name(name: &str) -> Option<Self> {
        PriorityClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Preemption rank: higher preempts lower, equal never preempts equal.
    pub fn rank(&self) -> u8 {
        match self {
            PriorityClass::Urllc => 2,
            PriorityClass::Embb => 1,
            PriorityClass::Bulk => 0,
        }
    }

    /// Multiplier on the fabric's nominal deadline for this tier. Exactly
    /// `1.0` for [`PriorityClass::Embb`], so single-class runs keep their
    /// historical deadlines bit-for-bit.
    pub fn deadline_factor(&self) -> f64 {
        match self {
            PriorityClass::Urllc => 0.5,
            PriorityClass::Embb => 1.0,
            PriorityClass::Bulk => 2.0,
        }
    }
}

/// Integer weights of the three service tiers in the offered traffic.
///
/// The default mix is pure eMBB — `is_default()` mixes draw **no**
/// randomness and assign every frame [`PriorityClass::Embb`], keeping the
/// job stream of a classless fabric byte-identical to the pre-class
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMix {
    /// URLLC weight.
    pub urllc: u32,
    /// eMBB weight.
    pub embb: u32,
    /// Bulk weight.
    pub bulk: u32,
}

impl Default for ClassMix {
    fn default() -> Self {
        ClassMix {
            urllc: 0,
            embb: 1,
            bulk: 0,
        }
    }
}

/// Domain-separation constant for the class-assignment RNG stream.
const CLASS_SEED: u64 = 0xC1A5_5EED;

impl ClassMix {
    /// True for the pure-eMBB default (classes effectively disabled).
    pub fn is_default(&self) -> bool {
        *self == ClassMix::default()
    }

    /// Validates the mix: at least one weight must be positive.
    ///
    /// # Errors
    /// Returns a message when all weights are zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.urllc == 0 && self.embb == 0 && self.bulk == 0 {
            return Err("ClassMix: all weights are zero".to_string());
        }
        Ok(())
    }

    /// Deterministically assigns a class to frame `frame` of cell `cell`.
    ///
    /// A pure function of `(seed, cell, frame)` — independent of routing,
    /// batching and thread count. The default mix short-circuits to
    /// [`PriorityClass::Embb`] without constructing an RNG.
    pub fn assign(&self, seed: u64, cell: usize, frame: usize) -> PriorityClass {
        if self.is_default() {
            return PriorityClass::Embb;
        }
        let stream =
            crate::solver::item_seed(crate::solver::item_seed(seed ^ CLASS_SEED, cell), frame);
        let total = (self.urllc + self.embb + self.bulk) as u64;
        let draw = Rng64::new(stream).next_below(total);
        if draw < self.urllc as u64 {
            PriorityClass::Urllc
        } else if draw < (self.urllc + self.embb) as u64 {
            PriorityClass::Embb
        } else {
            PriorityClass::Bulk
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling policy + options
// ---------------------------------------------------------------------------

/// Which service predictor the fabric scheduler budgets with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Trust the static [`CostModel`] quotes unchanged (the historical
    /// scheduler).
    #[default]
    Static,
    /// Exponentially-weighted moving average of the observed/predicted
    /// ratio per (backend, problem shape): `s += (obs − s) >> shift`.
    Ewma {
        /// Smoothing shift: 0 replaces outright, larger values average
        /// over `~2^shift` observations.
        shift: u32,
    },
}

impl SchedPolicy {
    /// Canonical lower-case name (`"static"` / `"ewma"`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Static => "static",
            SchedPolicy::Ewma { .. } => "ewma",
        }
    }

    /// Validates policy parameters.
    ///
    /// # Errors
    /// Returns a message for an EWMA shift above 16.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SchedPolicy::Static => Ok(()),
            SchedPolicy::Ewma { shift } => {
                if *shift > 16 {
                    Err("SchedPolicy: ewma shift must be <= 16".to_string())
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Builds the predictor implementing this policy.
    pub fn predictor(&self) -> Box<dyn ServicePredictor> {
        match self {
            SchedPolicy::Static => Box::new(StaticPredictor),
            SchedPolicy::Ewma { shift } => Box::new(EwmaPredictor::new(*shift)),
        }
    }
}

/// The adaptive-scheduling knobs of a fabric run. The default — static
/// policy, no assumed cost model, pure-eMBB mix — reproduces the
/// historical scheduler byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedOptions {
    /// Service-prediction policy.
    pub policy: SchedPolicy,
    /// When set, admission quotes are computed from **this** model while
    /// charging stays on the true [`CostModel`] — the controlled
    /// miscalibration the adaptive-vs-static comparison is run under.
    pub assumed_cost: Option<CostModel>,
    /// Offered traffic mix over the service tiers.
    pub classes: ClassMix,
}

impl SchedOptions {
    /// True when every knob is at its default (the historical scheduler).
    pub fn is_default(&self) -> bool {
        *self == SchedOptions::default()
    }

    /// Validates all knobs.
    ///
    /// # Errors
    /// Returns the first policy, assumed-cost or class-mix violation.
    pub fn validate(&self) -> Result<(), String> {
        self.policy.validate()?;
        if let Some(c) = &self.assumed_cost {
            if !(c.base_us >= 0.0
                && c.base_us.is_finite()
                && c.us_per_node >= 0.0
                && c.us_per_node.is_finite()
                && c.us_per_sweep >= 0.0
                && c.us_per_sweep.is_finite())
            {
                return Err("SchedOptions: assumed_cost fields must be finite and >= 0".to_string());
            }
        }
        self.classes.validate()
    }
}

// ---------------------------------------------------------------------------
// Service predictors
// ---------------------------------------------------------------------------

/// An online estimator of per-(backend, problem-shape) service-time
/// corrections.
///
/// The scheduler quotes `corrected_us(static_quote, correction_q16(b, n))`
/// at admission and feeds every completed batch back through
/// [`ServicePredictor::observe`]. Implementations must be deterministic:
/// fixed-point state, no wall clocks, no unseeded randomness.
pub trait ServicePredictor: std::fmt::Debug + Send {
    /// Current Q16.16 correction ratio for backend `backend` solving
    /// problems of `n_logical` variables ([`Q16_ONE`] = trust the static
    /// quote).
    fn correction_q16(&self, backend: usize, n_logical: usize) -> i64;

    /// Feeds back one completed batch: the static quote for it and the µs
    /// actually charged.
    fn observe(&mut self, backend: usize, n_logical: usize, predicted_us: f64, observed_us: f64);

    /// Mean absolute prediction error (µs) over everything observed, using
    /// the correction that was in force *before* each observation updated
    /// the state. 0.0 before any observation (and always, for the static
    /// predictor).
    fn mae_us(&self) -> f64;

    /// Total observations fed back.
    fn observations(&self) -> u64;
}

/// Running |observed − corrected-prediction| accumulator shared by the
/// learning predictors.
#[derive(Debug, Default, Clone, Copy)]
struct MaeState {
    sum_err_us: f64,
    count: u64,
}

impl MaeState {
    fn record(&mut self, corrected_pred_us: f64, observed_us: f64) {
        self.sum_err_us += (observed_us - corrected_pred_us).abs();
        self.count += 1;
    }

    fn mae_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_err_us / self.count as f64
        }
    }
}

/// The no-op predictor of [`SchedPolicy::Static`]: every correction is
/// exactly [`Q16_ONE`] and observations are discarded.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticPredictor;

impl ServicePredictor for StaticPredictor {
    fn correction_q16(&self, _backend: usize, _n_logical: usize) -> i64 {
        Q16_ONE
    }

    fn observe(
        &mut self,
        _backend: usize,
        _n_logical: usize,
        _predicted_us: f64,
        _observed_us: f64,
    ) {
    }

    fn mae_us(&self) -> f64 {
        0.0
    }

    fn observations(&self) -> u64 {
        0
    }
}

/// Per-(backend, shape) EWMA of the observed/predicted ratio in Q16.16.
///
/// The first observation of a key replaces the prior outright; later ones
/// move by `(obs − s) >> shift` (arithmetic shift, so convergence is
/// monotone from either side). All state is integer — bit-identical
/// regardless of observation timing granularity.
#[derive(Debug)]
pub struct EwmaPredictor {
    shift: u32,
    state: std::collections::BTreeMap<(usize, usize), i64>,
    mae: MaeState,
}

impl EwmaPredictor {
    /// Creates an EWMA predictor with the given smoothing shift.
    pub fn new(shift: u32) -> Self {
        EwmaPredictor {
            shift,
            state: std::collections::BTreeMap::new(),
            mae: MaeState::default(),
        }
    }
}

impl ServicePredictor for EwmaPredictor {
    fn correction_q16(&self, backend: usize, n_logical: usize) -> i64 {
        *self.state.get(&(backend, n_logical)).unwrap_or(&Q16_ONE)
    }

    fn observe(&mut self, backend: usize, n_logical: usize, predicted_us: f64, observed_us: f64) {
        let before = self.correction_q16(backend, n_logical);
        self.mae
            .record(corrected_us(predicted_us, before), observed_us);
        let obs = ratio_q16(predicted_us, observed_us);
        let entry = self.state.entry((backend, n_logical));
        match entry {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(obs);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let s = *o.get();
                *o.get_mut() = clamp_q16(s + ((obs - s) >> self.shift));
            }
        }
    }

    fn mae_us(&self) -> f64 {
        self.mae.mae_us()
    }

    fn observations(&self) -> u64 {
        self.mae.count
    }
}

// ---------------------------------------------------------------------------
// Per-class report stanza
// ---------------------------------------------------------------------------

/// Latency/miss accounting of one priority class within one fabric run.
///
/// Kept alongside the scalar summaries is the full mergeable
/// [`LogHistogram`] of latencies, so shard merges and cross-point
/// aggregation reproduce percentiles exactly instead of averaging
/// averages.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class.
    pub class: PriorityClass,
    /// Jobs assigned to this class.
    pub jobs: usize,
    /// Jobs that missed the class's effective deadline (integer, so
    /// aggregation across shards is exact).
    pub misses: usize,
    /// Mean end-to-end latency (µs).
    pub mean_latency_us: f64,
    /// Median latency from the histogram (µs).
    pub p50_latency_us: f64,
    /// 99th-percentile latency from the histogram (µs).
    pub p99_latency_us: f64,
    /// Full latency distribution (mergeable).
    pub hist: LogHistogram,
}

named!(PriorityClass, "priority class");

record!(ClassReport {
    class: PriorityClass,
    jobs: usize,
    misses: usize,
    mean_latency_us: Us,
    p50_latency_us: Us,
    p99_latency_us: Us,
    hist: LogHistogram,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::codec::Record;
    use crate::spec::json::Json;

    #[test]
    fn default_options_are_default() {
        assert!(SchedOptions::default().is_default());
        assert!(ClassMix::default().is_default());
        assert_eq!(SchedPolicy::default(), SchedPolicy::Static);
        assert!(SchedOptions::default().validate().is_ok());
    }

    #[test]
    fn default_mix_assigns_embb_everywhere() {
        let mix = ClassMix::default();
        for cell in 0..4 {
            for frame in 0..16 {
                assert_eq!(mix.assign(99, cell, frame), PriorityClass::Embb);
            }
        }
    }

    #[test]
    fn mixed_assignment_is_deterministic_and_covers_classes() {
        let mix = ClassMix {
            urllc: 1,
            embb: 2,
            bulk: 1,
        };
        let mut seen = [0usize; 3];
        for cell in 0..4 {
            for frame in 0..64 {
                let a = mix.assign(7, cell, frame);
                let b = mix.assign(7, cell, frame);
                assert_eq!(a, b);
                seen[a.rank() as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "some class never drawn: {seen:?}"
        );
    }

    #[test]
    fn assignment_depends_on_cell_and_frame_not_order() {
        let mix = ClassMix {
            urllc: 1,
            embb: 1,
            bulk: 1,
        };
        // Query order must not matter: pure function of (seed, cell, frame).
        let forward: Vec<_> = (0..32).map(|f| mix.assign(3, 1, f)).collect();
        let backward: Vec<_> = (0..32).rev().map(|f| mix.assign(3, 1, f)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn class_names_round_trip() {
        for c in PriorityClass::ALL {
            assert_eq!(PriorityClass::from_name(c.name()), Some(c));
        }
        assert_eq!(PriorityClass::from_name("gold"), None);
    }

    #[test]
    fn deadline_factors_are_ordered() {
        assert!(PriorityClass::Urllc.deadline_factor() < PriorityClass::Embb.deadline_factor());
        assert!(PriorityClass::Embb.deadline_factor() < PriorityClass::Bulk.deadline_factor());
        assert_eq!(PriorityClass::Embb.deadline_factor(), 1.0);
    }

    #[test]
    fn corrected_us_identity_is_bitwise() {
        for us in [0.0, 1.5, 123.456, 1e9, f64::MIN_POSITIVE] {
            assert_eq!(corrected_us(us, Q16_ONE).to_bits(), us.to_bits());
        }
        assert_eq!(corrected_us(100.0, Q16_ONE * 2), 200.0);
        assert_eq!(corrected_us(100.0, Q16_ONE / 2), 50.0);
    }

    #[test]
    fn ewma_learns_a_constant_ratio() {
        let mut p = EwmaPredictor::new(1);
        // Backend 0 is consistently 10x the static quote.
        for _ in 0..32 {
            p.observe(0, 16, 100.0, 1000.0);
        }
        let q = p.correction_q16(0, 16);
        assert!(
            (q - 10 * Q16_ONE).abs() <= Q16_ONE / 16,
            "EWMA did not converge: {q}"
        );
        // Unobserved keys stay at identity.
        assert_eq!(p.correction_q16(1, 16), Q16_ONE);
        assert_eq!(p.correction_q16(0, 8), Q16_ONE);
        assert!(p.mae_us() > 0.0);
        assert_eq!(p.observations(), 32);
    }

    #[test]
    fn ewma_shift_zero_replaces() {
        let mut p = EwmaPredictor::new(0);
        p.observe(0, 4, 100.0, 300.0);
        assert_eq!(p.correction_q16(0, 4), 3 * Q16_ONE);
        p.observe(0, 4, 100.0, 100.0);
        assert_eq!(p.correction_q16(0, 4), Q16_ONE);
    }

    #[test]
    fn ewma_first_observation_replaces_prior() {
        let mut p = EwmaPredictor::new(4);
        p.observe(2, 16, 100.0, 800.0);
        assert_eq!(p.correction_q16(2, 16), 8 * Q16_ONE);
    }

    #[test]
    fn corrections_are_clamped() {
        let mut p = EwmaPredictor::new(0);
        p.observe(0, 4, 1.0, 1e12);
        assert_eq!(p.correction_q16(0, 4), Q16_MAX);
        p.observe(0, 4, 1e12, 1.0);
        assert_eq!(p.correction_q16(0, 4), Q16_MIN);
    }

    #[test]
    fn static_predictor_is_inert() {
        let mut p = StaticPredictor;
        p.observe(0, 16, 100.0, 1000.0);
        assert_eq!(p.correction_q16(0, 16), Q16_ONE);
        assert_eq!(p.mae_us(), 0.0);
        assert_eq!(p.observations(), 0);
    }

    #[test]
    fn policy_names_and_validation() {
        assert_eq!(SchedPolicy::Static.name(), "static");
        assert_eq!(SchedPolicy::Ewma { shift: 2 }.name(), "ewma");
        assert!(SchedPolicy::Ewma { shift: 17 }.validate().is_err());
        assert!(ClassMix {
            urllc: 0,
            embb: 0,
            bulk: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn class_report_json_round_trips() {
        let mut hist = LogHistogram::new();
        for v in [120.0, 340.5, 980.0] {
            hist.record(v);
        }
        let r = ClassReport {
            class: PriorityClass::Urllc,
            jobs: 3,
            misses: 1,
            mean_latency_us: 480.17,
            p50_latency_us: 340.5,
            p99_latency_us: 980.0,
            hist,
        };
        let back = ClassReport::decode(&r.encode(), "class").unwrap();
        assert_eq!(back, r);
        // Unknown keys are rejected.
        let mut doc = match r.encode() {
            Json::Obj(fields) => fields,
            _ => unreachable!(),
        };
        doc.push(("extra".to_string(), Json::UInt(1)));
        assert!(ClassReport::decode(&Json::Obj(doc), "class").is_err());
    }
}
