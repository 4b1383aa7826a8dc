//! Anneal schedules: piecewise-linear `s(t)` waveforms.
//!
//! The annealing parameter `s ∈ [0, 1]` sets the inverse strength of quantum
//! fluctuations (the paper's Figure 5): at `s = 0` the annealer is a fully
//! quantum, effectively random register; at `s = 1` quantum fluctuations are
//! suppressed and the machine is a classical memory holding a result.
//!
//! A schedule is a list of `[time µs, s]` waypoints — exactly the D-Wave
//! programming interface the paper's prototype used. The three constructors
//! implement §4.1's protocols verbatim:
//!
//! * **Forward (FA):** `[0,0] →F [s_p, s_p] →P [s_p+t_p, s_p] →F [t_a+t_p, 1]`
//! * **Reverse (RA):** `[0,1] →R [1−s_p, s_p] →P [1−s_p+t_p, s_p] →F [2(1−s_p)+t_p, 1]`
//! * **Forward-Reverse (FR):** `[0,0] →F [c_p,c_p] →R [2c_p−s_p, s_p] →P
//!   [2c_p−s_p+t_p, s_p] →F [2c_p−2s_p+t_p+t_a, 1]`
//!
//! plus a plain forward ramp for baselines. RA starts at `s = 1` from a
//! *programmed classical state* — the property that enables the paper's
//! hybrid design.

/// A piecewise-linear anneal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealSchedule {
    /// `(time µs, s)` waypoints; time strictly increasing, `s ∈ [0, 1]`.
    points: Vec<(f64, f64)>,
}

/// Errors from schedule construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Fewer than two waypoints.
    TooFewPoints,
    /// A waypoint time is not strictly after its predecessor.
    NonMonotonicTime {
        /// Index of the offending waypoint.
        index: usize,
    },
    /// An `s` value is outside `[0, 1]`.
    SOutOfRange {
        /// Index of the offending waypoint.
        index: usize,
        /// The offending value.
        s: f64,
    },
    /// The first waypoint is not at `t = 0`.
    NonZeroStart,
    /// A protocol parameter is out of its valid range.
    BadParameter {
        /// Human-readable description.
        what: &'static str,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::TooFewPoints => write!(f, "schedule needs at least two waypoints"),
            ScheduleError::NonMonotonicTime { index } => {
                write!(f, "waypoint {index} does not advance time")
            }
            ScheduleError::SOutOfRange { index, s } => {
                write!(f, "waypoint {index} has s = {s} outside [0, 1]")
            }
            ScheduleError::NonZeroStart => write!(f, "schedule must start at t = 0"),
            ScheduleError::BadParameter { what } => write!(f, "bad parameter: {what}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl AnnealSchedule {
    /// Builds a schedule from raw waypoints, validating the invariants.
    ///
    /// # Errors
    /// See [`ScheduleError`].
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self, ScheduleError> {
        if points.len() < 2 {
            return Err(ScheduleError::TooFewPoints);
        }
        if points[0].0 != 0.0 {
            return Err(ScheduleError::NonZeroStart);
        }
        for (i, &(t, s)) in points.iter().enumerate() {
            if !(0.0..=1.0).contains(&s) || !s.is_finite() {
                return Err(ScheduleError::SOutOfRange { index: i, s });
            }
            if i > 0 && (t <= points[i - 1].0 || !t.is_finite()) {
                return Err(ScheduleError::NonMonotonicTime { index: i });
            }
        }
        Ok(AnnealSchedule { points })
    }

    /// Plain forward ramp `[0,0] → [t_a, 1]` (no pause) — the baseline FA
    /// the paper runs at the hardware-minimum `t_a = 1 µs`.
    ///
    /// # Errors
    /// `t_a` must be positive.
    pub fn forward(t_a: f64) -> Result<Self, ScheduleError> {
        if t_a <= 0.0 {
            return Err(ScheduleError::BadParameter {
                what: "t_a must be > 0",
            });
        }
        Self::from_points(vec![(0.0, 0.0), (t_a, 1.0)])
    }

    /// §4.1 Forward Annealing with a mid-anneal pause at `s_p` for `t_p` µs:
    /// `[0,0] → [s_p,s_p] → [s_p+t_p,s_p] → [t_a+t_p, 1]`.
    ///
    /// The pre-pause ramp runs at unit rate (`s_p` reached at `t = s_p` µs),
    /// so `t_a > s_p` is required for the post-pause ramp to move forward.
    ///
    /// # Errors
    /// `0 < s_p < 1`, `t_p ≥ 0`, `t_a > s_p`.
    pub fn forward_with_pause(s_p: f64, t_p: f64, t_a: f64) -> Result<Self, ScheduleError> {
        if !(0.0 < s_p && s_p < 1.0) {
            return Err(ScheduleError::BadParameter {
                what: "s_p must be in (0, 1)",
            });
        }
        if t_p < 0.0 {
            return Err(ScheduleError::BadParameter {
                what: "t_p must be ≥ 0",
            });
        }
        if t_a <= s_p {
            return Err(ScheduleError::BadParameter {
                what: "t_a must exceed s_p",
            });
        }
        let mut pts = vec![(0.0, 0.0), (s_p, s_p)];
        if t_p > 0.0 {
            pts.push((s_p + t_p, s_p));
        }
        pts.push((t_a + t_p, 1.0));
        Self::from_points(pts)
    }

    /// §4.1 Reverse Annealing: start at `s = 1` (a programmed classical
    /// state), anneal backward to `s_p`, pause `t_p` µs, anneal forward:
    /// `[0,1] → [1−s_p, s_p] → [1−s_p+t_p, s_p] → [2(1−s_p)+t_p, 1]`.
    ///
    /// # Errors
    /// `0 < s_p < 1`, `t_p ≥ 0`.
    pub fn reverse(s_p: f64, t_p: f64) -> Result<Self, ScheduleError> {
        if !(0.0 < s_p && s_p < 1.0) {
            return Err(ScheduleError::BadParameter {
                what: "s_p must be in (0, 1)",
            });
        }
        if t_p < 0.0 {
            return Err(ScheduleError::BadParameter {
                what: "t_p must be ≥ 0",
            });
        }
        let back = 1.0 - s_p;
        let mut pts = Vec::with_capacity(4);
        pts.extend([(0.0, 1.0), (back, s_p)]);
        if t_p > 0.0 {
            pts.push((back + t_p, s_p));
        }
        pts.push((2.0 * back + t_p, 1.0));
        Self::from_points(pts)
    }

    /// §4.1 Forward-Reverse Annealing (FR): forward to `c_p`, reverse to
    /// `s_p` *without measurement*, pause, forward:
    /// `[0,0] → [c_p,c_p] → [2c_p−s_p, s_p] → [2c_p−s_p+t_p, s_p] →
    /// [2c_p−2s_p+t_p+t_a, 1]`.
    ///
    /// # Errors
    /// `0 < s_p < c_p < 1`, `t_p ≥ 0`, `t_a > s_p`.
    pub fn forward_reverse(c_p: f64, s_p: f64, t_p: f64, t_a: f64) -> Result<Self, ScheduleError> {
        if !(0.0 < s_p && s_p < 1.0) {
            return Err(ScheduleError::BadParameter {
                what: "s_p must be in (0, 1)",
            });
        }
        if !(s_p < c_p && c_p < 1.0) {
            return Err(ScheduleError::BadParameter {
                what: "c_p must be in (s_p, 1)",
            });
        }
        if t_p < 0.0 {
            return Err(ScheduleError::BadParameter {
                what: "t_p must be ≥ 0",
            });
        }
        if t_a <= s_p {
            return Err(ScheduleError::BadParameter {
                what: "t_a must exceed s_p",
            });
        }
        let mut pts = vec![(0.0, 0.0), (c_p, c_p), (2.0 * c_p - s_p, s_p)];
        if t_p > 0.0 {
            pts.push((2.0 * c_p - s_p + t_p, s_p));
        }
        pts.push((2.0 * c_p - 2.0 * s_p + t_p + t_a, 1.0));
        Self::from_points(pts)
    }

    /// The waypoints.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The waypoints as bit patterns: two schedules with equal bits give
    /// bit-identical `s(t)`.
    pub(crate) fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.points
            .iter()
            .flat_map(|&(t, s)| [t.to_bits(), s.to_bits()])
    }

    /// Total programmed duration in µs — the quantity the paper's TTS
    /// metric charges per read ("RA total duration depends on switch and
    /// pause location s_p").
    pub fn duration_us(&self) -> f64 {
        self.points.last().expect("validated: non-empty").0
    }

    /// `s` at time `t` (linear interpolation; clamped at the ends).
    pub fn s_at(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.points[0].1;
        }
        for w in self.points.windows(2) {
            let (t0, s0) = w[0];
            let (t1, s1) = w[1];
            if t <= t1 {
                let frac = (t - t0) / (t1 - t0);
                return s0 + frac * (s1 - s0);
            }
        }
        self.points.last().expect("validated: non-empty").1
    }

    /// `s` at the start of the schedule.
    pub fn initial_s(&self) -> f64 {
        self.points[0].1
    }

    /// True when the schedule begins at `s = 1` and therefore requires a
    /// programmed initial state (reverse annealing).
    pub fn requires_initial_state(&self) -> bool {
        self.initial_s() >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fa_waypoints_match_paper_formula() {
        // t_a = 1, t_p = 1, s_p = 0.4:
        // [0,0] → [0.4,0.4] → [1.4,0.4] → [2.0,1.0]
        let s = AnnealSchedule::forward_with_pause(0.4, 1.0, 1.0).unwrap();
        assert_eq!(
            s.points(),
            &[(0.0, 0.0), (0.4, 0.4), (1.4, 0.4), (2.0, 1.0)]
        );
        assert!((s.duration_us() - 2.0).abs() < 1e-12);
        assert!(!s.requires_initial_state());
    }

    #[test]
    fn ra_waypoints_match_paper_formula() {
        // s_p = 0.4, t_p = 1: [0,1] → [0.6,0.4] → [1.6,0.4] → [2.2,1.0]
        let s = AnnealSchedule::reverse(0.4, 1.0).unwrap();
        let expected = [(0.0, 1.0), (0.6, 0.4), (1.6, 0.4), (2.2, 1.0)];
        for (a, b) in s.points().iter().zip(expected.iter()) {
            assert!((a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12);
        }
        assert!(s.requires_initial_state());
        // Duration: 2(1−s_p)+t_p.
        assert!((s.duration_us() - (2.0 * 0.6 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn ra_duration_depends_on_sp() {
        // The paper: "RA total duration depends on switch and pause location".
        let shallow = AnnealSchedule::reverse(0.9, 1.0).unwrap();
        let deep = AnnealSchedule::reverse(0.3, 1.0).unwrap();
        assert!(deep.duration_us() > shallow.duration_us());
    }

    #[test]
    fn fr_waypoints_match_paper_formula() {
        // c_p = 0.7, s_p = 0.4, t_p = 1, t_a = 1:
        // [0,0] → [0.7,0.7] → [1.0,0.4] → [2.0,0.4] → [3.0 − ... ]
        // 2c_p−2s_p+t_p+t_a = 1.4−0.8+2 = 2.6
        let s = AnnealSchedule::forward_reverse(0.7, 0.4, 1.0, 1.0).unwrap();
        let expected = [(0.0, 0.0), (0.7, 0.7), (1.0, 0.4), (2.0, 0.4), (2.6, 1.0)];
        for (a, b) in s.points().iter().zip(expected.iter()) {
            assert!(
                (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12,
                "{:?} vs {:?}",
                a,
                b
            );
        }
        assert!(!s.requires_initial_state());
        // FR starts at s = 0, so min_s is 0; the *pause* sits at s_p.
        let min_s = s
            .points()
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_s, 0.0);
        assert!((s.s_at(1.5) - 0.4).abs() < 1e-12, "pause should hold s_p");
    }

    #[test]
    fn interpolation_is_linear_within_segments() {
        let s = AnnealSchedule::forward(2.0).unwrap();
        assert!((s.s_at(0.0) - 0.0).abs() < 1e-12);
        assert!((s.s_at(1.0) - 0.5).abs() < 1e-12);
        assert!((s.s_at(2.0) - 1.0).abs() < 1e-12);
        // Clamping outside the range.
        assert!((s.s_at(-1.0) - 0.0).abs() < 1e-12);
        assert!((s.s_at(99.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pause_holds_s_constant() {
        let s = AnnealSchedule::reverse(0.4, 2.0).unwrap();
        // Pause spans t ∈ [0.6, 2.6].
        for t in [0.7, 1.0, 2.0, 2.5] {
            assert!((s.s_at(t) - 0.4).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn zero_pause_omits_the_plateau() {
        let s = AnnealSchedule::reverse(0.5, 0.0).unwrap();
        assert_eq!(s.points().len(), 3);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(AnnealSchedule::forward(0.0).is_err());
        assert!(AnnealSchedule::reverse(0.0, 1.0).is_err());
        assert!(AnnealSchedule::reverse(1.0, 1.0).is_err());
        assert!(AnnealSchedule::reverse(0.5, -1.0).is_err());
        assert!(AnnealSchedule::forward_with_pause(0.5, 1.0, 0.4).is_err()); // t_a ≤ s_p
        assert!(AnnealSchedule::forward_reverse(0.3, 0.4, 1.0, 1.0).is_err()); // c_p < s_p
        assert!(AnnealSchedule::from_points(vec![(0.0, 0.0)]).is_err());
        assert!(AnnealSchedule::from_points(vec![(0.5, 0.0), (1.0, 1.0)]).is_err());
        assert!(AnnealSchedule::from_points(vec![(0.0, 0.0), (0.0, 1.0)]).is_err());
        assert!(AnnealSchedule::from_points(vec![(0.0, 1.5), (1.0, 1.0)]).is_err());
    }

    #[test]
    fn paper_grid_is_constructible() {
        // §4.2: s_p and c_p range over 0.25–0.99 in steps of 0.04.
        let mut sp = 0.25;
        while sp <= 0.99 {
            AnnealSchedule::reverse(sp, 1.0).unwrap();
            AnnealSchedule::forward_with_pause(sp, 1.0, sp + 1.0).unwrap();
            sp += 0.04;
        }
    }
}
