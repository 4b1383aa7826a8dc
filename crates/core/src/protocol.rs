//! The three annealing protocols the paper compares (§4.1, Figure 5).
//!
//! [`Protocol`] is a declarative description that compiles to an
//! [`AnnealSchedule`]; the `paper_*` constructors bake in §4.2's settings
//! (`t_a = 1 µs` — the hardware minimum — and `t_p = 1 µs`,
//! "consistently to the guidance in the literature for best performance").

use hqw_anneal::schedule::{AnnealSchedule, ScheduleError};

/// An annealing protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Protocol {
    /// Forward annealing, optionally with a mid-anneal pause — the paper's
    /// FA baseline (fully quantum, no initial state).
    Forward {
        /// Anneal time `t_a` (µs).
        t_a: f64,
        /// Optional pause `(s_p, t_p)`.
        pause: Option<(f64, f64)>,
    },
    /// Reverse annealing from a programmed classical state — the quantum
    /// stage of the paper's hybrid prototype.
    Reverse {
        /// Switch + pause location `s_p`.
        s_p: f64,
        /// Pause time `t_p` (µs).
        t_p: f64,
    },
    /// Single-step forward-reverse annealing — the paper's newly-developed
    /// fully-quantum comparison (no measurement between phases).
    ForwardReverse {
        /// Forward turning point `c_p`.
        c_p: f64,
        /// Reverse target / pause location `s_p`.
        s_p: f64,
        /// Pause time `t_p` (µs).
        t_p: f64,
        /// Final forward anneal time `t_a` (µs).
        t_a: f64,
    },
}

impl Protocol {
    /// §4.2 FA: pause at `s_p` for 1 µs, `t_a = 1 µs` of forward motion.
    ///
    /// The paper's FA waypoints put the pre-pause ramp at unit rate, which
    /// requires `t_a > s_p`; with `t_a = 1 µs` every `s_p < 1` is valid.
    pub fn paper_fa(s_p: f64) -> Self {
        Protocol::Forward {
            t_a: 1.0 + s_p,
            pause: Some((s_p, 1.0)),
        }
    }

    /// §4.2 RA: reverse to `s_p`, pause 1 µs, anneal forward.
    pub fn paper_ra(s_p: f64) -> Self {
        Protocol::Reverse { s_p, t_p: 1.0 }
    }

    /// §4.2 FR: forward to `c_p`, reverse to `s_p`, pause 1 µs, `t_a = 1 µs`.
    pub fn paper_fr(c_p: f64, s_p: f64) -> Self {
        Protocol::ForwardReverse {
            c_p,
            s_p,
            t_p: 1.0,
            t_a: 1.0 + s_p,
        }
    }

    /// Protocol name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Forward { .. } => "FA",
            Protocol::Reverse { .. } => "RA",
            Protocol::ForwardReverse { .. } => "FR",
        }
    }

    /// True when the protocol needs a programmed initial state.
    pub fn requires_initial_state(&self) -> bool {
        matches!(self, Protocol::Reverse { .. })
    }

    /// Compiles to an anneal schedule.
    ///
    /// # Errors
    /// Propagates waypoint validation failures.
    pub fn schedule(&self) -> Result<AnnealSchedule, ScheduleError> {
        match *self {
            Protocol::Forward { t_a, pause: None } => AnnealSchedule::forward(t_a),
            Protocol::Forward {
                t_a,
                pause: Some((s_p, t_p)),
            } => AnnealSchedule::forward_with_pause(s_p, t_p, t_a),
            Protocol::Reverse { s_p, t_p } => AnnealSchedule::reverse(s_p, t_p),
            Protocol::ForwardReverse { c_p, s_p, t_p, t_a } => {
                AnnealSchedule::forward_reverse(c_p, s_p, t_p, t_a)
            }
        }
    }

    /// Programmed duration of one read (µs).
    ///
    /// # Panics
    /// Panics on invalid protocol parameters (use [`Protocol::schedule`] for
    /// fallible access).
    pub fn duration_us(&self) -> f64 {
        self.schedule()
            .expect("invalid protocol parameters")
            .duration_us()
    }
}

/// The paper's parameter grid for `s_p` and `c_p`: 0.25–0.99 in steps of
/// 0.04 (§4.2).
pub fn paper_sp_grid() -> Vec<f64> {
    let mut grid = Vec::new();
    let mut sp: f64 = 0.25;
    while sp <= 0.99 + 1e-9 {
        grid.push((sp * 100.0).round() / 100.0);
        sp += 0.04;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constructors_produce_paper_durations() {
        // RA duration = 2(1−s_p) + t_p.
        let ra = Protocol::paper_ra(0.41);
        assert!((ra.duration_us() - (2.0 * 0.59 + 1.0)).abs() < 1e-9);
        // FA duration = t_a + t_p with t_a = 1 + s_p.
        let fa = Protocol::paper_fa(0.41);
        assert!((fa.duration_us() - (1.41 + 1.0)).abs() < 1e-9);
        // FR duration = 2c_p − 2s_p + t_p + t_a.
        let fr = Protocol::paper_fr(0.7, 0.4);
        assert!((fr.duration_us() - (1.4 - 0.8 + 1.0 + 1.4)).abs() < 1e-9);
    }

    #[test]
    fn only_reverse_requires_initial_state() {
        assert!(Protocol::paper_ra(0.5).requires_initial_state());
        assert!(!Protocol::paper_fa(0.5).requires_initial_state());
        assert!(!Protocol::paper_fr(0.7, 0.5).requires_initial_state());
        assert!(!Protocol::Forward {
            t_a: 1.0,
            pause: None
        }
        .requires_initial_state());
    }

    #[test]
    fn schedules_agree_with_requires_initial_state() {
        for p in [
            Protocol::paper_fa(0.5),
            Protocol::paper_ra(0.5),
            Protocol::paper_fr(0.7, 0.5),
            Protocol::Forward {
                t_a: 1.0,
                pause: None,
            },
        ] {
            assert_eq!(
                p.schedule().unwrap().requires_initial_state(),
                p.requires_initial_state(),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn paper_grid_matches_section_4_2() {
        let grid = paper_sp_grid();
        assert_eq!(grid[0], 0.25);
        assert!((grid[1] - 0.29).abs() < 1e-12);
        assert!(*grid.last().unwrap() <= 0.99);
        assert!(grid.len() >= 18);
        // All grid points build valid RA and FA protocols.
        for &sp in &grid {
            Protocol::paper_ra(sp).schedule().unwrap();
            Protocol::paper_fa(sp).schedule().unwrap();
        }
    }

    #[test]
    fn invalid_fr_is_fallible_not_panicking() {
        let bad = Protocol::paper_fr(0.3, 0.5); // c_p < s_p
        assert!(bad.schedule().is_err());
    }
}
