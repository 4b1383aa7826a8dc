//! Property-based tests for the hybrid-solver framework.

use hqw_core::metrics::{delta_e_percent, time_to_solution};
use hqw_core::protocol::Protocol;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tts_is_monotone_decreasing_in_p_star(
        duration in 0.1f64..100.0,
        p1 in 0.001f64..0.999,
        p2 in 0.001f64..0.999,
        confidence in 1.0f64..99.9,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let tts_lo = time_to_solution(duration, lo, confidence);
        let tts_hi = time_to_solution(duration, hi, confidence);
        prop_assert!(tts_hi <= tts_lo + 1e-9);
        // TTS is at least one read and scales linearly with duration.
        prop_assert!(tts_hi >= duration - 1e-9);
        let tts_2x = time_to_solution(2.0 * duration, hi, confidence);
        prop_assert!((tts_2x - 2.0 * tts_hi).abs() < 1e-6 * (1.0 + tts_2x.abs()));
    }

    #[test]
    fn delta_e_is_zero_iff_at_ground(e_g in -1e4f64..-1e-3, gap in 0.0f64..1e3) {
        let de = delta_e_percent(e_g + gap, e_g);
        prop_assert!(de >= -1e-9);
        if gap == 0.0 {
            prop_assert!(de.abs() < 1e-9);
        } else {
            prop_assert!((de - 100.0 * gap / e_g.abs()).abs() < 1e-6);
        }
    }

    #[test]
    fn protocol_schedules_honor_duration_identities(
        s_p in 0.01f64..0.99, t_p in 0.0f64..3.0
    ) {
        let ra = Protocol::Reverse { s_p, t_p };
        let sched = ra.schedule().unwrap();
        prop_assert!((sched.duration_us() - (2.0 * (1.0 - s_p) + t_p)).abs() < 1e-9);
        prop_assert!(ra.requires_initial_state());
        prop_assert_eq!(sched.requires_initial_state(), ra.requires_initial_state());

        let fa = Protocol::paper_fa(s_p);
        let fs = fa.schedule().unwrap();
        prop_assert!((fs.duration_us() - (1.0 + s_p + 1.0)).abs() < 1e-9);
        prop_assert!(!fs.requires_initial_state());
    }

    #[test]
    fn sp_grid_protocols_always_compile(thin in 1usize..6) {
        let grid: Vec<f64> = hqw_core::protocol::paper_sp_grid()
            .into_iter()
            .step_by(thin)
            .collect();
        for &sp in &grid {
            prop_assert!(Protocol::paper_ra(sp).schedule().is_ok());
            prop_assert!(Protocol::paper_fa(sp).schedule().is_ok());
        }
    }
}
