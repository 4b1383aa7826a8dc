//! The canned paper-figure experiment runners — one function per
//! registered figure, reached through [`crate::registry`] by
//! `hqw run <name>`.
//!
//! These are the fixed-shape experiments ([`hqw_core::spec::CannedKind`]):
//! their whole configuration is a [`hqw_core::experiments::Scale`] plus a
//! seed, so they appear in spec JSON as `{"scale": {...}, "seed": N}`
//! rather than a full grid description.

use crate::cli::Options;
use hqw_core::experiments as exp;
use hqw_core::protocol::Protocol;
use hqw_core::report::{fnum, Table};
use hqw_phy::modulation::Modulation;

/// Figure 3: the QUBO-simplification (Lewis–Glover preprocessing) sweep.
pub fn run_fig3(opts: &Options) {
    opts.banner(
        "Figure 3",
        "QUBO-simplification preprocessing across problem sizes and modulations",
    );
    let instances = opts.scale.instances.max(10) * 5; // cheap: use many instances
    let rows = exp::run_fig3(instances, opts.seed);

    let mut table = Table::new(&["modulation", "n_vars", "simplified_ratio", "avg_fixed_vars"]);
    for r in &rows {
        table.push_row(vec![
            r.modulation.name().to_string(),
            r.n_vars.to_string(),
            fnum(r.simplified_ratio, 3),
            fnum(r.avg_fixed, 2),
        ]);
    }
    println!("{}", table.render());
    println!("({} instances per point)", instances);

    let largest_simplified = rows
        .iter()
        .filter(|r| r.simplified_ratio > 0.0)
        .map(|r| r.n_vars)
        .max();
    match largest_simplified {
        Some(n) => println!(
            "Largest problem size with any simplification: {n} variables \
             (paper: no effect beyond 32–40)."
        ),
        None => println!("No instance simplified at any size."),
    }

    let path = opts.csv_path("fig3.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// §3.1 / Figure 4: soft-information constraint injection under ICE noise.
pub fn run_fig4_softinfo(opts: &Options) {
    opts.banner(
        "Figure 4 / §3.1",
        "correct pair-constraints vs strength, noiseless and under ICE noise",
    );
    let rows = exp::run_fig4_softinfo(opts.scale, opts.seed);

    let mut table = Table::new(&["strength", "ice", "p_star(truth)", "optimum_preserved"]);
    for r in &rows {
        table.push_row(vec![
            fnum(r.strength, 2),
            r.ice.to_string(),
            fnum(r.p_star, 4),
            r.optimum_preserved.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Fragility summary: the best noiseless strength vs its ICE performance.
    let best_clean = rows
        .iter()
        .filter(|r| !r.ice)
        .max_by(|a, b| a.p_star.partial_cmp(&b.p_star).unwrap());
    if let Some(clean) = best_clean {
        let same_under_ice = rows
            .iter()
            .find(|r| r.ice && (r.strength - clean.strength).abs() < 1e-9);
        if let Some(noisy) = same_under_ice {
            println!(
                "Best noiseless strength {}: p★ {} clean vs {} under ICE — {}",
                fnum(clean.strength, 2),
                fnum(clean.p_star, 3),
                fnum(noisy.p_star, 3),
                if noisy.p_star < clean.p_star {
                    "analog noise erodes the tuned setting (paper's finding)"
                } else {
                    "robust here"
                }
            );
        }
    }

    let path = opts.csv_path("fig4_softinfo.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Figure 5: the three anneal-schedule shapes (FA, RA, FR).
pub fn run_fig5_schedules(opts: &Options) {
    opts.banner(
        "Figure 5",
        "FA / RA / FR anneal schedule shapes (s_p = 0.41, c_p = 0.65)",
    );

    let protocols = [
        Protocol::paper_fa(0.41),
        Protocol::paper_ra(0.41),
        Protocol::paper_fr(0.65, 0.41),
    ];

    let mut table = Table::new(&["protocol", "waypoints [t µs, s]", "duration µs"]);
    for p in &protocols {
        let schedule = p.schedule().expect("valid paper parameters");
        let pts = schedule
            .points()
            .iter()
            .map(|(t, s)| format!("[{},{}]", fnum(*t, 2), fnum(*s, 2)))
            .collect::<Vec<_>>()
            .join(" → ");
        table.push_row(vec![
            p.name().to_string(),
            pts,
            fnum(schedule.duration_us(), 2),
        ]);
    }
    println!("{}", table.render());

    // ASCII rendering: 10 rows of s from 1.0 down to 0.0.
    for p in &protocols {
        let schedule = p.schedule().expect("valid");
        let duration = schedule.duration_us();
        println!("{} (s vs t):", p.name());
        for level in (0..=10).rev() {
            let s_level = level as f64 / 10.0;
            let mut line = String::new();
            for col in 0..60 {
                let t = duration * col as f64 / 59.0;
                let s = schedule.s_at(t);
                line.push(if (s - s_level).abs() < 0.05 { '*' } else { ' ' });
            }
            println!("  {:>4} |{line}", fnum(s_level, 1));
        }
        println!("        0 µs{:>52}", format!("{} µs", fnum(duration, 2)));
        println!();
    }

    let path = opts.csv_path("fig5_schedules.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Figure 6: ΔE% sample distributions for FA, RA-random and RA-GS.
pub fn run_fig6(opts: &Options) {
    opts.banner(
        "Figure 6",
        "ΔE% distribution of anneal samples, 36-variable problems, per modulation",
    );
    let rows = exp::run_fig6(opts.scale, opts.seed);

    let mut table = Table::new(&[
        "modulation",
        "arm",
        "s_p",
        "P10",
        "P25",
        "P50",
        "P75",
        "P90",
        "mean_dE%",
        "ground_frac",
    ]);
    let pick = |r: &exp::Fig6Row, p: f64| -> f64 {
        r.percentiles
            .iter()
            .find(|(pp, _)| (*pp - p).abs() < 1e-9)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };
    for r in &rows {
        table.push_row(vec![
            r.modulation.name().to_string(),
            r.arm.to_string(),
            fnum(r.s_p, 2),
            fnum(pick(r, 10.0), 2),
            fnum(pick(r, 25.0), 2),
            fnum(pick(r, 50.0), 2),
            fnum(pick(r, 75.0), 2),
            fnum(pick(r, 90.0), 2),
            fnum(r.mean_delta_e, 2),
            fnum(r.ground_fraction, 4),
        ]);
    }
    println!("{}", table.render());

    // The paper's qualitative ordering, checked per modulation.
    for m in Modulation::ALL {
        let get = |arm: &str| {
            rows.iter()
                .find(|r| r.modulation == m && r.arm == arm)
                .map(|r| r.mean_delta_e)
        };
        if let (Some(fa), Some(ra_rand), Some(ra_gs)) = (get("FA"), get("RA-random"), get("RA-GS"))
        {
            let ordering_holds = ra_gs <= fa && fa <= ra_rand + 1e-9;
            println!(
                "{}: mean ΔE%  RA-GS {} ≤ FA {} ≤ RA-random {}  → paper ordering {}",
                m.name(),
                fnum(ra_gs, 2),
                fnum(fa, 2),
                fnum(ra_rand, 2),
                if ordering_holds { "HOLDS" } else { "differs" }
            );
        }
    }

    let path = opts.csv_path("fig6.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Figure 7: RA success probability and expected cost vs ΔE_IS%.
pub fn run_fig7(opts: &Options) {
    opts.banner(
        "Figure 7",
        "RA success probability & E[cost] vs initial-state quality ΔE_IS% (8-user 16-QAM)",
    );
    let (s_p, rows) = exp::run_fig7(opts.scale, opts.seed);
    println!("RA switch/pause location s_p = {}", fnum(s_p, 2));
    println!();

    let mut table = Table::new(&["dEis_bin_center_%", "n_states", "p_star", "E[cost]_dE%"]);
    for r in &rows {
        table.push_row(vec![
            fnum(r.bin_center, 1),
            r.n_states.to_string(),
            fnum(r.p_star, 4),
            fnum(r.mean_cost_delta_e, 2),
        ]);
    }
    println!("{}", table.render());

    // Trend check: success probability should broadly decrease with ΔE_IS%.
    if rows.len() >= 3 {
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        println!(
            "Trend: p★ {} at ΔE_IS={}% vs {} at ΔE_IS={}% → {}",
            fnum(first.p_star, 3),
            fnum(first.bin_center, 1),
            fnum(last.p_star, 3),
            fnum(last.bin_center, 1),
            if first.p_star >= last.p_star {
                "decreasing (matches paper)"
            } else {
                "NOT decreasing"
            }
        );
    }

    let path = opts.csv_path("fig7.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Figure 8: p★ and TTS(99%) vs `s_p` for FA / RA / FR (oracle `c_p`).
pub fn run_fig8(opts: &Options) {
    opts.banner(
        "Figure 8",
        "p★ and TTS(99%) vs s_p for FA / RA(initial states) / FR(oracle c_p)",
    );
    let series = exp::run_fig8(opts.scale, opts.seed);

    let mut table = Table::new(&["series", "s_p", "p_star", "duration_us", "TTS99_us"]);
    for s in &series {
        for p in &s.points {
            table.push_row(vec![
                s.label.clone(),
                fnum(p.param, 2),
                fnum(p.p_star, 4),
                fnum(p.duration_us, 2),
                fnum(p.tts_us, 1),
            ]);
        }
    }
    println!("{}", table.render());

    // Headline shape summary per series.
    println!("Per-series best points:");
    for s in &series {
        let best = s
            .points
            .iter()
            .max_by(|a, b| a.p_star.partial_cmp(&b.p_star).unwrap());
        let band: Vec<f64> = s
            .points
            .iter()
            .filter(|p| p.p_star > 0.0)
            .map(|p| p.param)
            .collect();
        match best {
            Some(b) if b.p_star > 0.0 => println!(
                "  {:<16} best p★={} at s_p={}, TTS={} µs, success band s_p ∈ [{}, {}] ({} pts)",
                s.label,
                fnum(b.p_star, 3),
                fnum(b.param, 2),
                fnum(b.tts_us, 1),
                fnum(band.iter().cloned().fold(f64::INFINITY, f64::min), 2),
                fnum(band.iter().cloned().fold(f64::NEG_INFINITY, f64::max), 2),
                band.len(),
            ),
            _ => println!("  {:<16} never found the ground state", s.label),
        }
    }

    let path = opts.csv_path("fig8.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// The headline claim: best-parameter RA+GS vs best-parameter FA.
pub fn run_headline(opts: &Options) {
    opts.banner(
        "Headline",
        "best-parameter RA+GS vs best-parameter FA over 8-user 16-QAM instances",
    );
    let rows = exp::run_headline(opts.scale, opts.seed);

    let mut table = Table::new(&[
        "instance",
        "GS_dEis%",
        "FA_best_p*",
        "FA_TTS_us",
        "RA_best_p*",
        "RA_TTS_us",
        "p*_ratio",
    ]);
    let mut ratios = Vec::new();
    let mut ra_only = 0usize;
    let mut fa_only = 0usize;
    let mut neither = 0usize;
    for r in &rows {
        let (fa_p, fa_tts) = r
            .fa_best
            .map(|p| (p.p_star, p.tts_us))
            .unwrap_or((0.0, f64::INFINITY));
        let (ra_p, ra_tts) = r
            .ra_best
            .map(|p| (p.p_star, p.tts_us))
            .unwrap_or((0.0, f64::INFINITY));
        let ratio = r.p_ratio();
        if let Some(x) = ratio {
            ratios.push(x);
        } else if ra_p > 0.0 {
            ra_only += 1;
        } else if fa_p > 0.0 {
            fa_only += 1;
        } else {
            neither += 1;
        }
        table.push_row(vec![
            r.instance.to_string(),
            fnum(r.gs_delta_e_is, 2),
            fnum(fa_p, 4),
            fnum(fa_tts, 1),
            fnum(ra_p, 4),
            fnum(ra_tts, 1),
            ratio.map(|x| fnum(x, 1)).unwrap_or_else(|| {
                if ra_p > 0.0 {
                    "RA-only".into()
                } else if fa_p > 0.0 {
                    "FA-only".into()
                } else {
                    "-".into()
                }
            }),
        ]);
    }
    println!("{}", table.render());

    if !ratios.is_empty() {
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "p★ ratio RA/FA over {} comparable instances: min {} / median {} / max {}",
            ratios.len(),
            fnum(ratios[0], 1),
            fnum(ratios[ratios.len() / 2], 1),
            fnum(*ratios.last().unwrap(), 1),
        );
    }
    println!(
        "RA succeeded where FA failed on {ra_only} instance(s); FA-only: {fa_only}; neither: {neither}."
    );
    println!("(Paper: ~2–10× better success probability than published FA results.)");

    let path = opts.csv_path("headline.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}
