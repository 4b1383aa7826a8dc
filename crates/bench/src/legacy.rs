//! The canned figure/ablation experiment runners — one function per
//! registered figure, reached through [`crate::registry`] by
//! `hqw run <name>`.
//!
//! These are the fixed-shape experiments ([`hqw_core::spec::CannedKind`]):
//! their whole configuration is a [`hqw_core::experiments::Scale`] plus a
//! seed, so they appear in spec JSON as `{"scale": {...}, "seed": N}`
//! rather than a full grid description.

use crate::cli::Options;
use hqw_anneal::embedding::{ChainStrength, CliqueEmbedding};
use hqw_anneal::engine::FreezeOut;
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::topology::Chimera;
use hqw_anneal::{AnnealParams, DWaveProfile};
use hqw_core::event_sim::{simulate_pipeline, uniform_stage};
use hqw_core::experiments as exp;
use hqw_core::iterative::{iterated_reverse_annealing, sample_persistence_solve};
use hqw_core::metrics::{delta_e_percent, success_probability, time_to_solution};
use hqw_core::pipeline::{run_pipelined, run_sequential};
use hqw_core::protocol::Protocol;
use hqw_core::report::{fnum, Table};
use hqw_core::solver::{HybridConfig, HybridSolver};
use hqw_core::stages::GreedyInitializer;
use hqw_math::Rng64;
use hqw_phy::instance::{DetectionInstance, InstanceConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::greedy::{GreedyConfig, GreedyOrder, GreedyVariant};
use hqw_qubo::greedy_search;
use hqw_qubo::solution::{bits_to_spins, spins_to_bits};

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

/// Ablation: Chimera minor-embedding overhead vs direct sampling.
pub fn run_ablation_embedding(opts: &Options) {
    opts.banner(
        "Ablation",
        "Chimera clique-embedding overhead vs direct sampling (3-user 16-QAM, C_3)",
    );

    let mut rng = Rng64::new(opts.seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(3, Modulation::Qam16), &mut rng);
    let eg = inst.ground_energy();
    let (logical, _off) = inst.reduction.qubo.to_ising();
    let n = logical.num_vars(); // 12

    let graph = Chimera::new(3); // K12 fits on C3
    let embedding = CliqueEmbedding::new(graph, n);
    println!(
        "Logical vars: {n}; physical qubits used: {} (chains of {}); hardware size: {}",
        embedding.qubits_used(),
        embedding.chain(0).len(),
        graph.num_qubits()
    );

    let schedule = Protocol::paper_fa(0.45).schedule().unwrap();
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: opts.scale.reads,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            auto_scale: true,
            ..Default::default()
        },
    );

    // Direct (logical) sampling.
    let direct = sampler.sample_ising(&logical, &schedule, None, opts.seed);
    let direct_p = direct
        .samples
        .iter()
        .filter(|s| inst.reduction.qubo.energy(&s.bits) <= eg + 1e-6)
        .map(|s| s.occurrences)
        .sum::<u64>() as f64
        / direct.samples.total_reads() as f64;

    let mut table = Table::new(&["path", "chain_strength", "p_star", "chain_break_frac"]);
    table.push_row(vec![
        "direct (logical)".into(),
        "-".into(),
        fnum(direct_p, 4),
        "0.000".into(),
    ]);

    // Embedded sampling at several chain strengths.
    for &factor in &[0.5, 1.0, 2.0, 4.0] {
        let physical = embedding.embed(&logical, ChainStrength::RelativeToMax(factor));
        let run = sampler.sample_ising(&physical, &schedule, None, opts.seed ^ 9);
        let mut hits = 0u64;
        let mut total = 0u64;
        let mut breaks = 0u64;
        let mut chains_seen = 0u64;
        for s in run.samples.iter() {
            let spins = bits_to_spins(&s.bits);
            let (logical_spins, broken) = embedding.unembed(&spins);
            let bits = spins_to_bits(&logical_spins);
            let e = inst.reduction.qubo.energy(&bits);
            total += s.occurrences;
            breaks += broken as u64 * s.occurrences;
            chains_seen += n as u64 * s.occurrences;
            if e <= eg + 1e-6 {
                hits += s.occurrences;
            }
        }
        table.push_row(vec![
            "embedded (Chimera C3)".into(),
            format!("{}×max", fnum(factor, 1)),
            fnum(hits as f64 / total as f64, 4),
            fnum(breaks as f64 / chains_seen as f64, 4),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Expected: weak chains break and destroy solutions; strong chains crowd out the problem \
         energy scale; embedded p★ < direct p★ at every setting (the compilation overhead the \
         paper inherits from QuAMax)."
    );

    let path = opts.csv_path("ablation_embedding.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Ablation: the annealer simulator's design choices — engine, Trotter
/// slices, cluster moves and the freeze-out gate.
pub fn run_ablation_engine(opts: &Options) {
    opts.banner(
        "Ablation",
        "engine / Trotter slices / cluster moves / freeze-out, 8-user 16-QAM",
    );

    let mut rng = Rng64::new(opts.seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
    let eg = inst.ground_energy();
    let qubo = &inst.reduction.qubo;
    let (gs_bits, _) = greedy_search(qubo, Default::default());

    let arms: Vec<(&str, EngineKind, Option<FreezeOut>)> = vec![
        (
            "PIMC P=16 (default)",
            EngineKind::Pimc { trotter_slices: 16 },
            Some(FreezeOut::default()),
        ),
        (
            "PIMC P=8",
            EngineKind::Pimc { trotter_slices: 8 },
            Some(FreezeOut::default()),
        ),
        (
            "PIMC P=32",
            EngineKind::Pimc { trotter_slices: 32 },
            Some(FreezeOut::default()),
        ),
        (
            "PIMC no freeze-out",
            EngineKind::Pimc { trotter_slices: 16 },
            None,
        ),
        ("SVMC", EngineKind::Svmc, Some(FreezeOut::default())),
    ];

    let mut table = Table::new(&[
        "configuration",
        "FA p*",
        "FA mean dE%",
        "RA-GS p*",
        "RA-GS mean dE%",
    ]);
    for (label, engine, freeze) in arms {
        let sampler = QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: opts.scale.reads,
                engine,
                params: AnnealParams {
                    freeze_out: freeze,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let fa = sampler.sample_qubo(
            qubo,
            &Protocol::paper_fa(0.45).schedule().unwrap(),
            None,
            opts.seed,
        );
        let ra = sampler.sample_qubo(
            qubo,
            &Protocol::paper_ra(0.69).schedule().unwrap(),
            Some(&gs_bits),
            opts.seed,
        );
        table.push_row(vec![
            label.to_string(),
            fnum(success_probability(&fa.samples, eg), 4),
            fnum(delta_e_percent(fa.samples.mean_energy(), eg), 2),
            fnum(success_probability(&ra.samples, eg), 4),
            fnum(delta_e_percent(ra.samples.mean_energy(), eg), 2),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Expected: without freeze-out the simulator turns SA-like (FA improves, RA memory washes \
         out); slice count shifts quantum-fluctuation strength mildly; SVMC is the semi-classical \
         reference."
    );

    let path = opts.csv_path("ablation_engine.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Ablation: Greedy Search variants (§4.1 prose ambiguity).
pub fn run_ablation_greedy(opts: &Options) {
    opts.banner(
        "Ablation",
        "Greedy Search order/variant on 8-user 16-QAM seed quality",
    );
    let instances = opts.scale.instances.max(20) * 3;
    let mut rng = Rng64::new(opts.seed);
    let config = InstanceConfig::paper(8, Modulation::Qam16);

    let arms = [
        (
            "descending/dynamic (default)",
            GreedyOrder::Descending,
            GreedyVariant::Dynamic,
        ),
        (
            "descending/static",
            GreedyOrder::Descending,
            GreedyVariant::StaticOrder,
        ),
        (
            "ascending/dynamic",
            GreedyOrder::Ascending,
            GreedyVariant::Dynamic,
        ),
        (
            "ascending/static (paper prose)",
            GreedyOrder::Ascending,
            GreedyVariant::StaticOrder,
        ),
    ];

    let mut sums = vec![(0.0f64, 0usize); arms.len()]; // (ΔE_IS sum, exact hits)
    for _ in 0..instances {
        let inst = DetectionInstance::generate(&config, &mut rng);
        let eg = inst.ground_energy();
        for (k, (_, order, variant)) in arms.iter().enumerate() {
            let (_, e) = greedy_search(
                &inst.reduction.qubo,
                GreedyConfig {
                    order: *order,
                    variant: *variant,
                },
            );
            let de = delta_e_percent(e, eg);
            sums[k].0 += de;
            if de <= 1e-9 {
                sums[k].1 += 1;
            }
        }
    }

    let mut table = Table::new(&["variant", "mean_dEis%", "exact_rate"]);
    for (k, (label, _, _)) in arms.iter().enumerate() {
        table.push_row(vec![
            label.to_string(),
            fnum(sums[k].0 / instances as f64, 2),
            fnum(sums[k].1 as f64 / instances as f64, 3),
        ]);
    }
    println!("{}", table.render());
    println!("({} instances; lower ΔE_IS% = better RA seeds)", instances);

    let path = opts.csv_path("ablation_greedy.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Ablation: the anneal pause (`t_p`) — the paper's footnote 3.
pub fn run_ablation_pause(opts: &Options) {
    opts.banner(
        "Ablation",
        "pause duration t_p for FA (s_p=0.45) and RA-GS (s_p=0.69), 8-user 16-QAM",
    );

    let mut rng = Rng64::new(opts.seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
    let eg = inst.ground_energy();
    let qubo = &inst.reduction.qubo;
    let (gs_bits, _) = greedy_search(qubo, Default::default());
    let sampler = exp::paper_sampler(opts.scale.reads);

    // Arms chosen where the pause has leverage: FA pausing near the device's
    // A=B crossing, RA from the exact ground state at the *edge* of its
    // success band (s_p = 0.61), where retention is most pause-sensitive,
    // and RA from the GS seed for reference.
    let mut table = Table::new(&["protocol", "t_p_us", "duration_us", "p_star", "TTS99_us"]);
    for &t_p in &[0.0, 0.5, 1.0, 2.0, 4.0] {
        for (label, protocol, init) in [
            (
                "FA",
                Protocol::Forward {
                    t_a: 1.45,
                    pause: if t_p > 0.0 { Some((0.45, t_p)) } else { None },
                },
                None,
            ),
            (
                "RA-ground@0.61",
                Protocol::Reverse { s_p: 0.61, t_p },
                Some(inst.tx_natural_bits.as_slice()),
            ),
            (
                "RA-GS@0.69",
                Protocol::Reverse { s_p: 0.69, t_p },
                Some(gs_bits.as_slice()),
            ),
        ] {
            let schedule = protocol.schedule().expect("valid");
            let run = sampler.sample_qubo(qubo, &schedule, init, opts.seed ^ t_p.to_bits());
            let p = success_probability(&run.samples, eg);
            table.push_row(vec![
                label.to_string(),
                fnum(t_p, 1),
                fnum(schedule.duration_us(), 2),
                fnum(p, 4),
                fnum(time_to_solution(schedule.duration_us(), p, 99.0), 1),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Two regimes: when the seed needs repair (imperfect seeds, or FA mid-anneal), pause time \
         buys thermalization and p★ grows; when the seed is already the ground state, the pause \
         only melts it — p★ falls monotonically with t_p and TTS is best with no pause at all. \
         The paper's fixed t_p = 1 µs is a compromise across seed qualities."
    );

    let path = opts.csv_path("ablation_pause.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// §5 extension: application-specific classical initializers for RA.
pub fn run_ext_initializers(opts: &Options) {
    opts.banner(
        "§5 extension",
        "classical initializers feeding RA on noisy 5-user 16-QAM (exhaustive ground truth)",
    );
    let rows = exp::run_ext_initializers(opts.scale, opts.seed);

    let mut table = Table::new(&[
        "initializer",
        "mean_dEis%",
        "classical_us",
        "hybrid_p*",
        "mean_TTS_us",
    ]);
    for r in &rows {
        table.push_row(vec![
            r.name.to_string(),
            fnum(r.mean_delta_e_is, 2),
            fnum(r.mean_latency_us, 2),
            fnum(r.p_star, 4),
            fnum(r.mean_tts_us, 1),
        ]);
    }
    println!("{}", table.render());

    let get = |name: &str| rows.iter().find(|r| r.name == name);
    if let (Some(gs), Some(zf)) = (get("GS"), get("ZF")) {
        println!(
            "ZF vs GS seed quality: {} vs {} ΔE_IS% (paper predicts ZF better, at higher latency: {} vs {} µs)",
            fnum(zf.mean_delta_e_is, 2),
            fnum(gs.mean_delta_e_is, 2),
            fnum(zf.mean_latency_us, 2),
            fnum(gs.mean_latency_us, 2),
        );
    }

    let path = opts.csv_path("ext_initializers.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// §2 extension: richer hybrid computation structures.
pub fn run_ext_iterative(opts: &Options) {
    opts.banner(
        "§2 extension",
        "one-shot GS→RA vs iterated RA vs sample-persistence prefixing (8-user 16-QAM)",
    );

    let rounds = 4;
    let s_p = 0.69;
    let instances = opts.scale.instances.max(4);
    // Matched budget: the one-shot arm gets rounds× the reads of each
    // iterated round.
    let one_shot_sampler = exp::paper_sampler(opts.scale.reads * rounds);
    let round_sampler = exp::paper_sampler(opts.scale.reads);

    let mut sums = [0.0f64; 4]; // seed, one-shot, iterated, persistence (ΔE%)
    let mut exact = [0usize; 4];
    let mut rng = Rng64::new(opts.seed);
    for k in 0..instances {
        let inst =
            DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
        let eg = inst.ground_energy();
        let qubo = &inst.reduction.qubo;
        let (gs_bits, gs_e) = greedy_search(qubo, Default::default());

        let one_shot = one_shot_sampler.sample_qubo(
            qubo,
            &Protocol::paper_ra(s_p).schedule().unwrap(),
            Some(&gs_bits),
            opts.seed + k as u64,
        );
        let one_shot_e = one_shot.samples.best_energy().min(gs_e);

        let iterated = iterated_reverse_annealing(
            &round_sampler,
            qubo,
            s_p,
            &gs_bits,
            rounds,
            opts.seed + 100 + k as u64,
        );
        let persistence = sample_persistence_solve(
            &round_sampler,
            qubo,
            s_p,
            &gs_bits,
            0.2,
            rounds,
            opts.seed + 200 + k as u64,
        );

        for (slot, e) in [
            (0, gs_e),
            (1, one_shot_e),
            (2, iterated.best_energy),
            (3, persistence.best_energy),
        ] {
            let de = delta_e_percent(e, eg);
            sums[slot] += de;
            if de <= 1e-9 {
                exact[slot] += 1;
            }
        }
    }

    let mut table = Table::new(&["structure", "mean_dE%", "exact_rate"]);
    for (k, label) in [
        "GS seed (no quantum)",
        "one-shot GS→RA (paper prototype)",
        "iterated RA (best-state feedback)",
        "sample-persistence prefixing",
    ]
    .iter()
    .enumerate()
    {
        table.push_row(vec![
            label.to_string(),
            fnum(sums[k] / instances as f64, 3),
            fnum(exact[k] as f64 / instances as f64, 2),
        ]);
    }
    println!("{}", table.render());
    println!(
        "All quantum arms share the same total anneal budget ({} reads). The iterated arms can \
         only help over one-shot when intermediate states open new basins — the §2 argument for \
         closed-loop hybrid designs.",
        opts.scale.reads * rounds
    );

    let path = opts.csv_path("ext_iterative.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}

/// Figure 2 / Challenge 3: the pipelined computation structure.
pub fn run_pipeline_study(opts: &Options) {
    opts.banner(
        "Figure 2",
        "pipelined classical-quantum processing of successive channel uses",
    );

    // --- Study 1: discrete-event latency/throughput analysis -------------
    let n_uses = 64;
    let n_vars = 32.0; // 8-user 16-QAM
    let classical_us = n_vars * n_vars / 1000.0; // GS latency model
    let ra = Protocol::paper_ra(0.69);
    let per_read_us = ra.duration_us() + 123.0 + 21.0; // anneal + readout + delay
    let deadline_us = 3000.0; // LTE-class turnaround budget

    let mut table = Table::new(&[
        "reads/use",
        "quantum_us",
        "arrival_us",
        "p50_latency_us",
        "p99_latency_us",
        "throughput/ms",
        "deadline_viol",
        "max_queue",
    ]);
    for &reads in &[1usize, 4, 16, 64] {
        let quantum_us = reads as f64 * per_read_us;
        // Arrivals at 110% of the bottleneck service rate: sustainable load.
        let arrival_us = quantum_us.max(classical_us) * 1.1;
        let stages = [
            uniform_stage("classical", classical_us, n_uses),
            uniform_stage("quantum", quantum_us, n_uses),
        ];
        let report = simulate_pipeline(arrival_us, &stages, deadline_us);
        let mut lat = report.latency_us.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        table.push_row(vec![
            reads.to_string(),
            fnum(quantum_us, 1),
            fnum(arrival_us, 1),
            fnum(lat[lat.len() / 2], 1),
            fnum(lat[lat.len() * 99 / 100], 1),
            fnum(report.throughput_per_ms, 3),
            report.deadline_violations.to_string(),
            report.max_queue_depth.iter().max().unwrap().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(classical stage {} µs/use; RA read {} µs incl. readout; deadline {} µs)",
        fnum(classical_us, 2),
        fnum(per_read_us, 1),
        fnum(deadline_us, 0)
    );
    println!();

    // --- Study 2: real threaded pipeline ---------------------------------
    let batch = {
        let mut rng = Rng64::new(opts.seed);
        DetectionInstance::generate_batch(
            &InstanceConfig::paper(4, Modulation::Qam16),
            opts.scale.instances.max(6),
            &mut rng,
        )
    };
    let solver = HybridSolver::new(
        exp::paper_sampler(opts.scale.reads),
        HybridConfig {
            protocol: ra,
            initializer: Box::new(GreedyInitializer::default()),
        },
    );

    let t0 = std::time::Instant::now();
    let seq = run_sequential(&solver, &batch, opts.seed);
    let sequential_wall = t0.elapsed();
    let t1 = std::time::Instant::now();
    let pip = run_pipelined(&solver, &batch, opts.seed, 4);
    let pipelined_wall = t1.elapsed();

    let identical = seq
        .iter()
        .zip(&pip)
        .all(|(a, b)| a.best_bits == b.best_bits && a.best_energy == b.best_energy);
    println!(
        "Threaded pipeline over {} channel uses: sequential {:?}, pipelined {:?} — outputs {}",
        batch.len(),
        sequential_wall,
        pipelined_wall,
        if identical {
            "bit-identical"
        } else {
            "DIFFER (bug!)"
        }
    );

    let path = opts.csv_path("pipeline_study.csv");
    table.write_csv(&path).expect("write CSV");
    println!("CSV written to {}", path.display());
}
