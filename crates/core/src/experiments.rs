//! Canned experiment runners — one per figure/claim in the paper.
//!
//! Each runner reproduces one evaluation artifact of the paper (`hqw list`
//! prints the registry) and returns structured rows, which the `hqw` runner
//! prints and writes as CSV. Runners take an explicit [`Scale`] so
//! integration tests can exercise the full logic cheaply while the bench
//! binaries run publication-scale sweeps.
//!
//! Scale note: the paper collects 200k–600k anneals per figure on real
//! hardware; the simulator defaults are smaller (hundreds of reads per
//! setting) because a simulated read costs milliseconds of CPU rather than
//! microseconds of QPU. The *shape* comparisons are unaffected; error bars
//! are wider.

use crate::harvest::{harvest_states, HarvestedState};
use crate::metrics::{delta_e_percent, success_probability};
use crate::protocol::{paper_sp_grid, Protocol};
use crate::sweep::{best_point, sweep_protocol, SweepPoint};
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::{AnnealParams, DWaveProfile, IceModel};
use hqw_math::stats::percentile;
use hqw_math::Rng64;
use hqw_phy::instance::{DetectionInstance, InstanceConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::constraints::{apply_pair_constraint, PairConstraint};
use hqw_qubo::exact::exhaustive_minimum;
use hqw_qubo::preprocess::preprocess;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instances per experimental point.
    pub instances: usize,
    /// Anneal reads per protocol setting.
    pub reads: usize,
    /// Read budget for initial-state harvesting.
    pub harvest_reads: usize,
    /// Keep every `thin`-th point of the paper's `s_p` grid (1 = full grid).
    pub grid_thin: usize,
}

impl Scale {
    /// Fast setting for tests (seconds).
    pub fn quick() -> Self {
        Scale {
            instances: 2,
            reads: 60,
            harvest_reads: 400,
            grid_thin: 4,
        }
    }

    /// Default bench-binary setting (minutes).
    pub fn standard() -> Self {
        Scale {
            instances: 10,
            reads: 400,
            harvest_reads: 4000,
            grid_thin: 1,
        }
    }

    /// Publication-scale overnight setting.
    pub fn full() -> Self {
        Scale {
            instances: 20,
            reads: 2000,
            harvest_reads: 20000,
            grid_thin: 1,
        }
    }

    /// The (possibly thinned) `s_p` grid.
    pub fn sp_grid(&self) -> Vec<f64> {
        paper_sp_grid()
            .into_iter()
            .step_by(self.grid_thin.max(1))
            .collect()
    }
}

/// The workspace's standard simulated QPU for experiments.
pub fn paper_sampler(reads: usize) -> QuantumSampler {
    QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: reads,
            engine: EngineKind::Pimc { trotter_slices: 16 },
            params: AnnealParams::default(),
            ..Default::default()
        },
    )
}

// ---------------------------------------------------------------------------
// Figure 3: QUBO-simplification preprocessing
// ---------------------------------------------------------------------------

/// One point of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Modulation.
    pub modulation: Modulation,
    /// QUBO variable count.
    pub n_vars: usize,
    /// Fraction of instances where preprocessing fixed ≥ 1 variable (left
    /// panel).
    pub simplified_ratio: f64,
    /// Mean number of fixed variables over the *simplified* instances
    /// (right panel; 0 when none simplified).
    pub avg_fixed: f64,
}

/// Runs the Figure 3 sweep: `instances_per_point` random MIMO QUBOs per
/// (modulation, size), sizes spanning ~4–64 variables.
pub fn run_fig3(instances_per_point: usize, seed: u64) -> Vec<Fig3Row> {
    let mut rng = Rng64::new(seed);
    let mut rows = Vec::new();
    for m in Modulation::ALL {
        let bps = m.bits_per_symbol();
        let mut sizes: Vec<usize> = (1..=(64 / bps)).map(|k| k * bps).collect();
        sizes.retain(|&v| v >= 4);
        // Cap the sweep at ~12 points per modulation.
        let step = (sizes.len() / 12).max(1);
        for &n_vars in sizes.iter().step_by(step) {
            let config = InstanceConfig::paper_with_vars(n_vars, m);
            let mut simplified = 0usize;
            let mut fixed_total = 0usize;
            for _ in 0..instances_per_point {
                let inst = DetectionInstance::generate(&config, &mut rng);
                let p = preprocess(&inst.reduction.qubo);
                if p.simplified() {
                    simplified += 1;
                    fixed_total += p.num_fixed();
                }
            }
            rows.push(Fig3Row {
                modulation: m,
                n_vars,
                simplified_ratio: simplified as f64 / instances_per_point as f64,
                avg_fixed: if simplified > 0 {
                    fixed_total as f64 / simplified as f64
                } else {
                    0.0
                },
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 6: ΔE% distributions for FA / RA-random / RA-GS
// ---------------------------------------------------------------------------

/// Percentile levels reported for Figure 6 distributions.
pub const FIG6_PERCENTILES: [f64; 9] = [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0];

/// One distribution of Figure 6 (a modulation × protocol arm).
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Modulation.
    pub modulation: Modulation,
    /// Protocol arm: "FA", "RA-random" or "RA-GS".
    pub arm: &'static str,
    /// `s_p` used.
    pub s_p: f64,
    /// `(percentile, ΔE%)` pairs at [`FIG6_PERCENTILES`].
    pub percentiles: Vec<(f64, f64)>,
    /// Fraction of reads that found the ground state.
    pub ground_fraction: f64,
    /// Mean ΔE% over all reads.
    pub mean_delta_e: f64,
}

/// Runs Figure 6: 36-variable instances for every modulation, three arms.
///
/// `s_p` per arm is chosen on the first instance by the best mean sample
/// energy over a coarse grid (the distribution analogue of the paper's
/// "median best parameter setting").
pub fn run_fig6(scale: Scale, seed: u64) -> Vec<Fig6Row> {
    let sampler = paper_sampler(scale.reads);
    let coarse: Vec<f64> = [0.37, 0.53, 0.69, 0.85].to_vec();
    let mut rows = Vec::new();

    for m in Modulation::ALL {
        let config = InstanceConfig::paper_with_vars(36, m);
        let mut rng = Rng64::new(seed ^ m.bits_per_symbol() as u64);
        let instances = DetectionInstance::generate_batch(&config, scale.instances, &mut rng);

        // Arm setup on the first instance.
        let first = &instances[0];
        let eg0 = first.ground_energy();
        let (gs_bits0, _) = hqw_qubo::greedy_search(&first.reduction.qubo);
        let pick_sp = |protocol: &dyn Fn(f64) -> Protocol, init: Option<&[u8]>| -> f64 {
            let pts = sweep_protocol(
                &sampler,
                &first.reduction.qubo,
                eg0,
                &coarse,
                protocol,
                init,
                seed,
            );
            pts.iter()
                .min_by(|a, b| a.mean_energy.partial_cmp(&b.mean_energy).unwrap())
                .map(|p| p.param)
                .unwrap_or(0.53)
        };
        let sp_fa = pick_sp(&Protocol::paper_fa, None);
        let sp_ra = pick_sp(&Protocol::paper_ra, Some(&gs_bits0));

        // A fourth, classical-baseline arm: simulated annealing at a
        // Monte-Carlo budget matched to one anneal read (the reviewer's
        // inevitable "why not plain SA?" control; not in the paper's figure).
        let sa_params = hqw_qubo::sa::SaParams {
            sweeps: (sampler.config.params.sweeps_per_us as f64
                * Protocol::paper_fa(sp_fa).duration_us()) as usize,
            num_reads: scale.reads,
            ..Default::default()
        };

        let mut arm_dist: Vec<(&'static str, f64, Vec<f64>, u64, u64)> = vec![
            ("FA", sp_fa, Vec::new(), 0, 0),
            ("RA-random", sp_ra, Vec::new(), 0, 0),
            ("RA-GS", sp_ra, Vec::new(), 0, 0),
            ("SA-classical", f64::NAN, Vec::new(), 0, 0),
        ];

        for (idx, inst) in instances.iter().enumerate() {
            let eg = inst.ground_energy();
            let qubo = &inst.reduction.qubo;
            let (gs_bits, _) = hqw_qubo::greedy_search(qubo);
            let mut inst_rng = Rng64::new(seed.wrapping_add(idx as u64 * 7919));
            let random_bits: Vec<u8> = (0..36).map(|_| inst_rng.next_bool() as u8).collect();

            for (arm, sp, dist, hits, total) in arm_dist.iter_mut() {
                let samples = if *arm == "SA-classical" {
                    let mut sa_rng = Rng64::new(inst_rng.next_u64());
                    hqw_qubo::sa::sample_qubo(qubo, &sa_params, &mut sa_rng)
                } else {
                    let protocol = match *arm {
                        "FA" => Protocol::paper_fa(*sp),
                        _ => Protocol::paper_ra(*sp),
                    };
                    let init: Option<&[u8]> = match *arm {
                        "RA-random" => Some(&random_bits),
                        "RA-GS" => Some(&gs_bits),
                        _ => None,
                    };
                    sampler
                        .sample_qubo(
                            qubo,
                            &protocol.schedule().expect("valid"),
                            init,
                            inst_rng.next_u64(),
                        )
                        .samples
                };
                for e in samples.energies_per_read() {
                    let de = delta_e_percent(e, eg);
                    dist.push(de);
                    *total += 1;
                    if de <= 1e-9 {
                        *hits += 1;
                    }
                }
            }
        }

        for (arm, sp, dist, hits, total) in arm_dist {
            let percentiles = FIG6_PERCENTILES
                .iter()
                .map(|&p| (p, percentile(&dist, p)))
                .collect();
            rows.push(Fig6Row {
                modulation: m,
                arm,
                s_p: sp,
                percentiles,
                ground_fraction: hits as f64 / total.max(1) as f64,
                mean_delta_e: dist.iter().sum::<f64>() / dist.len().max(1) as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 7: RA performance vs initial-state quality
// ---------------------------------------------------------------------------

/// One ΔE_IS% bin of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Bin center (ΔE_IS%).
    pub bin_center: f64,
    /// Number of harvested states evaluated in this bin.
    pub n_states: usize,
    /// Mean per-read success probability of RA from this bin's states.
    pub p_star: f64,
    /// Mean output cost (ΔE% of the expectation value) of RA samples.
    pub mean_cost_delta_e: f64,
}

/// Runs Figure 7 on one 8-user 16-QAM instance: success probability and
/// expected cost of RA as a function of ΔE_IS% (2% bins over 0–10%, plus
/// the exact-ground reference at bin center 0).
///
/// Returns `(s_p used, rows)`.
pub fn run_fig7(scale: Scale, seed: u64) -> (f64, Vec<Fig7Row>) {
    let mut rng = Rng64::new(seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
    let eg = inst.ground_energy();
    let qubo = &inst.reduction.qubo;
    let sampler = paper_sampler(scale.reads);

    // Harvest seed states by quality (the paper's 750k-sample methodology).
    let harvester = paper_sampler(scale.reads.max(200));
    let bins = harvest_states(
        &harvester,
        qubo,
        eg,
        2.0,
        10.0,
        3,
        scale.harvest_reads,
        seed ^ 0xA5A5,
    );

    // Pick s_p by the best p★ of RA from the best harvested seed (falling
    // back to the ground state when harvesting found nothing low).
    let probe: &[u8] = bins
        .iter()
        .flatten()
        .next()
        .map(|s| s.bits.as_slice())
        .unwrap_or(&inst.tx_natural_bits);
    let sp_points = sweep_protocol(
        &sampler,
        qubo,
        eg,
        &[0.53, 0.61, 0.69, 0.77],
        Protocol::paper_ra,
        Some(probe),
        seed ^ 0x5A5A,
    );
    let s_p = best_point(&sp_points).map(|p| p.param).unwrap_or(0.69);
    let schedule = Protocol::paper_ra(s_p).schedule().expect("valid");

    let mut rows = Vec::new();
    // Exact-ground reference (the paper's ΔE_IS% = 0 line).
    let ground_run = sampler.sample_qubo(qubo, &schedule, Some(&inst.tx_natural_bits), seed);
    rows.push(Fig7Row {
        bin_center: 0.0,
        n_states: 1,
        p_star: success_probability(&ground_run.samples, eg),
        mean_cost_delta_e: delta_e_percent(ground_run.samples.mean_energy(), eg),
    });

    for (b, states) in bins.iter().enumerate() {
        if states.is_empty() {
            continue;
        }
        let mut p_sum = 0.0;
        let mut cost_sum = 0.0;
        for (k, st) in states.iter().enumerate() {
            let run = sampler.sample_qubo(
                qubo,
                &schedule,
                Some(&st.bits),
                seed.wrapping_add(1000 + (b * 10 + k) as u64),
            );
            p_sum += success_probability(&run.samples, eg);
            cost_sum += delta_e_percent(run.samples.mean_energy(), eg);
        }
        rows.push(Fig7Row {
            bin_center: (b as f64 + 0.5) * 2.0,
            n_states: states.len(),
            p_star: p_sum / states.len() as f64,
            mean_cost_delta_e: cost_sum / states.len() as f64,
        });
    }
    (s_p, rows)
}

// ---------------------------------------------------------------------------
// Figure 8: p★ and TTS vs s_p for FA, FR (oracle c_p) and RA
// ---------------------------------------------------------------------------

/// One protocol line of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Series {
    /// Line label ("FA", "RA ΔE_IS=0%", "RA ΔE_IS≈2.1%", "FR oracle", …).
    pub label: String,
    /// Sweep points over `s_p`.
    pub points: Vec<SweepPoint>,
}

/// Runs Figure 8 on one 8-user 16-QAM instance.
pub fn run_fig8(scale: Scale, seed: u64) -> Vec<Fig8Series> {
    let mut rng = Rng64::new(seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
    let eg = inst.ground_energy();
    let qubo = &inst.reduction.qubo;
    let sampler = paper_sampler(scale.reads);
    let grid = scale.sp_grid();
    let mut series = Vec::new();

    // FA line.
    series.push(Fig8Series {
        label: "FA".to_string(),
        points: sweep_protocol(&sampler, qubo, eg, &grid, Protocol::paper_fa, None, seed),
    });

    // RA from the exact ground state (red dashed line).
    series.push(Fig8Series {
        label: "RA ΔE_IS=0%".to_string(),
        points: sweep_protocol(
            &sampler,
            qubo,
            eg,
            &grid,
            Protocol::paper_ra,
            Some(&inst.tx_natural_bits),
            seed ^ 1,
        ),
    });

    // RA from harvested seeds of two quality levels (yellow lines).
    let harvester = paper_sampler(scale.reads.max(200));
    let bins = harvest_states(
        &harvester,
        qubo,
        eg,
        2.0,
        10.0,
        1,
        scale.harvest_reads,
        seed ^ 2,
    );
    let mut picks: Vec<&HarvestedState> = Vec::new();
    if let Some(s) = bins.first().and_then(|b| b.first()) {
        picks.push(s);
    }
    if let Some(s) = bins.get(2).and_then(|b| b.first()) {
        picks.push(s);
    }
    for st in picks {
        series.push(Fig8Series {
            label: format!("RA ΔE_IS≈{:.1}%", st.delta_e_is),
            points: sweep_protocol(
                &sampler,
                qubo,
                eg,
                &grid,
                Protocol::paper_ra,
                Some(&st.bits),
                seed ^ 3,
            ),
        });
    }

    // FR with oracle c_p: for each s_p, the best c_p from the same grid.
    let mut fr_points = Vec::new();
    for (i, &sp) in grid.iter().enumerate() {
        let cp_points = sweep_protocol(
            &sampler,
            qubo,
            eg,
            &grid,
            |c_p| Protocol::paper_fr(c_p, sp),
            None,
            seed.wrapping_add(100 + i as u64),
        );
        if let Some(best) = best_point(&cp_points) {
            fr_points.push(SweepPoint { param: sp, ..best });
        } else if let Some(any) = cp_points.first() {
            fr_points.push(SweepPoint { param: sp, ..*any });
        }
    }
    series.push(Fig8Series {
        label: "FR oracle c_p".to_string(),
        points: fr_points,
    });

    series
}

// ---------------------------------------------------------------------------
// Headline claim: RA+GS vs FA success probability / TTS, 2–10×
// ---------------------------------------------------------------------------

/// Per-instance headline comparison.
#[derive(Debug, Clone)]
pub struct HeadlineRow {
    /// Instance index.
    pub instance: usize,
    /// ΔE_IS% of the Greedy Search seed.
    pub gs_delta_e_is: f64,
    /// Best FA point over the grid (`None` when FA never succeeded).
    pub fa_best: Option<SweepPoint>,
    /// Best RA+GS point over the grid.
    pub ra_best: Option<SweepPoint>,
}

impl HeadlineRow {
    /// Success-probability ratio RA/FA (`None` unless both succeeded).
    pub fn p_ratio(&self) -> Option<f64> {
        match (&self.ra_best, &self.fa_best) {
            (Some(ra), Some(fa)) if fa.p_star > 0.0 => Some(ra.p_star / fa.p_star),
            _ => None,
        }
    }
}

/// Runs the headline comparison over 8-user 16-QAM instances.
pub fn run_headline(scale: Scale, seed: u64) -> Vec<HeadlineRow> {
    let mut rng = Rng64::new(seed);
    let sampler = paper_sampler(scale.reads);
    let grid = scale.sp_grid();
    let mut rows = Vec::new();
    for instance in 0..scale.instances {
        let inst =
            DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
        let eg = inst.ground_energy();
        let qubo = &inst.reduction.qubo;
        let (gs_bits, gs_e) = hqw_qubo::greedy_search(qubo);

        let fa = sweep_protocol(
            &sampler,
            qubo,
            eg,
            &grid,
            Protocol::paper_fa,
            None,
            seed.wrapping_add(instance as u64 * 31),
        );
        let ra = sweep_protocol(
            &sampler,
            qubo,
            eg,
            &grid,
            Protocol::paper_ra,
            Some(&gs_bits),
            seed.wrapping_add(instance as u64 * 31 + 7),
        );
        rows.push(HeadlineRow {
            instance,
            gs_delta_e_is: delta_e_percent(gs_e, eg),
            fa_best: best_point(&fa),
            ra_best: best_point(&ra),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// §3.1 / Figure 4: soft-information constraints under analog noise
// ---------------------------------------------------------------------------

/// One row of the soft-information study.
#[derive(Debug, Clone)]
pub struct SoftInfoRow {
    /// Constraint strength (absolute QUBO units).
    pub strength: f64,
    /// Whether ICE analog noise was enabled.
    pub ice: bool,
    /// FA success probability on the constrained problem, scored against
    /// the original ground state.
    pub p_star: f64,
    /// Whether the constrained problem still has the original global
    /// optimum (exhaustively verified).
    pub optimum_preserved: bool,
}

/// Runs the §3.1 constraint study on a 4-user 16-QAM instance: inject two
/// *correct* pair constraints (as in Figure 4's "pre-knowledge"), sweep the
/// strength, and compare noiseless vs ICE-noise annealing.
pub fn run_fig4_softinfo(scale: Scale, seed: u64) -> Vec<SoftInfoRow> {
    let mut rng = Rng64::new(seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(4, Modulation::Qam16), &mut rng);
    let truth = &inst.tx_natural_bits;
    let base_strength = inst.reduction.qubo.max_abs_coeff();

    let mut rows = Vec::new();
    for &rel in &[0.0, 0.05, 0.2, 0.5, 1.0, 3.0] {
        let strength = rel * base_strength;
        let mut qubo = inst.reduction.qubo.clone();
        if strength > 0.0 {
            // Fig. 4 constraints on the first user's I and Q rail MSB pairs,
            // consistent with the transmitted symbol.
            for &(a, b) in &[(0usize, 1usize), (2usize, 3usize)] {
                apply_pair_constraint(
                    &mut qubo,
                    &PairConstraint {
                        a,
                        b,
                        target_a: truth[a],
                        target_b: truth[b],
                        strength,
                    },
                );
            }
        }
        let (best_bits, _) = exhaustive_minimum(&qubo);
        let optimum_preserved = best_bits == *truth;

        for ice in [false, true] {
            let mut cfg = SamplerConfig {
                num_reads: scale.reads,
                engine: EngineKind::Pimc { trotter_slices: 16 },
                ..Default::default()
            };
            if ice {
                cfg.ice = IceModel::default();
            }
            let sampler = QuantumSampler::new(DWaveProfile::calibrated(), cfg);
            let schedule = Protocol::paper_fa(0.45).schedule().expect("valid");
            let run = sampler.sample_qubo(&qubo, &schedule, None, seed ^ (rel.to_bits() >> 1));
            // Score against the ORIGINAL optimum: a read succeeds only when
            // it returns the true transmitted state.
            let hits: u64 = run
                .samples
                .iter()
                .filter(|s| s.bits == *truth)
                .map(|s| s.occurrences)
                .sum();
            rows.push(SoftInfoRow {
                strength,
                ice,
                p_star: hits as f64 / run.samples.total_reads() as f64,
                optimum_preserved,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shows_the_simplification_cliff() {
        let rows = run_fig3(6, 11);
        assert!(!rows.is_empty());
        // Small problems simplify at least sometimes; large never do.
        let small: f64 = rows
            .iter()
            .filter(|r| r.n_vars <= 8)
            .map(|r| r.simplified_ratio)
            .sum();
        let large: f64 = rows
            .iter()
            .filter(|r| r.n_vars >= 48)
            .map(|r| r.simplified_ratio)
            .sum();
        assert!(small > 0.0, "small instances should simplify occasionally");
        assert_eq!(
            large, 0.0,
            "large instances must never simplify (the paper's cliff)"
        );
    }

    #[test]
    fn fig7_quick_runs_and_orders_reference_first() {
        let (s_p, rows) = run_fig7(Scale::quick(), 3);
        assert!((0.25..=0.99).contains(&s_p));
        assert!(!rows.is_empty());
        assert_eq!(rows[0].bin_center, 0.0);
        // The exact-ground reference must be at least as successful as any
        // harvested bin (sanity of the Figure-7 trend's anchor).
        let anchor = rows[0].p_star;
        for r in &rows[1..] {
            assert!(
                anchor + 1e-9 >= r.p_star * 0.5,
                "ground-seeded RA should not be wildly beaten by bin {}",
                r.bin_center
            );
        }
    }

    #[test]
    fn headline_quick_produces_rows() {
        let rows = run_headline(Scale::quick(), 5);
        assert_eq!(rows.len(), Scale::quick().instances);
        for r in &rows {
            assert!(r.gs_delta_e_is >= 0.0);
        }
    }

    #[test]
    fn softinfo_zero_strength_preserves_optimum() {
        let rows = run_fig4_softinfo(Scale::quick(), 7);
        let baseline: Vec<_> = rows.iter().filter(|r| r.strength == 0.0).collect();
        assert!(!baseline.is_empty());
        for r in baseline {
            assert!(r.optimum_preserved);
        }
        // Correct constraints never displace the noiseless optimum.
        assert!(rows.iter().all(|r| r.optimum_preserved));
    }
}
