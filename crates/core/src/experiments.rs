//! The paper's figure experiments — one per figure/claim of the evaluation
//! (`hqw list` prints the registry), each a [`GridEngine`] behind its
//! [`FigureSpec`], so it runs, shards, merges and resumes like every other
//! experiment. A point is a unit that owns its RNG stream (one per `fig6`
//! modulation, per headline instance, …; `crates/bench/README.md` lists
//! them), and a point that needs an instance regenerates it from the seed.
//!
//! Scale note: the paper collects 200k–600k anneals per figure on real
//! hardware; the simulator defaults are smaller (hundreds of reads per
//! setting) because a simulated read costs milliseconds of CPU rather than
//! microseconds of QPU. The *shape* comparisons are unaffected; error bars
//! are wider.

use crate::grid::{check_coordinates, GridEngine};
use crate::harvest::harvest_states;
use crate::metrics::{delta_e_percent, success_probability};
use crate::protocol::{paper_sp_grid, Protocol};
use crate::report::{fnum, render, Layout, Report, Table, ROWS, SCENARIO};
use crate::spec::codec::{record, tag_of, Field, Ratio, Record, Tts, Us};
use crate::spec::json::Json;
use crate::spec::{FigureKind, FigureSpec, SpecError};
use crate::sweep::{best_point, fr_oracle_cp, sweep_protocol, SweepPoint};
use crate::telemetry::Collector;
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::{AnnealParams, DWaveProfile, IceModel};
use hqw_math::stats::percentile;
use hqw_math::Rng64;
use hqw_phy::instance::{DetectionInstance, InstanceConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::constraints::{apply_pair_constraints, PairConstraint};
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

/// The workspace's standard simulated QPU for experiments, reading on
/// `threads` workers (0 = all cores; results are identical for any value).
pub fn paper_sampler(reads: usize, threads: usize) -> QuantumSampler {
    QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: reads,
            engine: EngineKind::Pimc { trotter_slices: 16 },
            params: AnnealParams::default(),
            threads,
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

/// The Figure 3 sweep: `instances_per_point` random MIMO QUBOs per
/// (modulation, size), sizes spanning ~4–64 variables, all drawn from one
/// generator.
fn fig3_rows(instances_per_point: usize, seed: u64) -> Vec<Fig3Row> {
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
// §3.1 / Figure 4: soft-information constraints under analog noise
// ---------------------------------------------------------------------------

/// The §3.1 study's constraint strengths, relative to the QUBO's largest
/// coefficient: one `fig4-softinfo` point each.
pub const SOFTINFO_STRENGTHS: [f64; 6] = [0.0, 0.05, 0.2, 0.5, 1.0, 3.0];

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

/// The §3.1 study's 4-user 16-QAM instance, and its absolute constraint
/// strength at relative strength `rel`.
fn softinfo_instance(seed: u64, rel: f64) -> (DetectionInstance, f64) {
    let mut rng = Rng64::new(seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(4, Modulation::Qam16), &mut rng);
    let strength = rel * inst.reduction.qubo.max_abs_coeff();
    (inst, strength)
}

/// The §3.1 constraint study at relative strength `rel` on a 4-user 16-QAM
/// instance: inject two *correct* pair constraints (as in Figure 4's
/// "pre-knowledge") and anneal noiseless and under ICE noise.
fn softinfo_rows(scale: Scale, seed: u64, rel: f64, threads: usize) -> Vec<SoftInfoRow> {
    let (inst, strength) = softinfo_instance(seed, rel);
    let truth = &inst.tx_natural_bits;
    let mut qubo = inst.reduction.qubo.clone();
    if strength > 0.0 {
        // Fig. 4 constraints on the first user's I and Q rail MSB pairs,
        // consistent with the transmitted symbol.
        let pair = |a: usize, b: usize| PairConstraint {
            a,
            b,
            target_a: truth[a],
            target_b: truth[b],
            strength,
        };
        apply_pair_constraints(&mut qubo, &[pair(0, 1), pair(2, 3)]);
    }
    let (best_bits, _) = exhaustive_minimum(&qubo);
    let optimum_preserved = best_bits == *truth;

    [false, true]
        .into_iter()
        .map(|ice| {
            let mut cfg = SamplerConfig {
                num_reads: scale.reads,
                engine: EngineKind::Pimc { trotter_slices: 16 },
                threads,
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
            SoftInfoRow {
                strength,
                ice,
                p_star: hits as f64 / run.samples.total_reads() as f64,
                optimum_preserved,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 5: the anneal-schedule shapes
// ---------------------------------------------------------------------------

/// One schedule of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Protocol name ("FA", "RA", "FR").
    pub protocol: String,
    /// Waypoint times (µs).
    pub t_us: Vec<f64>,
    /// Annealing fraction `s` at each waypoint.
    pub s: Vec<f64>,
    /// Programmed duration of one read (µs).
    pub duration_us: f64,
}

/// The FA, RA and FR schedules at the paper's `s_p = 0.41`, `c_p = 0.65`.
fn fig5_rows() -> Vec<Fig5Row> {
    [
        Protocol::paper_fa(0.41),
        Protocol::paper_ra(0.41),
        Protocol::paper_fr(0.65, 0.41),
    ]
    .iter()
    .map(|p| {
        let schedule = p.schedule().expect("valid paper parameters");
        Fig5Row {
            protocol: p.name().to_string(),
            t_us: schedule.points().iter().map(|&(t, _)| t).collect(),
            s: schedule.points().iter().map(|&(_, s)| s).collect(),
            duration_us: schedule.duration_us(),
        }
    })
    .collect()
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
    /// Protocol arm: "FA", "RA-random", "RA-GS" or "SA-classical".
    pub arm: String,
    /// `s_p` used (`None` for the classical arm).
    pub s_p: Option<f64>,
    /// ΔE% at each of [`FIG6_PERCENTILES`].
    pub percentiles: Vec<f64>,
    /// Fraction of reads that found the ground state.
    pub ground_fraction: f64,
    /// Mean ΔE% over all reads.
    pub mean_delta_e: f64,
}

/// Figure 6 for one modulation: 36-variable instances, three anneal arms
/// plus a classical control.
///
/// `s_p` per arm is chosen on the first instance by the best mean sample
/// energy over a coarse grid (the distribution analogue of the paper's
/// "median best parameter setting").
fn fig6_rows(scale: Scale, seed: u64, m: Modulation, threads: usize) -> Vec<Fig6Row> {
    let sampler = paper_sampler(scale.reads, threads);
    let coarse: Vec<f64> = [0.37, 0.53, 0.69, 0.85].to_vec();
    let config = InstanceConfig::paper_with_vars(36, m);
    let mut rng = Rng64::new(seed ^ m.bits_per_symbol() as u64);
    let instances = DetectionInstance::generate_batch(&config, scale.instances, &mut rng);

    // Arm setup on the first instance.
    let first = &instances[0];
    let eg0 = first.ground_energy();
    let (gs_bits0, _) = hqw_qubo::greedy_search(&first.reduction.qubo);
    let pick_sp = |protocol: &(dyn Fn(f64) -> Protocol + Sync), init: Option<&[u8]>| -> f64 {
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
    // Monte-Carlo budget matched to one anneal read (the "why not plain
    // SA?" control; not in the paper's figure).
    let sa_params = hqw_qubo::sa::SaParams {
        sweeps: (sampler.config.params.sweeps_per_us as f64
            * Protocol::paper_fa(sp_fa).duration_us()) as usize,
        num_reads: scale.reads,
        ..Default::default()
    };

    let mut arm_dist = vec![
        ("FA", Some(sp_fa), Vec::<f64>::new(), 0u64, 0u64),
        ("RA-random", Some(sp_ra), Vec::new(), 0, 0),
        ("RA-GS", Some(sp_ra), Vec::new(), 0, 0),
        ("SA-classical", None, Vec::new(), 0, 0),
    ];

    for (idx, inst) in instances.iter().enumerate() {
        let eg = inst.ground_energy();
        let qubo = &inst.reduction.qubo;
        let (gs_bits, _) = hqw_qubo::greedy_search(qubo);
        let mut inst_rng = Rng64::new(seed.wrapping_add(idx as u64 * 7919));
        let random_bits: Vec<u8> = (0..36).map(|_| inst_rng.next_bool() as u8).collect();

        for (arm, sp, dist, hits, total) in arm_dist.iter_mut() {
            let samples = match sp {
                None => {
                    let mut sa_rng = Rng64::new(inst_rng.next_u64());
                    hqw_qubo::sa::sample_qubo(qubo, &sa_params, &mut sa_rng)
                }
                Some(sp) => {
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
                }
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

    arm_dist
        .into_iter()
        .map(|(arm, s_p, dist, hits, total)| Fig6Row {
            modulation: m,
            arm: arm.to_string(),
            s_p,
            percentiles: FIG6_PERCENTILES
                .iter()
                .map(|&p| percentile(&dist, p))
                .collect(),
            ground_fraction: hits as f64 / total.max(1) as f64,
            mean_delta_e: dist.iter().sum::<f64>() / dist.len().max(1) as f64,
        })
        .collect()
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

/// Figure 7 on one 8-user 16-QAM instance: success probability and
/// expected cost of RA as a function of ΔE_IS% (2% bins over 0–10%, plus
/// the exact-ground reference at bin center 0).
///
/// Returns `(s_p used, rows)`.
fn fig7_rows(scale: Scale, seed: u64, threads: usize) -> (f64, Vec<Fig7Row>) {
    let mut rng = Rng64::new(seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
    let eg = inst.ground_energy();
    let qubo = &inst.reduction.qubo;
    let sampler = paper_sampler(scale.reads, threads);

    // Harvest seed states by quality (the paper's 750k-sample methodology).
    let harvester = paper_sampler(scale.reads.max(200), threads);
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

/// The labels of the `fig8` points before the per-`s_p` FR points: the FA
/// series, RA from the exact ground state, and RA from harvested states
/// (whose labels go on with the state's ΔE_IS).
const FIG8_SERIES: [&str; 3] = ["FA", "RA ΔE_IS=0%", "RA ΔE_IS≈"];

/// The label of Figure 8's FR series.
const FR_ORACLE: &str = "FR oracle c_p";

/// One point of a Figure 8 series.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Line label ("FA", "RA ΔE_IS=0%", "RA ΔE_IS≈2.1%", "FR oracle c_p").
    pub series: String,
    /// The sweep point at the series' `s_p` (`param`).
    pub point: SweepPoint,
}

/// Figure 8 point `id` on one 8-user 16-QAM instance.
fn fig8_rows(scale: Scale, seed: u64, id: usize, threads: usize) -> Vec<Fig8Row> {
    let mut rng = Rng64::new(seed);
    let inst = DetectionInstance::generate(&InstanceConfig::paper(8, Modulation::Qam16), &mut rng);
    let eg = inst.ground_energy();
    let qubo = &inst.reduction.qubo;
    let sampler = paper_sampler(scale.reads, threads);
    let grid = scale.sp_grid();
    let sweep = |protocol: fn(f64) -> Protocol, init: Option<&[u8]>, seed: u64| {
        sweep_protocol(&sampler, qubo, eg, &grid, protocol, init, seed)
    };
    let series = |label: &str, points: Vec<SweepPoint>| -> Vec<Fig8Row> {
        let series = label.to_string();
        let row = |point| Fig8Row {
            series: series.clone(),
            point,
        };
        points.into_iter().map(row).collect()
    };
    match id {
        // FA line.
        0 => series(FIG8_SERIES[0], sweep(Protocol::paper_fa, None, seed)),
        // RA from the exact ground state (red dashed line).
        1 => series(
            FIG8_SERIES[1],
            sweep(Protocol::paper_ra, Some(&inst.tx_natural_bits), seed ^ 1),
        ),
        // RA from harvested seeds of two quality levels (yellow lines).
        2 => {
            let harvester = paper_sampler(scale.reads.max(200), threads);
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
            let picks = [bins.first(), bins.get(2)].into_iter().flatten();
            picks
                .filter_map(|bin| bin.first())
                .flat_map(|st| {
                    let label = format!("{}{:.1}%", FIG8_SERIES[2], st.delta_e_is);
                    series(&label, sweep(Protocol::paper_ra, Some(&st.bits), seed ^ 3))
                })
                .collect()
        }
        // FR with oracle c_p: at this s_p, the best c_p from the same grid.
        _ => {
            let i = id - FIG8_SERIES.len();
            let seed = seed.wrapping_add(100 + i as u64);
            let best = fr_oracle_cp(&sampler, qubo, eg, &grid, grid[i], seed);
            series(FR_ORACLE, best.into_iter().collect())
        }
    }
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

/// The headline comparison on 8-user 16-QAM instance `instance` of the
/// seed's generator.
fn headline_row(scale: Scale, seed: u64, instance: usize, threads: usize) -> HeadlineRow {
    let mut rng = Rng64::new(seed);
    let config = InstanceConfig::paper(8, Modulation::Qam16);
    for _ in 0..instance {
        DetectionInstance::generate(&config, &mut rng);
    }
    let inst = DetectionInstance::generate(&config, &mut rng);
    let eg = inst.ground_energy();
    let qubo = &inst.reduction.qubo;
    let (gs_bits, gs_e) = hqw_qubo::greedy_search(qubo);
    let sampler = paper_sampler(scale.reads, threads);
    let grid = scale.sp_grid();
    let seed = seed.wrapping_add(instance as u64 * 31);
    let best = |protocol: fn(f64) -> Protocol, init: Option<&[u8]>, seed: u64| {
        best_point(&sweep_protocol(
            &sampler, qubo, eg, &grid, protocol, init, seed,
        ))
    };
    HeadlineRow {
        instance,
        gs_delta_e_is: delta_e_percent(gs_e, eg),
        fa_best: best(Protocol::paper_fa, None, seed),
        ra_best: best(Protocol::paper_ra, Some(&gs_bits), seed.wrapping_add(7)),
    }
}

// ---------------------------------------------------------------------------
// The figure engine and its report
// ---------------------------------------------------------------------------

/// One figure point's rows: a shard/checkpoint record, written as
/// `{"figure": "<name>", "rows": [...]}` (`fig7`'s with the `s_p` its rows
/// ran at).
#[derive(Debug, Clone)]
pub enum FigureRows {
    /// Figure 3: every (modulation, size) row.
    Fig3(Vec<Fig3Row>),
    /// One §3.1 / Figure 4 strength: its noiseless and ICE rows.
    Fig4SoftInfo(Vec<SoftInfoRow>),
    /// Figure 5: the FA, RA and FR schedules.
    Fig5Schedules(Vec<Fig5Row>),
    /// One Figure 6 modulation: a row per arm.
    Fig6(Vec<Fig6Row>),
    /// Figure 7: the RA `s_p` every row ran at, the reference row, then one
    /// row per non-empty ΔE_IS% bin.
    Fig7(f64, Vec<Fig7Row>),
    /// One Figure 8 point: a whole series, or FR at one `s_p`.
    Fig8(Vec<Fig8Row>),
    /// One headline instance's row.
    Headline(Vec<HeadlineRow>),
}

/// A figure row's table cells, at the figure's print precision, and the
/// grid coordinate of its point as [`FigureSpec::coordinate`] renders it.
trait FigureRow: Record {
    fn cells(&self) -> Vec<String>;

    fn coordinate(&self) -> Option<String> {
        None
    }
}

/// A row as its record, its table cells and its point's grid coordinate.
type RenderedRow = (Json, Vec<String>, Option<String>);

fn rendered<R: FigureRow>(rows: &[R]) -> Vec<RenderedRow> {
    rows.iter()
        .map(|r| (r.encode(), r.cells(), r.coordinate()))
        .collect()
}

impl FigureRows {
    /// The figure, and every row rendered.
    fn rows(&self) -> (FigureKind, Vec<RenderedRow>) {
        match self {
            FigureRows::Fig3(rows) => (FigureKind::Fig3, rendered(rows)),
            FigureRows::Fig4SoftInfo(rows) => (FigureKind::Fig4SoftInfo, rendered(rows)),
            FigureRows::Fig5Schedules(rows) => (FigureKind::Fig5Schedules, rendered(rows)),
            FigureRows::Fig6(rows) => (FigureKind::Fig6, rendered(rows)),
            FigureRows::Fig7(_, rows) => (FigureKind::Fig7, rendered(rows)),
            FigureRows::Fig8(rows) => (FigureKind::Fig8, rendered(rows)),
            FigureRows::Headline(rows) => (FigureKind::Headline, rendered(rows)),
        }
    }
}

/// The table header of each figure.
fn columns(figure: FigureKind) -> &'static [&'static str] {
    match figure {
        FigureKind::Fig3 => &["modulation", "n_vars", "simplified_ratio", "avg_fixed_vars"],
        FigureKind::Fig4SoftInfo => &["strength", "ice", "p_star(truth)", "optimum_preserved"],
        FigureKind::Fig5Schedules => &["protocol", "waypoints [t µs, s]", "duration µs"],
        FigureKind::Fig6 => &[
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
        ],
        FigureKind::Fig7 => &["dEis_bin_center_%", "n_states", "p_star", "E[cost]_dE%"],
        FigureKind::Fig8 => &["series", "s_p", "p_star", "duration_us", "TTS99_us"],
        FigureKind::Headline => &[
            "instance",
            "GS_dEis%",
            "FA_best_p*",
            "FA_TTS_us",
            "RA_best_p*",
            "RA_TTS_us",
            "p*_ratio",
        ],
    }
}

impl FigureRow for Fig3Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.modulation.name().to_string(),
            self.n_vars.to_string(),
            fnum(self.simplified_ratio, 3),
            fnum(self.avg_fixed, 2),
        ]
    }
}

impl FigureRow for SoftInfoRow {
    fn cells(&self) -> Vec<String> {
        vec![
            fnum(self.strength, 2),
            self.ice.to_string(),
            fnum(self.p_star, 4),
            self.optimum_preserved.to_string(),
        ]
    }

    fn coordinate(&self) -> Option<String> {
        Some(format!("strength {}", self.strength))
    }
}

impl FigureRow for Fig5Row {
    fn cells(&self) -> Vec<String> {
        let waypoints = self
            .t_us
            .iter()
            .zip(&self.s)
            .map(|(t, s)| format!("[{},{}]", fnum(*t, 2), fnum(*s, 2)))
            .collect::<Vec<_>>()
            .join(" → ");
        vec![self.protocol.clone(), waypoints, fnum(self.duration_us, 2)]
    }
}

impl FigureRow for Fig6Row {
    fn cells(&self) -> Vec<String> {
        // P10 … P90 of FIG6_PERCENTILES.
        let mut cells = vec![
            self.modulation.name().to_string(),
            self.arm.clone(),
            fnum(self.s_p.unwrap_or(f64::NAN), 2),
        ];
        cells.extend(self.percentiles[2..7].iter().map(|&p| fnum(p, 2)));
        cells.push(fnum(self.mean_delta_e, 2));
        cells.push(fnum(self.ground_fraction, 4));
        cells
    }

    fn coordinate(&self) -> Option<String> {
        let (m, n) = (self.modulation.name(), self.percentiles.len());
        Some(format!("{m} with {n} percentiles"))
    }
}

impl FigureRow for Fig7Row {
    fn cells(&self) -> Vec<String> {
        vec![
            fnum(self.bin_center, 1),
            self.n_states.to_string(),
            fnum(self.p_star, 4),
            fnum(self.mean_cost_delta_e, 2),
        ]
    }
}

impl FigureRow for Fig8Row {
    fn cells(&self) -> Vec<String> {
        let p = &self.point;
        vec![
            self.series.clone(),
            fnum(p.param, 2),
            fnum(p.p_star, 4),
            fnum(p.duration_us, 2),
            fnum(p.tts_us, 1),
        ]
    }

    fn coordinate(&self) -> Option<String> {
        Some(match self.series.as_str() {
            FR_ORACLE => format!("{FR_ORACLE} at s_p {}", self.point.param),
            s if s.starts_with(FIG8_SERIES[2]) => FIG8_SERIES[2].to_string(),
            s => s.to_string(),
        })
    }
}

impl FigureRow for HeadlineRow {
    fn cells(&self) -> Vec<String> {
        let best = |p: Option<SweepPoint>| p.map_or((0.0, f64::INFINITY), |p| (p.p_star, p.tts_us));
        let ((fa_p, fa_tts), (ra_p, ra_tts)) = (best(self.fa_best), best(self.ra_best));
        let ratio = match self.p_ratio() {
            Some(x) => fnum(x, 1),
            None if ra_p > 0.0 => "RA-only".into(),
            None if fa_p > 0.0 => "FA-only".into(),
            None => "-".into(),
        };
        vec![
            self.instance.to_string(),
            fnum(self.gs_delta_e_is, 2),
            fnum(fa_p, 4),
            fnum(fa_tts, 1),
            fnum(ra_p, 4),
            fnum(ra_tts, 1),
            ratio,
        ]
    }

    fn coordinate(&self) -> Option<String> {
        Some(format!("instance {}", self.instance))
    }
}

impl FigureSpec {
    /// The grid coordinate every row of point `id` carries: `fig4-softinfo`'s
    /// strength, `fig6`'s modulation (and percentile count), `fig8`'s series
    /// (and FR `s_p`), the headline's instance; `None` for one-point figures.
    fn coordinate(&self, id: usize) -> Option<String> {
        match self.experiment {
            FigureKind::Fig3 | FigureKind::Fig5Schedules | FigureKind::Fig7 => None,
            FigureKind::Fig4SoftInfo => {
                let (_, strength) = softinfo_instance(self.seed, SOFTINFO_STRENGTHS[id]);
                Some(format!("strength {strength}"))
            }
            FigureKind::Fig6 => Some(format!(
                "{} with {} percentiles",
                Modulation::ALL[id].name(),
                FIG6_PERCENTILES.len()
            )),
            FigureKind::Fig8 => Some(match FIG8_SERIES.get(id) {
                Some(label) => label.to_string(),
                None => format!(
                    "{FR_ORACLE} at s_p {}",
                    self.scale.sp_grid()[id - FIG8_SERIES.len()]
                ),
            }),
            FigureKind::Headline => Some(format!("instance {id}")),
        }
    }
}

/// The engine runs the figure the spec names.
impl GridEngine for FigureSpec {
    type Unit = FigureRows;
    type Point = FigureRows;
    type Report = FigureReport;

    fn validate(&self) -> Result<(), SpecError> {
        FigureSpec::validate(self)
    }

    fn grid_len(&self) -> usize {
        match self.experiment {
            FigureKind::Fig3 | FigureKind::Fig5Schedules | FigureKind::Fig7 => 1,
            FigureKind::Fig4SoftInfo => SOFTINFO_STRENGTHS.len(),
            FigureKind::Fig6 => Modulation::ALL.len(),
            FigureKind::Fig8 => FIG8_SERIES.len() + self.scale.sp_grid().len(),
            FigureKind::Headline => self.scale.instances,
        }
    }

    /// Points run one at a time; each sampler call fans its reads out on
    /// the spec's `threads` instead. Shards split the points.
    fn threads(&self) -> usize {
        1
    }

    fn run_unit(&self, id: usize, _: usize, _: Option<&Collector>, _: u32) -> FigureRows {
        let (scale, seed, threads) = (self.scale, self.seed, self.threads);
        match self.experiment {
            // Cheap: many instances per point.
            FigureKind::Fig3 => FigureRows::Fig3(fig3_rows(scale.instances.max(10) * 5, seed)),
            FigureKind::Fig4SoftInfo => FigureRows::Fig4SoftInfo(softinfo_rows(
                scale,
                seed,
                SOFTINFO_STRENGTHS[id],
                threads,
            )),
            FigureKind::Fig5Schedules => FigureRows::Fig5Schedules(fig5_rows()),
            FigureKind::Fig6 => {
                FigureRows::Fig6(fig6_rows(scale, seed, Modulation::ALL[id], threads))
            }
            FigureKind::Fig7 => {
                let (s_p, rows) = fig7_rows(scale, seed, threads);
                FigureRows::Fig7(s_p, rows)
            }
            FigureKind::Fig8 => FigureRows::Fig8(fig8_rows(scale, seed, id, threads)),
            FigureKind::Headline => {
                FigureRows::Headline(vec![headline_row(scale, seed, id, threads)])
            }
        }
    }

    fn reduce(&self, _: usize, mut units: Vec<FigureRows>) -> FigureRows {
        units.pop().expect("one unit per point")
    }

    fn decode(&self, id: usize, doc: &Json, ctx: &str) -> Result<FigureRows, SpecError> {
        let point = FigureRows::decode(doc, ctx)?;
        let figure = point.rows().0;
        if figure != self.experiment {
            return Err(SpecError::new(
                ctx,
                format!(
                    "a '{}' point in a '{}' run",
                    figure.name(),
                    self.experiment.name()
                ),
            ));
        }
        if let Some(want) = self.coordinate(id) {
            for (i, (.., got)) in point.rows().1.into_iter().enumerate() {
                let got = got.unwrap_or_default();
                check_coordinates(&format!("{ctx}.rows[{i}]"), got, want.clone())?;
            }
        }
        Ok(point)
    }

    fn assemble(&self, points: Vec<FigureRows>) -> Result<FigureReport, SpecError> {
        Ok(FigureReport {
            spec: self.clone(),
            points,
        })
    }
}

/// A figure's report: its spec and every point's rows, in grid order.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// The figure's spec (its `threads` never reaches the report's bytes).
    pub spec: FigureSpec,
    /// Every point's rows, in grid order.
    pub points: Vec<FigureRows>,
}

impl FigureReport {
    /// Renders the report as the `BENCH_<figure>.json` document (schema in
    /// `crates/bench/README.md`): the spec's scale and seed, `fig7`'s `s_p`,
    /// and every row as a record at full precision. Pure function of the
    /// report contents: byte-identical across runs and thread counts.
    pub fn to_json(&self) -> String {
        let mut doc = vec![
            ("bench", self.spec.experiment.name().into()),
            ("scenario", self.spec.encode()),
        ];
        if let [FigureRows::Fig7(s_p, _)] = &self.points[..] {
            doc.push(("s_p", (*s_p).into()));
        }
        let rows = self.points.iter().flat_map(|p| p.rows().1);
        doc.push(("rows", Json::Arr(rows.map(|(record, ..)| record).collect())));
        render(
            &Json::object(doc),
            &Layout::Block(&[SCENARIO, ("rows", ROWS)]),
        )
    }
}

impl Report for FigureReport {
    fn name(&self) -> &'static str {
        self.spec.experiment.name()
    }

    fn schema_version(&self) -> u32 {
        1
    }

    fn csv_name(&self) -> String {
        format!("{}.csv", self.name().replace('-', "_"))
    }

    fn to_json(&self) -> String {
        FigureReport::to_json(self)
    }

    fn table(&self) -> Table {
        let mut table = Table::new(columns(self.spec.experiment));
        for (_, cells, _) in self.points.iter().flat_map(|p| p.rows().1) {
            table.push_row(cells);
        }
        table
    }
}

record!(SweepPoint {
    param: f64,
    p_star: Ratio,
    duration_us: Us,
    tts_us: Tts,
    mean_energy: f64,
});

record!(Fig3Row {
    modulation: Modulation,
    n_vars: usize,
    simplified_ratio: Ratio,
    avg_fixed: f64,
});

record!(SoftInfoRow {
    strength: f64,
    ice: bool,
    p_star: Ratio,
    optimum_preserved: bool,
});

record!(Fig5Row {
    protocol: String,
    t_us: Vec<f64>,
    s: Vec<f64>,
    duration_us: Us,
});

record!(Fig6Row {
    modulation: Modulation,
    arm: String,
    s_p: Option<f64>,
    percentiles: Vec<f64>,
    ground_fraction: Ratio,
    mean_delta_e: f64,
});

record!(Fig7Row {
    bin_center: f64,
    n_states: usize,
    p_star: Ratio,
    mean_cost_delta_e: f64,
});

record!(Fig8Row {
    series: String,
    point: SweepPoint,
});

record!(HeadlineRow {
    instance: usize,
    gs_delta_e_is: f64,
    fa_best: Option<SweepPoint>,
    ra_best: Option<SweepPoint>,
});

/// A point's `rows` are read as its `figure` tag's rows.
impl Record for FigureRows {
    const FIELDS: &'static [(&'static str, bool)] =
        &[("figure", true), ("s_p", true), ("rows", true)];

    fn write_fields(&self, out: &mut Vec<(String, Json)>) {
        let (figure, rows) = self.rows();
        out.push(("figure".into(), figure.name().into()));
        if let FigureRows::Fig7(s_p, _) = self {
            out.push(("s_p".into(), (*s_p).into()));
        }
        let rows = rows.into_iter().map(|(record, ..)| record).collect();
        out.push(("rows".into(), Json::Arr(rows)));
    }

    fn read_fields(json: &Json, ctx: &str) -> Result<FigureRows, SpecError> {
        let name = tag_of(json, "figure", ctx)?;
        let figure = FigureKind::from_name(name)
            .ok_or_else(|| SpecError::new(ctx, format!("unknown figure '{name}'")))?;
        if figure != FigureKind::Fig7 && json.get("s_p").is_some() {
            return Err(SpecError::new(ctx, format!("a '{name}' point has no s_p")));
        }
        let rows = json.get("rows");
        Ok(match figure {
            FigureKind::Fig3 => FigureRows::Fig3(Vec::<Fig3Row>::read(rows, "rows", ctx)?),
            FigureKind::Fig4SoftInfo => {
                FigureRows::Fig4SoftInfo(Vec::<SoftInfoRow>::read(rows, "rows", ctx)?)
            }
            FigureKind::Fig5Schedules => {
                FigureRows::Fig5Schedules(Vec::<Fig5Row>::read(rows, "rows", ctx)?)
            }
            FigureKind::Fig6 => FigureRows::Fig6(Vec::<Fig6Row>::read(rows, "rows", ctx)?),
            FigureKind::Fig7 => FigureRows::Fig7(
                f64::read(json.get("s_p"), "s_p", ctx)?,
                Vec::<Fig7Row>::read(rows, "rows", ctx)?,
            ),
            FigureKind::Fig8 => FigureRows::Fig8(Vec::<Fig8Row>::read(rows, "rows", ctx)?),
            FigureKind::Headline => {
                FigureRows::Headline(Vec::<HeadlineRow>::read(rows, "rows", ctx)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{assemble_records, run_grid, run_records};

    fn quick(experiment: FigureKind, seed: u64) -> FigureSpec {
        FigureSpec {
            experiment,
            scale: Scale::quick(),
            seed,
            threads: 0,
        }
    }

    fn points(experiment: FigureKind, seed: u64) -> Vec<FigureRows> {
        run_grid(&quick(experiment, seed), None).points
    }

    #[test]
    fn fig3_shows_the_simplification_cliff() {
        let [FigureRows::Fig3(rows)] = &points(FigureKind::Fig3, 11)[..] else {
            unreachable!()
        };
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
        let [FigureRows::Fig7(s_p, rows)] = &points(FigureKind::Fig7, 3)[..] else {
            unreachable!()
        };
        assert!((0.25..=0.99).contains(s_p));
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
        let rows: Vec<HeadlineRow> = points(FigureKind::Headline, 5)
            .into_iter()
            .flat_map(|p| match p {
                FigureRows::Headline(rows) => rows,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rows.len(), Scale::quick().instances);
        for r in &rows {
            assert!(r.gs_delta_e_is >= 0.0);
        }
    }

    #[test]
    fn softinfo_zero_strength_preserves_optimum() {
        let rows: Vec<SoftInfoRow> = points(FigureKind::Fig4SoftInfo, 7)
            .into_iter()
            .flat_map(|p| match p {
                FigureRows::Fig4SoftInfo(rows) => rows,
                _ => unreachable!(),
            })
            .collect();
        let baseline: Vec<_> = rows.iter().filter(|r| r.strength == 0.0).collect();
        assert!(!baseline.is_empty());
        for r in baseline {
            assert!(r.optimum_preserved);
        }
        // Correct constraints never displace the noiseless optimum.
        assert!(rows.iter().all(|r| r.optimum_preserved));
    }

    #[test]
    fn figure_records_reassemble_and_reject_foreign_points() {
        let spec = quick(FigureKind::Fig5Schedules, 1);
        let records = run_records(&spec, &[0]);
        let report = assemble_records(&spec, records.clone()).expect("own records");
        assert_eq!(report.to_json(), run_grid(&spec, None).to_json());
        assert_eq!(report.table().len(), 3);

        let err = assemble_records(&quick(FigureKind::Fig3, 1), records).unwrap_err();
        assert!(err.to_string().contains("'fig5-schedules' point"), "{err}");

        // A fig8 FA series is point 0 only.
        let fig8 = quick(FigureKind::Fig8, 1);
        let point = SweepPoint {
            param: fig8.scale.sp_grid()[0],
            p_star: 0.5,
            duration_us: 2.0,
            tts_us: 13.3,
            mean_energy: -3.5,
        };
        let fa = FigureRows::Fig8(vec![Fig8Row {
            series: FIG8_SERIES[0].into(),
            point,
        }])
        .encode();
        assert!(GridEngine::decode(&fig8, 0, &fa, "point 0").is_ok());
        let err = GridEngine::decode(&fig8, 1, &fa, "point 1").unwrap_err();
        assert!(err.to_string().contains("(FA)"), "{err}");

        // A fig4-softinfo point carries its own strength.
        let fig4 = quick(FigureKind::Fig4SoftInfo, 1);
        let (_, strength) = softinfo_instance(fig4.seed, SOFTINFO_STRENGTHS[2]);
        let row = |ice| SoftInfoRow {
            strength,
            ice,
            p_star: 0.25,
            optimum_preserved: true,
        };
        let rows = FigureRows::Fig4SoftInfo(vec![row(false), row(true)]).encode();
        assert!(GridEngine::decode(&fig4, 2, &rows, "point 2").is_ok());
        let err = GridEngine::decode(&fig4, 3, &rows, "point 3").unwrap_err();
        assert!(err.to_string().contains("do not match"), "{err}");
    }

    #[test]
    fn an_unreached_ground_state_has_no_tts_on_the_wire() {
        let point = SweepPoint {
            param: 0.45,
            p_star: 0.0,
            duration_us: 2.0,
            tts_us: f64::INFINITY,
            mean_energy: -3.5,
        };
        let doc = point.encode();
        assert_eq!(doc.get("tts_us"), Some(&Json::Null));
        let back = SweepPoint::decode(&doc, "test").expect("decodes");
        assert_eq!(back.tts_us, f64::INFINITY);
    }
}
