//! Batched BER-vs-SNR scenario engine.
//!
//! The paper's central evaluation judges detectors by end-to-end link
//! metrics: BER-vs-SNR curves comparing the quantum-annealing ML path
//! against classical receivers. This module is the harness that produces
//! those curves for *any* [`Detector`] — the five classical families in
//! `hqw-phy`, the SA-backed [`QuboDetector`], and the full annealer-backed
//! [`HybridSolver`] via [`HybridDetector`].
//!
//! ## Determinism contract
//!
//! The sweep ([`BerSweep`], run through [`crate::grid`]) fans out over the
//! (SNR point × channel realization) grid; every cell's seed derives from
//! the scenario seed and the cell's full-grid index, every detector inside
//! a cell sees the *same* channel/observation (paired comparison), and the
//! accumulation pass runs serially in grid order. The thread count is
//! therefore a pure throughput knob: reports — including their JSON
//! rendering — are **byte-identical** for any value, which CI pins by
//! diffing a 1-thread against an N-thread run.

use crate::grid::{check_coordinates, GridEngine};
use crate::pipeline::item_seed;
use crate::protocol::Protocol;
use crate::solver::{HybridConfig, HybridSolver};
use crate::spec::json::Json;
use crate::spec::{check_keys, req, req_f64, req_ratio, req_str, SpecError};
use crate::stages::GreedyInitializer;
use crate::telemetry::Collector;
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::DWaveProfile;
use hqw_math::{CMatrix, CVector, Rng64};
use hqw_phy::channel::{add_awgn, snr_db_to_noise_variance, ChannelModel};
use hqw_phy::detect::{
    instance_fingerprint, DetectionResult, Detector, DetectorMeta, Fcsd, KBest, Mmse, QuboDetector,
    SphereDecoder, ZeroForcing,
};
use hqw_phy::instance::DetectionInstance;
use hqw_phy::metrics::{bit_error_rate, symbol_error_rate, vector_error};
use hqw_phy::mimo::MimoSystem;
use hqw_phy::modulation::Modulation;
use hqw_phy::reduction::reduce_to_qubo;
use hqw_qubo::sa::SaParams;
use std::sync::Arc;

/// The annealer-backed hybrid solver wrapped as a [`Detector`].
///
/// Routes `(H, y)` through the ML→Ising reduction into the full
/// [`HybridSolver`] path (classical initializer → simulated QPU → best
/// sample). The per-call solver seed derives from the stored base seed and
/// an [`instance_fingerprint`] of the inputs, so `detect` is a pure function
/// of its arguments (the [`Detector`] determinism contract).
///
/// The wrapped solver must not use ground-truth initializers
/// (`OracleInitializer`): the detector has no access to transmitted bits,
/// and the synthesized instance is marked noisy so ground-truth shortcuts
/// panic instead of silently cheating.
pub struct HybridDetector {
    solver: HybridSolver,
    seed: u64,
}

impl HybridDetector {
    /// Wraps a hybrid solver as a detector with the given base seed.
    pub fn new(solver: HybridSolver, seed: u64) -> Self {
        HybridDetector { solver, seed }
    }
}

impl Detector for HybridDetector {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn detect(&self, system: &MimoSystem, h: &CMatrix, y: &CVector) -> DetectionResult {
        let reduction = reduce_to_qubo(system, h, y);
        let n_vars = reduction.qubo.num_vars();
        // The solver API takes a DetectionInstance; synthesize one with
        // placeholder ground truth. `noisy: true` makes any ground-truth
        // access (`ground_energy`) panic rather than read the placeholders.
        let instance = DetectionInstance {
            system: *system,
            h: h.clone(),
            y: y.clone(),
            tx_gray_bits: vec![0; system.bits_per_use()],
            tx_natural_bits: vec![0; n_vars],
            reduction,
            noisy: true,
        };
        let seed = self.seed ^ instance_fingerprint(h, y);
        let result = self.solver.solve(&instance, seed);
        let symbols = instance.reduction.bits_to_symbols(&result.best_bits);
        let gray_bits = instance.reduction.natural_to_gray(&result.best_bits);
        DetectionResult {
            symbols,
            gray_bits,
            meta: DetectorMeta {
                nodes_visited: 0,
                sweeps: result.samples.total_reads(),
            },
        }
    }
}

/// One named arm of a BER sweep: a detector factory parameterized by the
/// operating noise variance (so noise-aware detectors like MMSE stay matched
/// at every SNR point), plus report metadata.
pub struct ScenarioDetector {
    name: String,
    qubo_backed: bool,
    build: Box<dyn Fn(f64) -> Arc<dyn Detector> + Send + Sync>,
}

impl ScenarioDetector {
    /// An arm that uses the same detector at every SNR point.
    pub fn fixed(qubo_backed: bool, detector: impl Detector + 'static) -> Self {
        let name = detector.name().to_string();
        let det: Arc<dyn Detector> = Arc::new(detector);
        ScenarioDetector {
            name,
            qubo_backed,
            build: Box::new(move |_| det.clone()),
        }
    }

    /// An arm whose detector is rebuilt from the per-point noise variance.
    pub fn noise_matched(
        name: &str,
        qubo_backed: bool,
        build: impl Fn(f64) -> Arc<dyn Detector> + Send + Sync + 'static,
    ) -> Self {
        ScenarioDetector {
            name: name.to_string(),
            qubo_backed,
            build: Box::new(build),
        }
    }

    /// Arm name as it appears in reports.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Configuration of a BER-vs-SNR sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SnrSweepConfig {
    /// Number of transmitting users.
    pub n_users: usize,
    /// Number of base-station antennas.
    pub n_rx: usize,
    /// Modulation for all users.
    pub modulation: Modulation,
    /// Channel model.
    pub channel: ChannelModel,
    /// SNR grid in dB (one report point per entry).
    pub snr_db: Vec<f64>,
    /// Independent channel realizations per SNR point.
    pub realizations: usize,
    /// Scenario seed; all cell seeds derive from it.
    pub seed: u64,
    /// Worker threads for the grid fan-out (0 = all available cores).
    /// Results are bit-identical for any value.
    pub threads: usize,
}

impl SnrSweepConfig {
    /// Starts a builder for an `n_users × n_users` sweep (override `n_rx`
    /// on the builder for asymmetric arrays) over the paper's unit-gain
    /// random-phase channel.
    pub fn builder(n_users: usize, modulation: Modulation) -> SnrSweepConfigBuilder {
        SnrSweepConfigBuilder {
            config: SnrSweepConfig {
                n_users,
                n_rx: n_users,
                modulation,
                channel: ChannelModel::UnitGainRandomPhase,
                snr_db: Vec::new(),
                realizations: 1,
                seed: 0,
                threads: 0,
            },
        }
    }

    /// Validates the sweep configuration.
    ///
    /// An empty `snr_db` grid is **legal** (it yields series with no
    /// points), matching [`BerSweep`]'s degenerate-input contract.
    ///
    /// # Errors
    /// Returns the first violated constraint: zero users/antennas, zero
    /// realizations, or non-finite SNR values.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "SnrSweepConfig";
        if self.n_users == 0 {
            return Err(SpecError::new(ctx, "need at least one user"));
        }
        if self.n_rx == 0 {
            return Err(SpecError::new(ctx, "need at least one receive antenna"));
        }
        if self.realizations == 0 {
            return Err(SpecError::new(ctx, "zero realizations per point"));
        }
        if let Some(bad) = self.snr_db.iter().find(|v| !v.is_finite()) {
            return Err(SpecError::new(ctx, format!("non-finite SNR value {bad}")));
        }
        Ok(())
    }
}

/// Builder for [`SnrSweepConfig`] — the validated construction path the
/// spec layer and examples use (`build()` runs
/// [`SnrSweepConfig::validate`]).
#[derive(Debug, Clone)]
pub struct SnrSweepConfigBuilder {
    config: SnrSweepConfig,
}

impl SnrSweepConfigBuilder {
    /// Overrides the receive-antenna count (defaults to `n_users`).
    pub fn n_rx(mut self, n_rx: usize) -> Self {
        self.config.n_rx = n_rx;
        self
    }

    /// Sets the channel model (default: unit-gain random phase).
    pub fn channel(mut self, channel: ChannelModel) -> Self {
        self.config.channel = channel;
        self
    }

    /// Sets the SNR grid in dB.
    pub fn snr_db(mut self, snr_db: Vec<f64>) -> Self {
        self.config.snr_db = snr_db;
        self
    }

    /// Sets the channel realizations per SNR point (default 1).
    pub fn realizations(mut self, realizations: usize) -> Self {
        self.config.realizations = realizations;
        self
    }

    /// Sets the scenario seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker-thread count (default 0 = all cores; results are
    /// bit-identical for any value).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// Returns the first [`SnrSweepConfig::validate`] violation.
    pub fn build(self) -> Result<SnrSweepConfig, SpecError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One point of one detector's BER-vs-SNR curve (averages over the point's
/// channel realizations).
#[derive(Debug, Clone, Copy)]
pub struct BerPoint {
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// AWGN per-antenna noise variance at this SNR.
    pub noise_variance: f64,
    /// Bit error rate.
    pub ber: f64,
    /// Symbol error rate.
    pub ser: f64,
    /// Block (whole channel-use vector) error rate.
    pub bler: f64,
    /// Deterministic goodput proxy: correct-block bits per channel use,
    /// `bits_per_use × (1 − bler)`.
    pub goodput_bpcu: f64,
    /// Mean search-tree nodes visited per detection.
    pub avg_nodes_visited: f64,
    /// Mean annealer/SA sweeps per detection.
    pub avg_sweeps: f64,
}

/// One detector's result at one SNR grid point — one arm of a
/// [`BerColumn`].
#[derive(Debug, Clone)]
pub struct BerArmPoint {
    /// Detector name.
    pub detector: String,
    /// Whether this arm routes through the ML→QUBO/Ising reduction.
    pub qubo_backed: bool,
    /// The arm's metrics at this SNR point.
    pub point: BerPoint,
}

/// Every detector's result at one SNR grid point: one point of the BER
/// sweep's grid (point id = index into `config.snr_db`).
///
/// A column is the report sliced the other way round from
/// [`DetectorSeries`]: per-point across detectors instead of per-detector
/// across points. [`BerSweep`] computes columns and transposes them back
/// into series when it assembles the report.
#[derive(Debug, Clone)]
pub struct BerColumn {
    /// Grid-order point id (index into the configured `snr_db` grid).
    pub id: usize,
    /// One entry per roster detector, in roster order.
    pub arms: Vec<BerArmPoint>,
}

/// One detector's full curve.
#[derive(Debug, Clone)]
pub struct DetectorSeries {
    /// Detector name.
    pub detector: String,
    /// Whether this arm routes through the ML→QUBO/Ising reduction.
    pub qubo_backed: bool,
    /// One point per configured SNR value, in grid order.
    pub points: Vec<BerPoint>,
}

/// A full scenario report: the config echo plus every detector's curve.
#[derive(Debug, Clone)]
pub struct BerReport {
    /// Number of transmitting users.
    pub n_users: usize,
    /// Number of receive antennas.
    pub n_rx: usize,
    /// Modulation.
    pub modulation: Modulation,
    /// Channel model.
    pub channel: ChannelModel,
    /// Realizations per SNR point.
    pub realizations: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Per-detector curves, in roster order.
    pub series: Vec<DetectorSeries>,
}

/// One channel realization's outcome for one detector — a BER sweep's
/// unit of parallel work yields one per roster arm.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellOutcome {
    ber: f64,
    ser: f64,
    block_err: f64,
    nodes: f64,
    sweeps: f64,
}

/// The full `ber` detector roster: ≥ 3 families, two of them
/// QUBO/anneal-backed. A `ber` spec runs over this roster.
pub fn paper_roster(seed: u64) -> Vec<ScenarioDetector> {
    let sa_params = SaParams {
        sweeps: 96,
        num_reads: 24,
        threads: 1, // the grid is the parallel level; keep reads serial
        ..Default::default()
    };
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 16,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            threads: 1,
            ..Default::default()
        },
    );
    let hybrid = HybridSolver::new(
        sampler,
        HybridConfig {
            protocol: Protocol::paper_ra(0.65),
            initializer: Box::new(GreedyInitializer::default()),
        },
    );
    vec![
        ScenarioDetector::fixed(false, ZeroForcing),
        ScenarioDetector::noise_matched("MMSE", false, |nv| Arc::new(Mmse::new(nv))),
        ScenarioDetector::fixed(false, SphereDecoder::with_budget(100_000)),
        ScenarioDetector::fixed(false, KBest::new(8)),
        ScenarioDetector::fixed(false, Fcsd::new(1)),
        ScenarioDetector::fixed(true, QuboDetector::with_params(sa_params, seed)),
        ScenarioDetector::fixed(true, HybridDetector::new(hybrid, seed)),
    ]
}

/// A batched BER-vs-SNR sweep over a detector roster: the `ber` family's
/// [`GridEngine`] (run it with [`crate::grid::run_grid`]).
///
/// Point `id` is the column at `config.snr_db[id]`; its units are the
/// column's channel realizations, so the fan-out spreads the (SNR ×
/// realization) cells across `config.threads` workers. Within a cell every
/// detector sees the same channel, transmitted bits and noise (paired
/// comparison). See the module docs for the determinism contract.
///
/// Degenerate inputs stay well-formed rather than panicking: an empty
/// roster yields a report with no series, and an empty SNR grid yields
/// series with no points (both render as valid JSON). Zero realizations
/// per point is rejected by [`SnrSweepConfig::validate`] (the averages
/// would be `0/0`).
pub struct BerSweep<'a> {
    /// The sweep configuration.
    pub config: &'a SnrSweepConfig,
    /// The detector arms, in report order.
    pub detectors: Vec<ScenarioDetector>,
}

impl GridEngine for BerSweep<'_> {
    type Unit = Vec<CellOutcome>;
    type Point = BerColumn;
    type Report = BerReport;

    fn validate(&self) -> Result<(), SpecError> {
        self.config.validate()
    }

    fn grid_len(&self) -> usize {
        self.config.snr_db.len()
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn units_per_point(&self) -> usize {
        self.config.realizations
    }

    fn run_unit(&self, id: usize, unit: usize, _: Option<&Collector>, _: u32) -> Vec<CellOutcome> {
        let config = self.config;
        // The cell's seed is indexed by its position in the FULL grid — the
        // same derivation the batch solver uses — so a point's randomness
        // depends on neither thread placement nor which subset runs.
        let mut rng = Rng64::new(item_seed(config.seed, id * config.realizations + unit));
        let noise_variance = snr_db_to_noise_variance(config.snr_db[id], config.n_users);
        let system = MimoSystem::new(config.n_users, config.n_rx, config.modulation);
        let h = config
            .channel
            .generate(config.n_rx, config.n_users, &mut rng);
        let tx_bits = system.random_bits(&mut rng);
        let x = system.modulate(&tx_bits);
        let mut y = system.transmit(&h, &x);
        add_awgn(&mut y, noise_variance, &mut rng);

        let bits_per_symbol = config.modulation.bits_per_symbol();
        self.detectors
            .iter()
            .map(|arm| {
                let result = (arm.build)(noise_variance).detect(&system, &h, &y);
                CellOutcome {
                    ber: bit_error_rate(&tx_bits, &result.gray_bits),
                    ser: symbol_error_rate(&tx_bits, &result.gray_bits, bits_per_symbol),
                    block_err: vector_error(&tx_bits, &result.gray_bits),
                    nodes: result.meta.nodes_visited as f64,
                    sweeps: result.meta.sweeps as f64,
                }
            })
            .collect()
    }

    fn reduce(&self, id: usize, units: Vec<Vec<CellOutcome>>) -> BerColumn {
        let config = self.config;
        let snr_db = config.snr_db[id];
        let bits_per_use = (config.n_users * config.modulation.bits_per_symbol()) as f64;
        let n = config.realizations as f64;
        let arms = self
            .detectors
            .iter()
            .enumerate()
            .map(|(det_idx, arm)| {
                // Serial sums in realization order: deterministic floats.
                let mut a = CellOutcome::default();
                for outcome in units.iter().map(|cell| &cell[det_idx]) {
                    a.ber += outcome.ber;
                    a.ser += outcome.ser;
                    a.block_err += outcome.block_err;
                    a.nodes += outcome.nodes;
                    a.sweeps += outcome.sweeps;
                }
                let bler = a.block_err / n;
                BerArmPoint {
                    detector: arm.name.clone(),
                    qubo_backed: arm.qubo_backed,
                    point: BerPoint {
                        snr_db,
                        noise_variance: snr_db_to_noise_variance(snr_db, config.n_users),
                        ber: a.ber / n,
                        ser: a.ser / n,
                        bler,
                        goodput_bpcu: bits_per_use * (1.0 - bler),
                        avg_nodes_visited: a.nodes / n,
                        avg_sweeps: a.sweeps / n,
                    },
                }
            })
            .collect();
        BerColumn { id, arms }
    }

    /// `{"arms": [{"detector": ..., "qubo_backed": ..., "point": {...}}]}`.
    fn encode(&self, column: &BerColumn) -> String {
        let arms = column
            .arms
            .iter()
            .map(|a| {
                format!(
                    "{{\"detector\": {}, \"qubo_backed\": {}, \"point\": {}}}",
                    Json::Str(a.detector.clone()).to_string_compact(),
                    a.qubo_backed,
                    a.point.to_json_object()
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{\"arms\": [{arms}]}}")
    }

    fn decode(&self, id: usize, doc: &Json, ctx: &str) -> Result<BerColumn, SpecError> {
        check_keys(doc, &["arms"], ctx)?;
        let want = format!("snr_db {}", self.config.snr_db[id]);
        let arms = req(doc, "arms", ctx)?
            .as_arr()
            .ok_or_else(|| SpecError::new(ctx, "field \"arms\" must be an array"))?
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let a_ctx = &format!("{ctx}.arms[{i}]");
                check_keys(a, &["detector", "qubo_backed", "point"], a_ctx)?;
                let point = BerPoint::from_json(req(a, "point", a_ctx)?, a_ctx)?;
                check_coordinates(a_ctx, format!("snr_db {}", point.snr_db), want.clone())?;
                Ok(BerArmPoint {
                    detector: req_str(a, "detector", a_ctx)?.to_string(),
                    qubo_backed: req(a, "qubo_backed", a_ctx)?.as_bool().ok_or_else(|| {
                        SpecError::new(a_ctx.clone(), "field \"qubo_backed\" must be a boolean")
                    })?,
                    point,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        Ok(BerColumn { id, arms })
    }

    fn assemble(&self, columns: Vec<BerColumn>) -> Result<BerReport, SpecError> {
        // The series follow the first column's roster (the engine's own for
        // an empty grid). Every column must carry the same roster, in the
        // same order — a mismatch means the records came from different
        // runs.
        let roster: Vec<(String, bool)> = match columns.first() {
            Some(first) => first
                .arms
                .iter()
                .map(|a| (a.detector.clone(), a.qubo_backed))
                .collect(),
            None => self
                .detectors
                .iter()
                .map(|d| (d.name.clone(), d.qubo_backed))
                .collect(),
        };
        let same_roster = |c: &BerColumn| {
            c.arms.len() == roster.len()
                && c.arms
                    .iter()
                    .zip(&roster)
                    .all(|(a, (name, qubo))| a.detector == *name && a.qubo_backed == *qubo)
        };
        if let Some(c) = columns.iter().find(|c| !same_roster(c)) {
            return Err(SpecError::new(
                "ber",
                format!(
                    "point {} has a different detector roster than point {}",
                    c.id, columns[0].id
                ),
            ));
        }
        let config = self.config;
        Ok(BerReport {
            n_users: config.n_users,
            n_rx: config.n_rx,
            modulation: config.modulation,
            channel: config.channel,
            realizations: config.realizations,
            seed: config.seed,
            series: roster
                .into_iter()
                .enumerate()
                .map(|(ai, (detector, qubo_backed))| DetectorSeries {
                    detector,
                    qubo_backed,
                    points: columns.iter().map(|c| c.arms[ai].point).collect(),
                })
                .collect(),
        })
    }
}

/// Formats a finite float as a JSON number (shared with the stream engine's
/// report writer).
///
/// # Panics
/// Panics on non-finite input (JSON has no representation for it, and the
/// scenario metrics are finite by construction).
pub(crate) fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "json_num: non-finite value {v}");
    format!("{v}")
}

impl BerPoint {
    /// Renders the point as a single-line JSON object — one line of the
    /// report's points arrays and the `point` field of a shard/checkpoint
    /// record.
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"snr_db\": {}, \"noise_variance\": {}, \"ber\": {}, \
             \"ser\": {}, \"bler\": {}, \"goodput_bpcu\": {}, \
             \"avg_nodes_visited\": {}, \"avg_sweeps\": {}}}",
            json_num(self.snr_db),
            json_num(self.noise_variance),
            json_num(self.ber),
            json_num(self.ser),
            json_num(self.bler),
            json_num(self.goodput_bpcu),
            json_num(self.avg_nodes_visited),
            json_num(self.avg_sweeps),
        )
    }

    /// Parses a [`BerPoint::to_json_object`] document back. Exact: the
    /// float codec round-trips shortest-`Display` renderings losslessly.
    pub(crate) fn from_json(o: &Json, ctx: &str) -> Result<BerPoint, SpecError> {
        check_keys(
            o,
            &[
                "snr_db",
                "noise_variance",
                "ber",
                "ser",
                "bler",
                "goodput_bpcu",
                "avg_nodes_visited",
                "avg_sweeps",
            ],
            ctx,
        )?;
        Ok(BerPoint {
            snr_db: req_f64(o, "snr_db", ctx)?,
            noise_variance: req_f64(o, "noise_variance", ctx)?,
            ber: req_ratio(o, "ber", ctx)?,
            ser: req_ratio(o, "ser", ctx)?,
            bler: req_ratio(o, "bler", ctx)?,
            goodput_bpcu: req_f64(o, "goodput_bpcu", ctx)?,
            avg_nodes_visited: req_f64(o, "avg_nodes_visited", ctx)?,
            avg_sweeps: req_f64(o, "avg_sweeps", ctx)?,
        })
    }
}

impl BerReport {
    /// Renders the report as the `BENCH_ber.json` document (schema in
    /// `crates/bench/README.md`). Pure function of the report contents:
    /// byte-identical across runs and thread counts.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"ber\",\n  \"scenario\": {\n");
        s.push_str(&format!("    \"n_users\": {},\n", self.n_users));
        s.push_str(&format!("    \"n_rx\": {},\n", self.n_rx));
        s.push_str(&format!(
            "    \"modulation\": \"{}\",\n",
            self.modulation.name()
        ));
        s.push_str(&format!("    \"channel\": \"{}\",\n", self.channel.name()));
        s.push_str(&format!("    \"realizations\": {},\n", self.realizations));
        s.push_str(&format!("    \"seed\": {}\n  }},\n", self.seed));
        s.push_str("  \"series\": [\n");
        for (i, series) in self.series.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"detector\": \"{}\", \"qubo_backed\": {}, \"points\": [\n",
                series.detector, series.qubo_backed
            ));
            for (j, p) in series.points.iter().enumerate() {
                s.push_str(&format!(
                    "      {}{}\n",
                    p.to_json_object(),
                    if j + 1 < series.points.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!(
                "    ]}}{}\n",
                if i + 1 < self.series.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl crate::report::Report for BerReport {
    fn name(&self) -> &'static str {
        "ber"
    }

    fn schema_version(&self) -> u32 {
        1
    }

    fn to_json(&self) -> String {
        // Delegates to the inherent renderer (the committed-bytes contract
        // lives there).
        BerReport::to_json(self)
    }

    fn table(&self) -> crate::report::Table {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&[
            "detector",
            "snr_db",
            "ber",
            "ser",
            "bler",
            "goodput_bpcu",
            "avg_nodes",
            "avg_sweeps",
        ]);
        for series in &self.series {
            for p in &series.points {
                table.push_row(vec![
                    series.detector.clone(),
                    fnum(p.snr_db, 1),
                    fnum(p.ber, 5),
                    fnum(p.ser, 5),
                    fnum(p.bler, 5),
                    fnum(p.goodput_bpcu, 3),
                    fnum(p.avg_nodes_visited, 1),
                    fnum(p.avg_sweeps, 1),
                ]);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use crate::solver::HybridConfig;
    use crate::stages::GreedyInitializer;
    use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
    use hqw_anneal::DWaveProfile;
    use hqw_phy::detect::{KBest, Mmse, QuboDetector, SphereDecoder, ZeroForcing};
    use hqw_phy::instance::InstanceConfig;
    use hqw_qubo::sa::SaParams;

    /// A named field mutation for the validate() rejection-path tests.
    type Mutation<T> = (&'static str, Box<dyn Fn(&mut T)>);

    fn quick_qubo_detector() -> QuboDetector {
        QuboDetector::with_params(
            SaParams {
                sweeps: 48,
                num_reads: 12,
                ..Default::default()
            },
            0xDEC0DE,
        )
    }

    fn quick_hybrid() -> HybridDetector {
        let sampler = QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: 8,
                engine: EngineKind::Pimc { trotter_slices: 8 },
                threads: 1,
                ..Default::default()
            },
        );
        let solver = HybridSolver::new(
            sampler,
            HybridConfig {
                protocol: Protocol::paper_ra(0.65),
                initializer: Box::new(GreedyInitializer::default()),
            },
        );
        HybridDetector::new(solver, 0xA11CE)
    }

    fn roster() -> Vec<ScenarioDetector> {
        vec![
            ScenarioDetector::fixed(false, ZeroForcing),
            ScenarioDetector::noise_matched("MMSE", false, |nv| Arc::new(Mmse::new(nv))),
            ScenarioDetector::fixed(false, SphereDecoder::with_budget(20_000)),
            ScenarioDetector::fixed(false, KBest::new(8)),
            ScenarioDetector::fixed(true, quick_qubo_detector()),
            ScenarioDetector::fixed(true, quick_hybrid()),
        ]
    }

    fn sweep(config: &SnrSweepConfig, detectors: Vec<ScenarioDetector>) -> BerReport {
        crate::grid::run_grid(&BerSweep { config, detectors }, None)
    }

    fn quick_config(threads: usize) -> SnrSweepConfig {
        SnrSweepConfig {
            n_users: 3,
            n_rx: 3,
            modulation: Modulation::Qpsk,
            channel: ChannelModel::UnitGainRandomPhase,
            snr_db: vec![4.0, 16.0, 28.0],
            realizations: 3,
            seed: 7,
            threads,
        }
    }

    #[test]
    fn report_is_bit_identical_for_any_thread_count() {
        let serial = sweep(&quick_config(1), roster()).to_json();
        for threads in [2, 5, 0] {
            let parallel = sweep(&quick_config(threads), roster()).to_json();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn report_covers_every_arm_and_point_with_sane_metrics() {
        let detectors = roster();
        let config = quick_config(0);
        let report = sweep(&config, roster());
        assert_eq!(report.series.len(), detectors.len());
        assert!(report.series.iter().any(|s| s.qubo_backed));
        let bits_per_use = (config.n_users * config.modulation.bits_per_symbol()) as f64;
        for series in &report.series {
            assert_eq!(series.points.len(), config.snr_db.len());
            for p in &series.points {
                assert!(
                    (0.0..=1.0).contains(&p.ber),
                    "{}: ber {}",
                    series.detector,
                    p.ber
                );
                assert!((0.0..=1.0).contains(&p.ser));
                assert!((0.0..=1.0).contains(&p.bler));
                assert!(p.ber <= p.ser + 1e-12, "BER cannot exceed SER");
                assert!(p.ser <= p.bler + 1e-12, "SER cannot exceed BLER");
                assert!((0.0..=bits_per_use).contains(&p.goodput_bpcu));
            }
        }
    }

    #[test]
    fn ber_improves_with_snr_for_zero_forcing() {
        let detectors = vec![ScenarioDetector::fixed(false, ZeroForcing)];
        let config = SnrSweepConfig {
            snr_db: vec![-2.0, 30.0],
            realizations: 24,
            ..quick_config(0)
        };
        let report = sweep(&config, detectors);
        let points = &report.series[0].points;
        assert!(
            points[1].ber < points[0].ber,
            "ZF BER at 30 dB ({}) should beat −2 dB ({})",
            points[1].ber,
            points[0].ber
        );
        assert!(points[0].ber > 0.05, "low-SNR BER should be substantial");
    }

    #[test]
    fn json_report_round_trips_structure() {
        let detectors = vec![
            ScenarioDetector::fixed(false, ZeroForcing),
            ScenarioDetector::fixed(true, quick_qubo_detector()),
        ];
        let report = sweep(&quick_config(1), detectors);
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"ber\""));
        assert!(json.contains("\"detector\": \"ZF\""));
        assert!(json.contains("\"detector\": \"QUBO-SA\""));
        assert!(json.contains("\"qubo_backed\": true"));
        assert_eq!(json.matches("\"snr_db\"").count(), 2 * 3);
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser (CI runs a real parser over the emitted file).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn hybrid_detector_recovers_noiseless_transmissions() {
        let mut rng = Rng64::new(902);
        let config = InstanceConfig::paper(3, Modulation::Qpsk);
        let inst = DetectionInstance::generate(&config, &mut rng);
        let det = quick_hybrid();
        let result = det.detect(&inst.system, &inst.h, &inst.y);
        assert_eq!(result.gray_bits, inst.tx_gray_bits);
        assert!(result.meta.sweeps > 0, "hybrid must report read metadata");
    }

    #[test]
    fn hybrid_detector_is_a_pure_function_of_its_inputs() {
        let mut rng = Rng64::new(903);
        let config = InstanceConfig::paper(2, Modulation::Qam16);
        let inst = DetectionInstance::generate(&config, &mut rng);
        let det = quick_hybrid();
        let a = det.detect(&inst.system, &inst.h, &inst.y);
        let b = det.detect(&inst.system, &inst.h, &inst.y);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_grid_yields_empty_curves_not_a_panic() {
        let config = SnrSweepConfig {
            snr_db: vec![],
            ..quick_config(1)
        };
        let report = sweep(&config, vec![ScenarioDetector::fixed(false, ZeroForcing)]);
        assert_eq!(report.series.len(), 1);
        assert!(report.series[0].points.is_empty());
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_roster_yields_empty_report_not_a_panic() {
        let report = sweep(&quick_config(1), vec![]);
        assert!(report.series.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"series\": [\n  ]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn single_snr_grid_is_well_formed() {
        let config = SnrSweepConfig {
            snr_db: vec![12.0],
            ..quick_config(0)
        };
        let detectors = vec![
            ScenarioDetector::fixed(false, ZeroForcing),
            ScenarioDetector::fixed(true, quick_qubo_detector()),
        ];
        let report = sweep(&config, detectors);
        assert_eq!(report.series.len(), 2);
        for series in &report.series {
            assert_eq!(series.points.len(), 1);
            assert!((0.0..=1.0).contains(&series.points[0].ber));
        }
    }

    #[test]
    #[should_panic(expected = "zero realizations")]
    fn zero_realizations_rejected() {
        let config = SnrSweepConfig {
            realizations: 0,
            ..quick_config(1)
        };
        sweep(&config, vec![ScenarioDetector::fixed(false, ZeroForcing)]);
    }

    #[test]
    fn validate_rejects_each_bad_field_with_a_message() {
        let cases: [Mutation<SnrSweepConfig>; 4] = [
            ("at least one user", Box::new(|c| c.n_users = 0)),
            ("at least one receive antenna", Box::new(|c| c.n_rx = 0)),
            (
                "zero realizations per point",
                Box::new(|c| c.realizations = 0),
            ),
            ("non-finite SNR", Box::new(|c| c.snr_db = vec![f64::NAN])),
        ];
        for (needle, mutate) in cases {
            let mut config = quick_config(0);
            mutate(&mut config);
            let err = config.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err} missing {needle}");
            assert_eq!(err.context(), "SnrSweepConfig");
        }
        assert_eq!(quick_config(0).validate(), Ok(()));
    }

    #[test]
    fn builder_constructs_validated_configs() {
        let config = SnrSweepConfig::builder(3, Modulation::Qpsk)
            .snr_db(vec![4.0, 16.0])
            .realizations(5)
            .seed(11)
            .threads(2)
            .channel(ChannelModel::RayleighIid)
            .n_rx(4)
            .build()
            .expect("valid builder chain");
        assert_eq!(config.n_users, 3);
        assert_eq!(config.n_rx, 4);
        assert_eq!(config.channel, ChannelModel::RayleighIid);
        assert_eq!(config.realizations, 5);
        assert_eq!(config.seed, 11);
        assert_eq!(config.threads, 2);

        let err = SnrSweepConfig::builder(3, Modulation::Qpsk)
            .realizations(0)
            .build()
            .expect_err("zero realizations must be rejected");
        assert!(err.to_string().contains("zero realizations"));
    }
}
