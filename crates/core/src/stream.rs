//! Streaming frame engine: temporally-correlated channels, deadline-aware
//! hybrid dispatch, warm-started solvers.
//!
//! The paper's core systems argument (Figure 2, Challenge 3) is that hybrid
//! classical-quantum detection runs as a *pipeline under link-layer
//! deadlines*: data bits from successive channel uses stream through
//! classical and quantum stages against a turnaround budget. This module
//! turns the one-shot scenario engine into that workload: frames arrive on a
//! virtual clock from a Gauss–Markov [`ChannelTrack`], a [`DispatchPolicy`]
//! routes each frame to a classical detector or the warm-started SA/anneal
//! path, and per-frame service times are derived **deterministically** from
//! [`DetectorMeta`]-style work counters through a [`CostModel`] — never from
//! wall clocks — so the whole simulation is byte-reproducible at any thread
//! count.
//!
//! Warm starts are the streaming payoff of temporal coherence: frame `t` is
//! seeded from frame `t − 1`'s decision, which under a coherent channel
//! (`ρ` close to 1) is a low-ΔE_IS initial state — the premise the harvest
//! studies (`crate::harvest`) sample offline, earned online here. Each
//! hybrid frame also runs a cold-started reference read, so the report
//! carries the paired *warm-vs-cold sweeps-to-solution* measurement.
//!
//! ## Determinism contract
//!
//! A single stream is sequential by nature (the queue state and the warm
//! state both carry across frames); the [`StreamGridConfig`] grid engine
//! fans the (load × ρ × policy) grid out through [`crate::grid`], with
//! every cell's seed derived from the grid seed and the cell's ρ index.
//! Cells that differ only in load or policy therefore see **identical
//! frame sequences** (paired comparison), and the JSON report is
//! byte-identical for any thread count — CI pins this by diffing a
//! 1-thread against an N-thread `hqw run stream`.

use crate::grid::{check_coordinates, GridEngine};
use crate::report::{render, Layout, ROWS, SCENARIO};
use crate::solver::item_seed;
use crate::spec::codec::{record, Derived, Field, Ratio, Record, Us};
use crate::spec::json::Json;
use crate::spec::SpecError;
use crate::telemetry::Collector;
use hqw_math::stats::percentiles_of;
use hqw_math::Rng64;
use hqw_phy::channel::{ChannelTrack, TrackConfig};
use hqw_phy::detect::{Detector, DetectorMeta, Mmse};
use hqw_phy::instance::DetectionInstance;
use hqw_phy::metrics::bit_error_rate;
use hqw_qubo::sa::{sa_read_csr_traced, SaParams};
use hqw_qubo::{bits_to_spins, spins_to_bits, CsrIsing};

/// How the dispatcher routes frames between the classical and hybrid arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Every frame takes the classical (linear) detector.
    AlwaysClassical,
    /// Every frame takes the warm-started hybrid/SA path.
    AlwaysHybrid,
    /// Deadline-aware fallback: a frame takes the hybrid path only when its
    /// projected completion (queue wait + nominal hybrid service) fits the
    /// latency budget, and downgrades to the classical detector otherwise.
    DeadlineAware,
}

impl DispatchPolicy {
    /// Every policy, in report order.
    pub const ALL: [DispatchPolicy; 3] = [
        DispatchPolicy::AlwaysClassical,
        DispatchPolicy::AlwaysHybrid,
        DispatchPolicy::DeadlineAware,
    ];

    /// Stable machine-readable name (used in stream reports).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::AlwaysClassical => "always-classical",
            DispatchPolicy::AlwaysHybrid => "always-hybrid",
            DispatchPolicy::DeadlineAware => "deadline-aware",
        }
    }

    /// Parses a [`DispatchPolicy::name`] back (`None` for unknown names) —
    /// the experiment-spec layer's inverse of `name`.
    pub fn from_name(name: &str) -> Option<DispatchPolicy> {
        DispatchPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Deterministic per-operation cost model: maps a detector's algorithmic
/// work counters to programmed service microseconds.
///
/// Service time is `base + nodes·us_per_node + sweeps·us_per_sweep` — the
/// same programmed-time convention as the annealer's QPU accounting and the
/// initializer latency models, so the virtual clock never reads a wall
/// clock and stream reports stay bit-identical across machines and thread
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-frame overhead (filtering, reduction, readout) in µs.
    pub base_us: f64,
    /// Cost per search-tree node visited (µs).
    pub us_per_node: f64,
    /// Cost per SA/annealer sweep (µs).
    pub us_per_sweep: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base_us: 10.0,
            us_per_node: 0.05,
            us_per_sweep: 1.5,
        }
    }
}

impl CostModel {
    /// Service time for a detection with the given work counters.
    pub fn service_us(&self, meta: &DetectorMeta) -> f64 {
        self.base_us
            + meta.nodes_visited as f64 * self.us_per_node
            + meta.sweeps as f64 * self.us_per_sweep
    }

    /// Nominal hybrid-path service time for an SA schedule of `sweeps`
    /// sweeps — what the deadline-aware policy budgets against.
    pub fn nominal_hybrid_us(&self, sweeps: usize) -> f64 {
        self.base_us + sweeps as f64 * self.us_per_sweep
    }
}

/// Configuration of one streaming cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The Gauss–Markov channel process frames are drawn from.
    pub track: TrackConfig,
    /// Number of frames to stream.
    pub frames: usize,
    /// Frame inter-arrival period (µs); smaller = higher offered load.
    pub arrival_period_us: f64,
    /// Per-frame latency budget (µs) — the link-layer turnaround deadline.
    pub deadline_us: f64,
    /// Routing policy.
    pub policy: DispatchPolicy,
    /// Work-counter → service-time model.
    pub cost: CostModel,
    /// SA schedule for the hybrid arm. The stream runs **one serving read
    /// per frame** (warm-started when a previous decision exists) plus one
    /// cold reference read; `num_reads`/`threads` are ignored.
    pub sa: SaParams,
    /// Cell seed; the track and every per-frame solver stream derive from it.
    pub seed: u64,
}

impl StreamConfig {
    /// Validates the cell configuration (including its track and SA
    /// parameters).
    ///
    /// A deadline of exactly 0 is **legal**: every frame then misses it,
    /// and the deadline-aware policy downgrades everything to the classical
    /// arm.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "StreamConfig";
        if self.frames == 0 {
            return Err(SpecError::new(ctx, "need at least one frame"));
        }
        if !(self.arrival_period_us > 0.0 && self.arrival_period_us.is_finite()) {
            return Err(SpecError::new(ctx, "arrival period must be > 0"));
        }
        if !(self.deadline_us >= 0.0 && self.deadline_us.is_finite()) {
            return Err(SpecError::new(
                ctx,
                "deadline must be >= 0 (a zero budget downgrades every deadline-aware frame)",
            ));
        }
        self.track
            .validate()
            .map_err(|msg| SpecError::new(ctx, msg))?;
        self.sa.validate().map_err(|msg| SpecError::new(ctx, msg))?;
        validate_cost(&self.cost).map_err(|msg| SpecError::new(ctx, msg))?;
        Ok(())
    }
}

/// Shared cost-model sanity check (no context prefix — callers add their
/// own): all rates finite and non-negative.
pub(crate) fn validate_cost(cost: &CostModel) -> Result<(), String> {
    for (name, v) in [
        ("base_us", cost.base_us),
        ("us_per_node", cost.us_per_node),
        ("us_per_sweep", cost.us_per_sweep),
    ] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!("cost.{name} must be finite and >= 0, got {v}"));
        }
    }
    Ok(())
}

/// Aggregate report of one streaming cell.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Routing policy.
    pub policy: DispatchPolicy,
    /// Channel coherence of the cell's track.
    pub rho: f64,
    /// Frames streamed.
    pub frames: usize,
    /// Frame inter-arrival period (µs).
    pub arrival_period_us: f64,
    /// Latency budget (µs).
    pub deadline_us: f64,
    /// Cell seed.
    pub seed: u64,
    /// Mean wireless bit error rate across frames.
    pub ber: f64,
    /// Fraction of frames whose end-to-end latency exceeded the deadline.
    pub deadline_miss_rate: f64,
    /// Median end-to-end latency (µs).
    pub p50_latency_us: f64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_latency_us: f64,
    /// Sustained throughput: frames per millisecond of simulated time.
    pub throughput_per_ms: f64,
    /// Mean service time per frame (µs).
    pub avg_service_us: f64,
    /// Frames served by the classical arm.
    pub classical_frames: usize,
    /// Frames served by the hybrid arm.
    pub hybrid_frames: usize,
    /// Hybrid frames with a warm/cold measurement pair.
    pub warm_pairs: usize,
    /// Mean sweeps a **cold**-started read needed to reach its own final
    /// solution quality (over warm-pair frames; 0 when `warm_pairs == 0`).
    pub cold_sweeps_to_solution: f64,
    /// Mean sweeps a **warm**-started read needed to reach the paired cold
    /// read's final quality (misses count as the full sweep budget;
    /// 0 when `warm_pairs == 0`).
    pub warm_sweeps_to_solution: f64,
}

/// Runs one streaming cell: frames arrive every `arrival_period_us` on a
/// virtual clock, the policy routes each to `classical` or to the
/// warm-started SA path, and a FIFO single-server queue (the recurrence
/// `start = max(arrival, prev_finish)`) models the detection stage.
///
/// The classical arm is any [`Detector`]; the hybrid arm runs one
/// warm-started serving read per frame (seeded from the previous frame's
/// decision, whichever arm produced it) plus one cold-started reference
/// read that instruments the warm-vs-cold sweeps-to-solution comparison.
/// The cold read is measurement only — it never changes the decision and is
/// not charged to the virtual clock.
///
/// # Panics
/// Panics on zero frames, a non-positive arrival period, a negative
/// deadline, or invalid SA/track parameters (see
/// [`StreamConfig::validate`] for the non-panicking check). A deadline of
/// exactly 0 is accepted: every frame then misses it, and the
/// deadline-aware policy downgrades everything to the classical arm.
///
/// # Telemetry
/// When a collector is given, each frame emits virtual-time spans under
/// trace process `pid` — a `"stage"` span for queue wait (when non-zero)
/// and one for service on the server lane (named after the serving arm),
/// plus an end-to-end `"job"` span on the frame lane. Timestamps are the
/// virtual clock's µs, so the trace is byte-stable across runs; the report
/// is byte-identical with and without a collector.
pub fn run_stream_observed(
    config: &StreamConfig,
    classical: &dyn Detector,
    telemetry: Option<&crate::telemetry::Collector>,
    pid: u32,
) -> StreamReport {
    config.validate().unwrap_or_else(|e| panic!("{e}"));

    let mut recorders = telemetry.map(|collector| {
        collector.label_process(
            pid,
            &format!(
                "stream rho={} period={}us {}",
                config.track.rho,
                config.arrival_period_us,
                config.policy.name()
            ),
        );
        (
            collector.recorder(pid, 1, "server"),
            collector.recorder(pid, 2, "frames"),
        )
    });

    let mut track = ChannelTrack::new(config.track, config.seed);
    let single_read = SaParams {
        num_reads: 1,
        threads: 1,
        ..config.sa
    };
    // Reverse-annealing analog for the warm read: quench from the geometric
    // midpoint of the β ladder instead of the hot end. A full re-anneal
    // would randomize the seed away in the hot phase — the same reason the
    // paper's prototype reverses from s_p rather than annealing from s = 0.
    let warm_read = SaParams {
        beta_initial: (config.sa.beta_initial * config.sa.beta_final).sqrt(),
        ..single_read
    };
    let nominal_hybrid_us = config.cost.nominal_hybrid_us(config.sa.sweeps);

    let mut server_free = 0.0f64;
    let mut warm: Option<Vec<u8>> = None;
    let mut latencies = Vec::with_capacity(config.frames);
    let mut misses = 0usize;
    let mut ber_sum = 0.0f64;
    let mut service_sum = 0.0f64;
    let mut classical_frames = 0usize;
    let mut hybrid_frames = 0usize;
    let mut warm_pairs = 0usize;
    let mut cold_sweep_sum = 0.0f64;
    let mut warm_sweep_sum = 0.0f64;

    for t in 0..config.frames {
        let inst: DetectionInstance = track.next().expect("ChannelTrack is infinite");
        let arrival = t as f64 * config.arrival_period_us;
        let start = arrival.max(server_free);
        let queue_wait = start - arrival;

        let take_hybrid = match config.policy {
            DispatchPolicy::AlwaysClassical => false,
            DispatchPolicy::AlwaysHybrid => true,
            DispatchPolicy::DeadlineAware => queue_wait + nominal_hybrid_us <= config.deadline_us,
        };

        let (gray_decision, natural_decision, meta) = if take_hybrid {
            hybrid_frames += 1;
            let mut frame_rng = Rng64::new(item_seed(config.seed ^ 0x0057_EA4D, t));
            let (csr, _offset) = CsrIsing::from_qubo(&inst.reduction.qubo);
            let n = inst.num_vars();

            // Cold reference read: uniform random start.
            let cold_start: Vec<i8> = (0..n)
                .map(|_| if frame_rng.next_bool() { 1 } else { -1 })
                .collect();
            let (cold_state, cold_trace) =
                sa_read_csr_traced(&csr, &single_read, &cold_start, &mut frame_rng);

            // Serving read: warm-started from the previous frame's decision
            // when one exists; the cold read doubles as the serving read on
            // the first hybrid frame.
            let natural = match &warm {
                Some(prev) if prev.len() == n => {
                    let warm_start = bits_to_spins(prev);
                    let (warm_state, warm_trace) =
                        sa_read_csr_traced(&csr, &warm_read, &warm_start, &mut frame_rng);
                    warm_pairs += 1;
                    cold_sweep_sum += cold_trace.sweeps_to_best() as f64;
                    warm_sweep_sum += warm_trace
                        .sweeps_to_reach(cold_trace.best_energy())
                        .unwrap_or(config.sa.sweeps) as f64;
                    // The paper's selection rule: the refined sample or the
                    // seed itself, whichever is lower — refinement can only
                    // help, never hurt. `best_by_sweep[0]` is the seed's
                    // energy on *this* frame's problem.
                    if warm_trace.best_by_sweep[0] < warm_state.energy() {
                        prev.clone()
                    } else {
                        spins_to_bits(warm_state.spins())
                    }
                }
                _ => spins_to_bits(cold_state.spins()),
            };
            let gray = inst.reduction.natural_to_gray(&natural);
            let meta = DetectorMeta {
                nodes_visited: 0,
                sweeps: config.sa.sweeps as u64,
            };
            (gray, natural, meta)
        } else {
            classical_frames += 1;
            let result = classical.detect(&inst.system, &inst.h, &inst.y);
            let natural = inst.reduction.gray_to_natural(&result.gray_bits);
            (result.gray_bits, natural, result.meta)
        };

        let service = config.cost.service_us(&meta);
        let finish = start + service;
        server_free = finish;
        let latency = finish - arrival;
        if let Some((server_rec, frame_rec)) = &mut recorders {
            let job = Some(t as u64);
            if queue_wait > 0.0 {
                server_rec.span_at("stage", "queue", job, arrival, queue_wait);
            }
            let arm = if take_hybrid {
                "hybrid-sa"
            } else {
                "classical"
            };
            server_rec.span_at("stage", arm, job, start, service);
            frame_rec.span_at("job", "frame", job, arrival, latency);
        }
        latencies.push(latency);
        if latency > config.deadline_us {
            misses += 1;
        }
        service_sum += service;
        ber_sum += bit_error_rate(&inst.tx_gray_bits, &gray_decision);
        // Either arm's decision seeds the next frame's warm start.
        warm = Some(natural_decision);
    }

    drop(recorders);

    let makespan_us = (config.frames - 1) as f64 * config.arrival_period_us
        + latencies.last().expect("frames > 0");
    // `latencies.last()` above is the *unsorted* final frame's latency;
    // only the percentile queries see the sorted order.
    let percentiles = percentiles_of(&latencies, &[50.0, 99.0]);
    let n = config.frames as f64;
    StreamReport {
        policy: config.policy,
        rho: config.track.rho,
        frames: config.frames,
        arrival_period_us: config.arrival_period_us,
        deadline_us: config.deadline_us,
        seed: config.seed,
        ber: ber_sum / n,
        deadline_miss_rate: misses as f64 / n,
        p50_latency_us: percentiles[0],
        p99_latency_us: percentiles[1],
        throughput_per_ms: n / makespan_us * 1000.0,
        avg_service_us: service_sum / n,
        classical_frames,
        hybrid_frames,
        warm_pairs,
        cold_sweeps_to_solution: if warm_pairs > 0 {
            cold_sweep_sum / warm_pairs as f64
        } else {
            0.0
        },
        warm_sweeps_to_solution: if warm_pairs > 0 {
            warm_sweep_sum / warm_pairs as f64
        } else {
            0.0
        },
    }
}

/// Configuration of a full (load × ρ × policy) stream sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamGridConfig {
    /// Base track; each cell overrides `rho` from [`StreamGridConfig::rhos`].
    pub track: TrackConfig,
    /// Frames per cell.
    pub frames: usize,
    /// Arrival periods to sweep (µs). List them **descending** so "later in
    /// the list" means "higher offered load".
    pub arrival_periods_us: Vec<f64>,
    /// Channel coherence values to sweep.
    pub rhos: Vec<f64>,
    /// Dispatch policies to sweep.
    pub policies: Vec<DispatchPolicy>,
    /// Latency budget shared by every cell (µs).
    pub deadline_us: f64,
    /// Work-counter → service-time model.
    pub cost: CostModel,
    /// Hybrid-arm SA schedule.
    pub sa: SaParams,
    /// Grid seed. Cell seeds derive from it and the cell's ρ index only, so
    /// cells differing in load or policy see identical frame sequences.
    pub seed: u64,
    /// Worker threads for the cell fan-out (0 = all available cores).
    /// Results are bit-identical for any value.
    pub threads: usize,
}

impl StreamGridConfig {
    /// Validates the grid configuration (axes plus every per-cell
    /// parameter).
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "StreamGridConfig";
        if self.arrival_periods_us.is_empty() {
            return Err(SpecError::new(ctx, "empty load axis"));
        }
        if self.rhos.is_empty() {
            return Err(SpecError::new(ctx, "empty rho axis"));
        }
        if self.policies.is_empty() {
            return Err(SpecError::new(ctx, "empty policy axis"));
        }
        if let Some(bad) = self.rhos.iter().find(|r| !(0.0..=1.0).contains(*r)) {
            return Err(SpecError::new(ctx, format!("rho {bad} outside [0, 1]")));
        }
        // Every cell shares the remaining parameters; validate them once
        // through a representative cell.
        StreamConfig {
            track: TrackConfig {
                rho: self.rhos[0],
                ..self.track
            },
            frames: self.frames,
            arrival_period_us: self.arrival_periods_us[0],
            deadline_us: self.deadline_us,
            policy: self.policies[0],
            cost: self.cost,
            sa: self.sa,
            seed: self.seed,
        }
        .validate()?;
        if let Some(bad) = self
            .arrival_periods_us
            .iter()
            .find(|p| !(p.is_finite() && **p > 0.0))
        {
            return Err(SpecError::new(ctx, format!("arrival period {bad} not > 0")));
        }
        Ok(())
    }
}

/// A full stream-sweep report: the config echo plus one report per cell, in
/// (policy, ρ, load) grid order.
#[derive(Debug, Clone)]
pub struct StreamGridReport {
    /// Number of transmitting users.
    pub n_users: usize,
    /// Number of receive antennas.
    pub n_rx: usize,
    /// Modulation name.
    pub modulation: String,
    /// AWGN per-antenna variance.
    pub noise_variance: f64,
    /// Frames per cell.
    pub frames: usize,
    /// Latency budget (µs).
    pub deadline_us: f64,
    /// Grid seed.
    pub seed: u64,
    /// Per-cell reports: policy-major, then ρ, then load (arrival period in
    /// the configured order).
    pub cells: Vec<StreamReport>,
}

/// Builds the cell config for one flat grid id (policy-major, then ρ, then
/// load — the `cells` array order of the report).
pub(crate) fn stream_cell_config(config: &StreamGridConfig, id: usize) -> StreamConfig {
    let loads = config.arrival_periods_us.len();
    let rhos = config.rhos.len();
    let policy = config.policies[id / (rhos * loads)];
    let rho_idx = (id / loads) % rhos;
    let mut track = config.track;
    track.rho = config.rhos[rho_idx];
    StreamConfig {
        track,
        frames: config.frames,
        arrival_period_us: config.arrival_periods_us[id % loads],
        deadline_us: config.deadline_us,
        policy,
        cost: config.cost,
        sa: config.sa,
        // ρ-indexed only: same frames across loads and policies.
        seed: item_seed(config.seed, rho_idx),
    }
}

// `frames`, `deadline_us` and `seed` are not written: the grid config
// holds them, and the engine's decoder fills them back in.
record!(StreamReport {
    policy: DispatchPolicy,
    rho: f64,
    arrival_period_us: f64,
    ber: Ratio,
    deadline_miss_rate: Ratio,
    p50_latency_us: Us,
    p99_latency_us: Us,
    throughput_per_ms: f64,
    avg_service_us: Us,
    classical_frames: usize,
    hybrid_frames: usize,
    warm_pairs: usize,
    cold_sweeps_to_solution: f64,
    warm_sweeps_to_solution: f64,
    frames: Derived<usize>,
    deadline_us: Derived<f64>,
    seed: Derived<u64>,
});

impl StreamGridReport {
    /// Renders the report as the `BENCH_stream.json` document (schema in
    /// `crates/bench/README.md`). Pure function of the report contents:
    /// byte-identical across runs and thread counts.
    pub fn to_json(&self) -> String {
        let doc = Json::object([
            ("bench", "stream".into()),
            (
                "scenario",
                Json::object([
                    ("n_users", self.n_users.into()),
                    ("n_rx", self.n_rx.into()),
                    ("modulation", self.modulation.as_str().into()),
                    ("noise_variance", self.noise_variance.into()),
                    ("frames", self.frames.into()),
                    ("deadline_us", self.deadline_us.into()),
                    ("seed", self.seed.into()),
                ]),
            ),
            ("cells", Vec::<StreamReport>::to_json(&self.cells)),
        ]);
        render(&doc, &Layout::Block(&[SCENARIO, ("cells", ROWS)]))
    }
}

impl crate::report::Report for StreamGridReport {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn schema_version(&self) -> u32 {
        1
    }

    fn to_json(&self) -> String {
        // Delegates to the inherent renderer (the committed-bytes contract
        // lives there).
        StreamGridReport::to_json(self)
    }

    fn table(&self) -> crate::report::Table {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&[
            "policy",
            "rho",
            "period_us",
            "ber",
            "miss_rate",
            "p50_us",
            "p99_us",
            "fr_per_ms",
            "hybrid",
            "cold_sweeps",
            "warm_sweeps",
        ]);
        for c in &self.cells {
            table.push_row(vec![
                c.policy.name().to_string(),
                fnum(c.rho, 2),
                fnum(c.arrival_period_us, 0),
                fnum(c.ber, 5),
                fnum(c.deadline_miss_rate, 4),
                fnum(c.p50_latency_us, 1),
                fnum(c.p99_latency_us, 1),
                fnum(c.throughput_per_ms, 3),
                format!("{}/{}", c.hybrid_frames, c.frames),
                fnum(c.cold_sweeps_to_solution, 2),
                fnum(c.warm_sweeps_to_solution, 2),
            ]);
        }
        table
    }
}

/// The stream grid is the `stream` family's [`GridEngine`] (run it with
/// [`crate::grid::run_grid`]): point `id` is one cell of the policy-major
/// (policy × ρ × load) grid, and its classical arm is MMSE matched to the
/// track's noise variance. Cell seeds depend only on the grid seed and the
/// cell's ρ index, so a cell's report is byte-identical whether it runs
/// alone or as part of the full grid. Telemetry emits each cell's
/// virtual-time spans; the report is byte-identical with and without it.
impl GridEngine for StreamGridConfig {
    type Unit = StreamReport;
    type Point = StreamReport;
    type Report = StreamGridReport;

    fn validate(&self) -> Result<(), SpecError> {
        StreamGridConfig::validate(self)
    }

    fn grid_len(&self) -> usize {
        self.policies.len() * self.rhos.len() * self.arrival_periods_us.len()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn run_unit(
        &self,
        id: usize,
        _: usize,
        telemetry: Option<&Collector>,
        pid: u32,
    ) -> StreamReport {
        let classical = Mmse::new(self.track.noise_variance);
        run_stream_observed(&stream_cell_config(self, id), &classical, telemetry, pid)
    }

    fn reduce(&self, _: usize, mut units: Vec<StreamReport>) -> StreamReport {
        units.pop().expect("one unit per stream cell")
    }

    fn decode(&self, id: usize, doc: &Json, ctx: &str) -> Result<StreamReport, SpecError> {
        // Frames, deadline and seed come from the spec; the payload's own
        // coordinates must agree with its id.
        let want = stream_cell_config(self, id);
        let cell = StreamReport {
            frames: want.frames,
            deadline_us: want.deadline_us,
            seed: want.seed,
            ..StreamReport::decode(doc, ctx)?
        };
        let coordinates = |policy: DispatchPolicy, rho: f64, period: f64| {
            format!("{}, rho {rho}, period {period}", policy.name())
        };
        check_coordinates(
            ctx,
            coordinates(cell.policy, cell.rho, cell.arrival_period_us),
            coordinates(want.policy, want.track.rho, want.arrival_period_us),
        )?;
        Ok(cell)
    }

    fn assemble(&self, cells: Vec<StreamReport>) -> Result<StreamGridReport, SpecError> {
        Ok(StreamGridReport {
            n_users: self.track.n_users,
            n_rx: self.track.n_rx,
            modulation: self.track.modulation.name().to_string(),
            noise_variance: self.track.noise_variance,
            frames: self.frames,
            deadline_us: self.deadline_us,
            seed: self.seed,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run_grid;
    use hqw_phy::channel::snr_db_to_noise_variance;
    use hqw_phy::detect::Mmse;
    use hqw_phy::modulation::Modulation;

    /// A named field mutation for the validate() rejection-path tests.
    type Mutation<T> = (&'static str, Box<dyn Fn(&mut T)>);

    fn track(rho: f64) -> TrackConfig {
        TrackConfig {
            n_users: 3,
            n_rx: 3,
            modulation: Modulation::Qpsk,
            rho,
            noise_variance: snr_db_to_noise_variance(14.0, 3),
        }
    }

    fn quick_sa() -> SaParams {
        SaParams {
            sweeps: 48,
            num_reads: 1,
            threads: 1,
            ..SaParams::default()
        }
    }

    fn cell(policy: DispatchPolicy, rho: f64, period: f64) -> StreamConfig {
        StreamConfig {
            track: track(rho),
            frames: 40,
            arrival_period_us: period,
            deadline_us: 250.0,
            policy,
            cost: CostModel::default(),
            sa: quick_sa(),
            seed: 42,
        }
    }

    fn mmse() -> Mmse {
        Mmse::new(snr_db_to_noise_variance(14.0, 3))
    }

    /// One cell against the MMSE classical arm, without telemetry.
    fn run(config: &StreamConfig) -> StreamReport {
        run_stream_observed(config, &mmse(), None, 0)
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let config = cell(DispatchPolicy::DeadlineAware, 0.9, 100.0);
        let a = run(&config);
        let b = run(&config);
        assert_eq!(
            a.encode().to_string_compact(),
            b.encode().to_string_compact()
        );
    }

    #[test]
    fn always_classical_never_runs_the_hybrid_arm() {
        let report = run(&cell(DispatchPolicy::AlwaysClassical, 0.5, 100.0));
        assert_eq!(report.hybrid_frames, 0);
        assert_eq!(report.classical_frames, report.frames);
        assert_eq!(report.warm_pairs, 0);
        assert_eq!(report.deadline_miss_rate, 0.0, "MMSE fits any sane budget");
    }

    #[test]
    fn always_hybrid_warm_pairs_cover_all_but_frame_zero() {
        let report = run(&cell(DispatchPolicy::AlwaysHybrid, 0.9, 400.0));
        assert_eq!(report.hybrid_frames, report.frames);
        assert_eq!(report.warm_pairs, report.frames - 1);
        assert!(report.cold_sweeps_to_solution > 0.0);
    }

    #[test]
    fn coherent_warm_starts_beat_cold_starts() {
        // The acceptance criterion: at ρ ≥ 0.9 a warm-started read reaches
        // the cold read's final quality in strictly fewer sweeps on average.
        let report = run(&cell(DispatchPolicy::AlwaysHybrid, 0.95, 400.0));
        assert!(
            report.warm_sweeps_to_solution < report.cold_sweeps_to_solution,
            "warm {} vs cold {}",
            report.warm_sweeps_to_solution,
            report.cold_sweeps_to_solution
        );
    }

    #[test]
    fn miss_rate_is_monotone_in_offered_load() {
        // Same seed ⇒ same frames and service times; a shorter arrival
        // period can only increase queueing, so misses are monotone.
        let rates: Vec<f64> = [400.0, 150.0, 90.0, 60.0]
            .iter()
            .map(|&p| run(&cell(DispatchPolicy::AlwaysHybrid, 0.9, p)).deadline_miss_rate)
            .collect();
        for w in rates.windows(2) {
            assert!(w[1] >= w[0], "miss rate dropped under load: {rates:?}");
        }
        assert!(
            rates.last().unwrap() > &0.5,
            "overload cell should miss most deadlines: {rates:?}"
        );
    }

    #[test]
    fn deadline_aware_downgrades_under_overload() {
        let overload = 60.0; // well below the nominal hybrid service time
        let hybrid = run(&cell(DispatchPolicy::AlwaysHybrid, 0.9, overload));
        let aware = run(&cell(DispatchPolicy::DeadlineAware, 0.9, overload));
        assert!(aware.classical_frames > 0, "no fallback under overload");
        assert!(
            aware.deadline_miss_rate < hybrid.deadline_miss_rate,
            "deadline-aware ({}) should miss less than always-hybrid ({})",
            aware.deadline_miss_rate,
            hybrid.deadline_miss_rate
        );
    }

    #[test]
    fn hybrid_detection_tracks_the_coherent_channel() {
        // Sanity: the warm-started hybrid arm still detects correctly — BER
        // at 14 dB QPSK must stay moderate, and the high-coherence stream
        // must not collapse to garbage decisions.
        let report = run(&cell(DispatchPolicy::AlwaysHybrid, 0.95, 400.0));
        assert!(report.ber < 0.2, "BER {} out of range", report.ber);
    }

    fn quick_grid(threads: usize) -> StreamGridConfig {
        StreamGridConfig {
            track: track(0.0),
            frames: 24,
            arrival_periods_us: vec![300.0, 90.0],
            rhos: vec![0.0, 0.95],
            policies: DispatchPolicy::ALL.to_vec(),
            deadline_us: 250.0,
            cost: CostModel::default(),
            sa: quick_sa(),
            seed: 7,
            threads,
        }
    }

    #[test]
    fn grid_report_is_bit_identical_for_any_thread_count() {
        let serial = run_grid(&quick_grid(1), None).to_json();
        for threads in [2, 5, 0] {
            let parallel = run_grid(&quick_grid(threads), None).to_json();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn grid_covers_every_cell_with_sane_metrics() {
        let config = quick_grid(0);
        let report = run_grid(&config, None);
        assert_eq!(report.cells.len(), 3 * 2 * 2);
        for c in &report.cells {
            assert!(
                (0.0..=1.0).contains(&c.ber),
                "{}: ber {}",
                c.policy.name(),
                c.ber
            );
            assert!((0.0..=1.0).contains(&c.deadline_miss_rate));
            assert!(c.p50_latency_us > 0.0 && c.p99_latency_us >= c.p50_latency_us);
            assert!(c.throughput_per_ms > 0.0);
            assert_eq!(c.classical_frames + c.hybrid_frames, c.frames);
        }
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"stream\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"policy\"").count(), report.cells.len());
    }

    #[test]
    fn cells_differing_only_in_load_share_frame_sequences() {
        // The paired-comparison contract: same ρ ⇒ same seed ⇒ same BER for
        // the always-hybrid arm regardless of load.
        let report = run_grid(&quick_grid(0), None);
        let hybrid: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.policy == DispatchPolicy::AlwaysHybrid)
            .collect();
        for pair in hybrid.chunks(2) {
            assert_eq!(pair[0].rho, pair[1].rho);
            assert_eq!(pair[0].ber.to_bits(), pair[1].ber.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "need at least one frame")]
    fn zero_frame_track_rejected() {
        let mut config = cell(DispatchPolicy::AlwaysHybrid, 0.5, 100.0);
        config.frames = 0;
        run(&config);
    }

    #[test]
    fn zero_deadline_budget_downgrades_every_frame() {
        // A budget of 0 is legal: the deadline-aware policy can never fit
        // the hybrid path, so everything falls back to the classical arm —
        // and every frame (classical service > 0) is counted as a miss.
        let mut config = cell(DispatchPolicy::DeadlineAware, 0.9, 100.0);
        config.deadline_us = 0.0;
        let report = run(&config);
        assert_eq!(report.hybrid_frames, 0, "zero budget must disable hybrid");
        assert_eq!(report.classical_frames, report.frames);
        assert_eq!(report.warm_pairs, 0);
        assert_eq!(report.deadline_miss_rate, 1.0);
        // The downgraded stream still detects (MMSE at 14 dB).
        assert!(report.ber < 0.2, "fallback BER {}", report.ber);
    }

    #[test]
    #[should_panic(expected = "deadline must be >= 0")]
    fn negative_deadline_rejected() {
        let mut config = cell(DispatchPolicy::DeadlineAware, 0.9, 100.0);
        config.deadline_us = -1.0;
        run(&config);
    }

    #[test]
    #[should_panic(expected = "arrival period must be > 0")]
    fn zero_arrival_period_rejected() {
        let mut config = cell(DispatchPolicy::AlwaysHybrid, 0.5, 100.0);
        config.arrival_period_us = 0.0;
        run(&config);
    }

    #[test]
    #[should_panic(expected = "empty load axis")]
    fn empty_grid_axis_rejected() {
        let mut config = quick_grid(1);
        config.arrival_periods_us.clear();
        run_grid(&config, None);
    }

    #[test]
    fn cell_validate_rejects_each_bad_field_with_a_message() {
        let cases: [Mutation<StreamConfig>; 6] = [
            ("need at least one frame", Box::new(|c| c.frames = 0)),
            (
                "arrival period must be > 0",
                Box::new(|c| c.arrival_period_us = 0.0),
            ),
            ("deadline must be >= 0", Box::new(|c| c.deadline_us = -1.0)),
            ("rho must be in [0, 1]", Box::new(|c| c.track.rho = 1.5)),
            (
                "SaParams: sweeps must be > 0",
                Box::new(|c| c.sa.sweeps = 0),
            ),
            (
                "cost.base_us must be finite",
                Box::new(|c| c.cost.base_us = f64::NAN),
            ),
        ];
        for (needle, mutate) in cases {
            let mut config = cell(DispatchPolicy::AlwaysHybrid, 0.5, 100.0);
            mutate(&mut config);
            let err = config.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err} missing {needle}");
            assert_eq!(err.context(), "StreamConfig");
        }
        assert_eq!(
            cell(DispatchPolicy::AlwaysHybrid, 0.5, 100.0).validate(),
            Ok(())
        );
    }

    #[test]
    fn grid_validate_rejects_each_empty_axis_with_a_message() {
        let cases: [Mutation<StreamGridConfig>; 4] = [
            (
                "empty load axis",
                Box::new(|c| c.arrival_periods_us.clear()),
            ),
            ("empty rho axis", Box::new(|c| c.rhos.clear())),
            ("empty policy axis", Box::new(|c| c.policies.clear())),
            ("outside [0, 1]", Box::new(|c| c.rhos = vec![-0.5])),
        ];
        for (needle, mutate) in cases {
            let mut config = quick_grid(1);
            mutate(&mut config);
            let err = config.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err} missing {needle}");
            assert_eq!(err.context(), "StreamGridConfig");
        }
        assert_eq!(quick_grid(1).validate(), Ok(()));
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(DispatchPolicy::from_name("sometimes"), None);
    }
}
