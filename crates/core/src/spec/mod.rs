//! The unified experiment-spec layer: one declarative description of every
//! experiment the workspace can run.
//!
//! The paper's Challenge 3 argues for *composable* hybrid computation
//! structures; on the evaluation side that means scenario composition must
//! be **data**, not new binaries. This module is that data layer:
//!
//! * [`ExperimentSpec`] — a typed, versioned description of one experiment:
//!   a BER-vs-SNR sweep ([`SnrSweepConfig`]), a streaming-grid sweep
//!   ([`StreamGridConfig`]), a compute-fabric sweep ([`FabricGridConfig`]),
//!   or one of the canned figure experiments ([`CannedKind`] + a
//!   [`Scale`]).
//! * [`ExperimentSpec::to_json`] / [`ExperimentSpec::parse`] — a
//!   hand-rolled, offline-safe JSON serializer/parser (the build
//!   environment has no crates-io access) over the [`json`] document
//!   model. `parse(serialize(spec)) == spec` is property-tested in
//!   `tests/spec_proptests.rs`.
//! * [`SpecError`] — the shared validation error every config's
//!   `validate()` returns, replacing the old ad-hoc assert/panic mix
//!   (panicking `validate_or_panic` shims remain for the engine
//!   entry points).
//!
//! The `hqw` runner binary (in `hqw-bench`) consumes this layer: registry
//! presets are `ExperimentSpec` values, and `hqw run spec.json` parses a
//! file into one. The spec document format is versioned through
//! [`SPEC_VERSION`] and documented in `crates/bench/README.md`.

pub mod json;

use crate::experiments::Scale;
use crate::fabric::{
    AnnealerConfig, ArrivalProcess, BackendMix, BackendSpec, FabricGridConfig, FabricMode,
    MockQpuConfig, NetworkModel, PtConfig, RealtimeConfig, SaPoolConfig, TabuConfig,
};
use crate::scenario::SnrSweepConfig;
use crate::sched::{ClassMix, SchedOptions, SchedPolicy};
use crate::sched_grid::SchedGridConfig;
use crate::stream::{CostModel, DispatchPolicy, StreamGridConfig};
use hqw_phy::channel::{ChannelModel, TrackConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::pt::PtParams;
use hqw_qubo::sa::{SaParams, SweepKernel};
use hqw_qubo::tabu::TabuParams;
use json::Json;

/// Version of the spec JSON document format this build reads and writes.
///
/// Bump on any incompatible schema change; [`ExperimentSpec::parse`]
/// rejects documents with a different `spec_version`.
pub const SPEC_VERSION: u64 = 1;

/// A configuration value that failed validation, or a spec document that
/// failed to parse.
///
/// Carries the context (which config or spec path) and a human-readable
/// message; [`std::fmt::Display`] renders `"{context}: {message}"`, which
/// is also the panic payload of the deprecated `validate_or_panic` shims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    context: String,
    message: String,
}

impl SpecError {
    /// Creates an error for `context` (a config type or spec field path).
    pub fn new(context: impl Into<String>, message: impl Into<String>) -> Self {
        SpecError {
            context: context.into(),
            message: message.into(),
        }
    }

    /// The config type or spec path that failed.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// What was wrong with it.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.context, self.message)
    }
}

impl std::error::Error for SpecError {}

/// The canned (fixed-shape) figure experiments: each reproduces one
/// figure/claim of the paper at a chosen [`Scale`]. The grid-style
/// experiments (`ber`/`stream`/`fabric`) are *not* canned — their whole
/// configuration is spec data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CannedKind {
    /// Figure 3: QUBO-simplification preprocessing sweep.
    Fig3,
    /// Figure 4 / §3.1: soft-information constraints under ICE noise.
    Fig4SoftInfo,
    /// Figure 5: FA/RA/FR anneal-schedule shapes.
    Fig5Schedules,
    /// Figure 6: ΔE% distributions for FA / RA-random / RA-GS.
    Fig6,
    /// Figure 7: RA performance vs initial-state quality.
    Fig7,
    /// Figure 8: p★ and TTS vs `s_p` for FA / RA / FR.
    Fig8,
    /// Headline claim: RA+GS vs FA success probability.
    Headline,
    /// Ablation: Chimera minor-embedding overhead.
    AblationEmbedding,
    /// Ablation: simulation-engine and move-set choices.
    AblationEngine,
    /// Ablation: Greedy Search order/variant.
    AblationGreedy,
    /// Ablation: anneal-pause duration.
    AblationPause,
    /// §5 extension: application-specific initializers.
    ExtInitializers,
    /// §2 extension: iterated RA and sample persistence.
    ExtIterative,
    /// Figure 2: the pipelined computation structure.
    PipelineStudy,
}

impl CannedKind {
    /// Every canned experiment, in registry order.
    pub const ALL: [CannedKind; 14] = [
        CannedKind::Fig3,
        CannedKind::Fig4SoftInfo,
        CannedKind::Fig5Schedules,
        CannedKind::Fig6,
        CannedKind::Fig7,
        CannedKind::Fig8,
        CannedKind::Headline,
        CannedKind::AblationEmbedding,
        CannedKind::AblationEngine,
        CannedKind::AblationGreedy,
        CannedKind::AblationPause,
        CannedKind::ExtInitializers,
        CannedKind::ExtIterative,
        CannedKind::PipelineStudy,
    ];

    /// Stable machine-readable name (the registry key and spec tag).
    pub fn name(self) -> &'static str {
        match self {
            CannedKind::Fig3 => "fig3",
            CannedKind::Fig4SoftInfo => "fig4-softinfo",
            CannedKind::Fig5Schedules => "fig5-schedules",
            CannedKind::Fig6 => "fig6",
            CannedKind::Fig7 => "fig7",
            CannedKind::Fig8 => "fig8",
            CannedKind::Headline => "headline",
            CannedKind::AblationEmbedding => "ablation-embedding",
            CannedKind::AblationEngine => "ablation-engine",
            CannedKind::AblationGreedy => "ablation-greedy",
            CannedKind::AblationPause => "ablation-pause",
            CannedKind::ExtInitializers => "ext-initializers",
            CannedKind::ExtIterative => "ext-iterative",
            CannedKind::PipelineStudy => "pipeline-study",
        }
    }

    /// Parses a [`CannedKind::name`] back (`None` for unknown names).
    pub fn from_name(name: &str) -> Option<CannedKind> {
        CannedKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A canned experiment instance: which figure, at what scale, which seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CannedSpec {
    /// Which canned experiment.
    pub experiment: CannedKind,
    /// Scale knobs (instances, reads, harvest reads, grid thinning).
    pub scale: Scale,
    /// RNG seed.
    pub seed: u64,
}

impl CannedSpec {
    /// Validates the scale knobs.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "CannedSpec";
        if self.scale.instances == 0 {
            return Err(SpecError::new(ctx, "scale.instances must be > 0"));
        }
        if self.scale.reads == 0 {
            return Err(SpecError::new(ctx, "scale.reads must be > 0"));
        }
        if self.scale.harvest_reads == 0 {
            return Err(SpecError::new(ctx, "scale.harvest_reads must be > 0"));
        }
        if self.scale.grid_thin == 0 {
            return Err(SpecError::new(ctx, "scale.grid_thin must be >= 1"));
        }
        Ok(())
    }
}

/// A complete, declarative description of one experiment — the unit the
/// registry stores, the `hqw` runner executes and spec JSON files encode.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentSpec {
    /// BER-vs-SNR scenario sweep over the standard detector roster.
    Ber(SnrSweepConfig),
    /// Streaming (policy × ρ × load) grid sweep.
    Stream(StreamGridConfig),
    /// Compute-fabric (mix × cells × load) grid sweep.
    Fabric(FabricGridConfig),
    /// Paired static-vs-adaptive scheduling sweep over calibrated and
    /// mispredicted planner cost models.
    Sched(SchedGridConfig),
    /// One of the canned figure experiments.
    Canned(CannedSpec),
}

impl ExperimentSpec {
    /// The experiment family tag (`"ber"`, `"stream"`, `"fabric"`,
    /// `"fabric-rt"` for a realtime-mode fabric, or the canned experiment's
    /// name) — the `experiment` field of the JSON document and the registry
    /// key.
    pub fn family(&self) -> &'static str {
        match self {
            ExperimentSpec::Ber(_) => "ber",
            ExperimentSpec::Stream(_) => "stream",
            ExperimentSpec::Fabric(c) => match c.mode {
                FabricMode::Virtual => "fabric",
                FabricMode::Realtime(_) => "fabric-rt",
            },
            ExperimentSpec::Sched(_) => "sched",
            ExperimentSpec::Canned(c) => c.experiment.name(),
        }
    }

    /// Whether this is a realtime-mode spec (worker counts come from the
    /// spec itself, so the CLI `--threads` override is rejected).
    pub fn is_realtime(&self) -> bool {
        matches!(
            self,
            ExperimentSpec::Fabric(FabricGridConfig {
                mode: FabricMode::Realtime(_),
                ..
            })
        )
    }

    /// Whether the experiment's runner can emit telemetry (span traces,
    /// histograms, counter series). True for the stream and fabric engines
    /// — both the virtual-time sims and the realtime service; BER sweeps
    /// and canned experiments have no frame lifecycle to trace, so the
    /// CLI `--telemetry` flag is rejected for them.
    pub fn supports_telemetry(&self) -> bool {
        matches!(self, ExperimentSpec::Stream(_) | ExperimentSpec::Fabric(_))
    }

    /// The spec's RNG seed.
    pub fn seed(&self) -> u64 {
        match self {
            ExperimentSpec::Ber(c) => c.seed,
            ExperimentSpec::Stream(c) => c.seed,
            ExperimentSpec::Fabric(c) => c.seed,
            ExperimentSpec::Sched(c) => c.seed,
            ExperimentSpec::Canned(c) => c.seed,
        }
    }

    /// The spec's worker-thread count (0 = all cores; canned experiments
    /// have no parallel grid and always report 0).
    pub fn threads(&self) -> usize {
        match self {
            ExperimentSpec::Ber(c) => c.threads,
            ExperimentSpec::Stream(c) => c.threads,
            ExperimentSpec::Fabric(c) => c.threads,
            ExperimentSpec::Sched(c) => c.threads,
            ExperimentSpec::Canned(_) => 0,
        }
    }

    /// Overrides the worker-thread count (a no-op for canned experiments,
    /// which have no parallel grid). Threads are a pure throughput knob:
    /// results are bit-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        match self {
            ExperimentSpec::Ber(c) => c.threads = threads,
            ExperimentSpec::Stream(c) => c.threads = threads,
            ExperimentSpec::Fabric(c) => c.threads = threads,
            ExperimentSpec::Sched(c) => c.threads = threads,
            ExperimentSpec::Canned(_) => {}
        }
    }

    /// Overrides the RNG seed (the `hqw` runner applies an explicit
    /// `--seed` to spec-file runs through this).
    pub fn set_seed(&mut self, seed: u64) {
        match self {
            ExperimentSpec::Ber(c) => c.seed = seed,
            ExperimentSpec::Stream(c) => c.seed = seed,
            ExperimentSpec::Fabric(c) => c.seed = seed,
            ExperimentSpec::Sched(c) => c.seed = seed,
            ExperimentSpec::Canned(c) => c.seed = seed,
        }
    }

    /// Validates the wrapped configuration.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            ExperimentSpec::Ber(c) => c.validate(),
            ExperimentSpec::Stream(c) => c.validate(),
            ExperimentSpec::Fabric(c) => c.validate(),
            ExperimentSpec::Sched(c) => c.validate(),
            ExperimentSpec::Canned(c) => c.validate(),
        }
    }

    /// Serializes the spec as a versioned JSON document (2-space pretty
    /// format, trailing newline). [`ExperimentSpec::parse`] reads it back
    /// exactly: `parse(to_json(spec)) == spec`.
    pub fn to_json(&self) -> String {
        let config = match self {
            ExperimentSpec::Ber(c) => ber_json(c),
            ExperimentSpec::Stream(c) => stream_json(c),
            ExperimentSpec::Fabric(c) => fabric_json(c),
            ExperimentSpec::Sched(c) => sched_grid_json(c),
            ExperimentSpec::Canned(c) => canned_json(c),
        };
        obj(vec![
            ("spec_version", Json::UInt(SPEC_VERSION)),
            ("experiment", Json::Str(self.family().to_string())),
            ("config", config),
        ])
        .to_string_pretty()
    }

    /// Parses and validates a spec JSON document.
    ///
    /// # Errors
    /// Returns a [`SpecError`] on JSON syntax errors, unknown
    /// `experiment`/field names, a wrong `spec_version`, missing or
    /// mistyped fields, or a configuration that fails `validate()`.
    pub fn parse(text: &str) -> Result<ExperimentSpec, SpecError> {
        let doc = Json::parse(text).map_err(|e| SpecError::new("spec", e.to_string()))?;
        let ctx = "spec";
        check_keys(&doc, &["spec_version", "experiment", "config"], ctx)?;
        let version = req_u64(&doc, "spec_version", ctx)?;
        if version != SPEC_VERSION {
            return Err(SpecError::new(
                ctx,
                format!("unsupported spec_version {version} (this build reads {SPEC_VERSION})"),
            ));
        }
        let experiment = req_str(&doc, "experiment", ctx)?.to_string();
        let config = req(&doc, "config", ctx)?;
        let spec = match experiment.as_str() {
            "ber" => ExperimentSpec::Ber(parse_ber(config)?),
            "stream" => ExperimentSpec::Stream(parse_stream(config)?),
            "fabric" => ExperimentSpec::Fabric(parse_fabric(config, false)?),
            "fabric-rt" => ExperimentSpec::Fabric(parse_fabric(config, true)?),
            "sched" => ExperimentSpec::Sched(parse_sched_grid(config)?),
            other => match CannedKind::from_name(other) {
                Some(kind) => ExperimentSpec::Canned(parse_canned(kind, config)?),
                None => {
                    return Err(SpecError::new(ctx, format!("unknown experiment '{other}'")));
                }
            },
        };
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Serialization (struct → Json)
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uint(v: usize) -> Json {
    Json::UInt(v as u64)
}

fn num(v: f64) -> Json {
    Json::Float(v)
}

fn f64_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| num(v)).collect())
}

fn usize_arr(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| uint(v)).collect())
}

fn ber_json(c: &SnrSweepConfig) -> Json {
    obj(vec![
        ("n_users", uint(c.n_users)),
        ("n_rx", uint(c.n_rx)),
        ("modulation", Json::Str(c.modulation.name().to_string())),
        ("channel", Json::Str(c.channel.name().to_string())),
        ("snr_db", f64_arr(&c.snr_db)),
        ("realizations", uint(c.realizations)),
        ("seed", Json::UInt(c.seed)),
        ("threads", uint(c.threads)),
    ])
}

fn track_json(t: &TrackConfig) -> Json {
    obj(vec![
        ("n_users", uint(t.n_users)),
        ("n_rx", uint(t.n_rx)),
        ("modulation", Json::Str(t.modulation.name().to_string())),
        ("rho", num(t.rho)),
        ("noise_variance", num(t.noise_variance)),
    ])
}

fn cost_json(c: &CostModel) -> Json {
    obj(vec![
        ("base_us", num(c.base_us)),
        ("us_per_node", num(c.us_per_node)),
        ("us_per_sweep", num(c.us_per_sweep)),
    ])
}

fn sa_json(s: &SaParams) -> Json {
    obj(vec![
        ("beta_initial", num(s.beta_initial)),
        ("beta_final", num(s.beta_final)),
        ("sweeps", uint(s.sweeps)),
        ("num_reads", uint(s.num_reads)),
        ("threads", uint(s.threads)),
        ("kernel", Json::Str(s.kernel.name().to_string())),
    ])
}

fn stream_json(c: &StreamGridConfig) -> Json {
    obj(vec![
        ("track", track_json(&c.track)),
        ("frames", uint(c.frames)),
        ("arrival_periods_us", f64_arr(&c.arrival_periods_us)),
        ("rhos", f64_arr(&c.rhos)),
        (
            "policies",
            Json::Arr(
                c.policies
                    .iter()
                    .map(|p| Json::Str(p.name().to_string()))
                    .collect(),
            ),
        ),
        ("deadline_us", num(c.deadline_us)),
        ("cost", cost_json(&c.cost)),
        ("sa", sa_json(&c.sa)),
        ("seed", Json::UInt(c.seed)),
        ("threads", uint(c.threads)),
    ])
}

fn annealer_fields(c: &AnnealerConfig) -> Vec<(&'static str, Json)> {
    vec![
        ("num_reads", uint(c.num_reads)),
        ("anneal_us", num(c.anneal_us)),
        ("sweeps_per_us", uint(c.sweeps_per_us)),
        ("capacity", uint(c.capacity)),
        ("max_batch", uint(c.max_batch)),
    ]
}

fn backend_json(b: &BackendSpec) -> Json {
    match b {
        BackendSpec::SaPool(c) => obj(vec![
            ("backend", Json::Str("sa-pool".to_string())),
            ("workers", uint(c.workers)),
            ("max_batch", uint(c.max_batch)),
            ("sa", sa_json(&c.sa)),
        ]),
        BackendSpec::Pimc(c) => {
            let mut fields = vec![("backend", Json::Str("pimc".to_string()))];
            fields.extend(annealer_fields(c));
            obj(fields)
        }
        BackendSpec::Svmc(c) => {
            let mut fields = vec![("backend", Json::Str("svmc".to_string()))];
            fields.extend(annealer_fields(c));
            obj(fields)
        }
        BackendSpec::Pt(c) => obj(vec![
            ("backend", Json::Str("pt".to_string())),
            ("workers", uint(c.workers)),
            ("max_batch", uint(c.max_batch)),
            (
                "pt",
                obj(vec![
                    ("replicas", uint(c.pt.replicas)),
                    ("sweeps", uint(c.pt.sweeps)),
                    ("swap_interval", uint(c.pt.swap_interval)),
                    ("beta_min", num(c.pt.beta_min)),
                    ("beta_max", num(c.pt.beta_max)),
                ]),
            ),
        ]),
        BackendSpec::Tabu(c) => obj(vec![
            ("backend", Json::Str("tabu".to_string())),
            ("workers", uint(c.workers)),
            ("max_batch", uint(c.max_batch)),
            (
                "tabu",
                obj(vec![
                    ("tenure", uint(c.tabu.tenure)),
                    ("max_iters", uint(c.tabu.max_iters)),
                    ("stall_limit", uint(c.tabu.stall_limit)),
                ]),
            ),
        ]),
        BackendSpec::MockQpu(c) => obj(vec![
            ("backend", Json::Str("mock-qpu".to_string())),
            ("num_reads", uint(c.num_reads)),
            ("anneal_us", num(c.anneal_us)),
            ("sweeps_per_us", uint(c.sweeps_per_us)),
            ("trotter_slices", uint(c.trotter_slices)),
            ("max_batch", uint(c.max_batch)),
            (
                "network",
                obj(vec![
                    ("rtt_base_us", num(c.network.rtt_base_us)),
                    ("jitter_us", num(c.network.jitter_us)),
                ]),
            ),
            ("programming_us", num(c.programming_us)),
            (
                "embed_derive_us_per_qubit",
                num(c.embed_derive_us_per_qubit),
            ),
            ("chain_strength", num(c.chain_strength)),
        ]),
    }
}

fn arrival_json(a: &ArrivalProcess) -> Json {
    let mut fields = vec![("process", Json::Str(a.name().to_string()))];
    match *a {
        ArrivalProcess::Periodic => {}
        ArrivalProcess::Bursty { burst } => fields.push(("burst", uint(burst))),
        ArrivalProcess::Diurnal {
            amplitude,
            cycle_frames,
        } => {
            fields.push(("amplitude", num(amplitude)));
            fields.push(("cycle_frames", uint(cycle_frames)));
        }
        ArrivalProcess::HeavyTailed { alpha } => fields.push(("alpha", num(alpha))),
    }
    obj(fields)
}

fn mix_json(m: &BackendMix) -> Json {
    obj(vec![
        ("name", Json::Str(m.name.clone())),
        (
            "backends",
            Json::Arr(m.backends.iter().map(backend_json).collect()),
        ),
    ])
}

fn class_mix_json(c: &ClassMix) -> Json {
    obj(vec![
        ("urllc", Json::UInt(u64::from(c.urllc))),
        ("embb", Json::UInt(u64::from(c.embb))),
        ("bulk", Json::UInt(u64::from(c.bulk))),
    ])
}

fn policy_json(p: &SchedPolicy) -> Json {
    let mut fields = vec![("name", Json::Str(p.name().to_string()))];
    match *p {
        SchedPolicy::Static => {}
        SchedPolicy::Ewma { shift } => fields.push(("shift", Json::UInt(u64::from(shift)))),
        SchedPolicy::Ucb { explore_milli } => {
            fields.push(("explore_milli", Json::UInt(u64::from(explore_milli))));
        }
    }
    obj(fields)
}

fn sched_opts_json(s: &SchedOptions) -> Json {
    let mut fields = vec![("policy", policy_json(&s.policy))];
    if let Some(c) = &s.assumed_cost {
        fields.push(("assumed_cost", cost_json(c)));
    }
    if !s.classes.is_default() {
        fields.push(("classes", class_mix_json(&s.classes)));
    }
    obj(fields)
}

fn fabric_json(c: &FabricGridConfig) -> Json {
    let mut fields = vec![
        ("track", track_json(&c.track)),
        ("frames_per_cell", uint(c.frames_per_cell)),
        ("cell_counts", usize_arr(&c.cell_counts)),
        ("arrival_periods_us", f64_arr(&c.arrival_periods_us)),
        ("mixes", Json::Arr(c.mixes.iter().map(mix_json).collect())),
    ];
    // Periodic is the implicit default: pre-arrival fabric specs stay
    // parseable and serialize unchanged.
    if c.arrival != ArrivalProcess::Periodic {
        fields.push(("arrival", arrival_json(&c.arrival)));
    }
    // The mode itself lives in the `experiment` tag ("fabric" vs
    // "fabric-rt"); only the realtime thread topology is config.
    if let FabricMode::Realtime(rt) = &c.mode {
        fields.push((
            "realtime",
            obj(vec![
                ("producers", uint(rt.producers)),
                ("queue_shards", uint(rt.queue_shards)),
            ]),
        ));
    }
    // The all-default scheduler (static policy, no miscalibration, pure
    // eMBB) is implicit: pre-sched fabric specs serialize unchanged.
    if !c.sched.is_default() {
        fields.push(("sched", sched_opts_json(&c.sched)));
    }
    fields.extend(vec![
        ("deadline_us", num(c.deadline_us)),
        ("cost", cost_json(&c.cost)),
        ("seed", Json::UInt(c.seed)),
        ("threads", uint(c.threads)),
    ]);
    obj(fields)
}

fn sched_grid_json(c: &SchedGridConfig) -> Json {
    obj(vec![
        ("track", track_json(&c.track)),
        ("frames_per_cell", uint(c.frames_per_cell)),
        ("cell_counts", usize_arr(&c.cell_counts)),
        ("arrival_periods_us", f64_arr(&c.arrival_periods_us)),
        ("mix", mix_json(&c.mix)),
        ("policy", policy_json(&c.policy)),
        ("classes", class_mix_json(&c.classes)),
        ("assumed_cost", cost_json(&c.assumed_cost)),
        ("deadline_us", num(c.deadline_us)),
        ("cost", cost_json(&c.cost)),
        ("seed", Json::UInt(c.seed)),
        ("threads", uint(c.threads)),
    ])
}

fn canned_json(c: &CannedSpec) -> Json {
    obj(vec![
        (
            "scale",
            obj(vec![
                ("instances", uint(c.scale.instances)),
                ("reads", uint(c.scale.reads)),
                ("harvest_reads", uint(c.scale.harvest_reads)),
                ("grid_thin", uint(c.scale.grid_thin)),
            ]),
        ),
        ("seed", Json::UInt(c.seed)),
    ])
}

// ---------------------------------------------------------------------------
// Parsing (Json → struct)
// ---------------------------------------------------------------------------

pub(crate) fn req<'a>(o: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, SpecError> {
    match o {
        Json::Obj(_) => o
            .get(key)
            .ok_or_else(|| SpecError::new(ctx, format!("missing field \"{key}\""))),
        _ => Err(SpecError::new(ctx, "expected an object")),
    }
}

/// Rejects unknown object keys — the typo guard for hand-written specs.
pub(crate) fn check_keys(o: &Json, allowed: &[&str], ctx: &str) -> Result<(), SpecError> {
    match o {
        Json::Obj(fields) => {
            for (key, _) in fields {
                if !allowed.contains(&key.as_str()) {
                    return Err(SpecError::new(
                        ctx,
                        format!("unknown field \"{key}\" (expected one of: {})", {
                            allowed.join(", ")
                        }),
                    ));
                }
            }
            Ok(())
        }
        _ => Err(SpecError::new(ctx, "expected an object")),
    }
}

pub(crate) fn req_u64(o: &Json, key: &str, ctx: &str) -> Result<u64, SpecError> {
    req(o, key, ctx)?
        .as_u64()
        .ok_or_else(|| SpecError::new(ctx, format!("field \"{key}\" must be an unsigned integer")))
}

pub(crate) fn req_usize(o: &Json, key: &str, ctx: &str) -> Result<usize, SpecError> {
    usize::try_from(req_u64(o, key, ctx)?)
        .map_err(|_| SpecError::new(ctx, format!("field \"{key}\" overflows usize")))
}

pub(crate) fn req_f64(o: &Json, key: &str, ctx: &str) -> Result<f64, SpecError> {
    req(o, key, ctx)?
        .as_f64()
        .ok_or_else(|| SpecError::new(ctx, format!("field \"{key}\" must be a number")))
}

/// A ratio field of a report payload (an error or miss rate): finite and
/// in `[0, 1]`. Every point decoder reads rates through this, so a merged
/// shard or resumed checkpoint cannot carry an impossible rate into a
/// report.
pub(crate) fn req_ratio(o: &Json, key: &str, ctx: &str) -> Result<f64, SpecError> {
    let v = req_f64(o, key, ctx)?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(SpecError::new(
            ctx,
            format!("field \"{key}\" must be a ratio in [0, 1], got {v}"),
        ))
    }
}

/// A microsecond field of a report payload (a latency or service time):
/// finite and non-negative. The duration counterpart of [`req_ratio`].
pub(crate) fn req_us(o: &Json, key: &str, ctx: &str) -> Result<f64, SpecError> {
    let v = req_f64(o, key, ctx)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(SpecError::new(
            ctx,
            format!("field \"{key}\" must be a non-negative duration in us, got {v}"),
        ))
    }
}

pub(crate) fn req_str<'a>(o: &'a Json, key: &str, ctx: &str) -> Result<&'a str, SpecError> {
    req(o, key, ctx)?
        .as_str()
        .ok_or_else(|| SpecError::new(ctx, format!("field \"{key}\" must be a string")))
}

fn req_f64_arr(o: &Json, key: &str, ctx: &str) -> Result<Vec<f64>, SpecError> {
    req(o, key, ctx)?
        .as_arr()
        .ok_or_else(|| SpecError::new(ctx, format!("field \"{key}\" must be an array")))?
        .iter()
        .map(|v| {
            v.as_f64().ok_or_else(|| {
                SpecError::new(ctx, format!("field \"{key}\" must contain only numbers"))
            })
        })
        .collect()
}

fn req_usize_arr(o: &Json, key: &str, ctx: &str) -> Result<Vec<usize>, SpecError> {
    req(o, key, ctx)?
        .as_arr()
        .ok_or_else(|| SpecError::new(ctx, format!("field \"{key}\" must be an array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|u| usize::try_from(u).ok())
                .ok_or_else(|| {
                    SpecError::new(
                        ctx,
                        format!("field \"{key}\" must contain only unsigned integers"),
                    )
                })
        })
        .collect()
}

fn parse_modulation(name: &str, ctx: &str) -> Result<Modulation, SpecError> {
    Modulation::from_name(name)
        .ok_or_else(|| SpecError::new(ctx, format!("unknown modulation '{name}'")))
}

fn parse_ber(config: &Json) -> Result<SnrSweepConfig, SpecError> {
    let ctx = "spec.config (ber)";
    check_keys(
        config,
        &[
            "n_users",
            "n_rx",
            "modulation",
            "channel",
            "snr_db",
            "realizations",
            "seed",
            "threads",
        ],
        ctx,
    )?;
    let channel_name = req_str(config, "channel", ctx)?;
    Ok(SnrSweepConfig {
        n_users: req_usize(config, "n_users", ctx)?,
        n_rx: req_usize(config, "n_rx", ctx)?,
        modulation: parse_modulation(req_str(config, "modulation", ctx)?, ctx)?,
        channel: ChannelModel::from_name(channel_name)
            .ok_or_else(|| SpecError::new(ctx, format!("unknown channel '{channel_name}'")))?,
        snr_db: req_f64_arr(config, "snr_db", ctx)?,
        realizations: req_usize(config, "realizations", ctx)?,
        seed: req_u64(config, "seed", ctx)?,
        threads: req_usize(config, "threads", ctx)?,
    })
}

fn parse_track(o: &Json, ctx: &str) -> Result<TrackConfig, SpecError> {
    let track = req(o, "track", ctx)?;
    let ctx = &format!("{ctx}.track");
    check_keys(
        track,
        &["n_users", "n_rx", "modulation", "rho", "noise_variance"],
        ctx,
    )?;
    Ok(TrackConfig {
        n_users: req_usize(track, "n_users", ctx)?,
        n_rx: req_usize(track, "n_rx", ctx)?,
        modulation: parse_modulation(req_str(track, "modulation", ctx)?, ctx)?,
        rho: req_f64(track, "rho", ctx)?,
        noise_variance: req_f64(track, "noise_variance", ctx)?,
    })
}

fn parse_cost(o: &Json, ctx: &str) -> Result<CostModel, SpecError> {
    parse_cost_obj(req(o, "cost", ctx)?, &format!("{ctx}.cost"))
}

fn parse_cost_obj(cost: &Json, ctx: &str) -> Result<CostModel, SpecError> {
    check_keys(cost, &["base_us", "us_per_node", "us_per_sweep"], ctx)?;
    Ok(CostModel {
        base_us: req_f64(cost, "base_us", ctx)?,
        us_per_node: req_f64(cost, "us_per_node", ctx)?,
        us_per_sweep: req_f64(cost, "us_per_sweep", ctx)?,
    })
}

fn parse_sa(o: &Json, ctx: &str) -> Result<SaParams, SpecError> {
    let sa = req(o, "sa", ctx)?;
    let ctx = &format!("{ctx}.sa");
    check_keys(
        sa,
        &[
            "beta_initial",
            "beta_final",
            "sweeps",
            "num_reads",
            "threads",
            "kernel",
        ],
        ctx,
    )?;
    Ok(SaParams {
        beta_initial: req_f64(sa, "beta_initial", ctx)?,
        beta_final: req_f64(sa, "beta_final", ctx)?,
        sweeps: req_usize(sa, "sweeps", ctx)?,
        num_reads: req_usize(sa, "num_reads", ctx)?,
        threads: req_usize(sa, "threads", ctx)?,
        kernel: parse_kernel(sa, ctx)?,
    })
}

/// The SA `"kernel"` is optional (pre-kernel specs default to the bit-identical
/// `Exact` mode), but when present it must be a known kernel name.
fn parse_kernel(o: &Json, ctx: &str) -> Result<SweepKernel, SpecError> {
    match o.get("kernel") {
        None => Ok(SweepKernel::Exact),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| SpecError::new(ctx, "field \"kernel\" must be a string"))?;
            SweepKernel::parse(name).map_err(|e| SpecError::new(ctx, e))
        }
    }
}

fn parse_stream(config: &Json) -> Result<StreamGridConfig, SpecError> {
    let ctx = "spec.config (stream)";
    check_keys(
        config,
        &[
            "track",
            "frames",
            "arrival_periods_us",
            "rhos",
            "policies",
            "deadline_us",
            "cost",
            "sa",
            "seed",
            "threads",
        ],
        ctx,
    )?;
    let policies = req(config, "policies", ctx)?
        .as_arr()
        .ok_or_else(|| SpecError::new(ctx, "field \"policies\" must be an array"))?
        .iter()
        .map(|v| {
            let name = v
                .as_str()
                .ok_or_else(|| SpecError::new(ctx, "policies must be strings"))?;
            DispatchPolicy::from_name(name)
                .ok_or_else(|| SpecError::new(ctx, format!("unknown policy '{name}'")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StreamGridConfig {
        track: parse_track(config, ctx)?,
        frames: req_usize(config, "frames", ctx)?,
        arrival_periods_us: req_f64_arr(config, "arrival_periods_us", ctx)?,
        rhos: req_f64_arr(config, "rhos", ctx)?,
        policies,
        deadline_us: req_f64(config, "deadline_us", ctx)?,
        cost: parse_cost(config, ctx)?,
        sa: parse_sa(config, ctx)?,
        seed: req_u64(config, "seed", ctx)?,
        threads: req_usize(config, "threads", ctx)?,
    })
}

fn parse_annealer(o: &Json, ctx: &str) -> Result<AnnealerConfig, SpecError> {
    Ok(AnnealerConfig {
        num_reads: req_usize(o, "num_reads", ctx)?,
        anneal_us: req_f64(o, "anneal_us", ctx)?,
        sweeps_per_us: req_usize(o, "sweeps_per_us", ctx)?,
        capacity: req_usize(o, "capacity", ctx)?,
        max_batch: req_usize(o, "max_batch", ctx)?,
    })
}

fn parse_backend(o: &Json, ctx: &str) -> Result<BackendSpec, SpecError> {
    let kind = req_str(o, "backend", ctx)?;
    const ANNEALER_KEYS: &[&str] = &[
        "backend",
        "num_reads",
        "anneal_us",
        "sweeps_per_us",
        "capacity",
        "max_batch",
    ];
    match kind {
        "sa-pool" => {
            check_keys(o, &["backend", "workers", "max_batch", "sa"], ctx)?;
            Ok(BackendSpec::SaPool(SaPoolConfig {
                workers: req_usize(o, "workers", ctx)?,
                max_batch: req_usize(o, "max_batch", ctx)?,
                sa: parse_sa(o, ctx)?,
            }))
        }
        "pimc" => {
            check_keys(o, ANNEALER_KEYS, ctx)?;
            Ok(BackendSpec::Pimc(parse_annealer(o, ctx)?))
        }
        "svmc" => {
            check_keys(o, ANNEALER_KEYS, ctx)?;
            Ok(BackendSpec::Svmc(parse_annealer(o, ctx)?))
        }
        "pt" => {
            check_keys(o, &["backend", "workers", "max_batch", "pt"], ctx)?;
            let pt = req(o, "pt", ctx)?;
            let pt_ctx = &format!("{ctx}.pt");
            check_keys(
                pt,
                &[
                    "replicas",
                    "sweeps",
                    "swap_interval",
                    "beta_min",
                    "beta_max",
                ],
                pt_ctx,
            )?;
            Ok(BackendSpec::Pt(PtConfig {
                workers: req_usize(o, "workers", ctx)?,
                max_batch: req_usize(o, "max_batch", ctx)?,
                pt: PtParams {
                    replicas: req_usize(pt, "replicas", pt_ctx)?,
                    sweeps: req_usize(pt, "sweeps", pt_ctx)?,
                    swap_interval: req_usize(pt, "swap_interval", pt_ctx)?,
                    beta_min: req_f64(pt, "beta_min", pt_ctx)?,
                    beta_max: req_f64(pt, "beta_max", pt_ctx)?,
                },
            }))
        }
        "tabu" => {
            check_keys(o, &["backend", "workers", "max_batch", "tabu"], ctx)?;
            let tabu = req(o, "tabu", ctx)?;
            let tabu_ctx = &format!("{ctx}.tabu");
            check_keys(tabu, &["tenure", "max_iters", "stall_limit"], tabu_ctx)?;
            Ok(BackendSpec::Tabu(TabuConfig {
                workers: req_usize(o, "workers", ctx)?,
                max_batch: req_usize(o, "max_batch", ctx)?,
                tabu: TabuParams {
                    tenure: req_usize(tabu, "tenure", tabu_ctx)?,
                    max_iters: req_usize(tabu, "max_iters", tabu_ctx)?,
                    stall_limit: req_usize(tabu, "stall_limit", tabu_ctx)?,
                },
            }))
        }
        "mock-qpu" => {
            check_keys(
                o,
                &[
                    "backend",
                    "num_reads",
                    "anneal_us",
                    "sweeps_per_us",
                    "trotter_slices",
                    "max_batch",
                    "network",
                    "programming_us",
                    "embed_derive_us_per_qubit",
                    "chain_strength",
                ],
                ctx,
            )?;
            let network = req(o, "network", ctx)?;
            let net_ctx = &format!("{ctx}.network");
            check_keys(network, &["rtt_base_us", "jitter_us"], net_ctx)?;
            Ok(BackendSpec::MockQpu(MockQpuConfig {
                num_reads: req_usize(o, "num_reads", ctx)?,
                anneal_us: req_f64(o, "anneal_us", ctx)?,
                sweeps_per_us: req_usize(o, "sweeps_per_us", ctx)?,
                trotter_slices: req_usize(o, "trotter_slices", ctx)?,
                max_batch: req_usize(o, "max_batch", ctx)?,
                network: NetworkModel {
                    rtt_base_us: req_f64(network, "rtt_base_us", net_ctx)?,
                    jitter_us: req_f64(network, "jitter_us", net_ctx)?,
                },
                programming_us: req_f64(o, "programming_us", ctx)?,
                embed_derive_us_per_qubit: req_f64(o, "embed_derive_us_per_qubit", ctx)?,
                chain_strength: req_f64(o, "chain_strength", ctx)?,
            }))
        }
        other => Err(SpecError::new(ctx, format!("unknown backend '{other}'"))),
    }
}

/// `"arrival"` is optional (pre-arrival fabric specs default to the
/// original periodic process); when present, `process` selects the variant
/// and the variant's own parameters are required.
fn parse_arrival(config: &Json, ctx: &str) -> Result<ArrivalProcess, SpecError> {
    let Some(a) = config.get("arrival") else {
        return Ok(ArrivalProcess::Periodic);
    };
    let a_ctx = &format!("{ctx}.arrival");
    let process = req_str(a, "process", a_ctx)?;
    match process {
        "periodic" => {
            check_keys(a, &["process"], a_ctx)?;
            Ok(ArrivalProcess::Periodic)
        }
        "bursty" => {
            check_keys(a, &["process", "burst"], a_ctx)?;
            Ok(ArrivalProcess::Bursty {
                burst: req_usize(a, "burst", a_ctx)?,
            })
        }
        "diurnal" => {
            check_keys(a, &["process", "amplitude", "cycle_frames"], a_ctx)?;
            Ok(ArrivalProcess::Diurnal {
                amplitude: req_f64(a, "amplitude", a_ctx)?,
                cycle_frames: req_usize(a, "cycle_frames", a_ctx)?,
            })
        }
        "heavy-tailed" => {
            check_keys(a, &["process", "alpha"], a_ctx)?;
            Ok(ArrivalProcess::HeavyTailed {
                alpha: req_f64(a, "alpha", a_ctx)?,
            })
        }
        other => Err(SpecError::new(
            a_ctx,
            format!("unknown arrival process '{other}'"),
        )),
    }
}

fn parse_mix(m: &Json, ctx: &str) -> Result<BackendMix, SpecError> {
    check_keys(m, &["name", "backends"], ctx)?;
    let backends = req(m, "backends", ctx)?
        .as_arr()
        .ok_or_else(|| SpecError::new(ctx, "field \"backends\" must be an array"))?
        .iter()
        .enumerate()
        .map(|(j, b)| parse_backend(b, &format!("{ctx}.backends[{j}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BackendMix {
        name: req_str(m, "name", ctx)?.to_string(),
        backends,
    })
}

fn req_u32(o: &Json, key: &str, ctx: &str) -> Result<u32, SpecError> {
    u32::try_from(req_u64(o, key, ctx)?)
        .map_err(|_| SpecError::new(ctx, format!("field \"{key}\" overflows u32")))
}

fn parse_class_mix(c: &Json, ctx: &str) -> Result<ClassMix, SpecError> {
    check_keys(c, &["urllc", "embb", "bulk"], ctx)?;
    Ok(ClassMix {
        urllc: req_u32(c, "urllc", ctx)?,
        embb: req_u32(c, "embb", ctx)?,
        bulk: req_u32(c, "bulk", ctx)?,
    })
}

fn parse_policy(p: &Json, ctx: &str) -> Result<SchedPolicy, SpecError> {
    let name = req_str(p, "name", ctx)?;
    match name {
        "static" => {
            check_keys(p, &["name"], ctx)?;
            Ok(SchedPolicy::Static)
        }
        "ewma" => {
            check_keys(p, &["name", "shift"], ctx)?;
            Ok(SchedPolicy::Ewma {
                shift: req_u32(p, "shift", ctx)?,
            })
        }
        "ucb" => {
            check_keys(p, &["name", "explore_milli"], ctx)?;
            Ok(SchedPolicy::Ucb {
                explore_milli: req_u32(p, "explore_milli", ctx)?,
            })
        }
        other => Err(SpecError::new(
            ctx,
            format!("unknown scheduling policy '{other}'"),
        )),
    }
}

/// `"sched"` is optional (pre-sched fabric specs default to the historical
/// static scheduler); within the stanza every knob is individually
/// optional.
fn parse_sched_opts(config: &Json, ctx: &str) -> Result<SchedOptions, SpecError> {
    let Some(s) = config.get("sched") else {
        return Ok(SchedOptions::default());
    };
    let s_ctx = &format!("{ctx}.sched");
    check_keys(s, &["policy", "assumed_cost", "classes"], s_ctx)?;
    Ok(SchedOptions {
        policy: match s.get("policy") {
            None => SchedPolicy::Static,
            Some(p) => parse_policy(p, &format!("{s_ctx}.policy"))?,
        },
        assumed_cost: match s.get("assumed_cost") {
            None => None,
            Some(c) => Some(parse_cost_obj(c, &format!("{s_ctx}.assumed_cost"))?),
        },
        classes: match s.get("classes") {
            None => ClassMix::default(),
            Some(c) => parse_class_mix(c, &format!("{s_ctx}.classes"))?,
        },
    })
}

fn parse_sched_grid(config: &Json) -> Result<SchedGridConfig, SpecError> {
    let ctx = "spec.config (sched)";
    check_keys(
        config,
        &[
            "track",
            "frames_per_cell",
            "cell_counts",
            "arrival_periods_us",
            "mix",
            "policy",
            "classes",
            "assumed_cost",
            "deadline_us",
            "cost",
            "seed",
            "threads",
        ],
        ctx,
    )?;
    Ok(SchedGridConfig {
        track: parse_track(config, ctx)?,
        frames_per_cell: req_usize(config, "frames_per_cell", ctx)?,
        cell_counts: req_usize_arr(config, "cell_counts", ctx)?,
        arrival_periods_us: req_f64_arr(config, "arrival_periods_us", ctx)?,
        mix: parse_mix(req(config, "mix", ctx)?, &format!("{ctx}.mix"))?,
        policy: parse_policy(req(config, "policy", ctx)?, &format!("{ctx}.policy"))?,
        classes: parse_class_mix(req(config, "classes", ctx)?, &format!("{ctx}.classes"))?,
        assumed_cost: parse_cost_obj(
            req(config, "assumed_cost", ctx)?,
            &format!("{ctx}.assumed_cost"),
        )?,
        deadline_us: req_f64(config, "deadline_us", ctx)?,
        cost: parse_cost(config, ctx)?,
        seed: req_u64(config, "seed", ctx)?,
        threads: req_usize(config, "threads", ctx)?,
    })
}

fn parse_fabric(config: &Json, realtime: bool) -> Result<FabricGridConfig, SpecError> {
    let ctx = if realtime {
        "spec.config (fabric-rt)"
    } else {
        "spec.config (fabric)"
    };
    check_keys(
        config,
        &[
            "track",
            "frames_per_cell",
            "cell_counts",
            "arrival_periods_us",
            "mixes",
            "arrival",
            "realtime",
            "sched",
            "deadline_us",
            "cost",
            "seed",
            "threads",
        ],
        ctx,
    )?;
    let mode = match (realtime, config.get("realtime")) {
        (false, None) => FabricMode::Virtual,
        (false, Some(_)) => {
            return Err(SpecError::new(
                ctx,
                "\"realtime\" settings on a virtual fabric spec \
                 (use experiment \"fabric-rt\")",
            ));
        }
        // Realtime with the default thread topology.
        (true, None) => FabricMode::Realtime(RealtimeConfig {
            producers: 2,
            queue_shards: 2,
        }),
        (true, Some(rt)) => {
            let rt_ctx = &format!("{ctx}.realtime");
            check_keys(rt, &["producers", "queue_shards"], rt_ctx)?;
            FabricMode::Realtime(RealtimeConfig {
                producers: req_usize(rt, "producers", rt_ctx)?,
                queue_shards: req_usize(rt, "queue_shards", rt_ctx)?,
            })
        }
    };
    let mixes = req(config, "mixes", ctx)?
        .as_arr()
        .ok_or_else(|| SpecError::new(ctx, "field \"mixes\" must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, m)| parse_mix(m, &format!("{ctx}.mixes[{i}]")))
        .collect::<Result<Vec<_>, SpecError>>()?;
    Ok(FabricGridConfig {
        track: parse_track(config, ctx)?,
        frames_per_cell: req_usize(config, "frames_per_cell", ctx)?,
        cell_counts: req_usize_arr(config, "cell_counts", ctx)?,
        arrival_periods_us: req_f64_arr(config, "arrival_periods_us", ctx)?,
        mixes,
        arrival: parse_arrival(config, ctx)?,
        mode,
        sched: parse_sched_opts(config, ctx)?,
        deadline_us: req_f64(config, "deadline_us", ctx)?,
        cost: parse_cost(config, ctx)?,
        seed: req_u64(config, "seed", ctx)?,
        threads: req_usize(config, "threads", ctx)?,
    })
}

fn parse_canned(kind: CannedKind, config: &Json) -> Result<CannedSpec, SpecError> {
    let ctx = &format!("spec.config ({})", kind.name());
    check_keys(config, &["scale", "seed"], ctx)?;
    let scale = req(config, "scale", ctx)?;
    let scale_ctx = &format!("{ctx}.scale");
    check_keys(
        scale,
        &["instances", "reads", "harvest_reads", "grid_thin"],
        scale_ctx,
    )?;
    Ok(CannedSpec {
        experiment: kind,
        scale: Scale {
            instances: req_usize(scale, "instances", scale_ctx)?,
            reads: req_usize(scale, "reads", scale_ctx)?,
            harvest_reads: req_usize(scale, "harvest_reads", scale_ctx)?,
            grid_thin: req_usize(scale, "grid_thin", scale_ctx)?,
        },
        seed: req_u64(config, "seed", ctx)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ber_spec() -> ExperimentSpec {
        ExperimentSpec::Ber(SnrSweepConfig {
            n_users: 3,
            n_rx: 3,
            modulation: Modulation::Qpsk,
            channel: ChannelModel::UnitGainRandomPhase,
            snr_db: vec![0.0, 8.0, 16.5],
            realizations: 4,
            seed: u64::MAX - 12345,
            threads: 0,
        })
    }

    fn stream_spec() -> ExperimentSpec {
        ExperimentSpec::Stream(StreamGridConfig {
            track: TrackConfig {
                n_users: 3,
                n_rx: 3,
                modulation: Modulation::Qpsk,
                rho: 0.0,
                noise_variance: 0.119,
            },
            frames: 64,
            arrival_periods_us: vec![400.0, 160.0],
            rhos: vec![0.0, 0.95],
            policies: DispatchPolicy::ALL.to_vec(),
            deadline_us: 300.0,
            cost: CostModel::default(),
            sa: SaParams {
                sweeps: 96,
                num_reads: 1,
                threads: 1,
                ..SaParams::default()
            },
            seed: 2026,
            threads: 0,
        })
    }

    fn fabric_spec() -> ExperimentSpec {
        ExperimentSpec::Fabric(FabricGridConfig {
            track: TrackConfig {
                n_users: 2,
                n_rx: 2,
                modulation: Modulation::Qpsk,
                rho: 0.9,
                noise_variance: 0.079,
            },
            frames_per_cell: 24,
            cell_counts: vec![2, 4],
            arrival_periods_us: vec![400.0, 200.0],
            mixes: vec![
                BackendMix {
                    name: "sa-pool".into(),
                    backends: vec![BackendSpec::SaPool(SaPoolConfig {
                        workers: 2,
                        max_batch: 4,
                        sa: SaParams {
                            sweeps: 48,
                            num_reads: 2,
                            threads: 1,
                            ..SaParams::default()
                        },
                    })],
                },
                BackendMix {
                    name: "hetero".into(),
                    backends: vec![
                        BackendSpec::Pimc(AnnealerConfig {
                            num_reads: 2,
                            anneal_us: 2.0,
                            sweeps_per_us: 8,
                            capacity: 1,
                            max_batch: 4,
                        }),
                        BackendSpec::Svmc(AnnealerConfig {
                            num_reads: 2,
                            anneal_us: 2.0,
                            sweeps_per_us: 8,
                            capacity: 1,
                            max_batch: 4,
                        }),
                        BackendSpec::MockQpu(MockQpuConfig {
                            num_reads: 4,
                            anneal_us: 2.0,
                            sweeps_per_us: 8,
                            trotter_slices: 8,
                            max_batch: 4,
                            network: NetworkModel {
                                rtt_base_us: 30.0,
                                jitter_us: 10.0,
                            },
                            programming_us: 120.0,
                            embed_derive_us_per_qubit: 2.0,
                            chain_strength: 2.0,
                        }),
                    ],
                },
            ],
            arrival: ArrivalProcess::Periodic,
            mode: FabricMode::Virtual,
            sched: SchedOptions::default(),
            deadline_us: 700.0,
            cost: CostModel::default(),
            seed: 2026,
            threads: 0,
        })
    }

    fn adaptive_fabric_spec() -> ExperimentSpec {
        let ExperimentSpec::Fabric(mut config) = fabric_spec() else {
            unreachable!()
        };
        config.mixes[0].backends.push(BackendSpec::Pt(PtConfig {
            workers: 1,
            max_batch: 2,
            pt: PtParams::default(),
        }));
        config.mixes[0].backends.push(BackendSpec::Tabu(TabuConfig {
            workers: 1,
            max_batch: 2,
            tabu: TabuParams::default(),
        }));
        config.sched = SchedOptions {
            policy: SchedPolicy::Ewma { shift: 2 },
            assumed_cost: Some(CostModel {
                us_per_sweep: 0.15,
                ..CostModel::default()
            }),
            classes: ClassMix {
                urllc: 1,
                embb: 2,
                bulk: 1,
            },
        };
        ExperimentSpec::Fabric(config)
    }

    fn sched_spec() -> ExperimentSpec {
        let ExperimentSpec::Fabric(fabric) = fabric_spec() else {
            unreachable!()
        };
        ExperimentSpec::Sched(SchedGridConfig {
            track: fabric.track,
            frames_per_cell: 16,
            cell_counts: vec![2, 4],
            arrival_periods_us: vec![400.0, 200.0],
            mix: fabric.mixes[0].clone(),
            policy: SchedPolicy::Ucb { explore_milli: 250 },
            classes: ClassMix {
                urllc: 1,
                embb: 2,
                bulk: 1,
            },
            assumed_cost: CostModel {
                us_per_sweep: 0.15,
                ..CostModel::default()
            },
            deadline_us: 700.0,
            cost: CostModel::default(),
            seed: 2026,
            threads: 0,
        })
    }

    fn fabric_rt_spec() -> ExperimentSpec {
        let ExperimentSpec::Fabric(mut config) = fabric_spec() else {
            unreachable!()
        };
        config.arrival = ArrivalProcess::Bursty { burst: 4 };
        config.mode = FabricMode::Realtime(RealtimeConfig {
            producers: 3,
            queue_shards: 2,
        });
        ExperimentSpec::Fabric(config)
    }

    fn canned_spec() -> ExperimentSpec {
        ExperimentSpec::Canned(CannedSpec {
            experiment: CannedKind::Fig3,
            scale: Scale::quick(),
            seed: 7,
        })
    }

    #[test]
    fn every_family_round_trips_exactly() {
        for spec in [
            ber_spec(),
            stream_spec(),
            fabric_spec(),
            adaptive_fabric_spec(),
            sched_spec(),
            fabric_rt_spec(),
            canned_spec(),
        ] {
            let text = spec.to_json();
            let parsed = ExperimentSpec::parse(&text).expect(&text);
            assert_eq!(parsed, spec, "{text}");
        }
    }

    #[test]
    fn arrival_processes_round_trip_and_typos_are_rejected() {
        let ExperimentSpec::Fabric(base) = fabric_spec() else {
            unreachable!()
        };
        for arrival in [
            ArrivalProcess::Bursty { burst: 3 },
            ArrivalProcess::Diurnal {
                amplitude: 0.5,
                cycle_frames: 16,
            },
            ArrivalProcess::HeavyTailed { alpha: 1.5 },
        ] {
            let mut config = base.clone();
            config.arrival = arrival;
            let spec = ExperimentSpec::Fabric(config);
            let parsed = ExperimentSpec::parse(&spec.to_json()).expect("round trip");
            assert_eq!(parsed, spec);
        }

        let mut config = base.clone();
        config.arrival = ArrivalProcess::Bursty { burst: 3 };
        let doc = ExperimentSpec::Fabric(config)
            .to_json()
            .replace("\"burst\"", "\"bursts\"");
        let err = ExperimentSpec::parse(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown field"), "got: {err}");
    }

    #[test]
    fn realtime_mode_is_the_experiment_tag() {
        // fabric-rt serializes under its own experiment tag...
        let text = fabric_rt_spec().to_json();
        assert!(text.contains("\"experiment\": \"fabric-rt\""), "{text}");
        // ...a realtime stanza on a plain fabric spec is rejected...
        let bad = text.replace("\"fabric-rt\"", "\"fabric\"");
        let err = ExperimentSpec::parse(&bad).unwrap_err();
        assert!(
            err.to_string().contains("virtual fabric spec"),
            "got: {err}"
        );
        // ...and fabric-rt without one gets the default thread topology.
        let mut doc = fabric_spec().to_json();
        doc = doc.replace(
            "\"experiment\": \"fabric\"",
            "\"experiment\": \"fabric-rt\"",
        );
        let spec = ExperimentSpec::parse(&doc).expect("defaulted realtime");
        match spec {
            ExperimentSpec::Fabric(c) => assert_eq!(
                c.mode,
                FabricMode::Realtime(RealtimeConfig {
                    producers: 2,
                    queue_shards: 2,
                })
            ),
            _ => unreachable!(),
        }
    }

    #[test]
    fn default_sched_stanza_is_omitted_and_typos_are_rejected() {
        // The all-default scheduler serializes to nothing: pre-sched specs
        // and their byte-identical outputs are untouched.
        let text = fabric_spec().to_json();
        assert!(!text.contains("\"sched\""), "{text}");

        let text = adaptive_fabric_spec().to_json();
        assert!(text.contains("\"sched\""), "{text}");
        let bad = text.replace("\"name\": \"ewma\"", "\"name\": \"ewmaa\"");
        let err = ExperimentSpec::parse(&bad).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown scheduling policy 'ewmaa'"),
            "got: {err}"
        );

        let bad = sched_spec().to_json().replace("\"urllc\"", "\"urlcc\"");
        let err = ExperimentSpec::parse(&bad).unwrap_err();
        assert!(
            err.to_string().contains("unknown field \"urlcc\""),
            "got: {err}"
        );
    }

    #[test]
    fn sched_spec_rejects_a_static_policy() {
        let ExperimentSpec::Sched(mut config) = sched_spec() else {
            unreachable!()
        };
        config.policy = SchedPolicy::Static;
        let err = ExperimentSpec::Sched(config).validate().unwrap_err();
        assert!(
            err.to_string().contains("must not be \"static\""),
            "got: {err}"
        );
    }

    #[test]
    fn family_names_and_seeds_are_exposed() {
        assert_eq!(ber_spec().family(), "ber");
        assert_eq!(stream_spec().family(), "stream");
        assert_eq!(fabric_spec().family(), "fabric");
        assert_eq!(sched_spec().family(), "sched");
        assert_eq!(fabric_rt_spec().family(), "fabric-rt");
        assert!(fabric_rt_spec().is_realtime());
        assert!(!fabric_spec().is_realtime());
        assert_eq!(canned_spec().family(), "fig3");
        assert_eq!(canned_spec().seed(), 7);
        let mut spec = ber_spec();
        spec.set_threads(3);
        match spec {
            ExperimentSpec::Ber(c) => assert_eq!(c.threads, 3),
            _ => unreachable!(),
        }
    }

    #[test]
    fn canned_kind_names_round_trip() {
        for kind in CannedKind::ALL {
            assert_eq!(CannedKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CannedKind::from_name("fig9"), None);
    }

    #[test]
    fn parse_rejects_unknown_experiment_and_version() {
        let err =
            ExperimentSpec::parse(r#"{"spec_version": 1, "experiment": "nope", "config": {}}"#)
                .unwrap_err();
        assert!(err.to_string().contains("unknown experiment 'nope'"));

        let err =
            ExperimentSpec::parse(r#"{"spec_version": 99, "experiment": "ber", "config": {}}"#)
                .unwrap_err();
        assert!(err.to_string().contains("unsupported spec_version 99"));
    }

    #[test]
    fn parse_rejects_syntax_missing_fields_and_typos() {
        let err = ExperimentSpec::parse("{not json").unwrap_err();
        assert!(err.to_string().contains("JSON error"));

        let err = ExperimentSpec::parse(r#"{"experiment": "ber", "config": {}}"#).unwrap_err();
        assert!(err.to_string().contains("missing field \"spec_version\""));

        // A typo'd config key is caught by name.
        let mut doc = ber_spec().to_json();
        doc = doc.replace("\"realizations\"", "\"realisations\"");
        let err = ExperimentSpec::parse(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown field \"realisations\""));
    }

    #[test]
    fn parse_rejects_invalid_configs_via_validate() {
        let mut doc = ber_spec().to_json();
        doc = doc.replace("\"realizations\": 4", "\"realizations\": 0");
        let err = ExperimentSpec::parse(&doc).unwrap_err();
        assert!(err.to_string().contains("zero realizations"), "got: {err}");
    }

    #[test]
    fn parse_rejects_bad_enum_values() {
        let mut doc = ber_spec().to_json();
        doc = doc.replace("\"QPSK\"", "\"QAM-4096\"");
        let err = ExperimentSpec::parse(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown modulation 'QAM-4096'"));

        let mut doc = stream_spec().to_json();
        doc = doc.replace("\"always-hybrid\"", "\"sometimes-hybrid\"");
        let err = ExperimentSpec::parse(&doc).unwrap_err();
        assert!(err
            .to_string()
            .contains("unknown policy 'sometimes-hybrid'"));

        let mut doc = fabric_spec().to_json();
        doc = doc.replace("\"backend\": \"pimc\"", "\"backend\": \"qpu2000\"");
        let err = ExperimentSpec::parse(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown backend 'qpu2000'"));
    }

    #[test]
    fn spec_error_accessors_and_display_agree() {
        let err = SpecError::new("StreamConfig", "need at least one frame");
        assert_eq!(err.context(), "StreamConfig");
        assert_eq!(err.message(), "need at least one frame");
        assert_eq!(err.to_string(), "StreamConfig: need at least one frame");
    }
}
