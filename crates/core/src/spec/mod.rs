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
//!   a scheduling sweep ([`SchedGridConfig`]), or one of the paper's
//!   figures ([`FigureKind`] + a [`Scale`]).
//! * [`ExperimentSpec::to_json`] / [`ExperimentSpec::parse`] — the spec
//!   document, written and read through the field tables at the bottom of
//!   this module: one line per wire key, declared with the [`codec`]
//!   macros over the [`json`] document model (the build environment has
//!   no crates-io access). `parse(serialize(spec)) == spec` is
//!   property-tested in `tests/spec_proptests.rs`, and the registry's
//!   fingerprints pin the bytes.
//! * [`SpecError`] — the shared validation error every config's
//!   `validate()` returns, replacing the old ad-hoc assert/panic mix (the
//!   engine entry points that panic on an invalid config panic with its
//!   message). A config is a plain struct: the codec fills it from
//!   its `record!` table, and code writes it as a literal and calls
//!   `validate()`.
//!
//! The `hqw` runner binary (in `hqw-bench`) consumes this layer: registry
//! presets are `ExperimentSpec` values, and `hqw run spec.json` parses a
//! file into one. The spec document format is versioned through
//! [`SPEC_VERSION`] and documented in `crates/bench/README.md`.

pub mod codec;
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
use codec::{named, record, tagged, Derived, Field, Omit, OrDefault, Record};
use hqw_phy::channel::{ChannelModel, TrackConfig};
use hqw_phy::modulation::Modulation;
use hqw_qubo::pt::PtParams;
use hqw_qubo::sa::SaParams;
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
/// is also the panic payload of the entry points that panic on an invalid
/// config.
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

/// The paper's figure experiments: each reproduces one figure/claim of the
/// paper at a chosen [`Scale`], and runs as a grid engine
/// (`crate::experiments`). The default only stands in while a spec
/// document is read: the kind comes from the document's `experiment` tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FigureKind {
    /// Figure 3: QUBO-simplification preprocessing sweep.
    #[default]
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
}

impl FigureKind {
    /// Every figure, in registry order.
    pub const ALL: [FigureKind; 7] = [
        FigureKind::Fig3,
        FigureKind::Fig4SoftInfo,
        FigureKind::Fig5Schedules,
        FigureKind::Fig6,
        FigureKind::Fig7,
        FigureKind::Fig8,
        FigureKind::Headline,
    ];

    /// Stable machine-readable name (the registry key, spec tag and report
    /// name).
    pub fn name(self) -> &'static str {
        match self {
            FigureKind::Fig3 => "fig3",
            FigureKind::Fig4SoftInfo => "fig4-softinfo",
            FigureKind::Fig5Schedules => "fig5-schedules",
            FigureKind::Fig6 => "fig6",
            FigureKind::Fig7 => "fig7",
            FigureKind::Fig8 => "fig8",
            FigureKind::Headline => "headline",
        }
    }

    /// Parses a [`FigureKind::name`] back (`None` for unknown names).
    pub fn from_name(name: &str) -> Option<FigureKind> {
        FigureKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A figure experiment: which figure, at what scale, which seed. On the
/// wire it is the scale and the seed; `threads` is each sampler call's
/// read worker count (0 = all cores), set by the runner and never written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureSpec {
    /// Which figure.
    pub experiment: FigureKind,
    /// Scale knobs (instances, reads, harvest reads, grid thinning).
    pub scale: Scale,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for each sampler call's reads (0 = all available
    /// cores); the figure's points run one at a time.
    pub threads: usize,
}

impl FigureSpec {
    /// Validates the scale knobs.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "FigureSpec";
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
    /// One of the paper's figure experiments.
    Figure(FigureSpec),
}

impl ExperimentSpec {
    /// The experiment family tag (`"ber"`, `"stream"`, `"fabric"`,
    /// `"fabric-rt"` for a realtime-mode fabric, or the figure's name) —
    /// the `experiment` field of the JSON document and the registry key.
    pub fn family(&self) -> &'static str {
        match self {
            ExperimentSpec::Ber(_) => "ber",
            ExperimentSpec::Stream(_) => "stream",
            ExperimentSpec::Fabric(c) => match c.mode {
                FabricMode::Virtual => "fabric",
                FabricMode::Realtime(_) => "fabric-rt",
            },
            ExperimentSpec::Sched(_) => "sched",
            ExperimentSpec::Figure(c) => c.experiment.name(),
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
    /// and figures have no frame lifecycle to trace, so the
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
            ExperimentSpec::Figure(c) => c.seed,
        }
    }

    /// The spec's worker-thread count (0 = all cores).
    pub fn threads(&self) -> usize {
        match self {
            ExperimentSpec::Ber(c) => c.threads,
            ExperimentSpec::Stream(c) => c.threads,
            ExperimentSpec::Fabric(c) => c.threads,
            ExperimentSpec::Sched(c) => c.threads,
            ExperimentSpec::Figure(c) => c.threads,
        }
    }

    /// Overrides the worker-thread count. Threads are a pure throughput
    /// knob: results are bit-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        match self {
            ExperimentSpec::Ber(c) => c.threads = threads,
            ExperimentSpec::Stream(c) => c.threads = threads,
            ExperimentSpec::Fabric(c) => c.threads = threads,
            ExperimentSpec::Sched(c) => c.threads = threads,
            ExperimentSpec::Figure(c) => c.threads = threads,
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
            ExperimentSpec::Figure(c) => c.seed = seed,
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
            ExperimentSpec::Figure(c) => c.validate(),
        }
    }

    /// Serializes the spec as a versioned JSON document (2-space pretty
    /// format, trailing newline). [`ExperimentSpec::parse`] reads it back
    /// exactly: `parse(to_json(spec)) == spec`.
    pub fn to_json(&self) -> String {
        self.to_doc().to_string_pretty()
    }

    /// The spec document as a JSON tree — the form shard documents,
    /// checkpoint headers and trace files embed.
    pub(crate) fn to_doc(&self) -> Json {
        let config = match self {
            ExperimentSpec::Ber(c) => c.encode(),
            ExperimentSpec::Stream(c) => c.encode(),
            ExperimentSpec::Fabric(c) => c.encode(),
            ExperimentSpec::Sched(c) => c.encode(),
            ExperimentSpec::Figure(c) => c.encode(),
        };
        SpecDoc {
            spec_version: SPEC_VERSION,
            experiment: self.family().to_string(),
            config,
        }
        .encode()
    }

    /// Parses and validates a spec JSON document.
    ///
    /// # Errors
    /// Returns a [`SpecError`] on JSON syntax errors, unknown
    /// `experiment`/field names, a wrong `spec_version`, missing or
    /// mistyped fields, or a configuration that fails `validate()`.
    pub fn parse(text: &str) -> Result<ExperimentSpec, SpecError> {
        let doc = Json::parse(text).map_err(|e| SpecError::new("spec", e.to_string()))?;
        ExperimentSpec::from_doc(&doc)
    }

    /// Reads and validates a spec document tree (`ExperimentSpec::to_doc`
    /// output).
    ///
    /// # Errors
    /// As [`ExperimentSpec::parse`], less the syntax errors.
    pub(crate) fn from_doc(doc: &Json) -> Result<ExperimentSpec, SpecError> {
        let SpecDoc {
            spec_version,
            experiment,
            config,
        } = SpecDoc::decode(doc, "spec")?;
        if spec_version != SPEC_VERSION {
            return Err(SpecError::new(
                "spec",
                format!(
                    "unsupported spec_version {spec_version} (this build reads {SPEC_VERSION})"
                ),
            ));
        }
        let ctx = &format!("spec.config ({experiment})");
        let spec = match experiment.as_str() {
            "ber" => ExperimentSpec::Ber(Record::decode(&config, ctx)?),
            "stream" => ExperimentSpec::Stream(Record::decode(&config, ctx)?),
            "fabric" => {
                let config = FabricGridConfig::decode(&config, ctx)?;
                if config.mode != FabricMode::Virtual {
                    return Err(SpecError::new(
                        ctx,
                        "\"realtime\" settings on a virtual fabric spec \
                         (use experiment \"fabric-rt\")",
                    ));
                }
                ExperimentSpec::Fabric(config)
            }
            "fabric-rt" => {
                let mut config = FabricGridConfig::decode(&config, ctx)?;
                if config.mode == FabricMode::Virtual {
                    // Realtime with the default thread topology.
                    config.mode = FabricMode::Realtime(RealtimeConfig {
                        producers: 2,
                        queue_shards: 2,
                    });
                }
                ExperimentSpec::Fabric(config)
            }
            "sched" => ExperimentSpec::Sched(Record::decode(&config, ctx)?),
            other => match FigureKind::from_name(other) {
                Some(experiment) => ExperimentSpec::Figure(FigureSpec {
                    experiment,
                    ..Record::decode(&config, ctx)?
                }),
                None => {
                    return Err(SpecError::new(
                        "spec",
                        format!("unknown experiment '{other}'"),
                    ));
                }
            },
        };
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// The wire tables: one line per key, in document order
// ---------------------------------------------------------------------------

record!(
    /// The spec document's envelope; `config` is read by the family's table.
    struct SpecDoc {
        spec_version: u64,
        experiment: String,
        config: Json,
    }
);

named!(Modulation, "modulation");
named!(ChannelModel, "channel");
named!(DispatchPolicy, "policy");

record!(SnrSweepConfig {
    n_users: usize,
    n_rx: usize,
    modulation: Modulation,
    channel: ChannelModel,
    snr_db: Vec<f64>,
    realizations: usize,
    seed: u64,
    threads: usize,
});

record!(TrackConfig {
    n_users: usize,
    n_rx: usize,
    modulation: Modulation,
    rho: f64,
    noise_variance: f64,
});

record!(CostModel {
    base_us: f64,
    us_per_node: f64,
    us_per_sweep: f64,
});

record!(SaParams {
    beta_initial: f64,
    beta_final: f64,
    sweeps: usize,
    num_reads: usize,
    threads: usize,
});

record!(StreamGridConfig {
    track: TrackConfig,
    frames: usize,
    arrival_periods_us: Vec<f64>,
    rhos: Vec<f64>,
    policies: Vec<DispatchPolicy>,
    deadline_us: f64,
    cost: CostModel,
    sa: SaParams,
    seed: u64,
    threads: usize,
});

record!(SaPoolConfig {
    workers: usize,
    max_batch: usize,
    sa: SaParams,
});

record!(AnnealerConfig {
    num_reads: usize,
    anneal_us: f64,
    sweeps_per_us: usize,
    capacity: usize,
    max_batch: usize,
});

record!(PtParams {
    replicas: usize,
    sweeps: usize,
    swap_interval: usize,
    beta_min: f64,
    beta_max: f64,
});

record!(PtConfig {
    workers: usize,
    max_batch: usize,
    pt: PtParams,
});

record!(TabuParams {
    tenure: usize,
    max_iters: usize,
    stall_limit: usize,
});

record!(TabuConfig {
    workers: usize,
    max_batch: usize,
    tabu: TabuParams,
});

record!(NetworkModel {
    rtt_base_us: f64,
    jitter_us: f64,
});

record!(MockQpuConfig {
    num_reads: usize,
    anneal_us: f64,
    sweeps_per_us: usize,
    trotter_slices: usize,
    max_batch: usize,
    network: NetworkModel,
    programming_us: f64,
    embed_derive_us_per_qubit: f64,
    chain_strength: f64,
});

tagged!(BackendSpec by "backend", "backend" {
    "sa-pool" => SaPool(SaPoolConfig),
    "pimc" => Pimc(AnnealerConfig),
    "svmc" => Svmc(AnnealerConfig),
    "pt" => Pt(PtConfig),
    "tabu" => Tabu(TabuConfig),
    "mock-qpu" => MockQpu(MockQpuConfig),
});

record!(BackendMix {
    name: String,
    backends: Vec<BackendSpec>,
});

tagged!(ArrivalProcess by "process", "arrival process" {
    "periodic" => Periodic {},
    "bursty" => Bursty { burst: usize },
});

record!(ClassMix {
    urllc: u32,
    embb: u32,
    bulk: u32,
});

tagged!(SchedPolicy by "name", "scheduling policy" {
    "static" => Static {},
    "ewma" => Ewma { shift: u32 },
});

// Inside the stanza every knob may be left out when read; the policy is
// always written.
record!(SchedOptions {
    policy: OrDefault<SchedPolicy>,
    assumed_cost: Option<CostModel>,
    classes: Omit<ClassMix>,
});

record!(RealtimeConfig {
    producers: usize,
    queue_shards: usize,
});

/// A fabric's mode travels as its `realtime` stanza (the thread topology),
/// written for realtime configs only; the `experiment` tag says which mode
/// a document must have.
impl Field for FabricMode {
    type Value = FabricMode;
    fn to_json(value: &FabricMode) -> Json {
        match value {
            FabricMode::Virtual => Json::Null,
            FabricMode::Realtime(rt) => rt.encode(),
        }
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<FabricMode, SpecError> {
        RealtimeConfig::from_json(json, key, ctx).map(FabricMode::Realtime)
    }
    fn write(value: &FabricMode) -> Option<Json> {
        (*value != FabricMode::Virtual).then(|| Self::to_json(value))
    }
    fn read(json: Option<&Json>, key: &str, ctx: &str) -> Result<FabricMode, SpecError> {
        json.map_or(Ok(FabricMode::Virtual), |json| {
            Self::from_json(json, key, ctx)
        })
    }
}

// The optional stanzas are left out at their defaults, so specs written
// before they existed keep their bytes and fingerprints.
record!(FabricGridConfig {
    track: TrackConfig,
    frames_per_cell: usize,
    cell_counts: Vec<usize>,
    arrival_periods_us: Vec<f64>,
    mixes: Vec<BackendMix>,
    arrival: Omit<ArrivalProcess>,
    mode as "realtime": FabricMode,
    sched: Omit<SchedOptions>,
    deadline_us: f64,
    cost: CostModel,
    seed: u64,
    threads: usize,
});

record!(SchedGridConfig {
    track: TrackConfig,
    frames_per_cell: usize,
    cell_counts: Vec<usize>,
    arrival_periods_us: Vec<f64>,
    mix: BackendMix,
    policy: SchedPolicy,
    classes: ClassMix,
    assumed_cost: CostModel,
    deadline_us: f64,
    cost: CostModel,
    seed: u64,
    threads: usize,
});

record!(Scale {
    instances: usize,
    reads: usize,
    harvest_reads: usize,
    grid_thin: usize,
});

record!(FigureSpec {
    experiment: Derived<FigureKind>,
    scale: Scale,
    seed: u64,
    threads: Derived<usize>,
});

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
            policy: SchedPolicy::Ewma { shift: 1 },
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

    fn figure_spec() -> ExperimentSpec {
        ExperimentSpec::Figure(FigureSpec {
            experiment: FigureKind::Fig3,
            scale: Scale::quick(),
            seed: 7,
            threads: 0,
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
            figure_spec(),
        ] {
            let text = spec.to_json();
            let parsed = ExperimentSpec::parse(&text).expect(&text);
            assert_eq!(parsed, spec, "{text}");
        }
    }

    /// The wire bytes of every fixture, optional stanzas included (sched
    /// options, PT/tabu backends, a bursty realtime fabric), pinned by
    /// fingerprint: a serializer that reorders or reformats a field fails
    /// here even when it still round-trips.
    #[test]
    fn fixture_documents_are_pinned() {
        use crate::shard::spec_fingerprint;
        let ExperimentSpec::Fabric(mut variant) = adaptive_fabric_spec() else {
            unreachable!()
        };
        // A static policy is still written once the stanza is.
        variant.sched.policy = SchedPolicy::Static;
        variant.sched.assumed_cost = None;
        variant.arrival = ArrivalProcess::Bursty { burst: 4 };
        let fixtures = [
            ber_spec(),
            stream_spec(),
            fabric_spec(),
            adaptive_fabric_spec(),
            sched_spec(),
            fabric_rt_spec(),
            figure_spec(),
            ExperimentSpec::Fabric(variant),
        ];
        let got: Vec<String> = fixtures.iter().map(spec_fingerprint).collect();
        assert_eq!(
            got,
            [
                "8705b81eb1e027b5",
                "55e57f062dfe5755",
                "5d36f7d427a11d12",
                "8777261a3578b9bb",
                "9feb81f95ee946f8",
                "b830d665250cec9c",
                "97148630584afd82",
                "17c66466fef09328",
            ]
        );
    }

    #[test]
    fn arrival_processes_round_trip_and_typos_are_rejected() {
        let ExperimentSpec::Fabric(base) = fabric_spec() else {
            unreachable!()
        };
        for arrival in [
            ArrivalProcess::Periodic,
            ArrivalProcess::Bursty { burst: 3 },
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
        assert_eq!(figure_spec().family(), "fig3");
        assert_eq!(figure_spec().seed(), 7);
        let mut spec = ber_spec();
        spec.set_threads(3);
        match spec {
            ExperimentSpec::Ber(c) => assert_eq!(c.threads, 3),
            _ => unreachable!(),
        }
    }

    #[test]
    fn canned_kind_names_round_trip() {
        for kind in FigureKind::ALL {
            assert_eq!(FigureKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FigureKind::from_name("fig9"), None);
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
