//! # hqw-core — hybrid classical-quantum computation structures
//!
//! The paper's contribution: a framework for composing classical and quantum
//! processing stages for wireless-network optimization problems, its
//! GS+Reverse-Annealing prototype, the metrics it evaluates with, and the
//! pipelined computation structure it envisions.
//!
//! * [`protocol`] — FA / RA / FR protocol definitions (§4.1, Figure 5).
//! * [`stages`] — classical initializers: the paper's Greedy Search plus the
//!   §5 application-specific solvers (ZF, K-best, FCSD), random and oracle
//!   controls.
//! * [`solver`] — [`solver::HybridSolver`]: classical stage → quantum stage →
//!   best-sample selection (Figure 1).
//! * [`metrics`] — ΔE%, success probability `p★`, TTS (Eq. 2).
//! * [`harvest`] — initial-state harvesting by ΔE_IS% (Figures 7–8
//!   methodology).
//! * [`sweep`] — `s_p`/`c_p` parameter sweeps with median-best selection
//!   (Challenge 2).
//! * [`pipeline`] / [`event_sim`] — the Figure-2 pipelined computation
//!   structure: a real threaded pipeline and a discrete-event latency
//!   analyzer (Challenge 3).
//! * [`iterative`] — the richer hybrid couplings of §2's survey: iterated
//!   reverse annealing and sample-persistence variable prefixing.
//! * [`scenario`] — the batched BER-vs-SNR scenario engine: any
//!   [`hqw_phy::detect::Detector`] (classical, SA-QUBO, or the hybrid solver
//!   via [`scenario::HybridDetector`]) swept over a deterministic
//!   (SNR × realization) grid into a JSON link-metric report.
//! * [`stream`] — the streaming frame engine: Gauss–Markov
//!   temporally-correlated channels ([`hqw_phy::channel::ChannelTrack`]),
//!   deadline-aware classical/hybrid dispatch on a virtual clock, and
//!   warm-started solvers measuring warm-vs-cold sweeps-to-solution.
//! * [`fabric`] — the quantum compute fabric: many cells sharing a
//!   heterogeneous pool of solver backends (SA pool, PIMC, SVMC, mock QPU
//!   behind a network with cached embeddings) through the batching,
//!   deadline-aware [`fabric::FabricScheduler`].
//! * [`sched`] — the adaptive scheduling plane: deterministic learned
//!   service predictors (EWMA and UCB-bandit over fixed-point correction
//!   ratios), wireless priority classes (URLLC/eMBB/Bulk) with class-aware
//!   deadlines, and the [`sched::SchedOptions`] knobs the fabric
//!   scheduler consumes.
//! * [`sched_grid`] — the paired static-vs-adaptive scheduling experiment:
//!   every grid point run under a calibrated and a deliberately
//!   mispredicted planner cost model, both arms over identical frames, with
//!   merged-histogram per-class summaries (`BENCH_sched.json`).
//! * [`fabric_rt`] — the fabric's wall-clock realtime twin: concurrent
//!   frame producers, sharded MPMC delivery queues, per-backend worker
//!   pools, and a charge-only control plane whose routing decisions replay
//!   bit-exactly through the [`fabric`] virtual-time sim.
//! * [`experiments`] — canned runners for every figure in the evaluation.
//! * [`spec`] — the unified experiment-spec layer: declarative, versioned
//!   [`spec::ExperimentSpec`] descriptions of every experiment, an
//!   offline-safe JSON codec for them, and the shared [`spec::SpecError`]
//!   validation error.
//! * [`report`] — the unified [`report::Report`] trait (JSON/CSV/table in
//!   one place) plus table/CSV rendering for the bench binaries.
//! * [`grid`] — the one grid engine: the [`grid::GridEngine`] trait the
//!   `ber`/`stream`/`fabric`/`sched` families implement, and the generic
//!   run / shard-record / reassembly paths and family dispatch written once
//!   against it.
//! * [`shard`] — the distributed experiment plane: deterministic grid
//!   sharding, byte-stable [`shard::merge_shards`] reassembly, and the
//!   streaming [`shard::Checkpoint`] journal long runs resume from.
//! * [`telemetry`] — zero-perturbation observability: per-thread span
//!   recorders, the mergeable [`telemetry::LogHistogram`], the periodic
//!   queue/backend sampler series, and the Chrome trace-event exporter.

#![warn(missing_docs)]

pub mod event_sim;
pub mod experiments;
pub mod fabric;
pub mod fabric_rt;
pub mod grid;
pub mod harvest;
pub mod iterative;
pub mod metrics;
pub mod pipeline;
pub mod protocol;
pub mod report;
pub mod scenario;
pub mod sched;
pub mod sched_grid;
pub mod shard;
pub mod solver;
pub mod spec;
pub mod stages;
pub mod stream;
pub mod sweep;
pub mod telemetry;

pub use fabric::{
    run_fabric, run_fabric_grid, run_fabric_traced, ArrivalProcess, BackendMix, BackendSpec,
    FabricConfig, FabricGridConfig, FabricGridReport, FabricMode, FabricReport, FabricScheduler,
    NetworkModel, RealtimeConfig, RouteTrace, SolverBackend,
};
pub use fabric_rt::{
    diff_traces, replay_trace_doc, run_fabric_rt_grid, run_fabric_rt_grid_observed,
    FabricRtGridReport, FabricRtReport, ReplayReport,
};
pub use grid::{run_grid, spec_grid, GridEngine, SpecGrid};
pub use protocol::Protocol;
pub use report::{PointRecord, Report};
pub use scenario::{
    paper_roster, BerReport, BerSweep, HybridDetector, ScenarioDetector, SnrSweepConfig,
};
pub use sched::{
    ClassMix, ClassReport, EwmaPredictor, PriorityClass, SchedOptions, SchedPolicy,
    ServicePredictor, StaticPredictor, UcbPredictor,
};
pub use sched_grid::{
    ArmSummary, ClassSummary, SchedGridConfig, SchedGridReport, SchedPointReport, SCHED_WORKLOADS,
};
pub use shard::{
    grid_len, merge_shards, shard_ids, spec_fingerprint, Checkpoint, ShardReport,
    SHARD_SCHEMA_VERSION,
};
pub use solver::{HybridConfig, HybridResult, HybridSolver};
pub use spec::{CannedKind, CannedSpec, ExperimentSpec, SpecError, SPEC_VERSION};
pub use stages::{ClassicalInitializer, GreedyInitializer, InitialState};
pub use stream::{
    run_stream, CostModel, DispatchPolicy, StreamConfig, StreamGridConfig, StreamGridReport,
    StreamReport,
};
pub use telemetry::{Collector, CounterSample, LogHistogram, TelemetrySummary, TraceEvent};
