//! # hqw-anneal — quantum annealer simulator substrate
//!
//! The paper prototypes on a D-Wave 2000Q, hardware this reproduction does
//! not have; in its place this crate implements a **simulated analog
//! quantum annealer** exposing the same programming surface the paper used:
//!
//! * [`schedule`] — piecewise-linear `[time µs, s]` anneal schedules with
//!   §4.1's exact FA / RA / FR constructors (Figure 5).
//! * [`dwave`] — 2000Q-like `A(s)`/`B(s)` energy scales and operating
//!   temperature.
//! * [`engine`] / [`pimc`] / [`svmc`] — the Monte-Carlo engines that execute
//!   a schedule: path-integral (Trotterized) quantum Monte Carlo and
//!   semi-classical spin-vector Monte Carlo.
//! * [`noise`] — analog coefficient noise (ICE), the failure mode behind
//!   §3.1's soft-information finding.
//! * [`topology`] / [`embedding`] — the Chimera C16 hardware graph and the
//!   clique minor-embedding ("compilation") with chain-break resolution.
//! * [`sampler`] — the D-Wave-style front end: `num_reads`, schedules,
//!   reverse-anneal initial states, auto-scaling, parallel reads and QPU
//!   time accounting.
//! * [`cache`] — the embedding cache: memoized clique embeddings keyed by
//!   (topology, logical size), so streaming workloads that re-solve
//!   same-shape QUBOs never re-derive chains.
//!
//! Everything is deterministic from a seed, including multi-threaded
//! sampling.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod dwave;
pub mod embedding;
pub mod engine;
pub mod noise;
pub mod pimc;
pub mod sampler;
pub mod schedule;
pub mod svmc;
pub mod topology;

pub use cache::EmbeddingCache;
pub use dwave::DWaveProfile;
pub use embedding::{ChainStrength, CliqueEmbedding};
pub use engine::{AnnealEngine, AnnealParams};
pub use noise::IceModel;
pub use pimc::PimcEngine;
pub use sampler::{
    AnnealResult, ConfigError, EngineKind, Programmed, QuantumSampler, SamplerConfig, Target,
};
pub use schedule::AnnealSchedule;
pub use svmc::SvmcEngine;
pub use topology::Chimera;
