//! # hqw — Hybrid Classical-Quantum Computation for Wirelessly-Networked Systems
//!
//! Umbrella crate for the `hqw` workspace, a from-scratch Rust reproduction
//! of Kim, Venturelli & Jamieson, *"Towards Hybrid Classical-Quantum
//! Computation Structures in Wirelessly-Networked Systems"* (HotNets '20).
//!
//! The system solves **Large-MIMO detection** — the maximum-likelihood
//! decoding of spatially-multiplexed wireless transmissions — by reducing it
//! to QUBO form and refining a cheap classical guess with **reverse quantum
//! annealing** on a simulated analog annealer.
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`math`] | `hqw-math` | complex/linear algebra, RNG, statistics |
//! | [`qubo`] | `hqw-qubo` | QUBO model and its CSR Ising form, preprocessing, classical solvers |
//! | [`phy`] | `hqw-phy` | modulation, channels, MIMO detectors, ML→QUBO reduction |
//! | [`anneal`] | `hqw-anneal` | anneal schedules, PIMC/SVMC engines, Chimera embedding |
//! | [`core`] | `hqw-core` | hybrid solver, FA/RA/FR protocols, metrics, grid engines |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the full walk-through; the minimal
//! end-to-end loop (generate an instance, reduce to QUBO, seed with Greedy
//! Search, refine with Reverse Annealing) fits in a few lines:
//!
//! ```
//! use hqw::prelude::*;
//!
//! // One channel use: 2 users × QPSK, noiseless unit-gain random-phase channel.
//! let mut rng = Rng64::new(7);
//! let instance = DetectionInstance::generate(
//!     &InstanceConfig::paper(2, Modulation::Qpsk),
//!     &mut rng,
//! );
//!
//! // GS + Reverse Annealing on the calibrated simulated annealer.
//! let sampler = QuantumSampler::new(
//!     DWaveProfile::calibrated(),
//!     SamplerConfig { num_reads: 10, ..Default::default() },
//! );
//! let solver = HybridSolver::paper_prototype(sampler, 0.8);
//! let result = solver.solve(&instance, 42);
//!
//! // The hybrid never returns worse than its classical seed, and on this
//! // easy instance it recovers the transmitted bits exactly.
//! assert!(result.best_energy <= result.initial.as_ref().unwrap().energy);
//! assert_eq!(result.best_bits, instance.tx_natural_bits);
//! ```

pub use hqw_anneal as anneal;
pub use hqw_core as core;
pub use hqw_math as math;
pub use hqw_phy as phy;
pub use hqw_qubo as qubo;

/// A prelude re-exporting the types used by nearly every application.
pub mod prelude {
    pub use hqw_anneal::sampler::{QuantumSampler, SamplerConfig};
    pub use hqw_anneal::schedule::AnnealSchedule;
    pub use hqw_anneal::DWaveProfile;
    pub use hqw_core::grid::run_grid;
    pub use hqw_core::metrics::{delta_e_percent, success_probability, time_to_solution};
    pub use hqw_core::protocol::Protocol;
    pub use hqw_core::report::Report;
    pub use hqw_core::scenario::{
        BerReport, BerSweep, HybridDetector, ScenarioDetector, SnrSweepConfig,
    };
    pub use hqw_core::solver::{HybridConfig, HybridResult, HybridSolver};
    pub use hqw_core::spec::{ExperimentSpec, SpecError};
    pub use hqw_core::stages::{ClassicalInitializer, GreedyInitializer};
    pub use hqw_math::Rng64;
    pub use hqw_phy::detect::{DetectionResult, Detector, DetectorMeta, QuboDetector};
    pub use hqw_phy::instance::{DetectionInstance, InstanceConfig};
    pub use hqw_phy::modulation::Modulation;
    pub use hqw_qubo::{Qubo, SampleSet};
}
