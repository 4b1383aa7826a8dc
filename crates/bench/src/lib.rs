//! # hqw-bench — benchmark harness
//!
//! Two kinds of targets:
//!
//! * **The `hqw` runner** (`src/bin/hqw.rs`): the one entry point —
//!   `hqw list` prints the experiment [`registry`] (every figure and claim
//!   of the paper's evaluation), `hqw run <name>` runs a registered preset
//!   at `--quick`/`--full`/standard scale (e.g.
//!   `cargo run -p hqw-bench --release --bin hqw -- run fig8 --quick`), and
//!   `hqw run spec.json` runs a declarative
//!   [`hqw_core::spec::ExperimentSpec`] document.
//! * **Kernel benches** (`benches/`): std-only micro/meso benchmarks of the
//!   hot kernels (sweep kernels before/after the incremental-field rework,
//!   parallel reads, annealer engines) with a JSON trajectory emitter — see
//!   the crate README for the output format.
//!
//! Shared CLI conventions live in [`cli`]; experiment wiring lives in
//! [`runs`]; the distributed shard/checkpoint/merge runners live in
//! [`distributed`].

#![warn(missing_docs)]

pub mod cli;
pub mod distributed;
pub mod registry;
pub mod runs;
