//! # hqw-phy — wireless PHY substrate
//!
//! Everything between "bits at the transmitter" and "a QUBO at the base
//! station's solver", faithful to the paper's §4.2 experimental setup:
//!
//! * [`modulation`] — Gray-coded BPSK / QPSK / 16-QAM / 64-QAM with the
//!   spin-linear lattice view used by the ML→QUBO reduction.
//! * [`channel`] — channel synthesis: the paper's unit-gain random-phase
//!   model, i.i.d. Rayleigh and AWGN for the extension experiments, and the
//!   Gauss–Markov [`channel::ChannelTrack`] for streaming workloads.
//! * [`mimo`] — the spatial-multiplexing system model `y = H·x + n`.
//! * [`reduction`] — the QuAMax maximum-likelihood-to-QUBO reduction
//!   (Kim et al., SIGCOMM '19), property-tested for exactness.
//! * [`detect`] — classical detectors: zero-forcing, MMSE, brute-force ML,
//!   depth-first sphere decoding, K-best, and fixed-complexity sphere
//!   decoding — the candidate RA initializers named in the paper's §5.
//! * [`instance`] — detection-instance generator replicating the paper's
//!   evaluation workload (and noisy variants).
//! * [`metrics`] — BER / SER accounting.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Numeric kernels below index several arrays by one loop variable (often with
// an `i != j` guard); iterator rewrites obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod channel;
pub mod detect;
pub mod instance;
pub mod metrics;
pub mod mimo;
pub mod modulation;
pub mod reduction;

pub use channel::{ChannelTrack, TrackConfig};
pub use instance::{DetectionInstance, InstanceConfig};
pub use modulation::Modulation;
