//! Classical initializer stages for the hybrid solver.
//!
//! The hybrid structure (paper Figure 1) is: **classical stage produces a
//! candidate → quantum stage refines it**. The paper's prototype uses Greedy
//! Search "by choosing the simplest classical module"; its §5 proposes
//! application-specific alternatives such as linear solvers (zero-forcing),
//! which a caller composes by implementing [`ClassicalInitializer`].
//!
//! Each initializer reports an estimated classical latency so the hybrid
//! result can account for its classical stage. The estimates are simple
//! documented operation-count models (cycles at a notional 1 GHz
//! base-station DSP), not wall-clock measurements — the same convention as
//! the annealer's programmed-microsecond accounting.

use hqw_math::Rng64;
use hqw_phy::instance::DetectionInstance;
use hqw_qubo::{greedy_search_csr, CsrIsing};

/// A candidate solution from a classical stage.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialState {
    /// Natural-labeled (QUBO-variable) bits.
    pub bits: Vec<u8>,
    /// QUBO energy of the candidate.
    pub energy: f64,
    /// Estimated classical compute latency (µs).
    pub latency_us: f64,
}

/// A classical stage that produces reverse-anneal initial states.
pub trait ClassicalInitializer: Send + Sync {
    /// Stage name for reports.
    fn name(&self) -> &'static str;

    /// Computes a candidate for one detection instance.
    fn initialize(&self, instance: &DetectionInstance, rng: &mut Rng64) -> InitialState;

    /// [`ClassicalInitializer::initialize`] given the instance QUBO's
    /// Ising CSR (as [`CsrIsing::from_qubo`] builds it), which the hybrid
    /// solver has built once for the frame. A stage that reads the CSR
    /// overrides this; the others ignore it.
    fn initialize_on(
        &self,
        instance: &DetectionInstance,
        _csr: &CsrIsing,
        rng: &mut Rng64,
    ) -> InitialState {
        self.initialize(instance, rng)
    }
}

/// Notional DSP clock for latency models (operations per microsecond).
const OPS_PER_US: f64 = 1000.0;

/// The paper's Greedy Search stage (§4.1): "a good initial guess that
/// requires nearly negligible computation time".
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyInitializer;

impl ClassicalInitializer for GreedyInitializer {
    fn name(&self) -> &'static str {
        "GS"
    }

    /// A wrapper over [`ClassicalInitializer::initialize_on`] on the
    /// instance's CSR.
    fn initialize(&self, instance: &DetectionInstance, rng: &mut Rng64) -> InitialState {
        let (csr, _offset) = CsrIsing::from_qubo(&instance.reduction.qubo);
        self.initialize_on(instance, &csr, rng)
    }

    fn initialize_on(
        &self,
        instance: &DetectionInstance,
        csr: &CsrIsing,
        _rng: &mut Rng64,
    ) -> InitialState {
        let (bits, energy) = greedy_search_csr(&instance.reduction.qubo, csr);
        let n = instance.num_vars() as f64;
        InitialState {
            bits,
            energy,
            latency_us: n * n / OPS_PER_US, // O(N²) field updates
        }
    }
}

/// Uniform random initial state — the paper's Figure 6 (center) control,
/// which "works worse than FA".
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomInitializer;

impl ClassicalInitializer for RandomInitializer {
    fn name(&self) -> &'static str {
        "random"
    }

    fn initialize(&self, instance: &DetectionInstance, rng: &mut Rng64) -> InitialState {
        let bits: Vec<u8> = (0..instance.num_vars())
            .map(|_| rng.next_bool() as u8)
            .collect();
        let energy = instance.reduction.qubo.energy(&bits);
        InitialState {
            bits,
            energy,
            latency_us: 0.0,
        }
    }
}

/// Ground-truth oracle — the paper's Figure 8 red-dashed reference
/// (`ΔE_IS% = 0`). Only valid on noiseless instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleInitializer;

impl ClassicalInitializer for OracleInitializer {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn initialize(&self, instance: &DetectionInstance, _rng: &mut Rng64) -> InitialState {
        InitialState {
            bits: instance.tx_natural_bits.clone(),
            energy: instance.ground_energy(),
            latency_us: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_phy::instance::InstanceConfig;
    use hqw_phy::modulation::Modulation;

    fn instance() -> DetectionInstance {
        let mut rng = Rng64::new(7);
        DetectionInstance::generate(&InstanceConfig::paper(4, Modulation::Qam16), &mut rng)
    }

    #[test]
    fn oracle_returns_the_ground_state() {
        let inst = instance();
        let init = OracleInitializer.initialize(&inst, &mut Rng64::new(1));
        assert_eq!(init.bits, inst.tx_natural_bits);
        assert!((init.energy - inst.ground_energy()).abs() < 1e-9);
    }

    #[test]
    fn greedy_energy_is_self_consistent_and_latency_positive() {
        let inst = instance();
        let init = GreedyInitializer.initialize(&inst, &mut Rng64::new(1));
        assert!((inst.reduction.qubo.energy(&init.bits) - init.energy).abs() < 1e-9);
        assert!(init.latency_us > 0.0);
    }

    #[test]
    fn random_initializer_uses_the_rng() {
        let inst = instance();
        let a = RandomInitializer.initialize(&inst, &mut Rng64::new(1));
        let b = RandomInitializer.initialize(&inst, &mut Rng64::new(2));
        assert_ne!(a.bits, b.bits);
        // Deterministic per seed.
        let c = RandomInitializer.initialize(&inst, &mut Rng64::new(1));
        assert_eq!(a.bits, c.bits);
    }
}
