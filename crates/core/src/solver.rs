//! The hybrid classical-quantum solver — the paper's prototype (§4.1).
//!
//! ```text
//!   classical initializer ──candidate──▶ reverse annealer ──samples──▶ best
//! ```
//!
//! The final answer is "the best sample (e.g. the one with the lowest QUBO
//! cost function)" across the quantum samples *and* the classical candidate
//! itself (the refinement stage can only help, never hurt). Forward-only
//! protocols skip the initializer and run fully quantum, so the same type
//! drives every arm of the paper's comparison, and every quantum lane of
//! the fabric (`crate::fabric`): the PIMC and SVMC simulators and the mock
//! QPU, which programs an embedded [`Target`].
//!
//! The pipeline is one entry, [`HybridSolver::refine`]: a programmed
//! problem, an optional classical candidate and the sampler seed in, the
//! best state seen out ([`Refined::best`]). [`HybridSolver::solve_warm`]
//! drives it for a detection frame: it builds the frame's CSR once
//! ([`HybridSolver::program`] writes it into this thread's recycled
//! buffers), the classical stage reads it
//! ([`ClassicalInitializer::initialize_on`]), and the sampler's
//! programmed-problem entry ([`QuantumSampler::sample_programmed`]) then
//! takes it. The sampler keeps every buffer its reads use per thread, so
//! after warm-up a served frame allocates only what it returns.

use crate::metrics::{delta_e_percent, success_probability, time_to_solution};
use crate::protocol::Protocol;
use crate::stages::{ClassicalInitializer, InitialState};
use hqw_anneal::sampler::{AnnealResult, Programmed, QpuTiming, QuantumSampler, Target};
use hqw_anneal::schedule::ScheduleError;
use hqw_anneal::AnnealSchedule;
use hqw_math::Rng64;
use hqw_phy::instance::DetectionInstance;
use hqw_qubo::{Qubo, SampleSet};

/// Hybrid solver configuration.
pub struct HybridConfig {
    /// The annealing protocol for the quantum stage.
    pub protocol: Protocol,
    /// The classical stage (ignored by forward-only protocols).
    pub initializer: Box<dyn ClassicalInitializer>,
}

impl std::fmt::Debug for HybridConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HybridConfig({} + {})",
            self.initializer.name(),
            self.protocol.name()
        )
    }
}

/// Output of one hybrid solve.
#[derive(Debug, Clone)]
pub struct HybridResult {
    /// Best bits found (natural/QUBO labeling).
    pub best_bits: Vec<u8>,
    /// Best QUBO energy found.
    pub best_energy: f64,
    /// The classical candidate, when the protocol used one.
    pub initial: Option<InitialState>,
    /// All quantum samples.
    pub samples: SampleSet,
    /// QPU time accounting for the quantum stage.
    pub quantum_timing: QpuTiming,
    /// Classical stage latency (µs; 0 without an initializer).
    pub classical_us: f64,
}

impl HybridResult {
    /// ΔE% of the final answer against a known ground energy.
    pub fn delta_e_percent(&self, ground_energy: f64) -> f64 {
        delta_e_percent(self.best_energy, ground_energy)
    }

    /// ΔE_IS% of the classical candidate (`None` for forward protocols).
    pub fn initial_delta_e_percent(&self, ground_energy: f64) -> Option<f64> {
        self.initial
            .as_ref()
            .map(|i| delta_e_percent(i.energy, ground_energy))
    }

    /// Per-read ground-state probability of the quantum samples.
    pub fn success_probability(&self, ground_energy: f64) -> f64 {
        success_probability(&self.samples, ground_energy)
    }

    /// TTS of the quantum stage at the given confidence (paper Eq. 2).
    pub fn time_to_solution(&self, ground_energy: f64, confidence_pct: f64) -> f64 {
        time_to_solution(
            self.quantum_timing.anneal_us_per_read,
            self.success_probability(ground_energy),
            confidence_pct,
        )
    }
}

/// The quantum stage's samples and the classical candidate it refined.
#[derive(Debug, Clone)]
pub struct Refined {
    /// The quantum stage's sample set, timing and chain breaks.
    pub result: AnnealResult,
    /// The classical candidate, when the protocol used one.
    pub initial: Option<InitialState>,
}

impl Refined {
    /// The best state seen, as `(bits, energy)`: the best quantum sample,
    /// or the classical candidate when it is still the lowest-energy state.
    pub fn best(&self) -> (&[u8], f64) {
        let sample = (self.result.samples.best()).expect("sampler always returns ≥ 1 read");
        match &self.initial {
            Some(init) if init.energy < sample.energy => (&init.bits, init.energy),
            _ => (&sample.bits, sample.energy),
        }
    }
}

/// The hybrid classical-quantum solver.
#[derive(Debug)]
pub struct HybridSolver {
    /// The simulated QPU.
    pub sampler: QuantumSampler,
    /// Stage configuration, fixed at construction.
    config: HybridConfig,
    /// The protocol's schedule, built once at construction: every frame
    /// anneals with it, and an invalid protocol panics in `refine`.
    schedule: Result<AnnealSchedule, ScheduleError>,
}

impl HybridSolver {
    /// Creates a solver.
    pub fn new(sampler: QuantumSampler, config: HybridConfig) -> Self {
        let schedule = config.protocol.schedule();
        HybridSolver {
            sampler,
            config,
            schedule,
        }
    }

    /// The paper's prototype: Greedy Search + Reverse Annealing at `s_p`,
    /// on the given sampler.
    pub fn paper_prototype(sampler: QuantumSampler, s_p: f64) -> Self {
        HybridSolver::new(
            sampler,
            HybridConfig {
                protocol: Protocol::paper_ra(s_p),
                initializer: Box::new(crate::stages::GreedyInitializer),
            },
        )
    }

    /// Solves one detection instance.
    ///
    /// # Panics
    /// Panics when the protocol parameters are invalid.
    pub fn solve(&self, instance: &DetectionInstance, seed: u64) -> HybridResult {
        self.solve_warm(instance, seed, None)
    }

    /// The schedule every submission anneals with.
    ///
    /// # Panics
    /// Panics when the protocol parameters are invalid.
    pub fn schedule(&self) -> &AnnealSchedule {
        self.schedule.as_ref().expect("invalid protocol parameters")
    }

    /// Programs `qubo` onto `target` on this solver's sampler
    /// ([`QuantumSampler::program`]).
    pub fn program<'a>(&self, qubo: &'a Qubo, target: Target<'a>) -> Programmed<'a> {
        self.sampler.program(qubo, target)
    }

    /// The quantum stage, with its three inputs as given: anneals
    /// `programmed` with the protocol's schedule on sampler seed `seed`,
    /// the classical candidate `initial` (required exactly when the
    /// protocol starts at `s = 1`) programming its initial state. The
    /// answer ([`Refined::best`]) is the best state seen, the candidate
    /// included.
    ///
    /// # Panics
    /// Panics when the protocol parameters are invalid, or as
    /// [`QuantumSampler::sample_programmed`].
    pub fn refine(
        &self,
        programmed: Programmed<'_>,
        initial: Option<InitialState>,
        seed: u64,
    ) -> Refined {
        let initial_bits = initial.as_ref().map(|i| i.bits.as_slice());
        let result =
            (self.sampler).sample_programmed(programmed, self.schedule(), initial_bits, seed);
        Refined { result, initial }
    }

    /// Solves one detection instance with an optional **warm start**.
    ///
    /// When `warm_start` is given and the protocol takes an initial state,
    /// the warm bits replace the classical initializer's candidate (at zero
    /// classical latency — the bits are a previous frame's decision, already
    /// paid for). This is the streaming engine's cross-frame reuse: under a
    /// temporally-coherent channel the previous decision is a low-ΔE_IS
    /// initial state, exactly the regime the harvest studies sample offline.
    /// Forward-only protocols ignore the warm start. `solve_warm(i, s, None)`
    /// is exactly `solve(i, s)`.
    ///
    /// # Panics
    /// Panics when the protocol parameters are invalid, or the warm start's
    /// length mismatches the instance or it holds a bit other than 0 or 1.
    pub fn solve_warm(
        &self,
        instance: &DetectionInstance,
        seed: u64,
        warm_start: Option<&[u8]>,
    ) -> HybridResult {
        let mut rng = Rng64::new(seed);

        // The frame's CSR, built once: the classical stage reads it and
        // the sampler then programs it.
        let qubo = &instance.reduction.qubo;
        let programmed = self.program(qubo, Target::Logical);
        let (protocol, initializer) = (&self.config.protocol, &self.config.initializer);
        let initial = protocol.requires_initial_state().then(|| match warm_start {
            Some(bits) => {
                assert_eq!(
                    bits.len(),
                    instance.num_vars(),
                    "solve_warm: warm-start length mismatch"
                );
                assert!(
                    bits.iter().all(|&b| b <= 1),
                    "solve_warm: warm-start bits must be 0 or 1"
                );
                InitialState {
                    bits: bits.to_vec(),
                    energy: qubo.energy(bits),
                    latency_us: 0.0,
                }
            }
            None => initializer.initialize_on(instance, programmed.logical(), &mut rng),
        });
        let classical_us = initial.as_ref().map_or(0.0, |init| init.latency_us);

        let refined = self.refine(programmed, initial, rng.next_u64());
        let (bits, best_energy) = refined.best();
        let best_bits = bits.to_vec();
        HybridResult {
            best_bits,
            best_energy,
            initial: refined.initial,
            samples: refined.result.samples,
            quantum_timing: refined.result.timing,
            classical_us,
        }
    }

    /// Solves a batch of instances, fanning the instances out across
    /// `threads` worker threads (0 = all available cores).
    ///
    /// Each instance gets a seed derived from `batch_seed` and its index, so
    /// the output is bit-identical to solving the batch serially, for any
    /// thread count. This is the data-parallel outer loop for figure sweeps
    /// and high-traffic serving, layered on top of the sampler's own
    /// parallel reads (keep `sampler.config.threads = 1` when batching many
    /// instances, or the two levels will oversubscribe cores).
    pub fn solve_batch(
        &self,
        instances: &[DetectionInstance],
        batch_seed: u64,
        threads: usize,
    ) -> Vec<HybridResult> {
        hqw_math::parallel::parallel_map_indexed(instances, threads, |i, inst| {
            self.solve(inst, item_seed(batch_seed, i))
        })
    }
}

/// Per-item seed derivation shared by [`HybridSolver::solve_batch`] and the
/// grid engines: item `index` of a batch seeded `batch_seed`.
pub(crate) fn item_seed(batch_seed: u64, index: usize) -> u64 {
    let mut rng = Rng64::new(batch_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{GreedyInitializer, OracleInitializer, RandomInitializer};
    use hqw_anneal::sampler::{EngineKind, SamplerConfig};
    use hqw_anneal::DWaveProfile;
    use hqw_phy::instance::InstanceConfig;
    use hqw_phy::modulation::Modulation;

    fn quick_sampler(reads: usize) -> QuantumSampler {
        QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: reads,
                engine: EngineKind::Pimc { trotter_slices: 8 },
                ..Default::default()
            },
        )
    }

    /// The serial reference `solve_batch` must match: one `solve` per
    /// instance, in order, on the per-item seeds.
    fn run_sequential(
        solver: &HybridSolver,
        instances: &[DetectionInstance],
        batch_seed: u64,
    ) -> Vec<HybridResult> {
        instances
            .iter()
            .enumerate()
            .map(|(i, inst)| solver.solve(inst, item_seed(batch_seed, i)))
            .collect()
    }

    fn instance() -> DetectionInstance {
        let mut rng = Rng64::new(99);
        DetectionInstance::generate(&InstanceConfig::paper(3, Modulation::Qam16), &mut rng)
    }

    #[test]
    fn prototype_never_returns_worse_than_its_initializer() {
        let inst = instance();
        let solver = HybridSolver::paper_prototype(quick_sampler(20), 0.65);
        let result = solver.solve(&inst, 5);
        let init = result.initial.as_ref().expect("RA uses an initializer");
        assert!(result.best_energy <= init.energy + 1e-9);
        assert!((inst.reduction.qubo.energy(&result.best_bits) - result.best_energy).abs() < 1e-9);
    }

    #[test]
    fn oracle_seeded_ra_returns_the_ground_state() {
        let inst = instance();
        let solver = HybridSolver::new(
            quick_sampler(10),
            HybridConfig {
                protocol: Protocol::paper_ra(0.8),
                initializer: Box::new(OracleInitializer),
            },
        );
        let result = solver.solve(&inst, 3);
        assert!((result.best_energy - inst.ground_energy()).abs() < 1e-6);
        assert_eq!(result.delta_e_percent(inst.ground_energy()), 0.0);
    }

    #[test]
    fn forward_protocol_skips_the_initializer() {
        let inst = instance();
        let solver = HybridSolver::new(
            quick_sampler(10),
            HybridConfig {
                protocol: Protocol::paper_fa(0.45),
                initializer: Box::new(GreedyInitializer),
            },
        );
        let result = solver.solve(&inst, 3);
        assert!(result.initial.is_none());
        assert_eq!(result.classical_us, 0.0);
    }

    #[test]
    fn result_metrics_are_consistent() {
        let inst = instance();
        let solver = HybridSolver::new(
            quick_sampler(25),
            HybridConfig {
                protocol: Protocol::paper_ra(0.7),
                initializer: Box::new(RandomInitializer),
            },
        );
        let result = solver.solve(&inst, 11);
        let eg = inst.ground_energy();
        let p = result.success_probability(eg);
        assert!((0.0..=1.0).contains(&p));
        let tts = result.time_to_solution(eg, 99.0);
        if p > 0.0 {
            assert!(tts >= result.quantum_timing.anneal_us_per_read);
        } else {
            assert!(tts.is_infinite());
        }
        assert!(result.initial_delta_e_percent(eg).is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = instance();
        let solver = HybridSolver::paper_prototype(quick_sampler(10), 0.7);
        let a = solver.solve(&inst, 42);
        let b = solver.solve(&inst, 42);
        assert_eq!(a.best_bits, b.best_bits);
        assert_eq!(a.best_energy, b.best_energy);
    }

    #[test]
    #[should_panic(expected = "invalid protocol parameters")]
    fn an_invalid_protocol_panics_in_solve() {
        let solver = HybridSolver::paper_prototype(quick_sampler(10), 1.5);
        solver.solve(&instance(), 1);
    }

    #[test]
    fn solve_warm_none_is_exactly_solve() {
        let inst = instance();
        let solver = HybridSolver::paper_prototype(quick_sampler(10), 0.7);
        let a = solver.solve(&inst, 23);
        let b = solver.solve_warm(&inst, 23, None);
        assert_eq!(a.best_bits, b.best_bits);
        assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits());
    }

    #[test]
    fn ground_truth_warm_start_is_never_lost() {
        // Seeding RA with the exact ground state must return it: the final
        // selection includes the initial state itself.
        let inst = instance();
        let solver = HybridSolver::paper_prototype(quick_sampler(8), 0.8);
        let result = solver.solve_warm(&inst, 9, Some(&inst.tx_natural_bits));
        assert!((result.best_energy - inst.ground_energy()).abs() < 1e-6);
        let init = result.initial.as_ref().expect("RA records its seed");
        assert_eq!(init.bits, inst.tx_natural_bits);
        assert_eq!(init.latency_us, 0.0, "warm starts are already paid for");
    }

    #[test]
    fn forward_protocols_ignore_warm_starts() {
        let inst = instance();
        let solver = HybridSolver::new(
            quick_sampler(6),
            HybridConfig {
                protocol: Protocol::paper_fa(0.45),
                initializer: Box::new(GreedyInitializer),
            },
        );
        let result = solver.solve_warm(&inst, 3, Some(&inst.tx_natural_bits));
        assert!(result.initial.is_none());
    }

    #[test]
    #[should_panic(expected = "warm-start length mismatch")]
    fn warm_start_length_mismatch_panics() {
        let inst = instance();
        let solver = HybridSolver::paper_prototype(quick_sampler(4), 0.7);
        solver.solve_warm(&inst, 1, Some(&[0, 1, 0]));
    }

    #[test]
    #[should_panic(expected = "warm-start bits must be 0 or 1")]
    fn warm_start_non_binary_bits_panic() {
        // A 2 would read as 0 in the programmed spins but count as 1 in
        // the QUBO energy, and could come back as a decision bit.
        let inst = instance();
        let solver = HybridSolver::paper_prototype(quick_sampler(4), 0.7);
        let mut bits = inst.tx_natural_bits.clone();
        bits[0] = 2;
        solver.solve_warm(&inst, 1, Some(&bits));
    }

    #[test]
    fn solve_batch_is_thread_count_invariant() {
        let mut rng = Rng64::new(120);
        let instances = DetectionInstance::generate_batch(
            &InstanceConfig::paper(3, Modulation::Qpsk),
            5,
            &mut rng,
        );
        let solver = HybridSolver::paper_prototype(quick_sampler(8), 0.7);
        let serial = solver.solve_batch(&instances, 17, 1);
        for threads in [2, 4] {
            let parallel = solver.solve_batch(&instances, 17, threads);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.best_bits, b.best_bits, "threads={threads}");
                assert_eq!(
                    a.best_energy.to_bits(),
                    b.best_energy.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn solve_batch_matches_sequential_pipeline_reference() {
        let mut rng = Rng64::new(121);
        let instances = DetectionInstance::generate_batch(
            &InstanceConfig::paper(2, Modulation::Qpsk),
            4,
            &mut rng,
        );
        let solver = HybridSolver::paper_prototype(quick_sampler(6), 0.7);
        let batch = solver.solve_batch(&instances, 55, 0);
        let reference = run_sequential(&solver, &instances, 55);
        for (a, b) in batch.iter().zip(&reference) {
            assert_eq!(a.best_bits, b.best_bits);
            assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits());
        }
    }
}
