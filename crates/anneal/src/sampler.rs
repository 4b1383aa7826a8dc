//! The D-Wave-like sampler front end.
//!
//! [`QuantumSampler`] reproduces the workflow the paper ran against the real
//! 2000Q (§2): program a QUBO/Ising problem, submit `N_s` reads under an
//! anneal schedule (optionally with a reverse-anneal initial state), and
//! collect the sample set, "the best sample (e.g. the one with the lowest
//! QUBO cost function) selected as the final solution".
//!
//! Front-end behaviours modeled after the hardware stack:
//!
//! * **Auto-scaling** — the programmed Ising is normalized to the device's
//!   `[-1, 1]` coefficient range (does not change the argmin).
//! * **ICE noise** — each read perturbs the programmed coefficients
//!   ([`IceModel`]), while reported energies are evaluated on the *intended*
//!   problem, as the D-Wave stack does.
//! * **Lockstep reads** — reads are independent, so each worker thread
//!   (std scoped threads) takes one contiguous chunk of the submission's
//!   reads and runs it as one batch ([`AnnealEngine::run_reads`]): the PIMC
//!   engine advances the chunk's reads as lockstep lanes through one sweep
//!   loop. Per-read RNG streams are derived from the seed and each lane
//!   consumes only its own, so results are bit-identical regardless of
//!   thread count or chunking.
//! * **QPU time accounting** — programming / per-read anneal / readout
//!   charges, in *programmed microseconds*; the paper's TTS metric consumes
//!   the schedule duration.

use crate::dwave::DWaveProfile;
use crate::engine::{AnnealEngine, AnnealParams};
use crate::noise::IceModel;
use crate::pimc::PimcEngine;
use crate::schedule::AnnealSchedule;
use crate::svmc::SvmcEngine;
use hqw_math::parallel::parallel_map_chunks;
use hqw_math::Rng64;
use hqw_qubo::solution::{bits_to_spins, spins_to_bits};
use hqw_qubo::{Ising, Qubo, SampleSet};

/// Which simulation engine backs the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Path-integral quantum Monte Carlo with the given Trotter slices.
    Pimc {
        /// Number of Trotter slices (≥ 2).
        trotter_slices: usize,
    },
    /// Spin-vector (semi-classical) Monte Carlo.
    Svmc,
}

impl Default for EngineKind {
    fn default() -> Self {
        EngineKind::Pimc { trotter_slices: 16 }
    }
}

/// Sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Number of anneal reads per submission (`N_s`).
    pub num_reads: usize,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Time-discretization and temperature parameters.
    pub params: AnnealParams,
    /// Analog coefficient noise per read.
    pub ice: IceModel,
    /// Normalize programmed coefficients to `[-1, 1]` (device auto-scale).
    pub auto_scale: bool,
    /// Worker threads for parallel reads (0 = all available cores).
    pub threads: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            num_reads: 100,
            engine: EngineKind::default(),
            params: AnnealParams::default(),
            ice: IceModel::none(),
            auto_scale: true,
            threads: 0,
        }
    }
}

/// A [`SamplerConfig`] (or [`AnnealParams`]) field that failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `num_reads` was zero.
    ZeroReads,
    /// The PIMC engine was configured with fewer than two Trotter slices.
    TooFewTrotterSlices {
        /// The offending slice count.
        trotter_slices: usize,
    },
    /// `AnnealParams::sweeps_per_us` was zero.
    ZeroSweepsPerUs,
    /// The beta override was not a positive number.
    NonPositiveBeta {
        /// The offending override.
        beta: f64,
    },
    /// The freeze-out reference field or exponent was not positive.
    NonPositiveFreezeOut {
        /// The configured reference field (GHz).
        a_ref_ghz: f64,
        /// The configured rate exponent.
        exponent: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroReads => write!(f, "SamplerConfig: num_reads must be > 0"),
            ConfigError::TooFewTrotterSlices { trotter_slices } => write!(
                f,
                "SamplerConfig: need ≥ 2 Trotter slices, got {trotter_slices}"
            ),
            ConfigError::ZeroSweepsPerUs => {
                write!(f, "AnnealParams: sweeps_per_us must be > 0")
            }
            ConfigError::NonPositiveBeta { beta } => {
                write!(f, "AnnealParams: beta override must be > 0, got {beta}")
            }
            ConfigError::NonPositiveFreezeOut {
                a_ref_ghz,
                exponent,
            } => write!(
                f,
                "AnnealParams: freeze-out a_ref and exponent must be > 0, \
                 got a_ref {a_ref_ghz}, exponent {exponent}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SamplerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns the first violated constraint: zero reads, invalid
    /// [`AnnealParams`] or invalid engine parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_reads == 0 {
            return Err(ConfigError::ZeroReads);
        }
        self.params.validate()?;
        if let EngineKind::Pimc { trotter_slices } = self.engine {
            if trotter_slices < 2 {
                return Err(ConfigError::TooFewTrotterSlices { trotter_slices });
            }
        }
        Ok(())
    }

    /// Shim for callers that still want the original panicking behaviour.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] message on any invalid field.
    pub fn validate_or_panic(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// QPU-time accounting for one submission (all values in microseconds).
///
/// Constants follow the 2000Q-era service: ~10 ms programming, ~120 µs
/// readout and ~20 µs inter-read delay per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpuTiming {
    /// One-time problem programming cost.
    pub programming_us: f64,
    /// Programmed anneal duration per read (the schedule's duration — what
    /// the paper's TTS charges).
    pub anneal_us_per_read: f64,
    /// Readout cost per read.
    pub readout_us_per_read: f64,
    /// Inter-read delay per read.
    pub delay_us_per_read: f64,
    /// Number of reads.
    pub num_reads: usize,
}

impl QpuTiming {
    fn new(schedule: &AnnealSchedule, num_reads: usize) -> Self {
        QpuTiming {
            programming_us: 10_000.0,
            anneal_us_per_read: schedule.duration_us(),
            readout_us_per_read: 123.0,
            delay_us_per_read: 21.0,
            num_reads,
        }
    }

    /// Pure sampling time: `reads × (anneal + readout + delay)`.
    pub fn sampling_us(&self) -> f64 {
        self.num_reads as f64
            * (self.anneal_us_per_read + self.readout_us_per_read + self.delay_us_per_read)
    }

    /// Full QPU access time including programming.
    pub fn qpu_access_us(&self) -> f64 {
        self.programming_us + self.sampling_us()
    }
}

/// One submission's output.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Aggregated samples with energies of the *intended* problem.
    pub samples: SampleSet,
    /// QPU time accounting.
    pub timing: QpuTiming,
}

/// The sampler: a device profile plus a configuration.
#[derive(Debug, Clone)]
pub struct QuantumSampler {
    /// Device energy scales and temperature.
    pub profile: DWaveProfile,
    /// Submission configuration.
    pub config: SamplerConfig,
}

impl QuantumSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub fn new(profile: DWaveProfile, config: SamplerConfig) -> Self {
        config.validate_or_panic();
        QuantumSampler { profile, config }
    }

    /// Sampler with the calibrated 2000Q-like profile (see
    /// [`DWaveProfile::calibrated`]) and default configuration.
    pub fn with_defaults() -> Self {
        QuantumSampler::new(DWaveProfile::calibrated(), SamplerConfig::default())
    }

    /// Samples a QUBO. `initial_bits` programs the reverse-anneal initial
    /// state and is required exactly when the schedule starts at `s = 1`.
    ///
    /// Reported energies are QUBO energies of the intended problem.
    ///
    /// # Panics
    /// Panics when a reverse schedule lacks an initial state or lengths
    /// mismatch.
    pub fn sample_qubo(
        &self,
        qubo: &Qubo,
        schedule: &AnnealSchedule,
        initial_bits: Option<&[u8]>,
        seed: u64,
    ) -> AnnealResult {
        let (ising, _offset) = qubo.to_ising();
        let initial_spins = initial_bits.map(bits_to_spins);
        let states = self.run_reads(&ising, schedule, initial_spins.as_deref(), seed);
        let samples = SampleSet::from_reads(states.into_iter().map(|spins| {
            let bits = spins_to_bits(&spins);
            let energy = qubo.energy(&bits);
            (bits, energy)
        }));
        AnnealResult {
            samples,
            timing: QpuTiming::new(schedule, self.config.num_reads),
        }
    }

    /// Samples an Ising problem directly; energies are Ising energies of the
    /// intended problem (bits are the usual `q = (s+1)/2` view).
    ///
    /// # Panics
    /// As [`QuantumSampler::sample_qubo`].
    pub fn sample_ising(
        &self,
        ising: &Ising,
        schedule: &AnnealSchedule,
        initial: Option<&[i8]>,
        seed: u64,
    ) -> AnnealResult {
        let states = self.run_reads(ising, schedule, initial, seed);
        let samples = SampleSet::from_reads(states.into_iter().map(|spins| {
            let energy = ising.energy(&spins);
            (spins_to_bits(&spins), energy)
        }));
        AnnealResult {
            samples,
            timing: QpuTiming::new(schedule, self.config.num_reads),
        }
    }

    /// Samples a QUBO **through a Chimera minor-embedding** — the full
    /// hardware compilation path: embed the logical Ising onto the hardware
    /// graph with chains, anneal the physical problem, unembed each read by
    /// majority vote, and report energies of the intended logical QUBO.
    ///
    /// Reverse-anneal initial states are expanded to chain-consistent
    /// physical states (unused qubits randomized).
    ///
    /// Returns the result plus the fraction of broken chains across all
    /// reads (`broken chains / (reads × logical variables)`).
    ///
    /// # Panics
    /// Panics when the embedding size mismatches the QUBO, or on the usual
    /// reverse-schedule initial-state requirements.
    pub fn sample_qubo_embedded(
        &self,
        qubo: &Qubo,
        embedding: &crate::embedding::CliqueEmbedding,
        strength: crate::embedding::ChainStrength,
        schedule: &AnnealSchedule,
        initial_bits: Option<&[u8]>,
        seed: u64,
    ) -> (AnnealResult, f64) {
        assert_eq!(
            embedding.num_logical(),
            qubo.num_vars(),
            "sample_qubo_embedded: embedding size mismatch"
        );
        let (logical, _offset) = qubo.to_ising();
        let physical = embedding.embed(&logical, strength);

        // Expand the reverse-anneal initial state through the chains.
        let mut init_rng = Rng64::new(seed ^ 0xE1BE_DDED);
        let physical_init = initial_bits.map(|bits| {
            let spins = bits_to_spins(bits);
            embedding.embed_state(&spins, &mut init_rng)
        });

        let states = self.run_reads(&physical, schedule, physical_init.as_deref(), seed);
        let mut broken_total = 0usize;
        let reads = states.len();
        let samples = SampleSet::from_reads(states.into_iter().map(|phys| {
            let (logical_spins, broken) = embedding.unembed(&phys);
            broken_total += broken;
            let bits = spins_to_bits(&logical_spins);
            let energy = qubo.energy(&bits);
            (bits, energy)
        }));
        let chain_break_fraction =
            broken_total as f64 / (reads * embedding.num_logical()).max(1) as f64;
        (
            AnnealResult {
                samples,
                timing: QpuTiming::new(schedule, self.config.num_reads),
            },
            chain_break_fraction,
        )
    }

    /// Runs the configured number of reads, in parallel, deterministically.
    /// The configuration is validated here, once per submission; the
    /// engines' per-read loops take it as valid.
    fn run_reads(
        &self,
        intended: &Ising,
        schedule: &AnnealSchedule,
        initial: Option<&[i8]>,
        seed: u64,
    ) -> Vec<Vec<i8>> {
        self.config.validate_or_panic();
        // Program the device: auto-scale the intended problem.
        let mut programmed = intended.clone();
        if self.config.auto_scale {
            programmed.normalize();
        }

        // Per-read RNG seeds from the master seed: thread-count invariant.
        let mut master = Rng64::new(seed);
        let read_seeds: Vec<u64> = (0..self.config.num_reads)
            .map(|_| master.next_u64())
            .collect();

        let engine: Box<dyn AnnealEngine> = match self.config.engine {
            EngineKind::Pimc { trotter_slices } => Box::new(PimcEngine::new(trotter_slices)),
            EngineKind::Svmc => Box::new(SvmcEngine),
        };
        let (profile, params) = (&self.profile, &self.config.params);
        // Each thread runs its contiguous chunk of reads as one batch.
        parallel_map_chunks(&read_seeds, self.config.threads, |_, seeds| {
            let mut rngs: Vec<Rng64> = seeds.iter().map(|&s| Rng64::new(s)).collect();
            if self.config.ice.is_none() {
                return engine.run_reads(
                    &programmed,
                    profile,
                    schedule,
                    params,
                    initial,
                    &mut rngs,
                );
            }
            // ICE: every read anneals its own perturbed copy, drawn from
            // its own stream before the anneal.
            rngs.iter_mut()
                .map(|rng| {
                    let problem = self.config.ice.perturb(&programmed, rng);
                    engine.run(&problem, profile, schedule, params, initial, rng)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreezeOut;
    use hqw_qubo::exact::exhaustive_minimum;
    use hqw_qubo::generator::random_qubo;

    fn quick_config(reads: usize) -> SamplerConfig {
        SamplerConfig {
            num_reads: reads,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            params: AnnealParams {
                sweeps_per_us: 24,
                beta_override: None,
                freeze_out: Some(FreezeOut::default()),
            },
            ..Default::default()
        }
    }

    #[test]
    fn forward_sampling_finds_small_optima() {
        let mut rng = Rng64::new(41);
        let q = random_qubo(8, &mut rng);
        let (_, e_best) = exhaustive_minimum(&q);
        let sampler = QuantumSampler::new(DWaveProfile::default(), quick_config(60));
        let schedule = AnnealSchedule::forward(2.0).unwrap();
        let out = sampler.sample_qubo(&q, &schedule, None, 7);
        assert_eq!(out.samples.total_reads(), 60);
        assert!(
            (out.samples.best_energy() - e_best).abs() < 1e-9,
            "FA sampling missed an 8-var optimum: {} vs {e_best}",
            out.samples.best_energy()
        );
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let mut rng = Rng64::new(43);
        let q = random_qubo(6, &mut rng);
        let schedule = AnnealSchedule::forward(1.0).unwrap();
        let mut one = quick_config(16);
        one.threads = 1;
        let mut many = quick_config(16);
        many.threads = 4;
        let a =
            QuantumSampler::new(DWaveProfile::default(), one).sample_qubo(&q, &schedule, None, 9);
        let b =
            QuantumSampler::new(DWaveProfile::default(), many).sample_qubo(&q, &schedule, None, 9);
        let av: Vec<_> = a
            .samples
            .iter()
            .map(|s| (s.bits.clone(), s.occurrences))
            .collect();
        let bv: Vec<_> = b
            .samples
            .iter()
            .map(|s| (s.bits.clone(), s.occurrences))
            .collect();
        assert_eq!(av, bv);
    }

    /// A sample set as comparable bits: (bits, energy bits, occurrences).
    fn fingerprint(result: &AnnealResult) -> Vec<(Vec<u8>, u64, u64)> {
        result
            .samples
            .iter()
            .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
            .collect()
    }

    #[test]
    fn uneven_lockstep_chunks_give_identical_sample_sets() {
        // 16 reads split 16, 8+8, 6+6+4 and across all cores: every chunking
        // yields the same sample set, with ICE noise off and on.
        let mut rng = Rng64::new(44);
        let q = random_qubo(8, &mut rng);
        let init: Vec<u8> = (0..8).map(|_| rng.next_bool() as u8).collect();
        let schedule = AnnealSchedule::reverse(0.6, 0.5).unwrap();
        for ice in [IceModel::none(), IceModel::default()] {
            let run = |threads: usize| {
                let mut cfg = quick_config(16);
                cfg.ice = ice;
                cfg.threads = threads;
                let sampler = QuantumSampler::new(DWaveProfile::calibrated(), cfg);
                fingerprint(&sampler.sample_qubo(&q, &schedule, Some(&init), 17))
            };
            let serial = run(1);
            for threads in [2, 3, 0] {
                assert_eq!(run(threads), serial, "threads={threads} ice={ice:?}");
            }
        }
    }

    #[test]
    fn batched_reads_equal_one_read_per_seed() {
        // The lockstep batch reproduces the per-read path: one engine run
        // per derived read seed, each on its own stream.
        let mut rng = Rng64::new(46);
        let q = random_qubo(8, &mut rng);
        let (ising, _) = q.to_ising();
        let schedule = AnnealSchedule::forward(1.0).unwrap();
        let mut cfg = quick_config(5);
        cfg.threads = 1;
        let sampler = QuantumSampler::new(DWaveProfile::calibrated(), cfg);
        let batched = sampler.run_reads(&ising, &schedule, None, 23);
        let mut programmed = ising.clone();
        programmed.normalize();
        let mut master = Rng64::new(23);
        let one_by_one: Vec<Vec<i8>> = (0..5)
            .map(|_| {
                PimcEngine::new(8).run(
                    &programmed,
                    &sampler.profile,
                    &schedule,
                    &cfg.params,
                    None,
                    &mut Rng64::new(master.next_u64()),
                )
            })
            .collect();
        assert_eq!(batched, one_by_one);
    }

    #[test]
    fn reverse_requires_initial_state() {
        let mut rng = Rng64::new(45);
        let q = random_qubo(4, &mut rng);
        let schedule = AnnealSchedule::reverse(0.5, 1.0).unwrap();
        let sampler = QuantumSampler::new(DWaveProfile::default(), quick_config(2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sampler.sample_qubo(&q, &schedule, None, 1)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reverse_with_initial_state_runs() {
        let mut rng = Rng64::new(47);
        let q = random_qubo(6, &mut rng);
        let schedule = AnnealSchedule::reverse(0.4, 1.0).unwrap();
        let sampler = QuantumSampler::new(DWaveProfile::default(), quick_config(8));
        let init = vec![0u8, 1, 0, 1, 0, 1];
        let out = sampler.sample_qubo(&q, &schedule, Some(&init), 3);
        assert_eq!(out.samples.total_reads(), 8);
    }

    #[test]
    fn ice_noise_changes_samples_not_reported_energies() {
        let mut rng = Rng64::new(49);
        let q = random_qubo(8, &mut rng);
        let schedule = AnnealSchedule::forward(1.0).unwrap();
        let mut noisy_cfg = quick_config(20);
        noisy_cfg.ice = IceModel::new(0.2, 0.2);
        let sampler = QuantumSampler::new(DWaveProfile::default(), noisy_cfg);
        let out = sampler.sample_qubo(&q, &schedule, None, 5);
        // Reported energies must be consistent with the intended problem.
        for s in out.samples.iter() {
            assert!((q.energy(&s.bits) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn timing_charges_schedule_duration() {
        let mut rng = Rng64::new(51);
        let q = random_qubo(4, &mut rng);
        let schedule = AnnealSchedule::reverse(0.4, 1.0).unwrap(); // duration 2.2
        let sampler = QuantumSampler::new(DWaveProfile::default(), quick_config(10));
        let out = sampler.sample_qubo(&q, &schedule, Some(&[0, 0, 1, 1]), 2);
        assert!((out.timing.anneal_us_per_read - 2.2).abs() < 1e-9);
        assert_eq!(out.timing.num_reads, 10);
        assert!(out.timing.qpu_access_us() > out.timing.sampling_us());
    }

    #[test]
    fn validate_accepts_defaults_and_reports_violations() {
        assert_eq!(SamplerConfig::default().validate(), Ok(()));

        let zero_reads = SamplerConfig {
            num_reads: 0,
            ..Default::default()
        };
        assert_eq!(zero_reads.validate(), Err(ConfigError::ZeroReads));

        let one_slice = SamplerConfig {
            engine: EngineKind::Pimc { trotter_slices: 1 },
            ..Default::default()
        };
        assert_eq!(
            one_slice.validate(),
            Err(ConfigError::TooFewTrotterSlices { trotter_slices: 1 })
        );
        assert!(one_slice
            .validate()
            .unwrap_err()
            .to_string()
            .contains("Trotter"));
    }

    #[test]
    fn validate_reports_anneal_param_violations() {
        let with_params = |params: AnnealParams| SamplerConfig {
            params,
            ..Default::default()
        };
        assert_eq!(
            with_params(AnnealParams {
                sweeps_per_us: 0,
                ..Default::default()
            })
            .validate(),
            Err(ConfigError::ZeroSweepsPerUs)
        );
        for beta in [0.0, -1.0] {
            assert_eq!(
                with_params(AnnealParams {
                    beta_override: Some(beta),
                    ..Default::default()
                })
                .validate(),
                Err(ConfigError::NonPositiveBeta { beta })
            );
        }
        let nan_beta = with_params(AnnealParams {
            beta_override: Some(f64::NAN),
            ..Default::default()
        });
        assert!(matches!(
            nan_beta.validate(),
            Err(ConfigError::NonPositiveBeta { .. })
        ));
        let bad_gate = with_params(AnnealParams {
            freeze_out: Some(FreezeOut {
                a_ref_ghz: 2.0,
                exponent: 0.0,
            }),
            ..Default::default()
        });
        let err = bad_gate.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::NonPositiveFreezeOut {
                a_ref_ghz: 2.0,
                exponent: 0.0
            }
        );
        assert!(err.to_string().contains("freeze-out"));
    }

    #[test]
    fn validate_or_panic_passes_valid_configs() {
        SamplerConfig::default().validate_or_panic();
    }

    #[test]
    #[should_panic(expected = "num_reads must be > 0")]
    fn validate_or_panic_keeps_the_panicking_contract() {
        let config = SamplerConfig {
            num_reads: 0,
            ..Default::default()
        };
        config.validate_or_panic();
    }

    #[test]
    fn svmc_engine_is_selectable() {
        let mut rng = Rng64::new(53);
        let q = random_qubo(6, &mut rng);
        let mut cfg = quick_config(10);
        cfg.engine = EngineKind::Svmc;
        let sampler = QuantumSampler::new(DWaveProfile::default(), cfg);
        let out = sampler.sample_qubo(&q, &AnnealSchedule::forward(1.0).unwrap(), None, 11);
        assert_eq!(out.samples.total_reads(), 10);
    }
}

#[cfg(test)]
mod embedded_tests {
    use super::*;
    use crate::embedding::{ChainStrength, CliqueEmbedding};
    use crate::engine::FreezeOut;
    use crate::topology::Chimera;
    use hqw_qubo::generator::random_qubo;

    fn quick_sampler(reads: usize) -> QuantumSampler {
        QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: reads,
                engine: EngineKind::Pimc { trotter_slices: 4 },
                params: AnnealParams {
                    sweeps_per_us: 16,
                    beta_override: None,
                    freeze_out: Some(FreezeOut::default()),
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn embedded_sampling_reports_logical_energies() {
        let mut rng = Rng64::new(61);
        let q = random_qubo(4, &mut rng);
        let embedding = CliqueEmbedding::new(Chimera::new(1), 4);
        let sampler = quick_sampler(10);
        let schedule = AnnealSchedule::forward(1.0).unwrap();
        let (result, breaks) = sampler.sample_qubo_embedded(
            &q,
            &embedding,
            ChainStrength::RelativeToMax(2.0),
            &schedule,
            None,
            5,
        );
        assert_eq!(result.samples.total_reads(), 10);
        assert!((0.0..=1.0).contains(&breaks));
        for s in result.samples.iter() {
            assert_eq!(s.bits.len(), 4);
            assert!((q.energy(&s.bits) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn embedded_reverse_holds_strong_seed() {
        // Reverse anneal at very high s_p through the embedding: the
        // programmed logical state must survive chains + unembedding.
        let mut rng = Rng64::new(67);
        let q = random_qubo(4, &mut rng);
        let embedding = CliqueEmbedding::new(Chimera::new(1), 4);
        let sampler = quick_sampler(8);
        let schedule = AnnealSchedule::reverse(0.97, 0.1).unwrap();
        let init = vec![1u8, 0, 1, 0];
        let (result, _breaks) = sampler.sample_qubo_embedded(
            &q,
            &embedding,
            ChainStrength::RelativeToMax(4.0),
            &schedule,
            Some(&init),
            7,
        );
        let preserved: u64 = result
            .samples
            .iter()
            .filter(|s| s.bits == init)
            .map(|s| s.occurrences)
            .sum();
        assert!(
            preserved >= 6,
            "embedded shallow RA should mostly preserve the seed ({preserved}/8)"
        );
    }

    #[test]
    #[should_panic(expected = "embedding size mismatch")]
    fn embedded_sampling_rejects_size_mismatch() {
        let mut rng = Rng64::new(71);
        let q = random_qubo(5, &mut rng);
        let embedding = CliqueEmbedding::new(Chimera::new(1), 4);
        quick_sampler(2).sample_qubo_embedded(
            &q,
            &embedding,
            ChainStrength::Fixed(1.0),
            &AnnealSchedule::forward(1.0).unwrap(),
            None,
            1,
        );
    }
}
