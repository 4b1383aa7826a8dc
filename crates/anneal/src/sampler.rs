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
//! * **Programming** — one entry, [`QuantumSampler::program`], programs a
//!   [`Target`]: the logical problem, or its minor-embedding onto Chimera
//!   hardware. Either way it builds the problem's logical CSR once
//!   ([`CsrIsing::from_qubo`], one pass over the QUBO's triangle) into the
//!   buffers of the CSR this thread last programmed; an embedded target
//!   also writes the physical CSR straight from the logical one
//!   ([`crate::CliqueEmbedding::embed`]), into a physical CSR this thread
//!   keeps. [`QuantumSampler::sample_programmed`] takes the [`Programmed`]
//!   problem by value, so a caller that needs the logical CSR first (the
//!   hybrid solver's greedy seed) reads the same one;
//!   [`QuantumSampler::sample_qubo`] is the two in a row on a logical
//!   target. An embedded submission unembeds each read by majority vote
//!   and reports its broken chains.
//! * **Auto-scaling** — the programmed CSR is normalized in place to the
//!   device's `[-1, 1]` coefficient range (does not change the argmin).
//! * **ICE noise** — each read perturbs the programmed coefficients
//!   ([`IceModel`]), while reported energies are evaluated on the *intended*
//!   problem, as the D-Wave stack does.
//! * **Batched reads** — reads are independent. With one worker, every
//!   read runs in the calling thread over its scratch; with more, each
//!   worker thread (std scoped threads) takes one contiguous chunk of the
//!   submission's reads and runs it as one batch over buffers of its own
//!   (as [`crate::AnnealEngine::run_reads`] does), allocated per chunk. The PIMC sweep plan depends
//!   only on the profile, the schedule, the parameters and `P`, so the
//!   sampler keeps the last one it built and reuses it while that key
//!   holds; each chunk builds only its start template and runs its reads
//!   one after another. Per-read RNG streams are derived from the seed and
//!   each read consumes only its own, so results are bit-identical
//!   regardless of thread count, chunking or what the cache held.
//! * **Per-thread scratch** — every buffer a submission's reads use (the
//!   read seeds and generators, the PIMC replicas, bound, start template
//!   and levels, one flat readout buffer, the tally's read order, the
//!   spare logical and physical CSRs and the embedded path's physical
//!   start state) lives in a thread-local scratch
//!   kept across submissions, so after warm-up a one-worker submission
//!   allocates only the sample set it returns. No buffer carries state from one submission into the
//!   next; each keeps the capacity of the largest problem its thread
//!   sampled.
//! * **Aggregation** — the readouts are sorted and counted first, so each
//!   distinct state is converted to bits and its energy evaluated once.
//! * **QPU time accounting** — programming / per-read anneal / readout
//!   charges, in *programmed microseconds*; the paper's TTS metric consumes
//!   the schedule duration.

use crate::dwave::DWaveProfile;
use crate::embedding::{ChainStrength, CliqueEmbedding};
use crate::engine::{AnnealEngine, AnnealParams};
use crate::noise::IceModel;
use crate::pimc::{self, PimcEngine, PimcPlan};
use crate::schedule::AnnealSchedule;
use crate::svmc::SvmcEngine;
use hqw_math::parallel::{parallel_map_chunks, resolve_threads};
use hqw_math::Rng64;
use hqw_qubo::solution::spins_to_bits;
use hqw_qubo::{CsrIsing, Qubo, SampleSet};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

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
}

/// One submission's output.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Aggregated samples with energies of the *intended* problem.
    pub samples: SampleSet,
    /// QPU time accounting.
    pub timing: QpuTiming,
    /// The fraction of broken chains across all reads,
    /// `broken chains / (reads × logical variables)` (0 for a logical
    /// target).
    pub chain_break_fraction: f64,
}

/// What [`QuantumSampler::program`] programs a problem onto.
#[derive(Debug, Clone, Copy)]
pub enum Target<'a> {
    /// The logical problem itself.
    Logical,
    /// The problem minor-embedded onto Chimera hardware, its chains bound
    /// at the given strength.
    Embedded(&'a CliqueEmbedding, ChainStrength),
}

/// A problem [`QuantumSampler::program`] programmed, which
/// [`QuantumSampler::sample_programmed`] samples.
#[derive(Debug)]
pub struct Programmed<'a> {
    qubo: &'a Qubo,
    /// The logical CSR, the intended problem (not yet auto-scaled).
    logical: CsrIsing,
    /// An embedded target's embedding and physical CSR.
    embedded: Option<(&'a CliqueEmbedding, CsrIsing)>,
}

impl Programmed<'_> {
    /// The logical problem's Ising CSR, as [`CsrIsing::from_qubo`] builds
    /// it (not yet auto-scaled): what a classical stage reads.
    pub fn logical(&self) -> &CsrIsing {
        &self.logical
    }
}

/// The sampler: a device profile plus a configuration.
#[derive(Debug, Clone)]
pub struct QuantumSampler {
    /// Device energy scales and temperature.
    pub profile: DWaveProfile,
    /// Submission configuration.
    pub config: SamplerConfig,
    /// The last PIMC sweep plan built, reused while its key holds.
    plan: PlanCache,
}

/// A one-plan cache. A clone starts with the same plan; a plan whose key
/// no longer matches the profile, schedule, parameters or slice count is
/// replaced, so editing the sampler's public fields is always safe.
#[derive(Default)]
struct PlanCache(Mutex<Option<Arc<PimcPlan>>>);

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = if self.lock().is_some() {
            "a plan"
        } else {
            "empty"
        };
        write!(f, "PlanCache({held})")
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache(Mutex::new(self.lock().clone()))
    }
}

impl PlanCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<PimcPlan>>> {
        // A plan is immutable once built: a panic elsewhere cannot leave a
        // half-written one behind.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan `engine` builds for the key, from the cache when it holds
    /// it.
    fn get(
        &self,
        engine: &PimcEngine,
        profile: &DWaveProfile,
        schedule: &AnnealSchedule,
        params: &AnnealParams,
    ) -> Arc<PimcPlan> {
        let mut cached = self.lock();
        match &*cached {
            Some(plan) if plan.is_for(engine, profile, schedule, params) => Arc::clone(plan),
            _ => Arc::clone(cached.insert(Arc::new(engine.plan(profile, schedule, params)))),
        }
    }
}

/// Buffers one thread's submissions reuse, so a served submission
/// allocates only the sample set it returns.
#[derive(Default)]
struct Scratch {
    /// The CSR the last submission programmed, refilled by
    /// [`QuantumSampler::program`].
    csr: CsrIsing,
    /// The embedded path's physical CSR, refilled by
    /// [`CliqueEmbedding::embed`].
    physical: CsrIsing,
    /// The reverse-anneal initial state, as spins.
    initial: Vec<i8>,
    /// The embedded path's physical initial state, refilled by
    /// [`CliqueEmbedding::embed_state`].
    physical_initial: Vec<i8>,
    reads: Reads,
    /// The embedded path's logical readouts.
    logical: Vec<i8>,
    /// Read indices, grouped by state for the tally.
    order: Vec<u32>,
}

/// The buffers of one batch of reads.
#[derive(Default)]
struct Reads {
    seeds: Vec<u64>,
    rngs: Vec<Rng64>,
    /// The PIMC start template and the reads' replicas, bound and levels.
    start: pimc::Start,
    pimc: pimc::Scratch,
    /// The readouts, `n` spins a read in read order.
    readouts: Vec<i8>,
}

thread_local! {
    /// This thread's sampler buffers, taken for a submission and put back
    /// after it (a nested submission finds them empty and starts fresh).
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Runs `f` on this thread's [`Scratch`].
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.with(Cell::take);
    let out = f(&mut scratch);
    SCRATCH.with(|cell| cell.set(scratch));
    out
}

/// Sorts the read indices `order` so that reads with equal states are
/// adjacent, states ascending under `cmp`. A sort keeps it O(R log R) in
/// the R reads, however many are distinct.
fn group(order: &mut Vec<u32>, reads: usize, cmp: impl FnMut(&u32, &u32) -> Ordering) {
    order.clear();
    order.extend(0..reads as u32);
    order.sort_unstable_by(cmp);
}

/// The sample set of `reads` readouts of `n` spins each, each distinct
/// state converted to bits and its `qubo` energy evaluated once.
fn count_samples(
    readouts: &[i8],
    (n, reads): (usize, usize),
    order: &mut Vec<u32>,
    qubo: &Qubo,
) -> SampleSet {
    let state = |r: &u32| &readouts[*r as usize * n..][..n];
    group(order, reads, |a, b| state(a).cmp(state(b)));
    SampleSet::from_counts(order.chunk_by(|a, b| state(a) == state(b)).map(|run| {
        let bits = spins_to_bits(state(&run[0]));
        let energy = qubo.energy(&bits);
        (bits, energy, run.len() as u64)
    }))
}

/// `bits` as spins in `spins`' buffer.
fn spins_into<'a>(spins: &'a mut Vec<i8>, bits: &[u8]) -> &'a [i8] {
    spins.clear();
    spins.extend(bits.iter().map(|&b| if b == 1 { 1i8 } else { -1 }));
    spins
}

impl QuantumSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] message on invalid configuration.
    pub fn new(profile: DWaveProfile, config: SamplerConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        QuantumSampler {
            profile,
            config,
            plan: PlanCache::default(),
        }
    }

    /// Samples a QUBO. `initial_bits` programs the reverse-anneal initial
    /// state and is required exactly when the schedule starts at `s = 1`.
    /// A wrapper over [`QuantumSampler::sample_programmed`] on
    /// [`QuantumSampler::program`]'s logical target.
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
        let programmed = self.program(qubo, Target::Logical);
        self.sample_programmed(programmed, schedule, initial_bits, seed)
    }

    /// Programs `qubo` onto `target`. The logical CSR is built as
    /// [`CsrIsing::from_qubo`] builds it (the intended problem, not yet
    /// auto-scaled), into the buffers of the CSR this thread's last
    /// submission programmed; a classical stage may read it
    /// ([`Programmed::logical`]) before [`QuantumSampler::sample_programmed`]
    /// takes it, so a frame builds its CSR once. An embedded target's
    /// physical CSR is written from it into this thread's physical CSR.
    ///
    /// # Panics
    /// Panics when an embedding's size mismatches the QUBO.
    pub fn program<'a>(&self, qubo: &'a Qubo, target: Target<'a>) -> Programmed<'a> {
        with_scratch(|scratch| {
            let mut logical = std::mem::take(&mut scratch.csr);
            logical.refill_from_qubo(qubo);
            let embedded = match target {
                Target::Logical => None,
                Target::Embedded(embedding, strength) => {
                    let mut physical = std::mem::take(&mut scratch.physical);
                    embedding.embed(&logical, strength, &mut physical);
                    Some((embedding, physical))
                }
            };
            Programmed {
                qubo,
                logical,
                embedded,
            }
        })
    }

    /// Samples a [`Programmed`] problem: the sampler auto-scales its
    /// logical CSR (or, for an embedded target, its physical one) in
    /// place, runs the reads, and keeps its buffers for this thread's next
    /// [`QuantumSampler::program`]. An embedded target's reads are
    /// unembedded by majority vote, and a reverse-anneal initial state is
    /// expanded to a chain-consistent physical state (unused qubits
    /// randomized). `initial_bits` is as for
    /// [`QuantumSampler::sample_qubo`]. The reads, their readouts and the
    /// tally use this thread's buffers, kept across submissions.
    ///
    /// Reported energies are QUBO energies of the intended logical
    /// problem.
    ///
    /// # Panics
    /// As [`QuantumSampler::sample_qubo`].
    pub fn sample_programmed(
        &self,
        mut programmed: Programmed<'_>,
        schedule: &AnnealSchedule,
        initial_bits: Option<&[u8]>,
        seed: u64,
    ) -> AnnealResult {
        let qubo = programmed.qubo;
        let shape = (qubo.num_vars(), self.config.num_reads);
        let (samples, broken) = with_scratch(|scratch| {
            let spins = initial_bits.map(|bits| spins_into(&mut scratch.initial, bits));
            let reads = &mut scratch.reads;
            let (readouts, broken) = match programmed.embedded {
                None => {
                    self.run_reads(&mut programmed.logical, schedule, spins, seed, reads);
                    (&reads.readouts, 0)
                }
                Some((embedding, mut physical)) => {
                    // Expand the reverse-anneal initial state through the
                    // chains.
                    let mut init_rng = Rng64::new(seed ^ 0xE1BE_DDED);
                    if let Some(spins) = spins {
                        embedding.embed_state(spins, &mut init_rng, &mut scratch.physical_initial);
                    }
                    let start = spins.map(|_| scratch.physical_initial.as_slice());
                    self.run_reads(&mut physical, schedule, start, seed, reads);
                    scratch.logical.clear();
                    let broken: usize = (reads.readouts.chunks_exact(physical.num_vars()))
                        .map(|phys| embedding.unembed(phys, &mut scratch.logical))
                        .sum();
                    scratch.physical = physical;
                    (&scratch.logical, broken)
                }
            };
            let samples = count_samples(readouts, shape, &mut scratch.order, qubo);
            scratch.csr = programmed.logical;
            (samples, broken)
        });
        AnnealResult {
            samples,
            timing: QpuTiming::new(schedule, self.config.num_reads),
            chain_break_fraction: broken as f64 / (shape.0 * shape.1).max(1) as f64,
        }
    }

    /// Runs the configured number of reads of the intended problem
    /// `programmed` into `reads.readouts`, deterministically. The
    /// configuration is validated here, once per submission; the engines'
    /// per-read loops take it as valid. One worker runs every read over
    /// `reads`' buffers; more run one contiguous chunk of reads each, over
    /// buffers of their own, and hand back one flat readout buffer a chunk.
    fn run_reads(
        &self,
        programmed: &mut CsrIsing,
        schedule: &AnnealSchedule,
        initial: Option<&[i8]>,
        seed: u64,
        reads: &mut Reads,
    ) {
        self.config.validate().unwrap_or_else(|e| panic!("{e}"));
        // Program the device: auto-scale the intended problem.
        if self.config.auto_scale {
            programmed.normalize();
        }
        let programmed = &*programmed;

        // Per-read RNG seeds from the master seed: thread-count invariant.
        let mut master = Rng64::new(seed);
        reads.seeds.clear();
        reads
            .seeds
            .extend((0..self.config.num_reads).map(|_| master.next_u64()));

        let (profile, params) = (&self.profile, &self.config.params);
        let plan = match self.config.engine {
            EngineKind::Pimc { trotter_slices } => {
                let engine = PimcEngine::new(trotter_slices);
                Some(self.plan.get(&engine, profile, schedule, params))
            }
            EngineKind::Svmc => None,
        };
        let ice = &self.config.ice;
        // One batch of reads, one generator each, appended to
        // `bufs.readouts`.
        let batch = |seeds: &[u64], bufs: &mut Reads| {
            let Reads {
                rngs,
                start,
                pimc,
                readouts: out,
                ..
            } = bufs;
            rngs.clear();
            rngs.extend(seeds.iter().map(|&s| Rng64::new(s)));
            let mut anneal = |problem: &CsrIsing, rngs: &mut [Rng64]| match &plan {
                Some(plan) => plan.read_into(problem, initial, rngs, start, pimc, out),
                None => rngs.iter_mut().for_each(|rng| {
                    out.extend(SvmcEngine.run(problem, profile, schedule, params, initial, rng));
                }),
            };
            if ice.is_none() {
                return anneal(programmed, rngs);
            }
            // ICE: every read anneals its own perturbed copy, drawn from
            // its own stream before the anneal.
            for rng in rngs.iter_mut() {
                let problem = ice.perturb(programmed, rng);
                anneal(&problem, std::slice::from_mut(rng));
            }
        };
        let seeds = std::mem::take(&mut reads.seeds);
        reads.readouts.clear();
        if resolve_threads(self.config.threads).min(seeds.len()) <= 1 {
            batch(&seeds, reads);
        } else {
            let chunks = parallel_map_chunks(&seeds, self.config.threads, |_, seeds| {
                let mut own = Reads::default();
                batch(seeds, &mut own);
                // One result per read: the chunk's readouts travel in its
                // first read's slot, the others stay empty.
                let mut slots = vec![Vec::new(); seeds.len()];
                slots[0] = own.readouts;
                slots
            });
            reads.readouts.extend(chunks.into_iter().flatten());
        }
        reads.seeds = seeds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FreezeOut;
    use hqw_oracle::csr::from_ising;
    use hqw_oracle::generator::random_qubo;
    use hqw_oracle::model::to_ising;
    use hqw_qubo::exact::exhaustive_minimum;

    /// The readouts of `sampler`'s reads of `programmed`, one per read.
    pub(super) fn readouts(
        sampler: &QuantumSampler,
        mut programmed: CsrIsing,
        schedule: &AnnealSchedule,
        seed: u64,
    ) -> Vec<Vec<i8>> {
        let mut reads = Reads::default();
        sampler.run_reads(&mut programmed, schedule, None, seed, &mut reads);
        let n = programmed.num_vars();
        reads.readouts.chunks_exact(n).map(<[i8]>::to_vec).collect()
    }

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
    fn uneven_chunks_give_identical_sample_sets() {
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
    fn the_plan_cache_never_changes_a_sample_set() {
        // One sampler alternating two schedules and two parameter sets
        // (each submission replacing the cached plan, and a repeat reusing
        // it) matches a freshly built sampler on every submission, at any
        // thread count.
        let mut rng = Rng64::new(48);
        let q = random_qubo(8, &mut rng);
        let init: Vec<u8> = (0..8).map(|_| rng.next_bool() as u8).collect();
        let schedules = [
            AnnealSchedule::reverse(0.65, 1.0).unwrap(),
            AnnealSchedule::forward(1.0).unwrap(),
        ];
        let params = [
            quick_config(1).params,
            AnnealParams {
                sweeps_per_us: 16,
                beta_override: Some(3.0),
                freeze_out: None,
            },
        ];
        let submit = |sampler: &QuantumSampler, schedule: &AnnealSchedule, seed: u64| {
            let init = schedule.requires_initial_state().then_some(init.as_slice());
            fingerprint(&sampler.sample_qubo(&q, schedule, init, seed))
        };
        for threads in [1, 2, 0] {
            let mut cfg = quick_config(12);
            cfg.threads = threads;
            let mut shared = QuantumSampler::new(DWaveProfile::calibrated(), cfg);
            let order = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (0, 0)];
            for (round, &(s, p)) in order.iter().enumerate() {
                shared.config.params = params[p];
                let seed = 100 + round as u64;
                let mut fresh_cfg = cfg;
                fresh_cfg.params = params[p];
                fresh_cfg.threads = 1;
                let fresh = QuantumSampler::new(DWaveProfile::calibrated(), fresh_cfg);
                assert_eq!(
                    submit(&shared, &schedules[s], seed),
                    submit(&fresh, &schedules[s], seed),
                    "threads={threads}, round {round}"
                );
            }
        }
    }

    #[test]
    fn the_thread_scratch_never_changes_a_sample_set() {
        // Submissions on one thread reuse its buffers: a reverse anneal of
        // one problem at one s_p, then at others, a forward anneal and a
        // smaller problem between them, each equal to the same submission
        // on a fresh thread. The same problem and seed state at another
        // s_p reaches the same floors after the same flips, so levels kept
        // from the last submission would be taken as current.
        let mut rng = Rng64::new(54);
        let big = random_qubo(16, &mut rng);
        let small = random_qubo(5, &mut rng);
        let mut cfg = quick_config(16);
        cfg.threads = 1;
        cfg.params = AnnealParams::default();
        let sampler = QuantumSampler::new(DWaveProfile::calibrated(), cfg);
        let submit = |q: &Qubo, s_p: Option<f64>, seed: u64| {
            let init = vec![1u8; q.num_vars()];
            let result = match s_p {
                Some(s_p) => {
                    let schedule = AnnealSchedule::reverse(s_p, 1.0).unwrap();
                    sampler.sample_qubo(q, &schedule, Some(&init), seed)
                }
                None => sampler.sample_qubo(q, &AnnealSchedule::forward(1.0).unwrap(), None, seed),
            };
            fingerprint(&result)
        };
        let order = [
            (&big, Some(0.55)),
            (&big, Some(0.60)),
            (&small, Some(0.60)),
            (&big, None),
            (&big, Some(0.55)),
            (&big, Some(0.65)),
        ];
        for (round, &(q, s_p)) in order.iter().enumerate() {
            let seed = 7;
            let fresh = std::thread::scope(|scope| scope.spawn(|| submit(q, s_p, seed)).join());
            assert_eq!(submit(q, s_p, seed), fresh.unwrap(), "round {round}");
        }
    }

    /// The sample set of `reads` through today's `SampleSet::from_reads`,
    /// one `(bits, energy)` pair per read.
    fn from_reads_reference(qubo: &Qubo, reads: &[Vec<i8>]) -> Vec<(Vec<u8>, u64, u64)> {
        let set = SampleSet::from_reads(reads.iter().map(|spins| {
            let bits = spins_to_bits(spins);
            let energy = qubo.energy(&bits);
            (bits, energy)
        }));
        set.iter()
            .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
            .collect()
    }

    #[test]
    fn counted_aggregation_matches_the_per_read_hash_map() {
        // 2,000 short, hot forward reads of 10 spins: many distinct
        // states, many repeats.
        let mut rng = Rng64::new(52);
        let q = random_qubo(10, &mut rng);
        let (ising, _) = to_ising(&q);
        let schedule = AnnealSchedule::forward(0.25).unwrap();
        let mut cfg = quick_config(2_000);
        cfg.params = AnnealParams {
            sweeps_per_us: 8,
            beta_override: Some(0.5),
            freeze_out: None,
        };
        cfg.threads = 1;
        let sampler = QuantumSampler::new(DWaveProfile::calibrated(), cfg);
        let reads = readouts(&sampler, from_ising(&ising), &schedule, 29);
        let counted = fingerprint(&sampler.sample_qubo(&q, &schedule, None, 29));
        assert_eq!(counted, from_reads_reference(&q, &reads));
        assert!(
            counted.len() >= 50,
            "only {} distinct states",
            counted.len()
        );
        assert!(counted.iter().any(|s| s.2 > 1), "no repeated state");

        // Counting sorts: its comparisons stay near R·log₂R (about 22,000
        // at R = 2,000), far below a pairwise scan's R²/2 = 2,000,000.
        let mut comparisons = 0u64;
        let mut order = Vec::new();
        group(&mut order, reads.len(), |&a, &b| {
            comparisons += 1;
            reads[a as usize].cmp(&reads[b as usize])
        });
        let distinct = order
            .chunk_by(|&a, &b| reads[a as usize] == reads[b as usize])
            .count();
        assert_eq!(distinct, counted.len());
        assert!(
            comparisons < 100_000,
            "{comparisons} comparisons for 2,000 reads"
        );
    }

    #[test]
    fn batched_reads_equal_one_read_per_seed() {
        // The batch reproduces the per-read path: one engine run per
        // derived read seed, each on its own stream.
        let mut rng = Rng64::new(46);
        let q = random_qubo(8, &mut rng);
        let (ising, _) = to_ising(&q);
        let schedule = AnnealSchedule::forward(1.0).unwrap();
        let mut cfg = quick_config(5);
        cfg.threads = 1;
        let sampler = QuantumSampler::new(DWaveProfile::calibrated(), cfg);
        let batched = readouts(&sampler, from_ising(&ising), &schedule, 23);
        let mut programmed = ising.clone();
        programmed.normalize();
        let programmed = from_ising(&programmed);
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
        assert!(out.timing.programming_us > 0.0);
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
    fn new_passes_valid_configs() {
        QuantumSampler::new(DWaveProfile::calibrated(), SamplerConfig::default());
    }

    #[test]
    #[should_panic(expected = "num_reads must be > 0")]
    fn new_keeps_the_panicking_contract() {
        let config = SamplerConfig {
            num_reads: 0,
            ..Default::default()
        };
        QuantumSampler::new(DWaveProfile::calibrated(), config);
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
    use hqw_oracle::generator::random_qubo;

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
        let target = Target::Embedded(&embedding, ChainStrength::RelativeToMax(2.0));
        let result = sampler.sample_programmed(sampler.program(&q, target), &schedule, None, 5);
        assert_eq!(result.samples.total_reads(), 10);
        assert!((0.0..=1.0).contains(&result.chain_break_fraction));
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
        let target = Target::Embedded(&embedding, ChainStrength::RelativeToMax(4.0));
        let programmed = sampler.program(&q, target);
        let result = sampler.sample_programmed(programmed, &schedule, Some(&init), 7);
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
    fn embedded_counted_aggregation_matches_the_per_read_hash_map() {
        // The mock QPU's shape: forward reads of a 4-spin problem through
        // the clique embedding on C₂, unembedded by majority vote. Short
        // anneals and many reads leave many distinct logical states.
        let mut rng = Rng64::new(73);
        let q = random_qubo(4, &mut rng);
        let embedding = CliqueEmbedding::new(Chimera::new(2), 4);
        let sampler = QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: 200,
                engine: EngineKind::Pimc { trotter_slices: 8 },
                params: AnnealParams {
                    sweeps_per_us: 8,
                    beta_override: None,
                    freeze_out: Some(FreezeOut::default()),
                },
                threads: 1,
                ..Default::default()
            },
        );
        let strength = ChainStrength::RelativeToMax(2.0);
        let schedule = AnnealSchedule::forward(0.5).unwrap();
        let programmed = sampler.program(&q, Target::Embedded(&embedding, strength));
        let result = sampler.sample_programmed(programmed, &schedule, None, 3);
        let (logical, _) = CsrIsing::from_qubo(&q);
        let mut physical = CsrIsing::default();
        embedding.embed(&logical, strength, &mut physical);
        let reads: Vec<Vec<i8>> = super::tests::readouts(&sampler, physical, &schedule, 3)
            .iter()
            .map(|phys| {
                let mut logical = Vec::new();
                embedding.unembed(phys, &mut logical);
                logical
            })
            .collect();
        let reference = SampleSet::from_reads(reads.iter().map(|spins| {
            let bits = spins_to_bits(spins);
            let energy = q.energy(&bits);
            (bits, energy)
        }));
        let fingerprint = |set: &SampleSet| -> Vec<(Vec<u8>, u64, u64)> {
            set.iter()
                .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
                .collect()
        };
        assert_eq!(fingerprint(&result.samples), fingerprint(&reference));
        assert!(
            result.samples.iter().count() >= 8,
            "too few distinct states"
        );
    }

    #[test]
    #[should_panic(expected = "embedding size mismatch")]
    fn embedded_sampling_rejects_size_mismatch() {
        let mut rng = Rng64::new(71);
        let q = random_qubo(5, &mut rng);
        let embedding = CliqueEmbedding::new(Chimera::new(1), 4);
        quick_sampler(2).program(&q, Target::Embedded(&embedding, ChainStrength::Fixed(1.0)));
    }
}
