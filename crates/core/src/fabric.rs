//! The quantum compute fabric: many cells sharing a pool of solver backends.
//!
//! The paper's deployment model (§1, §6) is not one base station with a
//! dedicated annealer — it is *wirelessly-networked systems offloading
//! NP-hard detection problems over the network to shared, centralized
//! quantum(-inspired) processors*. This module simulates that structure:
//! **C cells × U users** stream detection frames into a [`FabricScheduler`]
//! that performs admission control, coalesces same-shape QUBOs into batches,
//! and routes each batch to one of a heterogeneous pool of
//! [`SolverBackend`]s — an SA worker pool, PIMC and SVMC annealer
//! simulators, and a mock QPU behind a [`NetworkModel`] whose minor
//! embeddings come from an [`hqw_anneal::EmbeddingCache`] so repeated
//! frames never re-derive chains.
//!
//! Batch formation is the fabric's amortization lever: a batch pays the
//! per-call overhead (network round trip, QPU programming, embedding
//! derivation on a cache miss) **once**, then serves its jobs across the
//! backend's parallel capacity. Under load, queued same-shape jobs coalesce
//! automatically, so the batched mock QPU beats the unbatched one at equal
//! offered load — the headline fabric invariant CI pins.
//!
//! ## Determinism contract
//!
//! One fabric simulation is a sequential virtual-time event loop: service
//! times derive from [`DetectorMeta`] work counters through the stream
//! engine's [`CostModel`], never wall clocks. [`run_fabric_grid`] fans the
//! (backend-mix × cells × load) grid out with
//! [`hqw_math::parallel::parallel_map_indexed`]; each grid point's seed
//! derives from the grid seed and its **cell-count index only**, and each
//! radio cell's [`ChannelTrack`] seed derives from the point seed and the
//! cell index only ([`ChannelTrack::cells`]). Points differing in load or
//! backend mix therefore see identical frame sequences (paired comparison),
//! and `BENCH_fabric.json` is byte-identical at any thread count.

use crate::grid::{check_coordinates, run_grid, GridEngine};
use crate::pipeline::item_seed;
use crate::scenario::json_num;
use crate::sched::{corrected_us, ClassReport, PriorityClass, SchedOptions, ServicePredictor};
use crate::spec::json::Json;
use crate::spec::{
    check_keys, req, req_f64, req_ratio, req_str, req_u64, req_us, req_usize, SpecError,
};
use crate::stream::CostModel;
use crate::telemetry::Collector;
use crate::telemetry::LogHistogram;
use hqw_anneal::engine::FreezeOut;
use hqw_anneal::{
    AnnealParams, AnnealSchedule, ChainStrength, Chimera, CliqueEmbedding, DWaveProfile,
    EmbeddingCache, EngineKind, QuantumSampler, SamplerConfig,
};
use hqw_math::stats::{percentile_sorted, sorted_ascending};
use hqw_math::Rng64;
use hqw_phy::channel::{ChannelTrack, TrackConfig};
use hqw_phy::detect::{Detector, DetectorMeta, Mmse};
use hqw_phy::instance::DetectionInstance;
use hqw_phy::metrics::bit_error_rate;
use hqw_qubo::pt::{parallel_tempering, PtParams};
use hqw_qubo::sa::{sample_qubo_batch_seeded, SaParams};
use hqw_qubo::tabu::{tabu_from_random, TabuParams};
use hqw_qubo::Qubo;
use std::collections::VecDeque;

/// One detection frame offered to the fabric.
#[derive(Debug)]
pub struct FabricJob {
    /// Originating radio cell.
    pub cell: usize,
    /// Frame index within the cell.
    pub frame: usize,
    /// Arrival time on the virtual clock (µs).
    pub arrival_us: f64,
    /// Per-job solver seed (stable under routing and batching).
    pub seed: u64,
    /// Wireless service tier — a pure seeded function of `(seed, cell,
    /// frame)`; always [`PriorityClass::Embb`] for the default class mix.
    pub class: PriorityClass,
    /// The detection problem.
    pub inst: DetectionInstance,
}

/// A backend's answer for one job of a batch.
#[derive(Debug, Clone)]
pub struct JobDecision {
    /// Detected Gray-labeled bits.
    pub gray_bits: Vec<u8>,
    /// Algorithmic work counters ([`CostModel`] converts them to service µs).
    pub meta: DetectorMeta,
}

/// A backend's answer for a whole batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job decisions, 1:1 with the submitted jobs.
    pub decisions: Vec<JobDecision>,
    /// Total charged service time for the batch call (µs), including any
    /// per-call overhead (network, programming, embedding derivation).
    pub service_us: f64,
}

/// A solver backend of the shared fabric pool.
///
/// Implementations own whatever state they amortize across calls (worker
/// pools, samplers, embedding caches); the scheduler owns the clock and the
/// queues. Service costs must derive from algorithmic counters via the
/// passed [`CostModel`] — never from wall clocks — so fabric simulations
/// stay byte-reproducible.
pub trait SolverBackend {
    /// Stable machine-readable name (used in fabric reports).
    fn name(&self) -> &'static str;

    /// Parallel job slots: a batch of `B` jobs runs in `ceil(B / capacity)`
    /// service rounds.
    fn capacity(&self) -> usize;

    /// Most jobs the scheduler may coalesce into one call.
    fn max_batch(&self) -> usize;

    /// Predicted service µs for one job of `n_logical` variables — what the
    /// scheduler's admission control budgets against.
    fn predict_job_us(&self, cost: &CostModel, n_logical: usize) -> f64;

    /// Predicted fixed per-call overhead µs (network round trip, QPU
    /// programming; 0 for local backends).
    fn predict_overhead_us(&self) -> f64 {
        0.0
    }

    /// Solves a batch of same-shape jobs in one call.
    fn solve_batch(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> BatchOutcome;

    /// Charges a batch **without solving it**: returns exactly the
    /// `service_us` that [`SolverBackend::solve_batch`] would charge for the
    /// same batch, evolving any amortization state (e.g. the mock QPU's
    /// embedding cache) identically. The realtime service's control plane
    /// runs the virtual clock through this, so routing decisions stay a pure
    /// function of the arrival sequence while the actual solves happen on
    /// worker threads. An instance must serve either the charging or the
    /// solving role, never both — interleaving them double-counts
    /// cache-dependent overheads.
    fn charge_batch_us(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> f64;

    /// `(hits, misses)` of the backend's embedding cache, when it has one.
    fn embedding_cache_stats(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Serializes a batch across `capacity` parallel slots: `ceil(B/capacity)`
/// rounds of the per-job service time (all fabric batches are same-shape,
/// so per-job times are uniform).
fn rounds_us(batch: usize, capacity: usize, job_us: f64) -> f64 {
    batch.div_ceil(capacity) as f64 * job_us
}

fn natural_to_gray_decision(
    job: &FabricJob,
    natural_bits: &[u8],
    meta: DetectorMeta,
) -> JobDecision {
    JobDecision {
        gray_bits: job.inst.reduction.natural_to_gray(natural_bits),
        meta,
    }
}

/// The one constructor-side validation shim every backend shares: panics
/// with the validator's message (the assert-style contract backend
/// constructors keep; spec-driven paths use the `Result` validators).
fn expect_valid(result: Result<(), String>) {
    if let Err(e) = result {
        panic!("{e}");
    }
}

// ---------------------------------------------------------------------------
// Local classical pools: SA, parallel tempering, tabu
// ---------------------------------------------------------------------------

/// The worker/batch checks every local pool configuration shares.
fn validate_pool(config: &str, workers: usize, max_batch: usize) -> Result<(), String> {
    if workers == 0 {
        return Err(format!("{config}: need >= 1 worker"));
    }
    if max_batch == 0 {
        return Err(format!("{config}: need max_batch >= 1"));
    }
    Ok(())
}

/// Configuration of the SA worker pool ([`BackendSpec::SaPool`]): the
/// cheapest, always-available rung of the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaPoolConfig {
    /// Worker slots (parallel capacity).
    pub workers: usize,
    /// Most jobs coalesced per call.
    pub max_batch: usize,
    /// SA schedule per job (`num_reads` reads per job).
    pub sa: SaParams,
}

impl SaPoolConfig {
    /// Validates the pool configuration.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        validate_pool("SaPoolConfig", self.workers, self.max_batch)?;
        self.sa.validate()
    }
}

/// Configuration of the parallel-tempering worker pool
/// ([`BackendSpec::Pt`]): the strongest general-purpose classical rung,
/// keeping the quantum(-inspired) backends honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtConfig {
    /// Worker slots (parallel capacity).
    pub workers: usize,
    /// Most jobs coalesced per call.
    pub max_batch: usize,
    /// Replica-exchange schedule per job.
    pub pt: PtParams,
}

impl PtConfig {
    /// Validates the pool configuration.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        validate_pool("PtConfig", self.workers, self.max_batch)?;
        self.pt.validate()
    }
}

/// Configuration of the tabu-search worker pool ([`BackendSpec::Tabu`]):
/// the memory-based classical baseline D-Wave's own hybrid offering pairs
/// with annealing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TabuConfig {
    /// Worker slots (parallel capacity).
    pub workers: usize,
    /// Most jobs coalesced per call.
    pub max_batch: usize,
    /// Tabu-search schedule per job.
    pub tabu: TabuParams,
}

impl TabuConfig {
    /// Validates the pool configuration.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        validate_pool("TabuConfig", self.workers, self.max_batch)?;
        if self.tabu.max_iters == 0 {
            return Err("TabuConfig: tabu max_iters must be > 0".to_string());
        }
        if self.tabu.stall_limit == 0 {
            return Err("TabuConfig: tabu stall_limit must be > 0".to_string());
        }
        Ok(())
    }
}

/// The classical solver a [`LocalPool`] runs: its per-job charge and its
/// batch solve.
trait LocalSolver {
    /// Charged sweeps (or sweep-equivalents) per job.
    fn sweeps_per_job(&self) -> u64;

    /// Solves every `(qubo, seed)` pair, returning each job's best natural
    /// bits.
    fn solve(&self, jobs: &[(&Qubo, u64)]) -> Vec<Vec<u8>>;
}

impl LocalSolver for SaParams {
    fn sweeps_per_job(&self) -> u64 {
        (self.sweeps * self.num_reads) as u64
    }

    /// All `jobs × num_reads` reads in one
    /// [`hqw_qubo::sa::sample_qubo_batch_seeded`] dispatch.
    fn solve(&self, jobs: &[(&Qubo, u64)]) -> Vec<Vec<u8>> {
        let qubos: Vec<&Qubo> = jobs.iter().map(|&(qubo, _)| qubo).collect();
        let seeds: Vec<u64> = jobs.iter().map(|&(_, seed)| seed).collect();
        sample_qubo_batch_seeded(&qubos, self, &seeds)
            .iter()
            .map(|set| {
                set.best()
                    .expect("SA batch produced no samples")
                    .bits
                    .clone()
            })
            .collect()
    }
}

impl LocalSolver for PtParams {
    /// `replicas × sweeps` Metropolis sweeps — exactly the work the kernel
    /// performs, so the static cost model is perfectly calibrated.
    fn sweeps_per_job(&self) -> u64 {
        (self.replicas * self.sweeps) as u64
    }

    fn solve(&self, jobs: &[(&Qubo, u64)]) -> Vec<Vec<u8>> {
        jobs.iter()
            .map(|&(qubo, seed)| parallel_tempering(qubo, self, seed).0)
            .collect()
    }
}

impl LocalSolver for TabuParams {
    /// The **full** `max_iters` move budget (a sweep-equivalent per move):
    /// the search may stop early on stall, but admission control must
    /// budget the worst case, and a fixed charge keeps the virtual clock a
    /// pure function of the job stream rather than of search dynamics.
    fn sweeps_per_job(&self) -> u64 {
        self.max_iters as u64
    }

    /// One search per job from a seeded random start.
    fn solve(&self, jobs: &[(&Qubo, u64)]) -> Vec<Vec<u8>> {
        jobs.iter()
            .map(|&(qubo, seed)| tabu_from_random(qubo, self, &mut Rng64::new(seed)).0)
            .collect()
    }
}

/// A pool of local classical workers running solver `S`. Each job's search
/// is seeded from the job alone (salted per solver), so a job's decision —
/// and every BER metric — is invariant to how the scheduler bucketed it:
/// the same paired-comparison property the mock QPU pins with per-job
/// seeds. A batch runs in `ceil(B / workers)` rounds of the per-job charge.
#[derive(Debug)]
struct LocalPool<S> {
    name: &'static str,
    salt: u64,
    workers: usize,
    max_batch: usize,
    solver: S,
}

impl<S: LocalSolver> LocalPool<S> {
    fn job_meta(&self) -> DetectorMeta {
        DetectorMeta {
            nodes_visited: 0,
            sweeps: self.solver.sweeps_per_job(),
        }
    }
}

impl<S: LocalSolver> SolverBackend for LocalPool<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn capacity(&self) -> usize {
        self.workers
    }

    fn max_batch(&self) -> usize {
        self.max_batch
    }

    fn predict_job_us(&self, cost: &CostModel, _n_logical: usize) -> f64 {
        cost.service_us(&self.job_meta())
    }

    fn solve_batch(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> BatchOutcome {
        let pairs: Vec<(&Qubo, u64)> = jobs
            .iter()
            .map(|job| (&job.inst.reduction.qubo, job.seed ^ self.salt))
            .collect();
        let meta = self.job_meta();
        let decisions = jobs
            .iter()
            .zip(self.solver.solve(&pairs))
            .map(|(job, bits)| natural_to_gray_decision(job, &bits, meta))
            .collect();
        BatchOutcome {
            decisions,
            service_us: self.charge_batch_us(cost, jobs),
        }
    }

    fn charge_batch_us(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> f64 {
        rounds_us(
            jobs.len(),
            self.workers,
            self.predict_job_us(cost, jobs[0].inst.num_vars()),
        )
    }
}

// ---------------------------------------------------------------------------
// PIMC / SVMC annealer simulators
// ---------------------------------------------------------------------------

/// Shared configuration of the [`PimcBackend`] and [`SvmcBackend`] annealer
/// simulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealerConfig {
    /// Reads per job.
    pub num_reads: usize,
    /// Forward-anneal duration per read (programmed µs).
    pub anneal_us: f64,
    /// Monte-Carlo sweeps simulated per programmed microsecond.
    pub sweeps_per_us: usize,
    /// Parallel job slots.
    pub capacity: usize,
    /// Most jobs coalesced per call.
    pub max_batch: usize,
}

/// Total MC sweeps one annealer job costs:
/// `reads × anneal_us × sweeps_per_us`. Shared by the PIMC/SVMC backends
/// and the mock QPU so predicted and charged service can never drift apart.
fn mc_sweeps_per_job(num_reads: usize, anneal_us: f64, sweeps_per_us: usize) -> u64 {
    (num_reads as f64 * anneal_us * sweeps_per_us as f64).round() as u64
}

/// The one sampler construction every annealer-simulator backend shares.
fn annealer_sampler(engine: EngineKind, num_reads: usize, sweeps_per_us: usize) -> QuantumSampler {
    QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads,
            engine,
            params: AnnealParams {
                sweeps_per_us,
                beta_override: None,
                freeze_out: Some(FreezeOut::default()),
            },
            threads: 1, // the fabric grid is the parallel level
            ..SamplerConfig::default()
        },
    )
}

impl AnnealerConfig {
    /// Validates the annealer-simulator configuration.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_reads == 0 {
            return Err("AnnealerConfig: need >= 1 read".to_string());
        }
        if !(self.anneal_us > 0.0 && self.anneal_us.is_finite()) {
            return Err("AnnealerConfig: anneal_us must be > 0".to_string());
        }
        if self.sweeps_per_us == 0 {
            return Err("AnnealerConfig: sweeps_per_us > 0".to_string());
        }
        if self.capacity == 0 {
            return Err("AnnealerConfig: capacity must be > 0".to_string());
        }
        if self.max_batch == 0 {
            return Err("AnnealerConfig: max_batch must be > 0".to_string());
        }
        Ok(())
    }

    fn sweeps_per_job(&self) -> u64 {
        mc_sweeps_per_job(self.num_reads, self.anneal_us, self.sweeps_per_us)
    }

    fn sampler(&self, engine: EngineKind) -> QuantumSampler {
        annealer_sampler(engine, self.num_reads, self.sweeps_per_us)
    }
}

/// Runs one annealer job (forward schedule, per-job seed) and returns the
/// decision. Shared by the PIMC, SVMC and mock-QPU backends.
fn annealer_decide(
    sampler: &QuantumSampler,
    schedule: &AnnealSchedule,
    sweeps_per_job: u64,
    job: &FabricJob,
) -> JobDecision {
    let result = sampler.sample_qubo(&job.inst.reduction.qubo, schedule, None, job.seed);
    let best = result.samples.best().expect("annealer produced no samples");
    natural_to_gray_decision(
        job,
        &best.bits,
        DetectorMeta {
            nodes_visited: 0,
            sweeps: sweeps_per_job,
        },
    )
}

macro_rules! annealer_backend {
    ($(#[$doc:meta])* $name:ident, $tag:literal, $engine:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            config: AnnealerConfig,
            sampler: QuantumSampler,
            schedule: AnnealSchedule,
        }

        impl $name {
            /// Creates the backend.
            ///
            /// # Panics
            /// Panics on invalid configuration.
            pub fn new(config: AnnealerConfig) -> Self {
                expect_valid(config.validate());
                $name {
                    config,
                    sampler: config.sampler($engine),
                    schedule: AnnealSchedule::forward(config.anneal_us)
                        .expect("anneal_us validated > 0"),
                }
            }
        }

        impl SolverBackend for $name {
            fn name(&self) -> &'static str {
                $tag
            }

            fn capacity(&self) -> usize {
                self.config.capacity
            }

            fn max_batch(&self) -> usize {
                self.config.max_batch
            }

            fn predict_job_us(&self, cost: &CostModel, _n_logical: usize) -> f64 {
                cost.service_us(&DetectorMeta {
                    nodes_visited: 0,
                    sweeps: self.config.sweeps_per_job(),
                })
            }

            fn solve_batch(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> BatchOutcome {
                let sweeps = self.config.sweeps_per_job();
                let decisions = jobs
                    .iter()
                    .map(|job| annealer_decide(&self.sampler, &self.schedule, sweeps, job))
                    .collect();
                BatchOutcome {
                    decisions,
                    service_us: self.charge_batch_us(cost, jobs),
                }
            }

            fn charge_batch_us(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> f64 {
                rounds_us(
                    jobs.len(),
                    self.config.capacity,
                    self.predict_job_us(cost, jobs[0].inst.num_vars()),
                )
            }
        }
    };
}

annealer_backend!(
    /// Path-integral quantum Monte Carlo simulator backend (16 Trotter
    /// slices by default of [`EngineKind`]; here 8 — quick but quantum).
    PimcBackend,
    "pimc",
    EngineKind::Pimc { trotter_slices: 8 }
);

annealer_backend!(
    /// Spin-vector (semi-classical) Monte Carlo simulator backend.
    SvmcBackend,
    "svmc",
    EngineKind::Svmc
);

// ---------------------------------------------------------------------------
// Mock QPU behind a network
// ---------------------------------------------------------------------------

/// Deterministic network model between the cells and a centralized QPU:
/// a base round-trip time plus per-job jitter drawn from the job's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Base round-trip time (µs).
    pub rtt_base_us: f64,
    /// Jitter amplitude (µs): each job draws `U[0, jitter_us)` on top of
    /// the base RTT, deterministically from its seed.
    pub jitter_us: f64,
}

impl NetworkModel {
    /// A co-located backend: no network cost at all.
    pub fn local() -> Self {
        NetworkModel {
            rtt_base_us: 0.0,
            jitter_us: 0.0,
        }
    }

    /// This job's round-trip time: base + seeded jitter.
    pub fn rtt_us(&self, job_seed: u64) -> f64 {
        if self.jitter_us == 0.0 {
            return self.rtt_base_us;
        }
        self.rtt_base_us + self.jitter_us * Rng64::new(job_seed ^ 0x4E77_0A4B).next_f64()
    }

    /// The round trip a whole batch rides on: the slowest member's draw
    /// (every job's answer returns with the batch).
    pub fn batch_rtt_us(&self, jobs: &[&FabricJob]) -> f64 {
        jobs.iter().map(|j| self.rtt_us(j.seed)).fold(0.0, f64::max)
    }
}

/// Configuration of the [`MockQpuBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MockQpuConfig {
    /// Reads per job.
    pub num_reads: usize,
    /// Forward-anneal duration per read (programmed µs).
    pub anneal_us: f64,
    /// Monte-Carlo sweeps simulated per programmed microsecond (on the
    /// embedded physical problem).
    pub sweeps_per_us: usize,
    /// Trotter slices of the PIMC engine behind the QPU front end.
    pub trotter_slices: usize,
    /// Most jobs coalesced per call (1 = unbatched submission).
    pub max_batch: usize,
    /// Network between the cells and the QPU.
    pub network: NetworkModel,
    /// Per-call problem programming overhead (µs), paid once per batch.
    pub programming_us: f64,
    /// Embedding derivation cost per physical qubit of the chain layout
    /// (µs), paid only on an embedding-cache miss.
    pub embed_derive_us_per_qubit: f64,
    /// Chain strength relative to the logical problem's largest coefficient.
    pub chain_strength: f64,
}

impl MockQpuConfig {
    /// Validates the mock-QPU configuration.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_reads == 0 {
            return Err("MockQpuConfig: need >= 1 read".to_string());
        }
        if !(self.anneal_us > 0.0 && self.anneal_us.is_finite()) {
            return Err("MockQpuConfig: anneal_us > 0".to_string());
        }
        if self.sweeps_per_us == 0 {
            return Err("MockQpuConfig: sweeps_per_us must be > 0".to_string());
        }
        if self.trotter_slices < 2 {
            return Err("MockQpuConfig: need >= 2 Trotter slices".to_string());
        }
        if self.max_batch == 0 {
            return Err("MockQpuConfig: max_batch >= 1".to_string());
        }
        if !(self.network.rtt_base_us >= 0.0 && self.network.jitter_us >= 0.0) {
            return Err("MockQpuConfig: negative network cost".to_string());
        }
        if !(self.programming_us >= 0.0 && self.embed_derive_us_per_qubit >= 0.0) {
            return Err("MockQpuConfig: negative overhead".to_string());
        }
        if !(self.chain_strength > 0.0 && self.chain_strength.is_finite()) {
            return Err("MockQpuConfig: chain_strength must be > 0".to_string());
        }
        Ok(())
    }
}

/// The centralized quantum processor: a [`QuantumSampler`] front end driving
/// PIMC through a cached Chimera clique minor-embedding, reached over a
/// [`NetworkModel`].
///
/// The per-call overhead — network round trip, programming, and chain
/// derivation on an embedding-cache miss — is what batch formation
/// amortizes: at equal offered load a batched QPU serves the same jobs at
/// lower mean latency than an unbatched one (CI-pinned invariant).
#[derive(Debug)]
pub struct MockQpuBackend {
    config: MockQpuConfig,
    sampler: QuantumSampler,
    schedule: AnnealSchedule,
    cache: EmbeddingCache,
}

impl MockQpuBackend {
    /// Creates the backend with an empty embedding cache.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub fn new(config: MockQpuConfig) -> Self {
        expect_valid(config.validate());
        let sampler = annealer_sampler(
            EngineKind::Pimc {
                trotter_slices: config.trotter_slices,
            },
            config.num_reads,
            config.sweeps_per_us,
        );
        MockQpuBackend {
            config,
            sampler,
            schedule: AnnealSchedule::forward(config.anneal_us).expect("anneal_us validated > 0"),
            cache: EmbeddingCache::new(),
        }
    }

    /// Smallest Chimera hosting an `n_logical` clique with the cross
    /// construction (`K_{4m}` on `C_m`).
    fn chimera_for(n_logical: usize) -> Chimera {
        Chimera::new(n_logical.div_ceil(4).max(1))
    }

    fn sweeps_per_job(&self) -> u64 {
        mc_sweeps_per_job(
            self.config.num_reads,
            self.config.anneal_us,
            self.config.sweeps_per_us,
        )
    }

    /// The one cache access per batch call, shared by `solve_batch` and
    /// `charge_batch_us` so the cache (and the derivation charge it gates)
    /// evolves identically on the solving and the charging path.
    fn lookup_embedding(&mut self, n_logical: usize) -> (std::rc::Rc<CliqueEmbedding>, f64) {
        let misses_before = self.cache.misses();
        let embedding = self.cache.get(Self::chimera_for(n_logical), n_logical);
        // Chain derivation is charged only when the cache actually derived.
        let derive_us = if self.cache.misses() > misses_before {
            embedding.qubits_used() as f64 * self.config.embed_derive_us_per_qubit
        } else {
            0.0
        };
        (embedding, derive_us)
    }

    /// The charged service of one batch call: per-call overhead (network
    /// round trip, programming, derivation) plus sequential device rounds.
    fn batch_service_us(&self, cost: &CostModel, jobs: &[&FabricJob], derive_us: f64) -> f64 {
        let n = jobs[0].inst.num_vars();
        let overhead =
            self.config.network.batch_rtt_us(jobs) + self.config.programming_us + derive_us;
        overhead + rounds_us(jobs.len(), 1, self.predict_job_us(cost, n))
    }
}

impl SolverBackend for MockQpuBackend {
    fn name(&self) -> &'static str {
        "mock-qpu"
    }

    fn capacity(&self) -> usize {
        1 // one annealer: reads are sequential on the device
    }

    fn max_batch(&self) -> usize {
        self.config.max_batch
    }

    fn predict_job_us(&self, cost: &CostModel, _n_logical: usize) -> f64 {
        cost.service_us(&DetectorMeta {
            nodes_visited: 0,
            sweeps: self.sweeps_per_job(),
        })
    }

    fn predict_overhead_us(&self) -> f64 {
        self.config.network.rtt_base_us + self.config.programming_us
    }

    fn solve_batch(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> BatchOutcome {
        let n = jobs[0].inst.num_vars();
        let (embedding, derive_us) = self.lookup_embedding(n);

        let sweeps = self.sweeps_per_job();
        let strength = ChainStrength::RelativeToMax(self.config.chain_strength);
        let decisions: Vec<JobDecision> = jobs
            .iter()
            .map(|job| {
                let (result, _chain_breaks) = self.sampler.sample_qubo_embedded(
                    &job.inst.reduction.qubo,
                    &embedding,
                    strength,
                    &self.schedule,
                    None,
                    job.seed,
                );
                let best = result.samples.best().expect("QPU produced no samples");
                natural_to_gray_decision(
                    job,
                    &best.bits,
                    DetectorMeta {
                        nodes_visited: 0,
                        sweeps,
                    },
                )
            })
            .collect();

        BatchOutcome {
            decisions,
            service_us: self.batch_service_us(cost, jobs, derive_us),
        }
    }

    fn charge_batch_us(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> f64 {
        let (_embedding, derive_us) = self.lookup_embedding(jobs[0].inst.num_vars());
        self.batch_service_us(cost, jobs, derive_us)
    }

    fn embedding_cache_stats(&self) -> Option<(u64, u64)> {
        Some((self.cache.hits(), self.cache.misses()))
    }
}

// ---------------------------------------------------------------------------
// Backend specs and mixes
// ---------------------------------------------------------------------------

/// A buildable description of one backend — what the grid fans out, so each
/// grid point constructs its own (stateful) backends and stays deterministic
/// at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// Classical SA worker pool.
    SaPool(SaPoolConfig),
    /// Classical parallel-tempering worker pool.
    Pt(PtConfig),
    /// Classical tabu-search worker pool.
    Tabu(TabuConfig),
    /// PIMC annealer simulator.
    Pimc(AnnealerConfig),
    /// SVMC annealer simulator.
    Svmc(AnnealerConfig),
    /// Centralized mock QPU behind a network.
    MockQpu(MockQpuConfig),
}

impl BackendSpec {
    /// Builds the backend.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub fn build(&self) -> Box<dyn SolverBackend> {
        match *self {
            // The salts decorrelate the local pools' per-job seed streams.
            BackendSpec::SaPool(c) => self.pool("sa-pool", 0x5A_B47C, c.workers, c.max_batch, c.sa),
            BackendSpec::Pt(c) => self.pool("pt", 0x97_7E3A, c.workers, c.max_batch, c.pt),
            BackendSpec::Tabu(c) => self.pool("tabu", 0x7AB_005, c.workers, c.max_batch, c.tabu),
            BackendSpec::Pimc(c) => Box::new(PimcBackend::new(c)),
            BackendSpec::Svmc(c) => Box::new(SvmcBackend::new(c)),
            BackendSpec::MockQpu(c) => Box::new(MockQpuBackend::new(c)),
        }
    }

    /// Builds a validated local pool of this spec.
    fn pool<S: LocalSolver + 'static>(
        &self,
        name: &'static str,
        salt: u64,
        workers: usize,
        max_batch: usize,
        solver: S,
    ) -> Box<dyn SolverBackend> {
        expect_valid(self.validate());
        Box::new(LocalPool {
            name,
            salt,
            workers,
            max_batch,
            solver,
        })
    }

    /// Validates the wrapped backend configuration without building it.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            BackendSpec::SaPool(c) => c.validate(),
            BackendSpec::Pt(c) => c.validate(),
            BackendSpec::Tabu(c) => c.validate(),
            BackendSpec::Pimc(c) | BackendSpec::Svmc(c) => c.validate(),
            BackendSpec::MockQpu(c) => c.validate(),
        }
    }
}

/// A named pool composition — one value of the fabric grid's backend-mix
/// axis.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendMix {
    /// Stable machine-readable name (used in fabric reports).
    pub name: String,
    /// The pool.
    pub backends: Vec<BackendSpec>,
}

// ---------------------------------------------------------------------------
// Arrival processes (the load generator)
// ---------------------------------------------------------------------------

/// The per-cell frame arrival process — the fabric's load generator.
///
/// Every variant has mean inter-arrival `arrival_period_us` (offered load is
/// comparable across processes) and staggers cell start times by
/// `period / n_cells` exactly like the original periodic process. Arrival
/// times are a pure function of `(seed, cell, frame)`: virtual and realtime
/// runs of the same config see byte-identical arrival sequences, which is
/// what makes the realtime service's sim-replay gate possible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals (the original fabric process).
    Periodic,
    /// `burst` frames arrive back-to-back (same timestamp), then a gap of
    /// `burst` periods: bursty traffic at unchanged mean rate.
    Bursty {
        /// Frames per burst (>= 1).
        burst: usize,
    },
    /// Sinusoidally modulated inter-arrival gaps — a compressed diurnal
    /// load cycle: `gap_f = period * (1 + amplitude * sin(2π f / cycle))`.
    Diurnal {
        /// Peak-to-mean modulation depth, in `[0, 1)`.
        amplitude: f64,
        /// Frames per modulation cycle (>= 2).
        cycle_frames: usize,
    },
    /// Pareto inter-arrival gaps with tail index `alpha` (> 1 so the mean
    /// exists), scaled to mean `period`: heavy-tailed traffic whose rare
    /// long gaps separate deep queue-buildup episodes.
    HeavyTailed {
        /// Pareto tail index (> 1; smaller = heavier tail).
        alpha: f64,
    },
}

impl ArrivalProcess {
    /// Stable machine-readable name (the spec `process` tag).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Periodic => "periodic",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::HeavyTailed { .. } => "heavy-tailed",
        }
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalProcess::Periodic => Ok(()),
            ArrivalProcess::Bursty { burst } => {
                if burst == 0 {
                    return Err("ArrivalProcess: burst must be >= 1".to_string());
                }
                Ok(())
            }
            ArrivalProcess::Diurnal {
                amplitude,
                cycle_frames,
            } => {
                if !(0.0..1.0).contains(&amplitude) {
                    return Err("ArrivalProcess: diurnal amplitude must be in [0, 1)".to_string());
                }
                if cycle_frames < 2 {
                    return Err("ArrivalProcess: diurnal cycle needs >= 2 frames".to_string());
                }
                Ok(())
            }
            ArrivalProcess::HeavyTailed { alpha } => {
                if !(alpha > 1.0 && alpha.is_finite()) {
                    return Err(
                        "ArrivalProcess: heavy-tailed alpha must be > 1 (finite mean)".to_string(),
                    );
                }
                Ok(())
            }
        }
    }

    /// Arrival times (µs) of `frames` frames for cell `cell` of `n_cells`
    /// sharing mean period `period_us`, deterministic in `(seed, cell)`.
    /// `Periodic` reproduces the original fabric arithmetic bit for bit.
    fn cell_arrivals(
        &self,
        frames: usize,
        cell: usize,
        n_cells: usize,
        period_us: f64,
        seed: u64,
    ) -> Vec<f64> {
        let phase = cell as f64 * (period_us / n_cells as f64);
        match *self {
            ArrivalProcess::Periodic => (0..frames).map(|f| f as f64 * period_us + phase).collect(),
            ArrivalProcess::Bursty { burst } => (0..frames)
                .map(|f| ((f / burst) * burst) as f64 * period_us + phase)
                .collect(),
            ArrivalProcess::Diurnal {
                amplitude,
                cycle_frames,
            } => {
                let mut t = phase;
                let mut out = Vec::with_capacity(frames);
                for f in 0..frames {
                    out.push(t);
                    let angle = std::f64::consts::TAU * f as f64 / cycle_frames as f64;
                    t += period_us * (1.0 + amplitude * angle.sin());
                }
                out
            }
            ArrivalProcess::HeavyTailed { alpha } => {
                let mut rng = Rng64::new(item_seed(seed ^ 0xA441_5EED, cell));
                // Pareto(x_min, alpha) has mean x_min * alpha / (alpha - 1);
                // solve for mean = period.
                let x_min = period_us * (alpha - 1.0) / alpha;
                let mut t = phase;
                let mut out = Vec::with_capacity(frames);
                for _ in 0..frames {
                    out.push(t);
                    let u = 1.0 - rng.next_f64(); // (0, 1]: keeps the gap finite
                    t += x_min * u.powf(-1.0 / alpha);
                }
                out
            }
        }
    }
}

/// Execution mode of a fabric grid: the deterministic virtual-time
/// simulation, or the wall-clock realtime service whose routing decisions
/// the sim replays and checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FabricMode {
    /// Virtual-clock discrete-event simulation (the oracle).
    Virtual,
    /// Wall-clock multi-threaded service (`hqw-core::fabric_rt`).
    Realtime(RealtimeConfig),
}

/// Thread topology of the realtime fabric service. Worker counts come from
/// the spec — the backend pool's own capacities size the solver pools — so
/// the CLI `--threads` override is rejected for realtime specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealtimeConfig {
    /// Concurrent frame-producer threads (cells are sharded across them).
    pub producers: usize,
    /// Sharded MPMC delivery queues between producers and the sequencer.
    pub queue_shards: usize,
}

impl RealtimeConfig {
    /// Validates the thread topology.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.producers == 0 {
            return Err("RealtimeConfig: need >= 1 producer".to_string());
        }
        if self.queue_shards == 0 {
            return Err("RealtimeConfig: need >= 1 queue shard".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

/// Configuration of one fabric simulation (one grid point).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Channel process shared by every cell (per-cell seeds differ).
    pub track: TrackConfig,
    /// Number of radio cells sharing the fabric.
    pub n_cells: usize,
    /// Frames streamed per cell.
    pub frames_per_cell: usize,
    /// Per-cell frame inter-arrival period (µs); cells are phase-staggered
    /// by `period / n_cells` so offered load scales with the cell count.
    pub arrival_period_us: f64,
    /// Arrival process shaping the per-cell inter-arrival gaps around
    /// `arrival_period_us` (the mean is preserved across processes).
    pub arrival: ArrivalProcess,
    /// Per-frame end-to-end latency budget (µs).
    pub deadline_us: f64,
    /// Work-counter → service-time model.
    pub cost: CostModel,
    /// The shared backend pool.
    pub backends: Vec<BackendSpec>,
    /// Adaptive-scheduling knobs (predictor policy, assumed cost model,
    /// priority-class mix). The default reproduces the historical static
    /// scheduler byte-for-byte.
    pub sched: SchedOptions,
    /// Simulation seed; cell tracks and job seeds derive from it.
    pub seed: u64,
}

impl FabricConfig {
    /// Validates the simulation configuration (including its track and
    /// every backend in the pool).
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "FabricConfig";
        if self.n_cells == 0 {
            return Err(SpecError::new(ctx, "need at least one cell"));
        }
        if self.frames_per_cell == 0 {
            return Err(SpecError::new(ctx, "need at least one frame per cell"));
        }
        if !(self.arrival_period_us > 0.0 && self.arrival_period_us.is_finite()) {
            return Err(SpecError::new(ctx, "arrival period must be > 0"));
        }
        self.arrival
            .validate()
            .map_err(|msg| SpecError::new(ctx, msg))?;
        if !(self.deadline_us >= 0.0 && self.deadline_us.is_finite()) {
            return Err(SpecError::new(
                ctx,
                "deadline must be >= 0 (0 = everything falls back)",
            ));
        }
        if self.backends.is_empty() {
            return Err(SpecError::new(ctx, "empty backend pool"));
        }
        self.track
            .validate()
            .map_err(|msg| SpecError::new(ctx, msg))?;
        crate::stream::validate_cost(&self.cost).map_err(|msg| SpecError::new(ctx, msg))?;
        self.sched
            .validate()
            .map_err(|msg| SpecError::new(ctx, msg))?;
        for backend in &self.backends {
            backend.validate().map_err(|msg| SpecError::new(ctx, msg))?;
        }
        Ok(())
    }

    /// Shim for callers that still want the original panicking behaviour.
    /// Deprecated in spirit: new code should propagate
    /// [`FabricConfig::validate`] errors instead.
    ///
    /// # Panics
    /// Panics with the [`FabricConfig::validate`] message on any invalid
    /// field.
    pub fn validate_or_panic(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// Per-backend slice of a [`FabricReport`].
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Backend name.
    pub name: String,
    /// Jobs served.
    pub jobs: usize,
    /// Batch calls made.
    pub batches: u64,
    /// Busy time over the simulation makespan (provably ≤ 1).
    pub utilization: f64,
    /// Mean jobs per batch call (0 when no batches ran).
    pub mean_batch: f64,
    /// Mean charged service time per served job (µs; busy time over jobs,
    /// 0 when idle). The amortization metric: batching spreads the
    /// per-call overhead (network, programming, derivation) across the
    /// batch, so a batched backend's per-job cost undercuts an unbatched
    /// one's regardless of what admission control did upstream.
    pub mean_service_us: f64,
    /// `batch_histogram[k]` = batches that carried `k + 1` jobs.
    pub batch_histogram: Vec<u64>,
    /// Embedding-cache hits (0 for backends without a cache).
    pub embed_cache_hits: u64,
    /// Embedding-cache misses (0 for backends without a cache).
    pub embed_cache_misses: u64,
}

/// Aggregate report of one fabric simulation.
#[derive(Debug, Clone)]
pub struct FabricReport {
    /// Backend-mix name.
    pub mix: String,
    /// Radio cells sharing the fabric.
    pub n_cells: usize,
    /// Per-cell arrival period (µs).
    pub arrival_period_us: f64,
    /// Total jobs across all cells.
    pub jobs: usize,
    /// Mean wireless bit error rate across jobs.
    pub ber: f64,
    /// Fraction of jobs whose end-to-end latency exceeded the deadline.
    pub deadline_miss_rate: f64,
    /// Fraction of jobs the admission control downgraded to local MMSE.
    pub fallback_rate: f64,
    /// Fraction of jobs that were **fabric-served and** missed the
    /// deadline. Disjoint from `fallback_rate` by construction, so
    /// `served_miss_rate + fallback_rate ≤ 1` is the degraded-service rate
    /// (jobs the fabric did not serve within budget) the CI gate checks for
    /// monotonicity in load.
    pub served_miss_rate: f64,
    /// Median end-to-end latency (µs).
    pub p50_latency_us: f64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_latency_us: f64,
    /// Mean end-to-end latency across all jobs (µs).
    pub mean_latency_us: f64,
    /// Mean end-to-end latency of **fabric-served** jobs only (µs; 0 when
    /// everything fell back). The apples-to-apples batching metric: the
    /// all-jobs mean rewards heavy fallback, because rejected jobs finish
    /// in one fast classical service.
    pub mean_served_latency_us: f64,
    /// Per-backend statistics, in pool order.
    pub backends: Vec<BackendReport>,
    /// Queued jobs evicted by class-aware preemptive admission (0 unless
    /// priority classes are enabled and an urgent arrival displaced work).
    pub preemptions: u64,
    /// Mean absolute service-prediction error of the learned scheduler
    /// (µs; 0.0 under the static policy, which never predicts adaptively).
    pub prediction_mae_us: f64,
    /// Per-priority-class latency/miss statistics, in `Urllc, Embb, Bulk`
    /// order, omitting empty classes. Empty when the class mix is the
    /// default (every job eMBB), which keeps legacy reports byte-stable.
    pub classes: Vec<ClassReport>,
}

/// Bookkeeping entry of one finished job.
#[derive(Debug, Clone, Copy)]
struct JobFinish {
    latency_us: f64,
    ber: f64,
    /// Whether the job was downgraded to the local classical fallback.
    fallback: bool,
}

/// Runtime state of one backend inside the scheduler.
struct BackendState {
    backend: Box<dyn SolverBackend>,
    queue: VecDeque<usize>,
    /// Jobs of the in-flight batch with their decisions (empty when idle).
    /// Decisions are `None` in charge-only mode, where the actual solves
    /// happen on the realtime service's worker threads.
    in_flight: Vec<(usize, Option<JobDecision>)>,
    free_at: f64,
    busy_us: f64,
    batches: u64,
    batch_histogram: Vec<u64>,
    jobs_done: usize,
}

impl BackendState {
    /// Predicted completion of a job of `n_logical` variables joining this
    /// backend's queue at `now`, with `evict` queued jobs hypothetically
    /// removed and the learned Q16.16 `correction` applied to both the
    /// per-job and per-call quotes (a [`Q16_ONE`] correction is a bitwise
    /// no-op).
    ///
    /// The backlog plus this job forms `batches_ahead` batch calls — each
    /// paying the per-call overhead — and each batch serves in
    /// capacity-wide rounds. Rounds are counted **per batch** (full
    /// batches of `max_batch` jobs plus a tail batch), not as one
    /// `ceil(jobs/capacity)` over the whole backlog: with `max_batch` not
    /// a multiple of `capacity` the per-backlog shortcut under-counts
    /// (e.g. capacity 4, max_batch 2, 4 jobs = two 2-job batches = 2
    /// rounds, not 1) and admission quotes would undercut what
    /// `solve_batch` charges. When `capacity` divides `max_batch` the two
    /// counts are the same integer, so historical quotes are preserved
    /// bit-for-bit.
    fn predicted_completion(
        &self,
        now: f64,
        cost: &CostModel,
        n_logical: usize,
        correction: i64,
        evict: usize,
    ) -> f64 {
        let job_us = corrected_us(self.backend.predict_job_us(cost, n_logical), correction);
        let overhead_us = corrected_us(self.backend.predict_overhead_us(), correction);
        debug_assert!(evict <= self.queue.len());
        let jobs_ahead = self.queue.len() + 1 - evict;
        let max_batch = self.backend.max_batch();
        let capacity = self.backend.capacity();
        let full = jobs_ahead / max_batch;
        let tail = jobs_ahead % max_batch;
        let batches_ahead = (full + usize::from(tail > 0)) as f64;
        let rounds = full * max_batch.div_ceil(capacity) + tail.div_ceil(capacity);
        let ready = if self.in_flight.is_empty() {
            now
        } else {
            self.free_at.max(now)
        };
        ready + batches_ahead * overhead_us + rounds as f64 * job_us
    }

    /// Starts the next batch from the queue at `start` (queue must be
    /// non-empty): pops the longest same-shape prefix up to `max_batch`.
    /// With `solve` the batch is solved inline (the virtual-time sim); in
    /// charge-only mode the backend is charged the identical `service_us`
    /// but returns no decisions, and the formed batch's job ids are the
    /// caller's to dispatch. Returns the batch in queue order plus the
    /// charged service µs (the predictor's learning signal).
    fn start_batch(
        &mut self,
        start: f64,
        cost: &CostModel,
        jobs: &[FabricJob],
        solve: bool,
    ) -> (Vec<usize>, f64) {
        debug_assert!(self.in_flight.is_empty());
        let head_vars = jobs[*self.queue.front().expect("start_batch: empty queue")].num_vars();
        let mut batch_ids = Vec::new();
        while batch_ids.len() < self.backend.max_batch() {
            match self.queue.front() {
                Some(&id) if jobs[id].num_vars() == head_vars => {
                    batch_ids.push(id);
                    self.queue.pop_front();
                }
                _ => break,
            }
        }
        let batch_jobs: Vec<&FabricJob> = batch_ids.iter().map(|&id| &jobs[id]).collect();
        let (service_us, decisions) = if solve {
            let outcome = self.backend.solve_batch(cost, &batch_jobs);
            assert_eq!(
                outcome.decisions.len(),
                batch_jobs.len(),
                "backend {} returned a mismatched batch",
                self.backend.name()
            );
            (
                outcome.service_us,
                outcome.decisions.into_iter().map(Some).collect(),
            )
        } else {
            (
                self.backend.charge_batch_us(cost, &batch_jobs),
                vec![None; batch_jobs.len()],
            )
        };
        self.free_at = start + service_us;
        self.busy_us += service_us;
        self.batches += 1;
        if self.batch_histogram.len() < batch_ids.len() {
            self.batch_histogram.resize(batch_ids.len(), 0);
        }
        self.batch_histogram[batch_ids.len() - 1] += 1;
        self.in_flight = batch_ids.iter().copied().zip(decisions).collect();
        (batch_ids, service_us)
    }

    /// The static admission quote for a batch of `batch_len` jobs of
    /// `n_logical` variables under `cost` — the prediction the learned
    /// correctors are trained against.
    fn static_batch_quote_us(&self, cost: &CostModel, batch_len: usize, n_logical: usize) -> f64 {
        self.backend.predict_overhead_us()
            + rounds_us(
                batch_len,
                self.backend.capacity(),
                self.backend.predict_job_us(cost, n_logical),
            )
    }
}

impl FabricJob {
    fn num_vars(&self) -> usize {
        self.inst.num_vars()
    }
}

/// Generates every job of the simulation, sorted by arrival time (ties
/// break by cell, then frame — a total, deterministic order). Shared with
/// the realtime service (`crate::fabric_rt`), whose producers stream the
/// same jobs so the sim can replay its routing decisions.
pub(crate) fn generate_jobs(config: &FabricConfig) -> Vec<FabricJob> {
    let tracks = ChannelTrack::cells(config.track, config.n_cells, config.seed ^ 0xCE11_5EED);
    let mut jobs = Vec::with_capacity(config.n_cells * config.frames_per_cell);
    for (cell, mut track) in tracks.into_iter().enumerate() {
        let arrivals = config.arrival.cell_arrivals(
            config.frames_per_cell,
            cell,
            config.n_cells,
            config.arrival_period_us,
            config.seed,
        );
        for (frame, &arrival_us) in arrivals.iter().enumerate() {
            let inst = track.next().expect("ChannelTrack is infinite");
            jobs.push(FabricJob {
                cell,
                frame,
                arrival_us,
                seed: item_seed(item_seed(config.seed ^ 0xFAB_0B5, cell), frame),
                class: config.sched.classes.assign(config.seed, cell, frame),
                inst,
            });
        }
    }
    jobs.sort_by(|a, b| {
        a.arrival_us
            .partial_cmp(&b.arrival_us)
            .expect("arrival times are finite")
            .then(a.cell.cmp(&b.cell))
            .then(a.frame.cmp(&b.frame))
    });
    jobs
}

/// The fabric's control plane: admission control, batch formation and
/// backend routing over a virtual clock.
///
/// At each arrival the scheduler routes the job to the backend minimizing
/// predicted completion — or, when no backend's prediction fits the
/// deadline, falls back to the cell's local classical detector exactly as
/// the stream engine's deadline-aware [`crate::stream::DispatchPolicy`]
/// does (local compute is uncontended: fallback latency is the classical
/// service time alone). Idle backends start serving immediately; jobs
/// arriving at a busy backend queue up and coalesce into its next
/// same-shape batch when the backend frees.
pub struct FabricScheduler {
    cost: CostModel,
    /// The cost model admission quotes are computed from: the true `cost`
    /// unless the sched options carry a (deliberately miscalibrated)
    /// assumed model. Charging always uses the true `cost`.
    route_cost: CostModel,
    deadline_us: f64,
    options: SchedOptions,
    /// The learned service corrector (a no-op for the static policy).
    predictor: Box<dyn ServicePredictor>,
    backends: Vec<BackendState>,
    fallbacks: usize,
    /// Queued lower-class jobs evicted by preempting admissions.
    preemptions: u64,
    /// Whether batches are solved inline (virtual sim) or only charged
    /// (realtime control plane; solves happen on worker threads).
    solve: bool,
    /// Per-job routing decision, indexed by job id: `Some(backend)` or
    /// `None` for the classical fallback. This is the replay trace.
    /// Preemption **rewrites** a victim's entry from `Some(b)` to `None` —
    /// deterministically, inside the same admission step on both the
    /// virtual and realtime paths.
    trace: Vec<Option<usize>>,
    /// Batches formed in charge-only mode, in formation order, for the
    /// realtime service to dispatch to its worker pools.
    formed: Vec<FormedBatch>,
    /// Jobs evicted in charge-only mode since the last
    /// [`FabricScheduler::take_evicted`] — the realtime service routes
    /// them to its fallback worker.
    evicted: Vec<usize>,
    /// `(virtual µs, |observed − corrected prediction| µs)` per batch —
    /// the prediction-error telemetry series. Empty for the static policy.
    pred_events: Vec<(f64, f64)>,
    /// `(virtual µs, cumulative preemptions)` — the preemption telemetry
    /// series. Empty when nothing is ever preempted.
    preempt_events: Vec<(f64, u64)>,
}

/// A batch formed by the charge-only scheduler, ready for dispatch to a
/// realtime worker pool.
#[derive(Debug, Clone)]
pub(crate) struct FormedBatch {
    /// Index of the backend pool the batch is routed to.
    pub backend: usize,
    /// Job ids of the batch, in queue order.
    pub jobs: Vec<usize>,
}

/// The routing decisions of one fabric run, indexed by job id:
/// `Some(backend_index)` for fabric-served jobs, `None` for jobs the
/// admission control downgraded to the classical fallback. The realtime
/// service records this and the virtual-time sim replays it; CI fails on
/// any divergence.
pub type RouteTrace = Vec<Option<usize>>;

impl std::fmt::Debug for FabricScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricScheduler")
            .field("deadline_us", &self.deadline_us)
            .field("policy", &self.options.policy.name())
            .field("backends", &self.backends.len())
            .field("fallbacks", &self.fallbacks)
            .field("preemptions", &self.preemptions)
            .field("solve", &self.solve)
            .finish()
    }
}

impl FabricScheduler {
    /// Builds the scheduler and its backend pool.
    ///
    /// # Panics
    /// Panics on an empty pool, a negative deadline, or invalid backend
    /// parameters.
    pub fn new(specs: &[BackendSpec], cost: CostModel, deadline_us: f64) -> Self {
        Self::with_mode(specs, cost, deadline_us, SchedOptions::default(), true)
    }

    /// [`FabricScheduler::new`] with explicit adaptive-scheduling options
    /// (predictor policy, assumed routing cost model, class handling).
    /// Default options reproduce [`FabricScheduler::new`] byte-for-byte.
    ///
    /// # Panics
    /// As [`FabricScheduler::new`], plus invalid sched options.
    pub fn with_options(
        specs: &[BackendSpec],
        cost: CostModel,
        deadline_us: f64,
        options: SchedOptions,
    ) -> Self {
        Self::with_mode(specs, cost, deadline_us, options, true)
    }

    /// Builds a **charge-only** scheduler: admission and batch formation run
    /// exactly as in the virtual sim, but backends are charged via
    /// [`SolverBackend::charge_batch_us`] instead of solving, and formed
    /// batches accumulate for the caller to dispatch (the realtime
    /// service's control plane).
    pub(crate) fn new_charge_only(
        specs: &[BackendSpec],
        cost: CostModel,
        deadline_us: f64,
        options: SchedOptions,
    ) -> Self {
        Self::with_mode(specs, cost, deadline_us, options, false)
    }

    fn with_mode(
        specs: &[BackendSpec],
        cost: CostModel,
        deadline_us: f64,
        options: SchedOptions,
        solve: bool,
    ) -> Self {
        assert!(!specs.is_empty(), "FabricScheduler: empty backend pool");
        assert!(
            deadline_us >= 0.0,
            "FabricScheduler: deadline must be >= 0 (0 = everything falls back)"
        );
        expect_valid(options.validate());
        FabricScheduler {
            cost,
            route_cost: options.assumed_cost.unwrap_or(cost),
            deadline_us,
            predictor: options.policy.predictor(),
            options,
            backends: specs
                .iter()
                .map(|spec| BackendState {
                    backend: spec.build(),
                    queue: VecDeque::new(),
                    in_flight: Vec::new(),
                    free_at: 0.0,
                    busy_us: 0.0,
                    batches: 0,
                    batch_histogram: Vec::new(),
                    jobs_done: 0,
                })
                .collect(),
            fallbacks: 0,
            preemptions: 0,
            solve,
            trace: Vec::new(),
            formed: Vec::new(),
            evicted: Vec::new(),
            pred_events: Vec::new(),
            preempt_events: Vec::new(),
        }
    }

    /// The recorded routing decisions so far, indexed by admission order.
    pub(crate) fn trace(&self) -> &[Option<usize>] {
        &self.trace
    }

    /// Drains the batches formed since the last call (charge-only mode).
    pub(crate) fn take_formed(&mut self) -> Vec<FormedBatch> {
        std::mem::take(&mut self.formed)
    }

    /// Drains the job ids evicted by preempting admissions since the last
    /// call (charge-only mode): the realtime service routes them to its
    /// classical fallback worker.
    pub(crate) fn take_evicted(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.evicted)
    }

    /// Queued lower-class jobs evicted by preempting admissions so far.
    pub(crate) fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Mean absolute service-prediction error (µs) of the learned
    /// predictor; 0.0 under the static policy.
    pub(crate) fn prediction_mae_us(&self) -> f64 {
        self.predictor.mae_us()
    }

    /// Starts the next batch on backend `b_idx` at `start` (its queue must
    /// be non-empty and nothing in flight), feeds the completion back to
    /// the service predictor, and in charge-only mode records the formed
    /// batch for dispatch.
    fn start_and_learn(&mut self, b_idx: usize, start: f64, jobs: &[FabricJob]) {
        let head_vars = jobs[*self.backends[b_idx]
            .queue
            .front()
            .expect("start_and_learn: empty queue")]
        .num_vars();
        let correction = self.predictor.correction_q16(b_idx, head_vars);
        let (batch, service_us) =
            self.backends[b_idx].start_batch(start, &self.cost, jobs, self.solve);
        let quote =
            self.backends[b_idx].static_batch_quote_us(&self.route_cost, batch.len(), head_vars);
        self.predictor.observe(b_idx, head_vars, quote, service_us);
        if self.options.policy != crate::sched::SchedPolicy::Static {
            let err = (service_us - corrected_us(quote, correction)).abs();
            self.pred_events.push((start, err));
        }
        if !self.solve {
            self.formed.push(FormedBatch {
                backend: b_idx,
                jobs: batch,
            });
        }
    }

    /// Inserts `job_id` into backend `b_idx`'s queue in class-rank order
    /// (stable: equal ranks keep FIFO order, so the single-class default
    /// degenerates to the historical `push_back`).
    fn enqueue_ranked(&mut self, b_idx: usize, job_id: usize, jobs: &[FabricJob]) {
        let rank = jobs[job_id].class.rank();
        let state = &mut self.backends[b_idx];
        let pos = state
            .queue
            .iter()
            .position(|&id| jobs[id].class.rank() < rank)
            .unwrap_or(state.queue.len());
        state.queue.insert(pos, job_id);
    }

    /// The earliest in-flight batch completion, as `(time, backend index)`
    /// (ties break to the lowest index).
    fn next_completion(&self) -> Option<(f64, usize)> {
        self.backends
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.in_flight.is_empty())
            .map(|(i, b)| (b.free_at, i))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite times")
                    .then(a.1.cmp(&b.1))
            })
    }

    /// Completes backend `b_idx`'s in-flight batch at `t_c`, recording each
    /// job's outcome into `finished`, then starts the next batch from its
    /// queue when one is waiting.
    fn complete(
        &mut self,
        b_idx: usize,
        t_c: f64,
        jobs: &[FabricJob],
        finished: &mut [Option<JobFinish>],
    ) {
        let state = &mut self.backends[b_idx];
        for (job_id, decision) in std::mem::take(&mut state.in_flight) {
            if let Some(decision) = decision {
                let job = &jobs[job_id];
                finished[job_id] = Some(JobFinish {
                    latency_us: t_c - job.arrival_us,
                    ber: bit_error_rate(&job.inst.tx_gray_bits, &decision.gray_bits),
                    fallback: false,
                });
            }
            state.jobs_done += 1;
        }
        if !self.backends[b_idx].queue.is_empty() {
            self.start_and_learn(b_idx, t_c, jobs);
        }
    }

    /// Names of the pooled backends, in routing-index order (the realtime
    /// service labels its telemetry lanes with these).
    pub(crate) fn backend_names(&self) -> Vec<&'static str> {
        self.backends.iter().map(|b| b.backend.name()).collect()
    }

    /// Charge-mode driver: advances the virtual clock to `t`, completing
    /// every in-flight batch due at or before it (completions fire before
    /// the arrival sharing their timestamp, exactly as in [`run_fabric`]).
    pub(crate) fn advance_to(&mut self, t: f64, jobs: &[FabricJob]) {
        while let Some((t_c, b_idx)) = self.next_completion() {
            if t_c > t {
                break;
            }
            self.complete(b_idx, t_c, jobs, &mut []);
        }
    }

    /// Charge-mode admission of job `job_id` at `t_a`. Call
    /// [`Self::advance_to`] first so capacity freed by earlier completions
    /// is visible to the decision.
    pub(crate) fn admit_charged(&mut self, job_id: usize, t_a: f64, jobs: &[FabricJob]) {
        debug_assert!(!self.solve, "admit_charged on a solving scheduler");
        self.admit(job_id, t_a, jobs, None, &mut []);
    }

    /// Charge-mode drain after the last admission: completes every
    /// remaining in-flight batch so residual queued jobs form batches.
    pub(crate) fn drain(&mut self, jobs: &[FabricJob]) {
        while let Some((t_c, b_idx)) = self.next_completion() {
            self.complete(b_idx, t_c, jobs, &mut []);
        }
    }

    /// Admits job `job_id` arriving at `t_a`: routes it to the backend with
    /// the lowest predicted completion when that fits the job's
    /// class-effective deadline, or runs the local classical fallback
    /// immediately (recording its result into `finished`; charge-only mode
    /// skips the fallback solve, so `classical` is `None` there).
    ///
    /// A higher-class job whose best quote misses its deadline may
    /// **preempt**: evict the fewest queued lower-class jobs (never
    /// in-flight ones) that make some backend's quote fit. Victims are
    /// taken from the back of the rank-ordered queue — lowest class,
    /// newest first — and are downgraded to the classical fallback with
    /// their queueing delay charged honestly (`t_a − arrival` plus the
    /// classical service). When even maximal eviction cannot meet the
    /// deadline, nothing is evicted and the job itself falls back.
    fn admit(
        &mut self,
        job_id: usize,
        t_a: f64,
        jobs: &[FabricJob],
        classical: Option<&dyn Detector>,
        finished: &mut [Option<JobFinish>],
    ) {
        let job = &jobs[job_id];
        let n = job.num_vars();
        let eff_deadline_us = self.deadline_us * job.class.deadline_factor();
        let best = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    b.predicted_completion(
                        t_a,
                        &self.route_cost,
                        n,
                        self.predictor.correction_q16(i, n),
                        0,
                    ),
                    i,
                )
            })
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite predictions")
                    .then(a.1.cmp(&b.1))
            })
            .expect("backend pool is non-empty");
        if best.0 - t_a <= eff_deadline_us {
            self.trace.push(Some(best.1));
            self.enqueue_ranked(best.1, job_id, jobs);
            if self.backends[best.1].in_flight.is_empty() {
                self.start_and_learn(best.1, t_a, jobs);
            }
            return;
        }
        if job.class.rank() > 0 {
            if let Some((k, b_idx)) = self.preemption_plan(t_a, n, job.class, eff_deadline_us, jobs)
            {
                self.evict(b_idx, k, t_a, jobs, classical, finished);
                self.trace.push(Some(b_idx));
                self.enqueue_ranked(b_idx, job_id, jobs);
                if self.backends[b_idx].in_flight.is_empty() {
                    self.start_and_learn(b_idx, t_a, jobs);
                }
                return;
            }
        }
        // Admission control rejects: local classical fallback,
        // uncontended at the cell.
        self.trace.push(None);
        self.fallbacks += 1;
        if self.solve {
            let classical = classical.expect("solving scheduler needs a classical fallback");
            let result = classical.detect(&job.inst.system, &job.inst.h, &job.inst.y);
            finished[job_id] = Some(JobFinish {
                latency_us: self.cost.service_us(&result.meta),
                ber: bit_error_rate(&job.inst.tx_gray_bits, &result.gray_bits),
                fallback: true,
            });
        }
    }

    /// The cheapest eviction that makes some backend's quote fit
    /// `eff_deadline_us`: `(victims, backend)` minimizing victims, then
    /// quote, then backend index. `None` when no eviction plan meets the
    /// deadline.
    fn preemption_plan(
        &self,
        t_a: f64,
        n: usize,
        class: PriorityClass,
        eff_deadline_us: f64,
        jobs: &[FabricJob],
    ) -> Option<(usize, usize)> {
        let mut choice: Option<(usize, f64, usize)> = None;
        for (i, b) in self.backends.iter().enumerate() {
            let correction = self.predictor.correction_q16(i, n);
            let evictable = b
                .queue
                .iter()
                .filter(|&&id| jobs[id].class.rank() < class.rank())
                .count();
            for k in 1..=evictable {
                let quote = b.predicted_completion(t_a, &self.route_cost, n, correction, k);
                if quote - t_a <= eff_deadline_us {
                    let better = match choice {
                        None => true,
                        Some((ck, cq, _)) => k < ck || (k == ck && quote < cq),
                    };
                    if better {
                        choice = Some((k, quote, i));
                    }
                    break; // minimal k for this backend found
                }
            }
        }
        choice.map(|(k, _, i)| (k, i))
    }

    /// Evicts the `k` lowest-priority queued jobs of backend `b_idx` (from
    /// the back of its rank-ordered queue), rewriting their trace entries
    /// to the fallback and charging the classical downgrade honestly.
    fn evict(
        &mut self,
        b_idx: usize,
        k: usize,
        t_a: f64,
        jobs: &[FabricJob],
        classical: Option<&dyn Detector>,
        finished: &mut [Option<JobFinish>],
    ) {
        for _ in 0..k {
            let victim = self.backends[b_idx]
                .queue
                .pop_back()
                .expect("preemption_plan counted evictable jobs");
            self.trace[victim] = None;
            self.fallbacks += 1;
            self.preemptions += 1;
            if self.solve {
                let classical = classical.expect("solving scheduler needs a classical fallback");
                let v = &jobs[victim];
                let result = classical.detect(&v.inst.system, &v.inst.h, &v.inst.y);
                finished[victim] = Some(JobFinish {
                    // The victim waited in queue from arrival to the
                    // eviction instant, then ran the classical fallback.
                    latency_us: (t_a - v.arrival_us) + self.cost.service_us(&result.meta),
                    ber: bit_error_rate(&v.inst.tx_gray_bits, &result.gray_bits),
                    fallback: true,
                });
            } else {
                self.evicted.push(victim);
            }
        }
        self.preempt_events.push((t_a, self.preemptions));
    }
}

/// Runs one fabric simulation: a deterministic virtual-time event loop over
/// job arrivals and batch completions, driven by a [`FabricScheduler`].
///
/// # Panics
/// Panics on zero cells/frames, a non-positive arrival period, a negative
/// deadline, an empty backend pool, or invalid backend parameters (see
/// [`FabricConfig::validate`] for the non-panicking check).
pub fn run_fabric(config: &FabricConfig) -> FabricReport {
    run_fabric_traced(config).0
}

/// [`run_fabric`] plus the recorded [`RouteTrace`] — the oracle side of the
/// realtime service's replay contract: the trace a realtime run records
/// must equal the trace this simulation produces for the same config.
///
/// # Panics
/// As [`run_fabric`].
pub fn run_fabric_traced(config: &FabricConfig) -> (FabricReport, RouteTrace) {
    run_fabric_observed(config, None, 0)
}

/// [`run_fabric_traced`] with optional telemetry: when a collector is
/// given, the run emits virtual-time spans — one `"job"` span per frame on
/// its routed backend's lane (or the fallback lane), stamped with the
/// simulation's own µs clock under trace process `pid`.
///
/// Telemetry is emitted from the finished per-job outcomes *after* the
/// event loop, so the simulation itself is untouched: the report and trace
/// are byte-identical with and without a collector.
///
/// # Panics
/// As [`run_fabric`].
pub fn run_fabric_observed(
    config: &FabricConfig,
    telemetry: Option<&crate::telemetry::Collector>,
    pid: u32,
) -> (FabricReport, RouteTrace) {
    config.validate_or_panic();

    let jobs = generate_jobs(config);
    let classical = Mmse::new(config.track.noise_variance);
    let mut scheduler = FabricScheduler::with_options(
        &config.backends,
        config.cost,
        config.deadline_us,
        config.sched,
    );

    // Per-job outcomes; filled as jobs finish.
    let mut finished: Vec<Option<JobFinish>> = vec![None; jobs.len()];
    let mut next_arrival = 0usize;

    loop {
        let arrival_t = jobs.get(next_arrival).map(|j| j.arrival_us);
        match (scheduler.next_completion(), arrival_t) {
            (None, None) => break,
            // Completions fire first on ties so freed capacity is visible
            // to the arrival that shares its timestamp.
            (Some((t_c, b_idx)), arrival) if arrival.is_none_or(|t_a| t_c <= t_a) => {
                scheduler.complete(b_idx, t_c, &jobs, &mut finished);
            }
            (_, Some(t_a)) => {
                scheduler.admit(next_arrival, t_a, &jobs, Some(&classical), &mut finished);
                next_arrival += 1;
            }
            (Some(_), None) => unreachable!("guarded arm covers completions with no arrivals"),
        }
    }

    let trace = std::mem::take(&mut scheduler.trace);
    let preemptions = scheduler.preemptions();
    let prediction_mae_us = scheduler.prediction_mae_us();
    let pred_events = std::mem::take(&mut scheduler.pred_events);
    let preempt_events = std::mem::take(&mut scheduler.preempt_events);
    let backends = scheduler.backends;
    let fallbacks = scheduler.fallbacks;
    let per_job: Vec<JobFinish> = finished
        .into_iter()
        .map(|f| f.expect("every job finishes"))
        .collect();
    if let Some(collector) = telemetry {
        emit_virtual_spans(collector, pid, config, &jobs, &per_job, &trace, &backends);
        emit_sched_counters(collector, pid, &pred_events, &preempt_events);
    }
    let n = per_job.len() as f64;
    let makespan_us = jobs
        .iter()
        .zip(&per_job)
        .map(|(job, f)| job.arrival_us + f.latency_us)
        .fold(0.0, f64::max);
    // Sort once, then sum over the *sorted* order below — the committed
    // BENCH_fabric.json bytes depend on that float-summation order.
    let latencies = sorted_ascending(&per_job.iter().map(|f| f.latency_us).collect::<Vec<f64>>());
    let misses = latencies
        .iter()
        .filter(|&&l| l > config.deadline_us)
        .count();
    let served: Vec<f64> = per_job
        .iter()
        .filter(|f| !f.fallback)
        .map(|f| f.latency_us)
        .collect();
    let served_misses = served.iter().filter(|&&l| l > config.deadline_us).count();

    let mut classes = Vec::new();
    if !config.sched.classes.is_default() {
        for class in PriorityClass::ALL {
            let mut lat: Vec<f64> = jobs
                .iter()
                .zip(&per_job)
                .filter(|(job, _)| job.class == class)
                .map(|(_, f)| f.latency_us)
                .collect();
            if lat.is_empty() {
                continue;
            }
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let cutoff = config.deadline_us * class.deadline_factor();
            let mut hist = LogHistogram::new();
            for &l in &lat {
                hist.record(l);
            }
            classes.push(ClassReport {
                class,
                jobs: lat.len(),
                misses: lat.iter().filter(|&&l| l > cutoff).count(),
                mean_latency_us: lat.iter().sum::<f64>() / lat.len() as f64,
                p50_latency_us: hist.percentile(50.0),
                p99_latency_us: hist.percentile(99.0),
                hist,
            });
        }
    }

    let report = FabricReport {
        mix: String::new(), // filled by the grid runner
        n_cells: config.n_cells,
        arrival_period_us: config.arrival_period_us,
        jobs: jobs.len(),
        ber: per_job.iter().map(|f| f.ber).sum::<f64>() / n,
        deadline_miss_rate: misses as f64 / n,
        fallback_rate: fallbacks as f64 / n,
        served_miss_rate: served_misses as f64 / n,
        p50_latency_us: percentile_sorted(&latencies, 50.0),
        p99_latency_us: percentile_sorted(&latencies, 99.0),
        mean_latency_us: latencies.iter().sum::<f64>() / n,
        mean_served_latency_us: if served.is_empty() {
            0.0
        } else {
            served.iter().sum::<f64>() / served.len() as f64
        },
        backends: backends
            .iter()
            .map(|b| {
                let (hits, misses) = b.backend.embedding_cache_stats().unwrap_or((0, 0));
                BackendReport {
                    name: b.backend.name().to_string(),
                    jobs: b.jobs_done,
                    batches: b.batches,
                    utilization: if makespan_us > 0.0 {
                        b.busy_us / makespan_us
                    } else {
                        0.0
                    },
                    mean_batch: if b.batches > 0 {
                        b.jobs_done as f64 / b.batches as f64
                    } else {
                        0.0
                    },
                    mean_service_us: if b.jobs_done > 0 {
                        b.busy_us / b.jobs_done as f64
                    } else {
                        0.0
                    },
                    batch_histogram: b.batch_histogram.clone(),
                    embed_cache_hits: hits,
                    embed_cache_misses: misses,
                }
            })
            .collect(),
        preemptions,
        prediction_mae_us,
        classes,
    };
    (report, trace)
}

/// Emits the adaptive-scheduler counter series: one `"prediction_error"`
/// sample (absolute µs error of the static quote vs. the charged service)
/// per observed batch, and one cumulative `"preemptions"` sample per
/// eviction event. Both series are empty under the static policy /
/// default class mix, so telemetry output for legacy runs is unchanged.
fn emit_sched_counters(
    collector: &crate::telemetry::Collector,
    pid: u32,
    pred_events: &[(f64, f64)],
    preempt_events: &[(f64, u64)],
) {
    for &(ts_us, err_us) in pred_events {
        collector.push_counter(crate::telemetry::CounterSample {
            pid,
            name: "prediction_error",
            ts_us,
            values: vec![("abs_err_us".to_string(), err_us)],
        });
    }
    for &(ts_us, total) in preempt_events {
        collector.push_counter(crate::telemetry::CounterSample {
            pid,
            name: "preemptions",
            ts_us,
            values: vec![("total".to_string(), total as f64)],
        });
    }
}

/// Emits the virtual-time span set for one finished fabric run: a lane per
/// backend (tid `2+b`) plus the classical-fallback lane (tid 1), with one
/// `"job"` span per frame at its virtual arrival/latency coordinates.
fn emit_virtual_spans(
    collector: &crate::telemetry::Collector,
    pid: u32,
    config: &FabricConfig,
    jobs: &[FabricJob],
    per_job: &[JobFinish],
    trace: &RouteTrace,
    backends: &[BackendState],
) {
    collector.label_process(
        pid,
        &format!(
            "fabric cells={} period={}us",
            config.n_cells, config.arrival_period_us
        ),
    );
    let mut fallback_rec = collector.recorder(pid, 1, "fallback-mmse");
    let mut lanes: Vec<_> = backends
        .iter()
        .enumerate()
        .map(|(b, state)| collector.recorder(pid, 2 + b as u32, state.backend.name()))
        .collect();
    for (j, finish) in per_job.iter().enumerate() {
        let name = format!("cell{}", jobs[j].cell);
        let rec = match trace[j] {
            Some(b) => &mut lanes[b],
            None => &mut fallback_rec,
        };
        rec.span_at(
            "job",
            &name,
            Some(j as u64),
            jobs[j].arrival_us,
            finish.latency_us,
        );
    }
}

// ---------------------------------------------------------------------------
// The grid
// ---------------------------------------------------------------------------

/// Configuration of a full (backend-mix × cells × load) fabric sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricGridConfig {
    /// Channel process shared by every cell.
    pub track: TrackConfig,
    /// Frames per cell.
    pub frames_per_cell: usize,
    /// Cell counts to sweep (the new scenario axis).
    pub cell_counts: Vec<usize>,
    /// Per-cell arrival periods to sweep (µs), **descending** so "later in
    /// the list" means "higher offered load".
    pub arrival_periods_us: Vec<f64>,
    /// Backend mixes to sweep.
    pub mixes: Vec<BackendMix>,
    /// Arrival process shaping per-cell inter-arrival gaps (default
    /// periodic, the original fabric load).
    pub arrival: ArrivalProcess,
    /// Execution mode: the virtual-time sim or the wall-clock realtime
    /// service (`hqw-core::fabric_rt`). The routing decisions must agree.
    pub mode: FabricMode,
    /// Latency budget shared by every point (µs).
    pub deadline_us: f64,
    /// Work-counter → service-time model.
    pub cost: CostModel,
    /// Adaptive-scheduling options shared by every point (default: static
    /// routing, all-eMBB class mix — the legacy behaviour).
    pub sched: SchedOptions,
    /// Grid seed. Point seeds derive from it and the **cell-count index**
    /// only, so points differing in load or mix see identical frames.
    pub seed: u64,
    /// Worker threads for the point fan-out (0 = all available cores).
    /// Results are bit-identical for any value.
    pub threads: usize,
}

impl FabricGridConfig {
    /// Starts a builder with default deadline (700 µs) and cost model; the
    /// load axis and mix axis must be set before `build()`.
    pub fn builder(track: TrackConfig) -> FabricGridConfigBuilder {
        FabricGridConfigBuilder {
            config: FabricGridConfig {
                track,
                frames_per_cell: 64,
                cell_counts: vec![1],
                arrival_periods_us: Vec::new(),
                mixes: Vec::new(),
                arrival: ArrivalProcess::Periodic,
                mode: FabricMode::Virtual,
                deadline_us: 700.0,
                cost: CostModel::default(),
                sched: SchedOptions::default(),
                seed: 0,
                threads: 0,
            },
        }
    }

    /// Validates the grid configuration (axes plus every per-point
    /// parameter).
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "FabricGridConfig";
        if self.mixes.is_empty() {
            return Err(SpecError::new(ctx, "empty mix axis"));
        }
        if self.cell_counts.is_empty() {
            return Err(SpecError::new(ctx, "empty cells axis"));
        }
        if self.arrival_periods_us.is_empty() {
            return Err(SpecError::new(ctx, "empty load axis"));
        }
        if let Some(bad) = self
            .arrival_periods_us
            .iter()
            .find(|p| !(p.is_finite() && **p > 0.0))
        {
            return Err(SpecError::new(ctx, format!("arrival period {bad} not > 0")));
        }
        if self.cell_counts.contains(&0) {
            return Err(SpecError::new(ctx, "cell counts must be >= 1"));
        }
        if let FabricMode::Realtime(rt) = &self.mode {
            rt.validate().map_err(|msg| SpecError::new(ctx, msg))?;
        }
        for mix in &self.mixes {
            // Every point of this mix shares the remaining parameters;
            // validate once per mix through a representative point.
            FabricConfig {
                track: self.track,
                n_cells: self.cell_counts[0],
                frames_per_cell: self.frames_per_cell,
                arrival_period_us: self.arrival_periods_us[0],
                arrival: self.arrival,
                deadline_us: self.deadline_us,
                cost: self.cost,
                backends: mix.backends.clone(),
                sched: self.sched,
                seed: self.seed,
            }
            .validate()?;
        }
        Ok(())
    }

    /// Shim for callers that still want the original panicking behaviour.
    /// Deprecated in spirit: new code should propagate
    /// [`FabricGridConfig::validate`] errors instead.
    ///
    /// # Panics
    /// Panics with the [`FabricGridConfig::validate`] message on any
    /// invalid field.
    pub fn validate_or_panic(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// Builder for [`FabricGridConfig`] — the validated construction path the
/// spec layer and examples use (`build()` runs
/// [`FabricGridConfig::validate`]).
#[derive(Debug, Clone)]
pub struct FabricGridConfigBuilder {
    config: FabricGridConfig,
}

impl FabricGridConfigBuilder {
    /// Sets the frames streamed per cell (default 64).
    pub fn frames_per_cell(mut self, frames: usize) -> Self {
        self.config.frames_per_cell = frames;
        self
    }

    /// Sets the cell-count axis (default `[1]`).
    pub fn cell_counts(mut self, cell_counts: Vec<usize>) -> Self {
        self.config.cell_counts = cell_counts;
        self
    }

    /// Sets the load axis: per-cell arrival periods in µs, **descending**
    /// so "later in the list" means "higher offered load". Required.
    pub fn arrival_periods_us(mut self, periods: Vec<f64>) -> Self {
        self.config.arrival_periods_us = periods;
        self
    }

    /// Sets the backend-mix axis. Required.
    pub fn mixes(mut self, mixes: Vec<BackendMix>) -> Self {
        self.config.mixes = mixes;
        self
    }

    /// Sets the arrival process (default [`ArrivalProcess::Periodic`]).
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.config.arrival = arrival;
        self
    }

    /// Sets the execution mode (default [`FabricMode::Virtual`]).
    pub fn mode(mut self, mode: FabricMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets the per-frame latency budget in µs (default 700).
    pub fn deadline_us(mut self, deadline_us: f64) -> Self {
        self.config.deadline_us = deadline_us;
        self
    }

    /// Sets the work-counter → service-time model (default
    /// [`CostModel::default`]).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.config.cost = cost;
        self
    }

    /// Sets the adaptive-scheduling options (default static routing with
    /// the all-eMBB class mix — the legacy behaviour).
    pub fn sched(mut self, sched: SchedOptions) -> Self {
        self.config.sched = sched;
        self
    }

    /// Sets the grid seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker-thread count (default 0 = all cores; results are
    /// bit-identical for any value).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// Returns the first [`FabricGridConfig::validate`] violation.
    pub fn build(self) -> Result<FabricGridConfig, SpecError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A full fabric-sweep report: the config echo plus one report per grid
/// point, in (mix, cells, load) order.
#[derive(Debug, Clone)]
pub struct FabricGridReport {
    /// Number of transmitting users per cell.
    pub n_users: usize,
    /// Number of receive antennas per cell.
    pub n_rx: usize,
    /// Modulation name.
    pub modulation: String,
    /// AWGN per-antenna variance.
    pub noise_variance: f64,
    /// Frames per cell.
    pub frames_per_cell: usize,
    /// Latency budget (µs).
    pub deadline_us: f64,
    /// Grid seed.
    pub seed: u64,
    /// Per-point reports: mix-major, then cell count, then load.
    pub points: Vec<FabricReport>,
}

impl FabricGridConfig {
    /// Point `id`'s mix name and configuration, in (mix, cells, load)
    /// order. Shared with the realtime service so both modes run
    /// byte-identical point configurations.
    pub(crate) fn point(&self, id: usize) -> (&str, FabricConfig) {
        let loads = self.arrival_periods_us.len();
        let cells_n = self.cell_counts.len();
        let mix = &self.mixes[id / (cells_n * loads)];
        let cells_idx = (id / loads) % cells_n;
        let point = FabricConfig {
            track: self.track,
            n_cells: self.cell_counts[cells_idx],
            frames_per_cell: self.frames_per_cell,
            arrival_period_us: self.arrival_periods_us[id % loads],
            arrival: self.arrival,
            deadline_us: self.deadline_us,
            cost: self.cost,
            backends: mix.backends.clone(),
            sched: self.sched,
            // Cell-count-indexed only: same frames across loads and mixes.
            seed: item_seed(self.seed, cells_idx),
        };
        (&mix.name, point)
    }
}

/// A (label, cells, load) grid point's coordinates as the fabric and sched
/// record decoders compare them.
pub(crate) fn render_coordinates(label: &str, n_cells: usize, arrival_period_us: f64) -> String {
    format!("{label}, {n_cells} cells, period {arrival_period_us}")
}

/// Runs the full (mix × cells × load) grid, fanning points out across
/// `config.threads` workers. See the module docs for the determinism
/// contract. Always runs the virtual-time sim regardless of `config.mode`
/// — this is what makes it the replay oracle for realtime configs.
///
/// # Panics
/// Panics on an empty mix/cells/load axis or invalid point parameters (see
/// [`FabricGridConfig::validate`] for the non-panicking check).
pub fn run_fabric_grid(config: &FabricGridConfig) -> FabricGridReport {
    run_grid(config, None)
}

/// The fabric grid is the `fabric` family's [`GridEngine`]: point `id` is
/// one (mix, cells, load) point of the mix-major grid, always run on the
/// virtual-time sim. Point seeds depend only on the grid seed and the
/// point's cell-count index, so a point's report is byte-identical whether
/// it runs alone or as part of the full grid. Telemetry emits each point's
/// virtual-time spans; the report is byte-identical with and without it.
impl GridEngine for FabricGridConfig {
    type Unit = FabricReport;
    type Point = FabricReport;
    type Report = FabricGridReport;

    fn validate(&self) -> Result<(), SpecError> {
        FabricGridConfig::validate(self)
    }

    fn grid_len(&self) -> usize {
        self.mixes.len() * self.cell_counts.len() * self.arrival_periods_us.len()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn run_unit(
        &self,
        id: usize,
        _: usize,
        telemetry: Option<&Collector>,
        pid: u32,
    ) -> FabricReport {
        let (mix, point) = self.point(id);
        let (mut report, _) = run_fabric_observed(&point, telemetry, pid);
        report.mix = mix.to_string();
        report
    }

    fn reduce(&self, _: usize, mut units: Vec<FabricReport>) -> FabricReport {
        units.pop().expect("one unit per fabric point")
    }

    fn encode(&self, point: &FabricReport) -> String {
        point.to_json_object()
    }

    fn decode(&self, id: usize, doc: &Json, ctx: &str) -> Result<FabricReport, SpecError> {
        let point = FabricReport::from_json(doc, ctx)?;
        let (mix, want) = self.point(id);
        check_coordinates(
            ctx,
            render_coordinates(&point.mix, point.n_cells, point.arrival_period_us),
            render_coordinates(mix, want.n_cells, want.arrival_period_us),
        )?;
        Ok(point)
    }

    fn assemble(&self, points: Vec<FabricReport>) -> Result<FabricGridReport, SpecError> {
        Ok(FabricGridReport {
            n_users: self.track.n_users,
            n_rx: self.track.n_rx,
            modulation: self.track.modulation.name().to_string(),
            noise_variance: self.track.noise_variance,
            frames_per_cell: self.frames_per_cell,
            deadline_us: self.deadline_us,
            seed: self.seed,
            points,
        })
    }
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

impl BackendReport {
    /// Parses a [`BackendReport::to_json_object`] document back. Exact:
    /// the float codec round-trips shortest-`Display` renderings
    /// losslessly.
    fn from_json(o: &Json, ctx: &str) -> Result<BackendReport, SpecError> {
        check_keys(
            o,
            &[
                "name",
                "jobs",
                "batches",
                "utilization",
                "mean_batch",
                "mean_service_us",
                "batch_histogram",
                "embed_cache_hits",
                "embed_cache_misses",
            ],
            ctx,
        )?;
        let batch_histogram = req(o, "batch_histogram", ctx)?
            .as_arr()
            .ok_or_else(|| {
                SpecError::new(
                    ctx.to_string(),
                    "field \"batch_histogram\" must be an array",
                )
            })?
            .iter()
            .map(|v| {
                v.as_u64().ok_or_else(|| {
                    SpecError::new(
                        ctx.to_string(),
                        "field \"batch_histogram\" must contain only unsigned integers",
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BackendReport {
            name: req_str(o, "name", ctx)?.to_string(),
            jobs: req_usize(o, "jobs", ctx)?,
            batches: req_u64(o, "batches", ctx)?,
            utilization: req_ratio(o, "utilization", ctx)?,
            mean_batch: req_f64(o, "mean_batch", ctx)?,
            mean_service_us: req_us(o, "mean_service_us", ctx)?,
            batch_histogram,
            embed_cache_hits: req_u64(o, "embed_cache_hits", ctx)?,
            embed_cache_misses: req_u64(o, "embed_cache_misses", ctx)?,
        })
    }

    fn to_json_object(&self) -> String {
        let histogram = self
            .batch_histogram
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"name\": \"{}\", \"jobs\": {}, \"batches\": {}, \
             \"utilization\": {}, \"mean_batch\": {}, \
             \"mean_service_us\": {}, \"batch_histogram\": [{}], \
             \"embed_cache_hits\": {}, \"embed_cache_misses\": {}}}",
            self.name,
            self.jobs,
            self.batches,
            json_num(self.utilization),
            json_num(self.mean_batch),
            json_num(self.mean_service_us),
            histogram,
            self.embed_cache_hits,
            self.embed_cache_misses,
        )
    }
}

impl FabricReport {
    /// Parses a [`FabricReport::to_json_object`] document back. Exact: the
    /// float codec round-trips shortest-`Display` renderings losslessly.
    pub(crate) fn from_json(o: &Json, ctx: &str) -> Result<FabricReport, SpecError> {
        check_keys(
            o,
            &[
                "mix",
                "n_cells",
                "arrival_period_us",
                "jobs",
                "ber",
                "deadline_miss_rate",
                "fallback_rate",
                "served_miss_rate",
                "p50_latency_us",
                "p99_latency_us",
                "mean_latency_us",
                "mean_served_latency_us",
                "backends",
                "preemptions",
                "prediction_mae_us",
                "classes",
            ],
            ctx,
        )?;
        let backends = req(o, "backends", ctx)?
            .as_arr()
            .ok_or_else(|| SpecError::new(ctx.to_string(), "field \"backends\" must be an array"))?
            .iter()
            .enumerate()
            .map(|(i, b)| BackendReport::from_json(b, &format!("{ctx}.backends[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        // Scheduling fields are serialized only when non-default, so legacy
        // documents (and static-policy points) parse without them.
        let preemptions = match o.get("preemptions") {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| SpecError::new(ctx.to_string(), "\"preemptions\" must be a u64"))?,
            None => 0,
        };
        let prediction_mae_us = match o.get("prediction_mae_us") {
            Some(_) => req_us(o, "prediction_mae_us", ctx)?,
            None => 0.0,
        };
        let classes = match o.get("classes") {
            Some(v) => v
                .as_arr()
                .ok_or_else(|| {
                    SpecError::new(ctx.to_string(), "field \"classes\" must be an array")
                })?
                .iter()
                .map(ClassReport::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(FabricReport {
            mix: req_str(o, "mix", ctx)?.to_string(),
            n_cells: req_usize(o, "n_cells", ctx)?,
            arrival_period_us: req_f64(o, "arrival_period_us", ctx)?,
            jobs: req_usize(o, "jobs", ctx)?,
            ber: req_ratio(o, "ber", ctx)?,
            deadline_miss_rate: req_ratio(o, "deadline_miss_rate", ctx)?,
            fallback_rate: req_ratio(o, "fallback_rate", ctx)?,
            served_miss_rate: req_ratio(o, "served_miss_rate", ctx)?,
            p50_latency_us: req_us(o, "p50_latency_us", ctx)?,
            p99_latency_us: req_us(o, "p99_latency_us", ctx)?,
            mean_latency_us: req_us(o, "mean_latency_us", ctx)?,
            mean_served_latency_us: req_us(o, "mean_served_latency_us", ctx)?,
            backends,
            preemptions,
            prediction_mae_us,
            classes,
        })
    }

    /// Renders one grid point as a JSON object — one entry of the report's
    /// `points` array and the `point` field of a shard/checkpoint record.
    pub fn to_json_object(&self) -> String {
        let backends = self
            .backends
            .iter()
            .map(|b| b.to_json_object())
            .collect::<Vec<_>>()
            .join(", ");
        // The scheduling fields trail the legacy layout and render only
        // when non-default, keeping committed static-policy documents
        // byte-identical.
        let mut sched = String::new();
        if self.preemptions > 0 {
            sched.push_str(&format!(", \"preemptions\": {}", self.preemptions));
        }
        if self.prediction_mae_us != 0.0 {
            sched.push_str(&format!(
                ", \"prediction_mae_us\": {}",
                json_num(self.prediction_mae_us)
            ));
        }
        if !self.classes.is_empty() {
            let classes = self
                .classes
                .iter()
                .map(|c| c.to_json().to_string_compact())
                .collect::<Vec<_>>()
                .join(", ");
            sched.push_str(&format!(", \"classes\": [{classes}]"));
        }
        format!(
            "{{\"mix\": \"{}\", \"n_cells\": {}, \"arrival_period_us\": {}, \
             \"jobs\": {}, \"ber\": {}, \"deadline_miss_rate\": {}, \
             \"fallback_rate\": {}, \"served_miss_rate\": {}, \
             \"p50_latency_us\": {}, \
             \"p99_latency_us\": {}, \"mean_latency_us\": {}, \
             \"mean_served_latency_us\": {}, \"backends\": [{}]{}}}",
            self.mix,
            self.n_cells,
            json_num(self.arrival_period_us),
            self.jobs,
            json_num(self.ber),
            json_num(self.deadline_miss_rate),
            json_num(self.fallback_rate),
            json_num(self.served_miss_rate),
            json_num(self.p50_latency_us),
            json_num(self.p99_latency_us),
            json_num(self.mean_latency_us),
            json_num(self.mean_served_latency_us),
            backends,
            sched,
        )
    }
}

impl FabricGridReport {
    /// Renders the report as the `BENCH_fabric.json` document (schema in
    /// `crates/bench/README.md`). Pure function of the report contents:
    /// byte-identical across runs and thread counts.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"fabric\",\n  \"scenario\": {\n");
        s.push_str(&format!("    \"n_users\": {},\n", self.n_users));
        s.push_str(&format!("    \"n_rx\": {},\n", self.n_rx));
        s.push_str(&format!("    \"modulation\": \"{}\",\n", self.modulation));
        s.push_str(&format!(
            "    \"noise_variance\": {},\n",
            json_num(self.noise_variance)
        ));
        s.push_str(&format!(
            "    \"frames_per_cell\": {},\n",
            self.frames_per_cell
        ));
        s.push_str(&format!(
            "    \"deadline_us\": {},\n",
            json_num(self.deadline_us)
        ));
        s.push_str(&format!("    \"seed\": {}\n  }},\n", self.seed));
        s.push_str("  \"points\": [\n");
        for (i, point) in self.points.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&point.to_json_object());
            s.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl crate::report::Report for FabricGridReport {
    fn name(&self) -> &'static str {
        "fabric"
    }

    fn schema_version(&self) -> u32 {
        1
    }

    fn to_json(&self) -> String {
        // Delegates to the inherent renderer (the committed-bytes contract
        // lives there).
        FabricGridReport::to_json(self)
    }

    fn table(&self) -> crate::report::Table {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&[
            "mix",
            "cells",
            "period_us",
            "ber",
            "miss_rate",
            "fallback",
            "p50_us",
            "p99_us",
            "served_us",
            "util_max",
            "mean_batch",
        ]);
        for p in &self.points {
            let util_max = p.backends.iter().map(|b| b.utilization).fold(0.0, f64::max);
            let mean_batch = p.backends.iter().map(|b| b.mean_batch).fold(0.0, f64::max);
            table.push_row(vec![
                p.mix.clone(),
                p.n_cells.to_string(),
                fnum(p.arrival_period_us, 0),
                fnum(p.ber, 5),
                fnum(p.deadline_miss_rate, 4),
                fnum(p.fallback_rate, 4),
                fnum(p.p50_latency_us, 1),
                fnum(p.p99_latency_us, 1),
                fnum(p.mean_served_latency_us, 1),
                fnum(util_max, 3),
                fnum(mean_batch, 2),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{ClassMix, SchedPolicy};
    use crate::stream::{run_stream, DispatchPolicy, StreamConfig};
    use hqw_phy::channel::snr_db_to_noise_variance;
    use hqw_phy::modulation::Modulation;

    /// A named field mutation for the validate() rejection-path tests.
    type Mutation<T> = (&'static str, Box<dyn Fn(&mut T)>);

    fn track() -> TrackConfig {
        TrackConfig {
            n_users: 2,
            n_rx: 2,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(14.0, 2),
        }
    }

    fn quick_sa_pool() -> BackendSpec {
        BackendSpec::SaPool(SaPoolConfig {
            workers: 2,
            max_batch: 4,
            sa: SaParams {
                sweeps: 32,
                num_reads: 2,
                threads: 1,
                ..SaParams::default()
            },
        })
    }

    fn quick_annealer() -> AnnealerConfig {
        AnnealerConfig {
            num_reads: 2,
            anneal_us: 2.0,
            sweeps_per_us: 4,
            capacity: 1,
            max_batch: 4,
        }
    }

    fn quick_qpu(max_batch: usize) -> BackendSpec {
        BackendSpec::MockQpu(MockQpuConfig {
            num_reads: 2,
            anneal_us: 2.0,
            sweeps_per_us: 4,
            trotter_slices: 4,
            max_batch,
            network: NetworkModel {
                rtt_base_us: 30.0,
                jitter_us: 10.0,
            },
            programming_us: 120.0,
            embed_derive_us_per_qubit: 2.0,
            chain_strength: 2.0,
        })
    }

    fn hetero_pool() -> Vec<BackendSpec> {
        vec![
            quick_sa_pool(),
            BackendSpec::Pimc(quick_annealer()),
            BackendSpec::Svmc(quick_annealer()),
            quick_qpu(4),
        ]
    }

    fn fabric(
        n_cells: usize,
        period: f64,
        deadline: f64,
        backends: Vec<BackendSpec>,
    ) -> FabricConfig {
        FabricConfig {
            track: track(),
            n_cells,
            frames_per_cell: 16,
            arrival_period_us: period,
            arrival: ArrivalProcess::Periodic,
            deadline_us: deadline,
            cost: CostModel::default(),
            backends,
            sched: SchedOptions::default(),
            seed: 42,
        }
    }

    #[test]
    fn fabric_is_deterministic_per_seed() {
        let config = fabric(2, 150.0, 600.0, hetero_pool());
        let a = run_fabric(&config);
        let b = run_fabric(&config);
        assert_eq!(a.to_json_object(), b.to_json_object());
    }

    #[test]
    fn every_job_is_served_and_metrics_are_sane() {
        let config = fabric(3, 120.0, 500.0, hetero_pool());
        let report = run_fabric(&config);
        assert_eq!(report.jobs, 3 * 16);
        let backend_jobs: usize = report.backends.iter().map(|b| b.jobs).sum();
        let fallback_jobs = (report.fallback_rate * report.jobs as f64).round() as usize;
        assert_eq!(backend_jobs + fallback_jobs, report.jobs);
        assert!((0.0..=1.0).contains(&report.ber));
        assert!((0.0..=1.0).contains(&report.deadline_miss_rate));
        assert!((0.0..=1.0).contains(&report.fallback_rate));
        assert!(report.p99_latency_us >= report.p50_latency_us);
        assert!(report.p50_latency_us > 0.0);
        for b in &report.backends {
            assert!(
                (0.0..=1.0).contains(&b.utilization),
                "{}: utilization {}",
                b.name,
                b.utilization
            );
            let hist_jobs: u64 = b
                .batch_histogram
                .iter()
                .enumerate()
                .map(|(i, &c)| (i as u64 + 1) * c)
                .sum();
            assert_eq!(hist_jobs as usize, b.jobs, "{}: histogram mismatch", b.name);
        }
    }

    #[test]
    fn batches_form_under_load_and_amortize_qpu_overhead() {
        // One QPU, load well beyond its single-job service rate: queued jobs
        // must coalesce, and the batched fabric must beat the unbatched one
        // on mean latency over the *same* frames.
        let batched = run_fabric(&fabric(4, 100.0, 1e9, vec![quick_qpu(8)]));
        let unbatched = run_fabric(&fabric(4, 100.0, 1e9, vec![quick_qpu(1)]));
        assert_eq!(batched.jobs, unbatched.jobs);
        assert_eq!(batched.fallback_rate, 0.0);
        assert_eq!(unbatched.fallback_rate, 0.0);
        let qpu = &batched.backends[0];
        assert!(qpu.mean_batch > 1.0, "no batching: {}", qpu.mean_batch);
        assert_eq!(unbatched.backends[0].mean_batch, 1.0);
        assert!(
            batched.mean_latency_us < unbatched.mean_latency_us,
            "batched {} vs unbatched {}",
            batched.mean_latency_us,
            unbatched.mean_latency_us
        );
        // No fallbacks here, so the served mean is the all-jobs mean.
        assert_eq!(
            batched.mean_latency_us.to_bits(),
            batched.mean_served_latency_us.to_bits()
        );
        // The amortization metric: charged service per job strictly drops
        // when overhead is shared across a batch.
        assert!(
            qpu.mean_service_us < unbatched.backends[0].mean_service_us,
            "batched {} us/job vs unbatched {} us/job",
            qpu.mean_service_us,
            unbatched.backends[0].mean_service_us
        );
    }

    #[test]
    fn decisions_are_stable_under_batching_and_load() {
        // Per-job solver seeds make decisions independent of batch
        // composition: BER is identical across batching modes and loads,
        // for the mock QPU and the SA pool alike — the paired-comparison
        // property the grid's load axis relies on.
        let a = run_fabric(&fabric(2, 100.0, 1e9, vec![quick_qpu(8)]));
        let b = run_fabric(&fabric(2, 100.0, 1e9, vec![quick_qpu(1)]));
        let c = run_fabric(&fabric(2, 400.0, 1e9, vec![quick_qpu(8)]));
        assert_eq!(a.ber.to_bits(), b.ber.to_bits());
        assert_eq!(a.ber.to_bits(), c.ber.to_bits());

        let sa_pool = |max_batch: usize| {
            BackendSpec::SaPool(SaPoolConfig {
                workers: 1,
                max_batch,
                sa: SaParams {
                    sweeps: 24,
                    num_reads: 2,
                    threads: 1,
                    ..SaParams::default()
                },
            })
        };
        let d = run_fabric(&fabric(2, 100.0, 1e9, vec![sa_pool(6)]));
        let e = run_fabric(&fabric(2, 100.0, 1e9, vec![sa_pool(1)]));
        let f = run_fabric(&fabric(2, 400.0, 1e9, vec![sa_pool(6)]));
        assert!(d.backends[0].mean_batch > 1.0, "SA pool never batched");
        assert_eq!(d.ber.to_bits(), e.ber.to_bits());
        assert_eq!(d.ber.to_bits(), f.ber.to_bits());
    }

    #[test]
    fn embedding_cache_derives_once_per_shape() {
        let report = run_fabric(&fabric(2, 80.0, 1e9, vec![quick_qpu(4)]));
        let qpu = &report.backends[0];
        assert!(
            qpu.batches > 1,
            "need several batches to exercise the cache"
        );
        assert_eq!(qpu.embed_cache_misses, 1, "one shape, one derivation");
        assert_eq!(
            qpu.embed_cache_hits + qpu.embed_cache_misses,
            qpu.batches,
            "one cache lookup per batch call"
        );
    }

    #[test]
    fn zero_deadline_downgrades_everything_to_classical() {
        let report = run_fabric(&fabric(2, 100.0, 0.0, hetero_pool()));
        assert_eq!(report.fallback_rate, 1.0);
        assert_eq!(report.deadline_miss_rate, 1.0, "classical still misses 0");
        assert_eq!(report.served_miss_rate, 0.0, "no fabric-served jobs");
        for b in &report.backends {
            assert_eq!(b.jobs, 0);
            assert_eq!(b.utilization, 0.0);
        }
        // The classical fallback still detects: moderate BER at 14 dB.
        assert!(report.ber < 0.2, "fallback BER {}", report.ber);
    }

    #[test]
    fn single_sa_backend_degenerates_to_the_stream_engine_queue() {
        // One cell, one unbatched single-worker SA backend, one read per
        // job: the fabric is exactly the stream engine's single-server FIFO
        // (start = max(arrival, prev_finish)) with the same nominal service
        // times, so the latency metrics must agree bit for bit.
        let sa = SaParams {
            sweeps: 48,
            num_reads: 1,
            threads: 1,
            ..SaParams::default()
        };
        let seed = 42u64;
        let period = 80.0; // below the ~82 µs nominal service: queueing grows
        let deadline = 1e9;
        let fabric_report = run_fabric(&FabricConfig {
            track: track(),
            n_cells: 1,
            frames_per_cell: 32,
            arrival_period_us: period,
            arrival: ArrivalProcess::Periodic,
            deadline_us: deadline,
            cost: CostModel::default(),
            backends: vec![BackendSpec::SaPool(SaPoolConfig {
                workers: 1,
                max_batch: 1,
                sa,
            })],
            sched: SchedOptions::default(),
            seed,
        });
        // The fabric's cell-0 track seed, per ChannelTrack::cells.
        let cell0_seed = Rng64::new(seed ^ 0xCE11_5EED).next_u64();
        let stream_report = run_stream(
            &StreamConfig {
                track: track(),
                frames: 32,
                arrival_period_us: period,
                deadline_us: deadline,
                policy: DispatchPolicy::AlwaysHybrid,
                cost: CostModel::default(),
                sa,
                seed: cell0_seed,
            },
            &Mmse::new(track().noise_variance),
        );
        assert_eq!(fabric_report.fallback_rate, 0.0);
        assert_eq!(
            fabric_report.p50_latency_us.to_bits(),
            stream_report.p50_latency_us.to_bits()
        );
        assert_eq!(
            fabric_report.p99_latency_us.to_bits(),
            stream_report.p99_latency_us.to_bits()
        );
        assert_eq!(
            fabric_report.deadline_miss_rate,
            stream_report.deadline_miss_rate
        );
    }

    fn quick_grid(threads: usize) -> FabricGridConfig {
        FabricGridConfig {
            track: track(),
            frames_per_cell: 10,
            cell_counts: vec![1, 2],
            arrival_periods_us: vec![300.0, 120.0],
            mixes: vec![
                BackendMix {
                    name: "sa-pool".into(),
                    backends: vec![quick_sa_pool()],
                },
                BackendMix {
                    name: "hetero".into(),
                    backends: hetero_pool(),
                },
            ],
            arrival: ArrivalProcess::Periodic,
            mode: FabricMode::Virtual,
            deadline_us: 600.0,
            cost: CostModel::default(),
            sched: SchedOptions::default(),
            seed: 7,
            threads,
        }
    }

    #[test]
    fn grid_report_is_bit_identical_for_any_thread_count() {
        let serial = run_fabric_grid(&quick_grid(1)).to_json();
        for threads in [2, 0] {
            let parallel = run_fabric_grid(&quick_grid(threads)).to_json();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn grid_covers_every_point_in_mix_major_order() {
        let report = run_fabric_grid(&quick_grid(0));
        assert_eq!(report.points.len(), 2 * 2 * 2);
        assert_eq!(report.points[0].mix, "sa-pool");
        assert_eq!(report.points[4].mix, "hetero");
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"fabric\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"mix\"").count(), report.points.len());
    }

    #[test]
    #[should_panic(expected = "empty backend pool")]
    fn empty_pool_rejected() {
        run_fabric(&fabric(1, 100.0, 100.0, Vec::new()));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let mut config = fabric(1, 100.0, 100.0, hetero_pool());
        config.frames_per_cell = 0;
        run_fabric(&config);
    }

    #[test]
    fn point_validate_rejects_each_bad_field_with_a_message() {
        let cases: [Mutation<FabricConfig>; 7] = [
            ("need at least one cell", Box::new(|c| c.n_cells = 0)),
            (
                "need at least one frame per cell",
                Box::new(|c| c.frames_per_cell = 0),
            ),
            (
                "arrival period must be > 0",
                Box::new(|c| c.arrival_period_us = -5.0),
            ),
            ("deadline must be >= 0", Box::new(|c| c.deadline_us = -1.0)),
            ("empty backend pool", Box::new(|c| c.backends.clear())),
            (
                "track needs at least one user",
                Box::new(|c| c.track.n_users = 0),
            ),
            (
                "SaPoolConfig: need >= 1 worker",
                Box::new(|c| {
                    c.backends = vec![BackendSpec::SaPool(SaPoolConfig {
                        workers: 0,
                        max_batch: 1,
                        sa: SaParams::default(),
                    })]
                }),
            ),
        ];
        for (needle, mutate) in cases {
            let mut config = fabric(1, 100.0, 100.0, hetero_pool());
            mutate(&mut config);
            let err = config.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err} missing {needle}");
            assert_eq!(err.context(), "FabricConfig");
        }
        assert_eq!(fabric(1, 100.0, 100.0, hetero_pool()).validate(), Ok(()));
    }

    #[test]
    fn backend_spec_validate_covers_every_variant() {
        assert_eq!(quick_sa_pool().validate(), Ok(()));
        assert_eq!(BackendSpec::Pimc(quick_annealer()).validate(), Ok(()));
        assert_eq!(BackendSpec::Svmc(quick_annealer()).validate(), Ok(()));
        assert_eq!(quick_qpu(4).validate(), Ok(()));

        let mut annealer = quick_annealer();
        annealer.capacity = 0;
        let err = BackendSpec::Pimc(annealer).validate().unwrap_err();
        assert!(err.contains("capacity must be > 0"), "{err}");

        let BackendSpec::MockQpu(mut qpu) = quick_qpu(4) else {
            unreachable!()
        };
        qpu.programming_us = -1.0;
        let err = qpu.validate().unwrap_err();
        assert!(err.contains("negative overhead"), "{err}");
        qpu.programming_us = 120.0;
        qpu.trotter_slices = 1;
        let err = qpu.validate().unwrap_err();
        assert!(err.contains("Trotter"), "{err}");
    }

    #[test]
    fn grid_validate_rejects_each_empty_axis_with_a_message() {
        let cases: [Mutation<FabricGridConfig>; 4] = [
            ("empty mix axis", Box::new(|c| c.mixes.clear())),
            ("empty cells axis", Box::new(|c| c.cell_counts.clear())),
            (
                "empty load axis",
                Box::new(|c| c.arrival_periods_us.clear()),
            ),
            (
                "cell counts must be >= 1",
                Box::new(|c| c.cell_counts = vec![0]),
            ),
        ];
        for (needle, mutate) in cases {
            let mut config = quick_grid(1);
            mutate(&mut config);
            let err = config.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err} missing {needle}");
            assert_eq!(err.context(), "FabricGridConfig");
        }
        assert_eq!(quick_grid(1).validate(), Ok(()));
    }

    #[test]
    fn grid_builder_constructs_validated_configs() {
        let config = FabricGridConfig::builder(track())
            .frames_per_cell(10)
            .cell_counts(vec![1, 2])
            .arrival_periods_us(vec![300.0, 120.0])
            .mixes(vec![BackendMix {
                name: "sa-pool".into(),
                backends: vec![quick_sa_pool()],
            }])
            .deadline_us(600.0)
            .cost(CostModel::default())
            .seed(7)
            .threads(1)
            .build()
            .expect("valid builder chain");
        assert_eq!(config.frames_per_cell, 10);
        assert_eq!(config.mixes.len(), 1);
        assert_eq!(config.seed, 7);

        let err = FabricGridConfig::builder(track())
            .arrival_periods_us(vec![300.0])
            .build()
            .expect_err("missing mixes must be rejected");
        assert!(err.to_string().contains("empty mix axis"));
    }

    fn annealer_spec(capacity: usize, max_batch: usize) -> BackendSpec {
        BackendSpec::Pimc(AnnealerConfig {
            num_reads: 2,
            anneal_us: 2.0,
            sweeps_per_us: 4,
            capacity,
            max_batch,
        })
    }

    /// The admission-quote regression: for every (capacity, max_batch)
    /// shape — including ones where the batch splits into multiple service
    /// rounds and the backlog splits into multiple batches — the completion
    /// time `predicted_completion` quoted at admission must never undercut
    /// what the backend is actually charged. For jitter-free backends the
    /// two agree to float rounding; an inversion here is the bug where
    /// rounds were counted per-backlog instead of per-batch.
    #[test]
    fn predicted_completion_never_undercuts_charged_service() {
        for &(capacity, max_batch) in &[(1, 4), (2, 3), (3, 4), (2, 5), (4, 4), (1, 1)] {
            for backlog in 1..=9usize {
                let mut config = fabric(1, 50.0, 1e9, vec![annealer_spec(capacity, max_batch)]);
                config.frames_per_cell = backlog;
                let jobs = generate_jobs(&config);
                let n = jobs[0].num_vars();
                let mut sched =
                    FabricScheduler::new(&config.backends, config.cost, config.deadline_us);
                let mut finished: Vec<Option<JobFinish>> = vec![None; jobs.len()];
                let mut predicted = 0.0f64;
                for id in 0..jobs.len() {
                    let correction = sched.predictor.correction_q16(0, n);
                    predicted = sched.backends[0].predicted_completion(
                        0.0,
                        &sched.route_cost,
                        n,
                        correction,
                        0,
                    );
                    sched.admit(id, 0.0, &jobs, None, &mut finished);
                }
                let mut charged = 0.0f64;
                while let Some((t_c, b_idx)) = sched.next_completion() {
                    sched.complete(b_idx, t_c, &jobs, &mut finished);
                    charged = t_c;
                }
                assert_eq!(sched.fallbacks, 0, "huge deadline must admit everything");
                assert!(finished.iter().all(Option::is_some));
                let slack = 1e-9 * predicted.max(1.0);
                assert!(
                    charged <= predicted + slack,
                    "capacity {capacity} max_batch {max_batch} backlog {backlog}: \
                     charged {charged} us exceeds the admission quote {predicted} us"
                );
                assert!(
                    (charged - predicted).abs() <= 1e-6 * predicted.max(1.0),
                    "capacity {capacity} max_batch {max_batch} backlog {backlog}: \
                     quote {predicted} us drifted from charged {charged} us"
                );
            }
        }
    }

    fn class_p99(report: &FabricReport, class: PriorityClass) -> f64 {
        report
            .classes
            .iter()
            .find(|c| c.class == class)
            .unwrap_or_else(|| panic!("missing class report for {}", class.name()))
            .p99_latency_us
    }

    /// An overloaded single-worker pool with a three-class mix: URLLC
    /// admissions must preempt queued Bulk/eMBB jobs (counted and charged
    /// honestly — victims become fallbacks), per-class accounting must
    /// cover every job, and the rank-ordered queue must leave URLLC with
    /// the best tail latency.
    #[test]
    fn priority_classes_preempt_and_order_tail_latencies() {
        let pool = BackendSpec::SaPool(SaPoolConfig {
            workers: 1,
            max_batch: 2,
            sa: SaParams {
                sweeps: 32,
                num_reads: 2,
                threads: 1,
                ..SaParams::default()
            },
        });
        let mut config = fabric(2, 60.0, 250.0, vec![pool]);
        config.sched.classes = ClassMix {
            urllc: 1,
            embb: 1,
            bulk: 1,
        };
        let report = run_fabric(&config);
        assert!(
            report.preemptions > 0,
            "overload with a class mix must preempt"
        );
        assert_eq!(report.classes.len(), 3, "one report per class");
        let class_jobs: usize = report.classes.iter().map(|c| c.jobs).sum();
        assert_eq!(class_jobs, report.jobs, "class accounting covers all jobs");
        for c in &report.classes {
            assert!(c.misses <= c.jobs);
            assert!(c.jobs > 0, "mix 1/1/1 must populate {}", c.class.name());
        }
        let urllc = class_p99(&report, PriorityClass::Urllc);
        let bulk = class_p99(&report, PriorityClass::Bulk);
        assert!(
            urllc <= bulk,
            "URLLC p99 {urllc} us must not trail Bulk p99 {bulk} us"
        );

        // The single-class default never preempts: nothing outranks anything.
        let default_report = run_fabric(&fabric(2, 60.0, 250.0, vec![quick_sa_pool()]));
        assert_eq!(default_report.preemptions, 0);
    }

    /// The tentpole claim at the unit level: when admission quotes come
    /// from a cost model that underestimates true service 10x, the EWMA
    /// scheduler (which learns the correction online) must beat the static
    /// scheduler on deadline misses, while a calibrated model leaves the
    /// adaptive run byte-identical to the static one.
    #[test]
    fn adaptive_scheduler_beats_static_under_miscalibration() {
        let assumed = CostModel {
            us_per_sweep: 0.15,
            ..CostModel::default()
        };
        let mut config = fabric(2, 40.0, 300.0, vec![quick_sa_pool()]);
        config.sched.assumed_cost = Some(assumed);
        let static_report = run_fabric(&config);
        config.sched.policy = SchedPolicy::Ewma { shift: 1 };
        let adaptive_report = run_fabric(&config);

        assert_eq!(static_report.prediction_mae_us, 0.0);
        assert!(
            adaptive_report.prediction_mae_us > 0.0,
            "the learning predictor must report its error"
        );
        assert!(
            adaptive_report.deadline_miss_rate < static_report.deadline_miss_rate,
            "adaptive miss rate {} must beat static {} under a 10x cost misprediction",
            adaptive_report.deadline_miss_rate,
            static_report.deadline_miss_rate
        );

        // Calibrated quotes: the identity correction is bitwise, so the
        // adaptive run reproduces the static scheduler exactly.
        let mut calibrated = fabric(2, 110.0, 600.0, vec![quick_sa_pool()]);
        let baseline = run_fabric(&calibrated);
        calibrated.sched.policy = SchedPolicy::Ewma { shift: 1 };
        let adaptive_calibrated = run_fabric(&calibrated);
        assert_eq!(
            baseline.to_json_object(),
            adaptive_calibrated.to_json_object()
        );
    }
}
