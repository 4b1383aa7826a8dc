//! The quantum compute fabric: many cells sharing a pool of solver backends.
//!
//! The paper's deployment model (§1, §6) is not one base station with a
//! dedicated annealer — it is *wirelessly-networked systems offloading
//! NP-hard detection problems over the network to shared, centralized
//! quantum(-inspired) processors*. This module simulates that structure:
//! **C cells × U users** stream detection frames into a [`FabricScheduler`]
//! that performs admission control, coalesces same-shape QUBOs into batches,
//! and routes each batch to one of a heterogeneous pool of
//! [`SolverBackend`]s. Every backend is one shape, a local pool of workers
//! running one solver. The backend kinds ([`BackendSpec`]) and the solver
//! each runs:
//!
//! * SA, parallel tempering and tabu: classical searches, each on its own
//!   kernel.
//! * PIMC and SVMC annealer simulators: a [`HybridSolver`] on the lane's
//!   forward protocol, which programs the job's logical problem
//!   ([`Target::Logical`]).
//! * The mock QPU: the same [`HybridSolver`] (PIMC) behind a
//!   [`NetworkModel`], which programs the job through a Chimera clique
//!   minor-embedding ([`Target::Embedded`]) that an
//!   [`hqw_anneal::EmbeddingCache`] keeps, so repeated frames never
//!   re-derive chains.
//!
//! The quantum lanes reach the sampler only through
//! [`HybridSolver::program`] and [`HybridSolver::refine`].
//!
//! ## Control plane and executor
//!
//! The scheduler is the classical control plane of the paper's hybrid
//! structure, and it solves nothing: it charges each batch it forms
//! through [`SolverBackend::charge_batch_us`] on its own backend
//! instances, and records the batch with its completion time and each
//! fallback with its queueing delay. Routing never reads a decision, so
//! the routing trace is a pure function of the arrival sequence. An
//! executor then runs the recorded work on instances of its own: the
//! virtual sim ([`run_fabric`]) runs the batches in formation order after
//! routing, the realtime service (`crate::fabric_rt`) on worker threads
//! while routing goes on. Decisions depend only on per-job seeds and batch
//! composition, so both executors reach the same bits.
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
use crate::protocol::Protocol;
use crate::report::{render, Layout, ROWS, SCENARIO};
use crate::sched::{corrected_us, ClassReport, PriorityClass, SchedOptions, ServicePredictor};
use crate::solver::{item_seed, HybridConfig, HybridSolver};
use crate::spec::codec::{record, Field, Omit, Ratio, Record, Us};
use crate::spec::json::Json;
use crate::spec::SpecError;
use crate::stages::GreedyInitializer;
use crate::stream::CostModel;
use crate::telemetry::Collector;
use crate::telemetry::LogHistogram;
use hqw_anneal::{
    AnnealParams, ChainStrength, Chimera, CliqueEmbedding, DWaveProfile, EmbeddingCache,
    EngineKind, QuantumSampler, SamplerConfig, Target,
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
use std::rc::Rc;

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
    /// programming; 0 for local solvers).
    fn predict_overhead_us(&self) -> f64;

    /// Solves a batch of same-shape jobs in one call.
    fn solve_batch(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> BatchOutcome;

    /// Charges a batch **without solving it**: returns exactly the
    /// `service_us` that [`SolverBackend::solve_batch`] would charge for the
    /// same batch, evolving any amortization state (the mock QPU solver's
    /// embedding cache) identically, since `solve_batch` charges through
    /// this call too. The control plane ([`FabricScheduler`]) runs the
    /// virtual clock through this on its own instances, and the executor
    /// solves the same batch sequence on separate ones, so the two charges
    /// agree bit for bit. One instance must not do both for the same batch:
    /// charging then solving it double-counts cache-dependent overheads.
    fn charge_batch_us(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> f64;

    /// `(hits, misses)` of the backend's embedding cache, when it has one.
    fn embedding_cache_stats(&self) -> Option<(u64, u64)>;
}

/// Serializes a batch across `capacity` parallel slots: `ceil(B/capacity)`
/// rounds of the per-job service time (all fabric batches are same-shape,
/// so per-job times are uniform).
fn rounds_us(batch: usize, capacity: usize, job_us: f64) -> f64 {
    batch.div_ceil(capacity) as f64 * job_us
}

// ---------------------------------------------------------------------------
// Local pools: SA, parallel tempering, tabu, PIMC, SVMC and the mock QPU
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

/// The read, anneal-time, sweep-rate and batch checks the annealer-simulator
/// and mock-QPU configurations share.
fn validate_anneal(
    config: &str,
    num_reads: usize,
    anneal_us: f64,
    sweeps_per_us: usize,
    max_batch: usize,
) -> Result<(), String> {
    if num_reads == 0 {
        return Err(format!("{config}: need >= 1 read"));
    }
    if !(anneal_us > 0.0 && anneal_us.is_finite()) {
        return Err(format!("{config}: anneal_us must be > 0"));
    }
    if sweeps_per_us == 0 {
        return Err(format!("{config}: sweeps_per_us must be > 0"));
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

/// The solver a [`LocalPool`] runs: its per-job charge, its per-call
/// overhead and its batch solve.
trait LocalSolver {
    /// Charged sweeps (or sweep-equivalents) per job.
    fn sweeps_per_job(&self) -> u64;

    /// The static quote of [`LocalSolver::overhead_us`] that admission
    /// budgets against (0 for local solvers).
    fn predict_overhead_us(&self) -> f64 {
        0.0
    }

    /// The per-call overhead (µs) of a batch: the batch's one access to
    /// any amortization state, which its [`LocalSolver::solve`] then runs
    /// on (0 for local solvers).
    fn overhead_us(&mut self, _jobs: &[&FabricJob]) -> f64 {
        0.0
    }

    /// `(hits, misses)` of the solver's embedding cache, when it has one.
    fn embedding_cache_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Decides every job, seeding its search from `job.seed ^ salt`.
    fn solve(&self, jobs: &[&FabricJob], salt: u64) -> Vec<JobDecision>;

    /// The work counters one job is charged.
    fn job_meta(&self) -> DetectorMeta {
        DetectorMeta {
            nodes_visited: 0,
            sweeps: self.sweeps_per_job(),
        }
    }

    /// A job's decision from its best natural bits.
    fn decide(&self, job: &FabricJob, natural_bits: &[u8]) -> JobDecision {
        JobDecision {
            gray_bits: job.inst.reduction.natural_to_gray(natural_bits),
            meta: self.job_meta(),
        }
    }
}

impl LocalSolver for SaParams {
    fn sweeps_per_job(&self) -> u64 {
        (self.sweeps * self.num_reads) as u64
    }

    /// All `jobs × num_reads` reads in one
    /// [`hqw_qubo::sa::sample_qubo_batch_seeded`] dispatch.
    fn solve(&self, jobs: &[&FabricJob], salt: u64) -> Vec<JobDecision> {
        let qubos: Vec<&Qubo> = jobs.iter().map(|job| &job.inst.reduction.qubo).collect();
        let seeds: Vec<u64> = jobs.iter().map(|job| job.seed ^ salt).collect();
        jobs.iter()
            .zip(sample_qubo_batch_seeded(&qubos, self, &seeds))
            .map(|(job, set)| {
                let best = set.best().expect("SA batch produced no samples");
                self.decide(job, &best.bits)
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

    fn solve(&self, jobs: &[&FabricJob], salt: u64) -> Vec<JobDecision> {
        jobs.iter()
            .map(|job| {
                let (bits, _) = parallel_tempering(&job.inst.reduction.qubo, self, job.seed ^ salt);
                self.decide(job, &bits)
            })
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
    fn solve(&self, jobs: &[&FabricJob], salt: u64) -> Vec<JobDecision> {
        jobs.iter()
            .map(|job| {
                let mut rng = Rng64::new(job.seed ^ salt);
                let (bits, _) = tabu_from_random(&job.inst.reduction.qubo, self, &mut rng);
                self.decide(job, &bits)
            })
            .collect()
    }
}

/// A pool of workers running solver `S`: a classical search, an annealer
/// simulator, or the mock QPU's embedded annealer. Each job's search is
/// seeded from the job alone (salted per classical solver), so a job's
/// decision — and every BER metric — is invariant to how the scheduler
/// bucketed it. A batch pays the solver's per-call overhead once, then
/// runs in `ceil(B / workers)` rounds of the per-job charge.
#[derive(Debug)]
struct LocalPool<S> {
    name: &'static str,
    salt: u64,
    workers: usize,
    max_batch: usize,
    solver: S,
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
        cost.service_us(&self.solver.job_meta())
    }

    fn predict_overhead_us(&self) -> f64 {
        self.solver.predict_overhead_us()
    }

    fn solve_batch(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> BatchOutcome {
        // Charging first runs the overhead hook `solve` depends on.
        let service_us = self.charge_batch_us(cost, jobs);
        BatchOutcome {
            decisions: self.solver.solve(jobs, self.salt),
            service_us,
        }
    }

    fn charge_batch_us(&mut self, cost: &CostModel, jobs: &[&FabricJob]) -> f64 {
        let job_us = self.predict_job_us(cost, jobs[0].inst.num_vars());
        self.solver.overhead_us(jobs) + rounds_us(jobs.len(), self.workers, job_us)
    }

    fn embedding_cache_stats(&self) -> Option<(u64, u64)> {
        self.solver.embedding_cache_stats()
    }
}

/// Shared configuration of the PIMC and SVMC annealer-simulator pools
/// ([`BackendSpec::Pimc`], [`BackendSpec::Svmc`]).
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

impl AnnealerConfig {
    /// Validates the annealer-simulator configuration.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        validate_anneal(
            "AnnealerConfig",
            self.num_reads,
            self.anneal_us,
            self.sweeps_per_us,
            self.max_batch,
        )?;
        if self.capacity == 0 {
            return Err("AnnealerConfig: capacity must be > 0".to_string());
        }
        Ok(())
    }

    /// The pool of `capacity` lanes this configuration runs on `engine`;
    /// call it only on a validated configuration.
    fn pool(&self, name: &'static str, engine: EngineKind) -> Box<dyn SolverBackend> {
        let lane = forward_lane(engine, self.num_reads, self.anneal_us, self.sweeps_per_us);
        pool(name, 0, self.capacity, self.max_batch, lane)
    }
}

/// A quantum lane's solver: `reads` forward anneals of `t_a` µs at
/// `sweeps_per_us` on `engine`, on one thread (the fabric grid is the
/// parallel level); call it only on validated values.
fn forward_lane(engine: EngineKind, reads: usize, t_a: f64, sweeps_per_us: usize) -> HybridSolver {
    let config = SamplerConfig {
        num_reads: reads,
        engine,
        params: AnnealParams {
            sweeps_per_us,
            ..AnnealParams::default()
        },
        threads: 1,
        ..SamplerConfig::default()
    };
    let sampler = QuantumSampler::new(DWaveProfile::calibrated(), config);
    let protocol = Protocol::Forward { t_a, pause: None };
    // A forward protocol never runs its initializer.
    let initializer = Box::new(GreedyInitializer);
    HybridSolver::new(
        sampler,
        HybridConfig {
            protocol,
            initializer,
        },
    )
}

/// A quantum lane's decision for `job`: the solver's anneal of the job
/// programmed onto `target`, from sampler seed `seed`, decided from the
/// selected state in place.
fn anneal_job(solver: &HybridSolver, job: &FabricJob, target: Target, seed: u64) -> JobDecision {
    let programmed = solver.program(&job.inst.reduction.qubo, target);
    let refined = solver.refine(programmed, None, seed);
    solver.decide(job, refined.best().0)
}

impl LocalSolver for HybridSolver {
    /// The MC sweeps a job's reads simulate, `num_reads ×`
    /// [`AnnealParams::total_sweeps`] of the solver's schedule
    /// (`max(1, round(duration × sweeps_per_us))` a read), so predicted
    /// and charged service can never drift apart.
    fn sweeps_per_job(&self) -> u64 {
        let config = &self.sampler.config;
        config.num_reads as u64 * config.params.total_sweeps(self.schedule()) as u64
    }

    fn solve(&self, jobs: &[&FabricJob], salt: u64) -> Vec<JobDecision> {
        (jobs.iter())
            .map(|job| anneal_job(self, job, Target::Logical, job.seed ^ salt))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The mock QPU: a local pool whose annealer embeds, behind a network
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

/// Configuration of the mock QPU ([`BackendSpec::MockQpu`]).
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
        validate_anneal(
            "MockQpuConfig",
            self.num_reads,
            self.anneal_us,
            self.sweeps_per_us,
            self.max_batch,
        )?;
        if self.trotter_slices < 2 {
            return Err("MockQpuConfig: need >= 2 Trotter slices".to_string());
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

/// The mock QPU's solver, a centralized quantum processor: a
/// [`HybridSolver`] (PIMC, forward) programmed through a cached Chimera
/// clique minor-embedding, reached over a [`NetworkModel`].
///
/// Its per-call overhead — network round trip, programming, and chain
/// derivation on an embedding-cache miss — is what batch formation
/// amortizes: at equal offered load a batched QPU serves the same jobs at
/// lower mean latency than an unbatched one (CI-pinned invariant).
#[derive(Debug)]
struct MockQpu {
    solver: HybridSolver,
    network: NetworkModel,
    programming_us: f64,
    embed_derive_us_per_qubit: f64,
    strength: ChainStrength,
    cache: EmbeddingCache,
    /// The embedding the batch's [`LocalSolver::overhead_us`] looked up,
    /// which its `solve` programs.
    embedding: Option<Rc<CliqueEmbedding>>,
}

impl LocalSolver for MockQpu {
    fn sweeps_per_job(&self) -> u64 {
        self.solver.sweeps_per_job()
    }

    fn predict_overhead_us(&self) -> f64 {
        self.network.rtt_base_us + self.programming_us
    }

    /// The slowest member's round trip, programming, and chain derivation
    /// when the cache misses.
    fn overhead_us(&mut self, jobs: &[&FabricJob]) -> f64 {
        let n = jobs[0].inst.num_vars();
        let misses_before = self.cache.misses();
        // The smallest Chimera hosting an n-clique with the cross
        // construction (`K_{4m}` on `C_m`).
        let embedding = self.cache.get(Chimera::new(n.div_ceil(4).max(1)), n);
        // Chain derivation is charged only when the cache actually derived.
        let derive_us = if self.cache.misses() > misses_before {
            embedding.qubits_used() as f64 * self.embed_derive_us_per_qubit
        } else {
            0.0
        };
        self.embedding = Some(embedding);
        self.network.batch_rtt_us(jobs) + self.programming_us + derive_us
    }

    fn embedding_cache_stats(&self) -> Option<(u64, u64)> {
        Some((self.cache.hits(), self.cache.misses()))
    }

    fn solve(&self, jobs: &[&FabricJob], salt: u64) -> Vec<JobDecision> {
        let embedding = self.embedding.as_deref().expect("overhead_us runs first");
        let target = Target::Embedded(embedding, self.strength);
        (jobs.iter())
            .map(|job| anneal_job(&self.solver, job, target, job.seed ^ salt))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Backend specs and mixes
// ---------------------------------------------------------------------------

/// Boxes a local pool of `workers` slots running `solver`.
fn pool<S: LocalSolver + 'static>(
    name: &'static str,
    salt: u64,
    workers: usize,
    max_batch: usize,
    solver: S,
) -> Box<dyn SolverBackend> {
    Box::new(LocalPool {
        name,
        salt,
        workers,
        max_batch,
        solver,
    })
}

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
    /// Path-integral quantum Monte Carlo annealer-simulator pool (8 Trotter
    /// slices: quick but quantum).
    Pimc(AnnealerConfig),
    /// Spin-vector (semi-classical) Monte Carlo annealer-simulator pool.
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
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        match *self {
            // The salts decorrelate the classical pools' per-job seed
            // streams; the annealers run on the job seed itself.
            BackendSpec::SaPool(c) => pool("sa-pool", 0x5A_B47C, c.workers, c.max_batch, c.sa),
            BackendSpec::Pt(c) => pool("pt", 0x97_7E3A, c.workers, c.max_batch, c.pt),
            BackendSpec::Tabu(c) => pool("tabu", 0x7AB_005, c.workers, c.max_batch, c.tabu),
            BackendSpec::Pimc(c) => c.pool("pimc", EngineKind::Pimc { trotter_slices: 8 }),
            BackendSpec::Svmc(c) => c.pool("svmc", EngineKind::Svmc),
            BackendSpec::MockQpu(c) => {
                let engine = EngineKind::Pimc {
                    trotter_slices: c.trotter_slices,
                };
                let qpu = MockQpu {
                    solver: forward_lane(engine, c.num_reads, c.anneal_us, c.sweeps_per_us),
                    network: c.network,
                    programming_us: c.programming_us,
                    embed_derive_us_per_qubit: c.embed_derive_us_per_qubit,
                    strength: ChainStrength::RelativeToMax(c.chain_strength),
                    cache: EmbeddingCache::new(),
                    embedding: None,
                };
                // One annealer: reads are sequential on the device.
                pool("mock-qpu", 0, 1, c.max_batch, qpu)
            }
        }
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
/// times are a pure function of `(cell, frame)`: virtual and realtime
/// runs of the same config see byte-identical arrival sequences, which is
/// what makes the realtime service's sim-replay gate possible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals (the original fabric process).
    #[default]
    Periodic,
    /// `burst` frames arrive back-to-back (same timestamp), then a gap of
    /// `burst` periods: bursty traffic at unchanged mean rate.
    Bursty {
        /// Frames per burst (>= 1).
        burst: usize,
    },
}

impl ArrivalProcess {
    /// Stable machine-readable name (the spec `process` tag).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Periodic => "periodic",
            ArrivalProcess::Bursty { .. } => "bursty",
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
        }
    }

    /// Arrival times (µs) of `frames` frames for cell `cell` of `n_cells`
    /// sharing mean period `period_us`.
    /// `Periodic` reproduces the original fabric arithmetic bit for bit.
    fn cell_arrivals(
        &self,
        frames: usize,
        cell: usize,
        n_cells: usize,
        period_us: f64,
    ) -> Vec<f64> {
        let phase = cell as f64 * (period_us / n_cells as f64);
        match *self {
            ArrivalProcess::Periodic => (0..frames).map(|f| f as f64 * period_us + phase).collect(),
            ArrivalProcess::Bursty { burst } => (0..frames)
                .map(|f| ((f / burst) * burst) as f64 * period_us + phase)
                .collect(),
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
    /// Jobs of the in-flight batch (0 when idle).
    in_flight: usize,
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
        let ready = if self.in_flight == 0 {
            now
        } else {
            self.free_at.max(now)
        };
        ready + batches_ahead * overhead_us + rounds as f64 * job_us
    }

    /// Starts the next batch from the queue at `start` (queue must be
    /// non-empty): pops the longest same-shape prefix up to `max_batch` and
    /// charges it through [`SolverBackend::charge_batch_us`]. Returns the
    /// batch in queue order plus the charged service µs (the predictor's
    /// learning signal).
    fn start_batch(
        &mut self,
        start: f64,
        cost: &CostModel,
        jobs: &[FabricJob],
    ) -> (Vec<usize>, f64) {
        debug_assert_eq!(self.in_flight, 0);
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
        let service_us = self.backend.charge_batch_us(cost, &batch_jobs);
        self.free_at = start + service_us;
        self.busy_us += service_us;
        self.batches += 1;
        if self.batch_histogram.len() < batch_ids.len() {
            self.batch_histogram.resize(batch_ids.len(), 0);
        }
        self.batch_histogram[batch_ids.len() - 1] += 1;
        self.in_flight = batch_ids.len();
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
/// deadline, falls back to the cell's local classical detector. That
/// fallback shares no server and starts at once, unlike the stream engine's
/// deadline-aware [`crate::stream::DispatchPolicy`], which queues classical
/// frames on the same FIFO server as hybrid ones. Idle backends start
/// serving immediately; jobs arriving at a busy backend queue up and
/// coalesce into its next same-shape batch when the backend frees.
///
/// The scheduler solves nothing. It charges each batch it forms through
/// [`SolverBackend::charge_batch_us`] on its own backend instances, and
/// records the batch with its completion time and each fallback with its
/// queueing delay. An executor — the virtual sim's [`run_fabric_observed`]
/// or the realtime service's workers — runs them on instances of its own.
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
    /// Queued lower-class jobs evicted by preempting admissions.
    preemptions: u64,
    /// Per-job routing decision, indexed by job id: `Some(backend)` or
    /// `None` for the classical fallback. This is the replay trace.
    /// Preemption **rewrites** a victim's entry from `Some(b)` to `None`
    /// inside the admission step that evicts it.
    trace: Vec<Option<usize>>,
    /// Batches formed since the last [`FabricScheduler::take_formed`], in
    /// formation order.
    formed: Vec<FormedBatch>,
    /// Fallbacks decided since the last [`FabricScheduler::take_fallbacks`],
    /// in decision order.
    fallbacks: Vec<Fallback>,
    /// `(virtual µs, |observed − corrected prediction| µs)` per batch —
    /// the prediction-error telemetry series. Empty for the static policy.
    pred_events: Vec<(f64, f64)>,
    /// `(virtual µs, cumulative preemptions)` — the preemption telemetry
    /// series. Empty when nothing is ever preempted.
    preempt_events: Vec<(f64, u64)>,
}

/// A batch the control plane formed, ready for an executor.
#[derive(Debug, Clone)]
pub(crate) struct FormedBatch {
    /// Index of the backend pool the batch is routed to.
    pub backend: usize,
    /// Job ids of the batch, in queue order.
    pub jobs: Vec<usize>,
    /// Virtual µs at which the batch completes: its start plus the charged
    /// service.
    pub free_at: f64,
}

/// A job the admission control downgraded to the classical fallback.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fallback {
    /// The job id.
    pub job: usize,
    /// Virtual µs the job waited before falling back: 0 when rejected at
    /// arrival, `t_a − arrival` when a preempting admission at `t_a`
    /// evicted it from a queue.
    pub wait_us: f64,
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
            .field("preemptions", &self.preemptions)
            .finish()
    }
}

impl FabricScheduler {
    /// Builds the control plane with its charging instance of every backend
    /// and the adaptive-scheduling options (predictor policy, assumed
    /// routing cost model, class handling).
    ///
    /// # Panics
    /// Panics on an empty pool, a negative deadline, invalid backend
    /// parameters or invalid sched options.
    pub fn new(
        specs: &[BackendSpec],
        cost: CostModel,
        deadline_us: f64,
        options: SchedOptions,
    ) -> Self {
        assert!(!specs.is_empty(), "FabricScheduler: empty backend pool");
        assert!(
            deadline_us >= 0.0,
            "FabricScheduler: deadline must be >= 0 (0 = everything falls back)"
        );
        options.validate().unwrap_or_else(|e| panic!("{e}"));
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
                    in_flight: 0,
                    free_at: 0.0,
                    busy_us: 0.0,
                    batches: 0,
                    batch_histogram: Vec::new(),
                    jobs_done: 0,
                })
                .collect(),
            preemptions: 0,
            trace: Vec::new(),
            formed: Vec::new(),
            fallbacks: Vec::new(),
            pred_events: Vec::new(),
            preempt_events: Vec::new(),
        }
    }

    /// The recorded routing decisions so far, indexed by admission order.
    pub(crate) fn trace(&self) -> &[Option<usize>] {
        &self.trace
    }

    /// Drains the batches formed since the last call.
    pub(crate) fn take_formed(&mut self) -> Vec<FormedBatch> {
        std::mem::take(&mut self.formed)
    }

    /// Drains the fallbacks decided since the last call: rejected arrivals
    /// and the queued jobs preempting admissions evicted.
    pub(crate) fn take_fallbacks(&mut self) -> Vec<Fallback> {
        std::mem::take(&mut self.fallbacks)
    }

    /// Starts the next batch on backend `b_idx` at `start` (its queue must
    /// be non-empty and nothing in flight), feeds the completion back to
    /// the service predictor, and records the formed batch.
    fn start_and_learn(&mut self, b_idx: usize, start: f64, jobs: &[FabricJob]) {
        let head_vars = jobs[*self.backends[b_idx]
            .queue
            .front()
            .expect("start_and_learn: empty queue")]
        .num_vars();
        let correction = self.predictor.correction_q16(b_idx, head_vars);
        let (batch, service_us) = self.backends[b_idx].start_batch(start, &self.cost, jobs);
        let quote =
            self.backends[b_idx].static_batch_quote_us(&self.route_cost, batch.len(), head_vars);
        self.predictor.observe(b_idx, head_vars, quote, service_us);
        if self.options.policy != crate::sched::SchedPolicy::Static {
            let err = (service_us - corrected_us(quote, correction)).abs();
            self.pred_events.push((start, err));
        }
        self.formed.push(FormedBatch {
            backend: b_idx,
            jobs: batch,
            free_at: self.backends[b_idx].free_at,
        });
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
            .filter(|(_, b)| b.in_flight > 0)
            .map(|(i, b)| (b.free_at, i))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite times")
                    .then(a.1.cmp(&b.1))
            })
    }

    /// Names of the pooled backends, in routing-index order (the realtime
    /// service labels its telemetry lanes with these).
    pub(crate) fn backend_names(&self) -> Vec<&'static str> {
        self.backends.iter().map(|b| b.backend.name()).collect()
    }

    /// Advances the virtual clock to `t`, completing every in-flight batch
    /// due at or before it and starting each backend's next batch from its
    /// queue. Call it before admitting an arrival at `t`, so capacity freed
    /// at the arrival's own timestamp is visible to the decision.
    pub(crate) fn advance_to(&mut self, t: f64, jobs: &[FabricJob]) {
        while let Some((t_c, b_idx)) = self.next_completion() {
            if t_c > t {
                break;
            }
            let state = &mut self.backends[b_idx];
            state.jobs_done += std::mem::take(&mut state.in_flight);
            if !state.queue.is_empty() {
                self.start_and_learn(b_idx, t_c, jobs);
            }
        }
    }

    /// Runs the virtual clock out after the last admission, so residual
    /// queued jobs form their final batches.
    pub(crate) fn drain(&mut self, jobs: &[FabricJob]) {
        self.advance_to(f64::INFINITY, jobs);
    }

    /// Admits job `job_id` arriving at `t_a`: routes it to the backend with
    /// the lowest predicted completion when that fits the job's
    /// class-effective deadline, or sends it to the local classical
    /// fallback.
    ///
    /// A higher-class job whose best quote misses its deadline may
    /// **preempt**: evict the fewest queued lower-class jobs (never
    /// in-flight ones) that make some backend's quote fit. Victims are
    /// taken from the back of the rank-ordered queue — lowest class,
    /// newest first — and are downgraded to the classical fallback with
    /// their queueing delay charged honestly (`t_a − arrival` plus the
    /// classical service). When even maximal eviction cannot meet the
    /// deadline, nothing is evicted and the job itself falls back.
    pub(crate) fn admit(&mut self, job_id: usize, t_a: f64, jobs: &[FabricJob]) {
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
            self.route(best.1, job_id, t_a, jobs);
            return;
        }
        if job.class.rank() > 0 {
            if let Some((k, b_idx)) = self.preemption_plan(t_a, n, job.class, eff_deadline_us, jobs)
            {
                self.evict(b_idx, k, t_a, jobs);
                self.route(b_idx, job_id, t_a, jobs);
                return;
            }
        }
        // Admission control rejects: local classical fallback,
        // uncontended at the cell.
        self.trace.push(None);
        self.fallbacks.push(Fallback {
            job: job_id,
            wait_us: 0.0,
        });
    }

    /// Routes `job_id` to backend `b_idx` at `t_a`, starting a batch at
    /// once when the backend is idle.
    fn route(&mut self, b_idx: usize, job_id: usize, t_a: f64, jobs: &[FabricJob]) {
        self.trace.push(Some(b_idx));
        self.enqueue_ranked(b_idx, job_id, jobs);
        if self.backends[b_idx].in_flight == 0 {
            self.start_and_learn(b_idx, t_a, jobs);
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
    /// the back of its rank-ordered queue) at `t_a`, rewriting their trace
    /// entries to the fallback.
    fn evict(&mut self, b_idx: usize, k: usize, t_a: f64, jobs: &[FabricJob]) {
        for _ in 0..k {
            let victim = self.backends[b_idx]
                .queue
                .pop_back()
                .expect("preemption_plan counted evictable jobs");
            self.trace[victim] = None;
            self.preemptions += 1;
            // The victim waited in queue from arrival to the eviction
            // instant; the classical fallback runs after that.
            self.fallbacks.push(Fallback {
                job: victim,
                wait_us: t_a - jobs[victim].arrival_us,
            });
        }
        self.preempt_events.push((t_a, self.preemptions));
    }
}

/// Runs the control plane over the arrival-sorted `jobs`: each arrival
/// advances the virtual clock to itself and is admitted; after the last
/// one the clock runs out. The realtime sequencer makes the same calls in
/// the same order.
fn schedule(config: &FabricConfig, jobs: &[FabricJob]) -> FabricScheduler {
    let mut scheduler = FabricScheduler::new(
        &config.backends,
        config.cost,
        config.deadline_us,
        config.sched,
    );
    for (id, job) in jobs.iter().enumerate() {
        scheduler.advance_to(job.arrival_us, jobs);
        scheduler.admit(id, job.arrival_us, jobs);
    }
    scheduler.drain(jobs);
    scheduler
}

/// The routing decisions the control plane takes for `config`, with
/// nothing solved: the trace a realtime run of the same config must
/// record.
///
/// # Panics
/// As [`run_fabric`].
pub(crate) fn route_trace(config: &FabricConfig) -> RouteTrace {
    schedule(config, &generate_jobs(config)).trace
}

/// Solves one formed batch on `backend` and returns each job's bit error
/// rate, in batch order: the executor step the virtual sim and the
/// realtime workers share.
///
/// # Panics
/// Panics when the backend answers a different number of jobs.
pub(crate) fn solve_formed(
    backend: &mut dyn SolverBackend,
    cost: &CostModel,
    batch: &[usize],
    jobs: &[FabricJob],
) -> Vec<f64> {
    let batch_jobs: Vec<&FabricJob> = batch.iter().map(|&id| &jobs[id]).collect();
    let outcome = backend.solve_batch(cost, &batch_jobs);
    assert_eq!(
        outcome.decisions.len(),
        batch_jobs.len(),
        "backend {} returned a mismatched batch",
        backend.name()
    );
    batch_jobs
        .iter()
        .zip(&outcome.decisions)
        .map(|(job, decision)| bit_error_rate(&job.inst.tx_gray_bits, &decision.gray_bits))
        .collect()
}

/// Runs one fabric simulation: the control plane's virtual-time routing,
/// then its formed batches and fallbacks executed.
///
/// # Panics
/// Panics on zero cells/frames, a non-positive arrival period, a negative
/// deadline, an empty backend pool, or invalid backend parameters (see
/// [`FabricConfig::validate`] for the non-panicking check).
pub fn run_fabric(config: &FabricConfig) -> FabricReport {
    run_fabric_observed(config, None, 0).0
}

/// [`run_fabric`] plus the [`RouteTrace`], with optional telemetry: when
/// a collector is given, the run emits virtual-time spans — one `"job"`
/// span per frame on its routed backend's lane (or the fallback lane),
/// stamped with the simulation's own µs clock under trace process `pid`.
///
/// The control plane routes every job first; then the formed batches run
/// in formation order, each pool entry on one fresh backend instance, and
/// the fallbacks run on MMSE. A served job finishes when its batch does;
/// a fallback after its queueing delay plus the classical service.
/// Telemetry is emitted from the finished per-job outcomes, so the report
/// and trace are byte-identical with and without a collector.
///
/// # Panics
/// As [`run_fabric`].
pub fn run_fabric_observed(
    config: &FabricConfig,
    telemetry: Option<&crate::telemetry::Collector>,
    pid: u32,
) -> (FabricReport, RouteTrace) {
    config.validate().unwrap_or_else(|e| panic!("{e}"));

    let jobs = generate_jobs(config);
    let mut scheduler = schedule(config, &jobs);

    let mut finished: Vec<Option<JobFinish>> = vec![None; jobs.len()];
    let mut executors: Vec<Box<dyn SolverBackend>> =
        config.backends.iter().map(BackendSpec::build).collect();
    for batch in scheduler.take_formed() {
        let executor = executors[batch.backend].as_mut();
        let bers = solve_formed(executor, &config.cost, &batch.jobs, &jobs);
        for (&id, ber) in batch.jobs.iter().zip(bers) {
            finished[id] = Some(JobFinish {
                latency_us: batch.free_at - jobs[id].arrival_us,
                ber,
                fallback: false,
            });
        }
    }
    let classical = Mmse::new(config.track.noise_variance);
    for Fallback { job: id, wait_us } in scheduler.take_fallbacks() {
        let job = &jobs[id];
        let result = classical.detect(&job.inst.system, &job.inst.h, &job.inst.y);
        finished[id] = Some(JobFinish {
            latency_us: wait_us + config.cost.service_us(&result.meta),
            ber: bit_error_rate(&job.inst.tx_gray_bits, &result.gray_bits),
            fallback: true,
        });
    }

    let trace = std::mem::take(&mut scheduler.trace);
    let fallbacks = trace.iter().filter(|route| route.is_none()).count();
    let preemptions = scheduler.preemptions;
    let prediction_mae_us = scheduler.predictor.mae_us();
    let backends = scheduler.backends;
    let per_job: Vec<JobFinish> = finished
        .into_iter()
        .map(|f| f.expect("every job finishes"))
        .collect();
    if let Some(collector) = telemetry {
        emit_virtual_spans(collector, pid, config, &jobs, &per_job, &trace, &backends);
        emit_sched_counters(
            collector,
            pid,
            &scheduler.pred_events,
            &scheduler.preempt_events,
        );
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

    fn decode(&self, id: usize, doc: &Json, ctx: &str) -> Result<FabricReport, SpecError> {
        let point = FabricReport::decode(doc, ctx)?;
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

record!(BackendReport {
    name: String,
    jobs: usize,
    batches: u64,
    utilization: Ratio,
    mean_batch: f64,
    mean_service_us: Us,
    batch_histogram: Vec<u64>,
    embed_cache_hits: u64,
    embed_cache_misses: u64,
});

// The scheduling fields trail the original layout and are left out at
// their defaults, keeping static-policy documents byte-identical.
record!(FabricReport {
    mix: String,
    n_cells: usize,
    arrival_period_us: f64,
    jobs: usize,
    ber: Ratio,
    deadline_miss_rate: Ratio,
    fallback_rate: Ratio,
    served_miss_rate: Ratio,
    p50_latency_us: Us,
    p99_latency_us: Us,
    mean_latency_us: Us,
    mean_served_latency_us: Us,
    backends: Vec<BackendReport>,
    preemptions: Omit<u64>,
    prediction_mae_us: Omit<Us>,
    classes: Omit<Vec<ClassReport>>,
});

impl FabricGridReport {
    /// Renders the report as the `BENCH_fabric.json` document (schema in
    /// `crates/bench/README.md`). Pure function of the report contents:
    /// byte-identical across runs and thread counts.
    pub fn to_json(&self) -> String {
        let doc = Json::object([
            ("bench", "fabric".into()),
            (
                "scenario",
                Json::object([
                    ("n_users", self.n_users.into()),
                    ("n_rx", self.n_rx.into()),
                    ("modulation", self.modulation.as_str().into()),
                    ("noise_variance", self.noise_variance.into()),
                    ("frames_per_cell", self.frames_per_cell.into()),
                    ("deadline_us", self.deadline_us.into()),
                    ("seed", self.seed.into()),
                ]),
            ),
            ("points", Vec::<FabricReport>::to_json(&self.points)),
        ]);
        render(&doc, &Layout::Block(&[SCENARIO, ("points", ROWS)]))
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
    use crate::stream::{run_stream_observed, DispatchPolicy, StreamConfig};
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
    fn annealers_charge_the_sweeps_their_reads_simulate() {
        // A read runs `max(1, round(anneal_us × sweeps_per_us))` sweeps: at
        // 8 sweeps/µs, 0.3 µs is 2 a read (rounding the job's 9.6 would
        // charge 10 for 4 reads) and 0.05 µs is the 1-sweep floor (2).
        let cost = CostModel::default();
        let BackendSpec::MockQpu(qpu) = quick_qpu(1) else {
            unreachable!("quick_qpu builds a mock QPU")
        };
        for (anneal_us, per_read) in [(0.3, 2), (0.05, 1), (2.0, 16)] {
            let one_read = forward_lane(EngineKind::Svmc, 1, anneal_us, 8);
            assert_eq!(one_read.sweeps_per_job(), per_read);
            let expected = cost.service_us(&DetectorMeta {
                nodes_visited: 0,
                sweeps: 4 * per_read,
            });
            let pool = BackendSpec::Pimc(AnnealerConfig {
                num_reads: 4,
                anneal_us,
                sweeps_per_us: 8,
                ..quick_annealer()
            });
            let qpu = BackendSpec::MockQpu(MockQpuConfig {
                num_reads: 4,
                anneal_us,
                sweeps_per_us: 8,
                ..qpu
            });
            for spec in [pool, qpu] {
                let charged = spec.build().predict_job_us(&cost, 8);
                assert_eq!(charged, expected, "{anneal_us} µs: {spec:?}");
            }
        }
    }

    #[test]
    fn fabric_is_deterministic_per_seed() {
        let config = fabric(2, 150.0, 600.0, hetero_pool());
        let a = run_fabric(&config);
        let b = run_fabric(&config);
        assert_eq!(
            a.encode().to_string_compact(),
            b.encode().to_string_compact()
        );
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
        let stream_report = run_stream_observed(
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
            None,
            0,
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

        // The four checks both configurations share, each named after the
        // configuration that failed it.
        let a = quick_annealer();
        let BackendSpec::MockQpu(q) = quick_qpu(4) else {
            unreachable!()
        };
        let cases = [
            (
                "need >= 1 read",
                AnnealerConfig { num_reads: 0, ..a },
                MockQpuConfig { num_reads: 0, ..q },
            ),
            (
                "anneal_us must be > 0",
                AnnealerConfig {
                    anneal_us: 0.0,
                    ..a
                },
                MockQpuConfig {
                    anneal_us: 0.0,
                    ..q
                },
            ),
            (
                "sweeps_per_us must be > 0",
                AnnealerConfig {
                    sweeps_per_us: 0,
                    ..a
                },
                MockQpuConfig {
                    sweeps_per_us: 0,
                    ..q
                },
            ),
            (
                "need max_batch >= 1",
                AnnealerConfig { max_batch: 0, ..a },
                MockQpuConfig { max_batch: 0, ..q },
            ),
        ];
        for (message, annealer, qpu) in cases {
            let err = BackendSpec::Pimc(annealer).validate();
            assert_eq!(err, Err(format!("AnnealerConfig: {message}")));
            assert_eq!(qpu.validate(), Err(format!("MockQpuConfig: {message}")));
        }
    }

    /// Every variant builds a `LocalPool`: before any call, the mock QPU
    /// quotes one slot, its base round trip plus programming and an empty
    /// embedding cache; the pools quote their workers or capacity, no
    /// overhead and no cache.
    #[test]
    fn every_backend_spec_builds_its_quoted_surface() {
        let pt = BackendSpec::Pt(PtConfig {
            workers: 3,
            max_batch: 2,
            pt: PtParams::default(),
        });
        let tabu = BackendSpec::Tabu(TabuConfig {
            workers: 5,
            max_batch: 6,
            tabu: TabuParams::default(),
        });
        let annealer = AnnealerConfig {
            capacity: 2,
            max_batch: 3,
            ..quick_annealer()
        };
        let cases = [
            (quick_sa_pool(), "sa-pool", 2, 4, 0.0f64, None),
            (pt, "pt", 3, 2, 0.0, None),
            (tabu, "tabu", 5, 6, 0.0, None),
            (BackendSpec::Pimc(annealer), "pimc", 2, 3, 0.0, None),
            (BackendSpec::Svmc(annealer), "svmc", 2, 3, 0.0, None),
            (quick_qpu(7), "mock-qpu", 1, 7, 30.0 + 120.0, Some((0, 0))),
        ];
        for (spec, name, capacity, max_batch, overhead_us, cache) in cases {
            // A new variant must join the cases.
            match spec {
                BackendSpec::SaPool(_)
                | BackendSpec::Pt(_)
                | BackendSpec::Tabu(_)
                | BackendSpec::Pimc(_)
                | BackendSpec::Svmc(_)
                | BackendSpec::MockQpu(_) => {}
            }
            let backend = spec.build();
            assert_eq!(backend.name(), name);
            assert_eq!(backend.capacity(), capacity, "{name}");
            assert_eq!(backend.max_batch(), max_batch, "{name}");
            let quoted = backend.predict_overhead_us();
            assert_eq!(quoted.to_bits(), overhead_us.to_bits(), "{name}");
            assert_eq!(backend.embedding_cache_stats(), cache, "{name}");
        }
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
                let mut sched = FabricScheduler::new(
                    &config.backends,
                    config.cost,
                    config.deadline_us,
                    SchedOptions::default(),
                );
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
                    sched.admit(id, 0.0, &jobs);
                }
                sched.drain(&jobs);
                let formed = sched.take_formed();
                let charged = formed.iter().map(|b| b.free_at).fold(0.0, f64::max);
                assert!(
                    sched.take_fallbacks().is_empty(),
                    "huge deadline must admit everything"
                );
                let served: usize = formed.iter().map(|b| b.jobs.len()).sum();
                assert_eq!(served, jobs.len());
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

    /// The control plane charges each batch on its own instances and the
    /// executor solves it on fresh ones, so the two charges must agree bit
    /// for bit for every backend kind. Batch sizes run 1..=`max_batch` on
    /// two problem shapes, so the mock QPU misses its embedding cache on
    /// each shape's first batch and hits it after.
    #[test]
    fn executor_charge_equals_control_plane_charge() {
        let shape = |n_users: usize| {
            let mut config = fabric(1, 100.0, 1e9, Vec::new());
            config.track.n_users = n_users;
            config.track.n_rx = n_users;
            config.frames_per_cell = 16;
            generate_jobs(&config)
        };
        let shapes = [shape(2), shape(3)];
        let cost = CostModel::default();
        let specs = [
            quick_sa_pool(),
            BackendSpec::Pt(PtConfig {
                workers: 2,
                max_batch: 3,
                pt: PtParams {
                    replicas: 4,
                    sweeps: 16,
                    ..PtParams::default()
                },
            }),
            BackendSpec::Tabu(TabuConfig {
                workers: 1,
                max_batch: 3,
                tabu: TabuParams {
                    max_iters: 40,
                    ..TabuParams::default()
                },
            }),
            BackendSpec::Pimc(quick_annealer()),
            BackendSpec::Svmc(quick_annealer()),
            quick_qpu(4),
        ];
        for spec in specs {
            let mut control = spec.build();
            let mut executor = spec.build();
            let max_batch = control.max_batch();
            for jobs in &shapes {
                let mut at = 0;
                for size in 1..=max_batch {
                    let batch: Vec<&FabricJob> = jobs[at..at + size].iter().collect();
                    at += size;
                    let charged = control.charge_batch_us(&cost, &batch);
                    let solved = executor.solve_batch(&cost, &batch).service_us;
                    assert_eq!(
                        charged.to_bits(),
                        solved.to_bits(),
                        "{} batch of {size}: charged {charged} us, solved {solved} us",
                        control.name()
                    );
                }
            }
            let stats = control.embedding_cache_stats();
            assert_eq!(stats, executor.embedding_cache_stats());
            if control.name() == "mock-qpu" {
                let hits = 2 * (max_batch as u64 - 1);
                assert_eq!(stats, Some((hits, 2)), "one miss per shape");
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
            baseline.encode().to_string_compact(),
            adaptive_calibrated.encode().to_string_compact()
        );
    }
}
