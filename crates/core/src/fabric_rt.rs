//! The wall-clock realtime fabric service — the production twin of the
//! [`crate::fabric`] virtual-time simulation.
//!
//! ## Architecture: virtual control plane, wall-clock executor
//!
//! The service runs the fabric's one control plane — the same
//! [`FabricScheduler`] the virtual sim drives — and executes its decisions
//! on real threads:
//!
//! * **Producers** (`RealtimeConfig::producers` threads): cells are sharded
//!   across producer threads; each producer streams its cells' frames, in
//!   arrival order, into **sharded MPMC delivery queues**
//!   (`RealtimeConfig::queue_shards` mutex+condvar queues, std-only).
//! * **Sequencer** (the control plane): drains the delivery shards and
//!   makes the scheduler's `advance_to`/`admit`/`drain` calls in
//!   virtual-arrival order, exactly as the virtual sim does. The scheduler
//!   solves nothing: it charges each batch through
//!   [`crate::fabric::SolverBackend::charge_batch_us`] on its own backend
//!   instances. Every backend is one local-pool shape whose `solve_batch`
//!   charges through that same call, so the executor's charge equals the
//!   control plane's bit for bit (the mock QPU's embedding cache evolves
//!   alike on both). Admission, batch formation and routing therefore
//!   remain a **pure function of the arrival sequence**, no matter how
//!   threads race. After each admission the sequencer dispatches the batches
//!   formed and the fallbacks decided since the last one.
//! * **Workers** (the executor: one per backend, plus a
//!   classical-fallback worker): consume the formed batches from
//!   per-backend execution queues and solve them on their own backend
//!   instances through the same per-batch step the virtual sim uses, off
//!   the control plane's critical path.
//!
//! ## The replay contract
//!
//! Because the control plane's virtual bookkeeping is deterministic, the
//! recorded [`RouteTrace`] must be **bit-identical** to the trace the
//! control plane takes alone for the same config — zero divergence, by
//! construction, checked per point at run time and re-checked in CI by
//! replaying the committed trace file ([`replay_trace_doc`]); neither
//! check solves anything. Detection results are equally deterministic
//! (per-job seeds, identical batch composition), so the realtime BER
//! equals the virtual sim's bit for bit; only the wall-clock
//! throughput/latency numbers (`BENCH_fabric_rt.json`) vary with the
//! machine.

use crate::fabric::{
    generate_jobs, route_trace, solve_formed, FabricConfig, FabricGridConfig, FabricMode,
    FabricScheduler, RealtimeConfig, RouteTrace,
};
use crate::grid::GridEngine;
use crate::report::{render, Layout, ROWS, SCENARIO};
use crate::spec::codec::{decode_tagged, encode_tagged, record, Field, Ratio};
use crate::spec::json::Json;
use crate::spec::{ExperimentSpec, SpecError};
use crate::telemetry::{Collector, CounterSample, LogHistogram, TelemetrySummary};
use hqw_math::stats::safe_ratio;
use hqw_phy::detect::{Detector, Mmse};
use hqw_phy::metrics::bit_error_rate;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

/// A closable MPMC queue: mutex-guarded deque plus condvar (std-only; the
/// container has no crates-io access, so no channel crates).
struct SharedQueue<T> {
    inner: Mutex<(VecDeque<T>, bool)>,
    cv: Condvar,
}

impl<T> SharedQueue<T> {
    fn new() -> Self {
        SharedQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, value: T) {
        let mut guard = self.inner.lock().expect("queue poisoned");
        debug_assert!(!guard.1, "push after close");
        guard.0.push_back(value);
        self.cv.notify_one();
    }

    fn close(&self) {
        let mut guard = self.inner.lock().expect("queue poisoned");
        guard.1 = true;
        self.cv.notify_all();
    }

    /// Blocks for the next value; `None` once closed and empty.
    fn pop(&self) -> Option<T> {
        let mut guard = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(value) = guard.0.pop_front() {
                return Some(value);
            }
            if guard.1 {
                return None;
            }
            guard = self.cv.wait(guard).expect("queue poisoned");
        }
    }

    /// Instantaneous depth (the telemetry sampler's read; racy by nature).
    fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").0.len()
    }
}

/// The producer→sequencer delivery fabric: sharded queues with one shared
/// wake-up signal so the sequencer can sleep while nothing is in flight.
struct DeliveryShards {
    /// `(job id, delivery instant)` per shard; a job's shard is
    /// `cell % shards.len()`.
    shards: Vec<Mutex<VecDeque<(usize, Instant)>>>,
    /// `(jobs pushed, producers finished)` — the sequencer's sleep guard.
    signal: Mutex<(usize, usize)>,
    cv: Condvar,
}

impl DeliveryShards {
    fn new(n_shards: usize) -> Self {
        DeliveryShards {
            shards: (0..n_shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, shard: usize, job_id: usize) {
        self.shards[shard]
            .lock()
            .expect("shard poisoned")
            .push_back((job_id, Instant::now()));
        self.signal.lock().expect("signal poisoned").0 += 1;
        self.cv.notify_one();
    }

    fn producer_done(&self) {
        self.signal.lock().expect("signal poisoned").1 += 1;
        self.cv.notify_one();
    }

    /// Drains every shard into `out`; when nothing is available and
    /// producers are still running, sleeps until a push or a producer exit.
    fn drain_or_wait(&self, consumed: usize, n_producers: usize, out: &mut Vec<(usize, Instant)>) {
        loop {
            for shard in &self.shards {
                out.extend(shard.lock().expect("shard poisoned").drain(..));
            }
            if !out.is_empty() {
                return;
            }
            let mut signal = self.signal.lock().expect("signal poisoned");
            while signal.0 == consumed && signal.1 < n_producers {
                signal = self.cv.wait(signal).expect("signal poisoned");
            }
            if signal.0 == consumed {
                // Every producer exited with nothing left to deliver.
                return;
            }
        }
    }

    /// Instantaneous total depth across shards (the telemetry sampler's
    /// read; racy by nature).
    fn depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// One realtime point
// ---------------------------------------------------------------------------

/// Wall-clock metrics of one realtime grid point.
#[derive(Debug, Clone)]
pub struct FabricRtReport {
    /// Backend-mix name.
    pub mix: String,
    /// Radio cells sharing the fabric.
    pub n_cells: usize,
    /// Mean per-cell arrival period on the virtual clock (µs).
    pub arrival_period_us: f64,
    /// Total jobs across all cells.
    pub jobs: usize,
    /// Mean wireless bit error rate — bit-identical to the virtual sim's.
    pub ber: f64,
    /// Fraction of jobs routed to the classical fallback.
    pub fallback_rate: f64,
    /// Sustained throughput: jobs over the wall-clock makespan (frames/s).
    pub frames_per_sec: f64,
    /// Median wall-clock delivery→completion latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile wall-clock latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile wall-clock latency (ms).
    pub p999_ms: f64,
    /// Mean scheduler decision cost per job (ns): the control-plane
    /// critical path — virtual-clock advance plus admission.
    pub decision_ns_per_job: f64,
    /// Wall-clock makespan of the point (ms).
    pub wall_ms: f64,
    /// Routing decisions differing from a fresh virtual-time routing of the
    /// same config. The service self-checks every point; **must be 0**.
    pub replay_divergences: usize,
}

/// Telemetry lane (tid) allocation within a point's trace process: the
/// sequencer, then one lane per backend worker, the fallback worker,
/// producers from 500, and per-cell frame lanes from 1000.
const TID_SEQUENCER: u32 = 1;
const TID_WORKER_BASE: u32 = 2;
const TID_PRODUCER_BASE: u32 = 500;
const TID_FRAME_BASE: u32 = 1000;

/// Runs one realtime point and returns its metrics plus the recorded
/// routing trace.
///
/// With a collector, the run emits the full frame-lifecycle span chain
/// (`enqueue → admit → form → wait → solve` per job, contiguous by
/// construction so the stage sum equals the end-to-end span), per-batch
/// worker spans, and ~1 ms queue-depth / in-flight / backend-utilization
/// counter samples under trace process `pid`. Instrumentation reads clocks
/// and counters but feeds nothing back into scheduling: the routing trace
/// and every deterministic report field are identical with telemetry on or
/// off. Call it only on a validated configuration, whose point has at least
/// one job.
fn run_fabric_rt_point(
    config: &FabricConfig,
    rt: RealtimeConfig,
    telemetry: Option<&Collector>,
    pid: u32,
) -> (FabricRtReport, RouteTrace) {
    let jobs = generate_jobs(config);
    let n_jobs = jobs.len();
    let n_backends = config.backends.len();
    let n_producers = rt.producers.min(config.n_cells).max(1);

    if let Some(collector) = telemetry {
        collector.label_process(
            pid,
            &format!(
                "fabric-rt cells={} period={}us",
                config.n_cells, config.arrival_period_us
            ),
        );
    }

    let delivery = DeliveryShards::new(rt.queue_shards);
    // Batches carry their formation instant so workers can attribute
    // exec-queue wait; the stamp is one clock read per batch, taken after
    // the routing decision is already made.
    let exec_queues: Vec<SharedQueue<(Vec<usize>, Instant)>> =
        (0..n_backends).map(|_| SharedQueue::new()).collect();
    let fallback_queue: SharedQueue<(usize, Instant)> = SharedQueue::new();

    let mut scheduler = FabricScheduler::new(
        &config.backends,
        config.cost,
        config.deadline_us,
        config.sched,
    );
    let backend_names = scheduler.backend_names();
    let mut delivered_at: Vec<Option<Instant>> = vec![None; n_jobs];
    let mut decision_ns: u128 = 0;

    // Telemetry-only stage bookkeeping (allocated only when observing).
    let mut admit_bounds: Option<Vec<(Instant, Instant)>> =
        telemetry.map(|_| Vec::with_capacity(n_jobs));
    let mut formed_at: Option<Vec<Option<Instant>>> = telemetry.map(|_| vec![None; n_jobs]);

    // Sampler-visible gauges: jobs admitted/completed and per-lane busy ns
    // (backends, then the fallback). Touched only when observing.
    let admitted = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let busy_ns: Vec<AtomicU64> = (0..n_backends + 1).map(|_| AtomicU64::new(0)).collect();
    let sampler_stop = AtomicBool::new(false);

    // `(job id, ber, completion instant)` per worker, joined below.
    let mut worker_results: Vec<Vec<(usize, f64, Instant)>> = Vec::new();

    std::thread::scope(|s| {
        // Producers: cells are sharded across producer threads; each
        // producer streams its cells' jobs in global arrival order (job
        // ids index the arrival-sorted list) into the delivery shards.
        for p in 0..n_producers {
            let jobs = &jobs;
            let delivery = &delivery;
            s.spawn(move || {
                for (id, job) in jobs.iter().enumerate() {
                    if job.cell % n_producers == p {
                        delivery.push(job.cell % rt.queue_shards, id);
                    }
                }
                delivery.producer_done();
            });
        }

        // Backend workers: each owns a freshly built backend instance (the
        // executor; the control plane's instances only charge) and drains
        // its execution queue. Backends hold `Rc` state internally, so each
        // instance is built inside its own thread.
        let worker_handles: Vec<_> = (0..n_backends)
            .map(|b| {
                let jobs = &jobs;
                let spec = config.backends[b];
                let cost = config.cost;
                let queue = &exec_queues[b];
                let busy_ns = &busy_ns;
                let completed = &completed;
                s.spawn(move || {
                    let mut backend = spec.build();
                    let mut recorder = telemetry
                        .map(|c| c.recorder(pid, TID_WORKER_BASE + b as u32, backend.name()));
                    let mut results = Vec::new();
                    while let Some((batch, formed)) = queue.pop() {
                        let popped = Instant::now();
                        let bers = solve_formed(backend.as_mut(), &cost, &batch, jobs);
                        let done = Instant::now();
                        if let Some(rec) = &mut recorder {
                            busy_ns[b]
                                .fetch_add((done - popped).as_nanos() as u64, Ordering::Relaxed);
                            completed.fetch_add(batch.len() as u64, Ordering::Relaxed);
                            rec.span_wall("batch", backend.name(), None, popped, done);
                            for &id in &batch {
                                rec.span_wall("stage", "wait", Some(id as u64), formed, popped);
                                rec.span_wall("stage", "solve", Some(id as u64), popped, done);
                            }
                        }
                        results.extend(batch.iter().zip(bers).map(|(&id, ber)| (id, ber, done)));
                    }
                    results
                })
            })
            .collect();

        // Classical-fallback worker: uncontended local compute for jobs
        // the admission control rejects.
        let fallback_handle = {
            let jobs = &jobs;
            let queue = &fallback_queue;
            let noise_variance = config.track.noise_variance;
            let busy_ns = &busy_ns;
            let completed = &completed;
            s.spawn(move || {
                let classical = Mmse::new(noise_variance);
                let mut recorder = telemetry
                    .map(|c| c.recorder(pid, TID_WORKER_BASE + n_backends as u32, "fallback-mmse"));
                let mut results = Vec::new();
                while let Some((id, formed)) = queue.pop() {
                    let popped = Instant::now();
                    let job = &jobs[id];
                    let result = classical.detect(&job.inst.system, &job.inst.h, &job.inst.y);
                    let done = Instant::now();
                    if let Some(rec) = &mut recorder {
                        busy_ns[n_backends]
                            .fetch_add((done - popped).as_nanos() as u64, Ordering::Relaxed);
                        completed.fetch_add(1, Ordering::Relaxed);
                        rec.span_wall("stage", "wait", Some(id as u64), formed, popped);
                        rec.span_wall("stage", "solve", Some(id as u64), popped, done);
                    }
                    let ber = bit_error_rate(&job.inst.tx_gray_bits, &result.gray_bits);
                    results.push((id, ber, done));
                }
                results
            })
        };

        // Periodic sampler (telemetry only): queue depths, in-flight count
        // and per-lane utilization roughly every millisecond, entirely
        // read-only against the data plane. It takes one closing sample
        // once told to stop, so a run shorter than the period still
        // records one.
        let sampler_handle = telemetry.map(|collector| {
            let delivery = &delivery;
            let exec_queues = &exec_queues;
            let fallback_queue = &fallback_queue;
            let admitted = &admitted;
            let completed = &completed;
            let busy_ns = &busy_ns;
            let sampler_stop = &sampler_stop;
            let backend_names = backend_names.clone();
            s.spawn(move || {
                let mut last = Instant::now();
                let mut last_busy = vec![0u64; busy_ns.len()];
                loop {
                    let stopping = sampler_stop.load(Ordering::Relaxed);
                    if !stopping {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let now = Instant::now();
                    let ts_us = collector.us_since_origin(now);

                    let mut values = vec![("delivery".to_string(), delivery.depth() as f64)];
                    for (b, queue) in exec_queues.iter().enumerate() {
                        values.push((format!("exec_{}", backend_names[b]), queue.len() as f64));
                    }
                    values.push(("fallback".to_string(), fallback_queue.len() as f64));
                    let in_flight = admitted.load(Ordering::Relaxed) as i64
                        - completed.load(Ordering::Relaxed) as i64;
                    values.push(("in_flight".to_string(), in_flight.max(0) as f64));
                    collector.push_counter(CounterSample {
                        pid,
                        name: "queues",
                        ts_us,
                        values,
                    });

                    let wall_ns = (now - last).as_nanos() as f64;
                    if wall_ns > 0.0 {
                        let values = busy_ns
                            .iter()
                            .enumerate()
                            .map(|(i, busy)| {
                                let total = busy.load(Ordering::Relaxed);
                                let delta = total.saturating_sub(last_busy[i]) as f64;
                                last_busy[i] = total;
                                let name = backend_names
                                    .get(i)
                                    .map(|n| (*n).to_string())
                                    .unwrap_or_else(|| "fallback".to_string());
                                (name, (delta / wall_ns).min(1.0))
                            })
                            .collect();
                        collector.push_counter(CounterSample {
                            pid,
                            name: "utilization",
                            ts_us,
                            values,
                        });
                    }
                    last = now;
                    if stopping {
                        break;
                    }
                }
            })
        });

        // Hands the batches formed and the fallbacks decided since the last
        // call to the executor, stamped with the dispatch instant.
        let mut dispatch = |scheduler: &mut FabricScheduler| {
            for formed in scheduler.take_formed() {
                let at = Instant::now();
                if let Some(stamps) = &mut formed_at {
                    for &id in &formed.jobs {
                        stamps[id] = Some(at);
                    }
                }
                exec_queues[formed.backend].push((formed.jobs, at));
            }
            // A rejected arrival, or the queued (never dispatched) victims
            // a preempting admission evicted.
            for fallback in scheduler.take_fallbacks() {
                let at = Instant::now();
                if let Some(stamps) = &mut formed_at {
                    stamps[fallback.job] = Some(at);
                }
                fallback_queue.push((fallback.job, at));
            }
        };

        // Sequencer (control plane), on this thread: consume deliveries,
        // admit in virtual-arrival order, dispatch what each admission
        // decided.
        let mut next = 0usize;
        let mut consumed = 0usize;
        let mut drained: Vec<(usize, Instant)> = Vec::new();
        while next < n_jobs {
            drained.clear();
            delivery.drain_or_wait(consumed, n_producers, &mut drained);
            consumed += drained.len();
            for &(id, at) in &drained {
                delivered_at[id] = Some(at);
            }
            // Admissions happen strictly in virtual-arrival order: job k
            // is admitted only once delivered, and never before job k-1.
            // This is what pins the trace to the sim's regardless of how
            // producer threads interleave.
            while next < n_jobs && delivered_at[next].is_some() {
                let t_a = jobs[next].arrival_us;
                let t0 = Instant::now();
                scheduler.advance_to(t_a, &jobs);
                scheduler.admit(next, t_a, &jobs);
                let t1 = Instant::now();
                decision_ns += (t1 - t0).as_nanos();
                if let Some(bounds) = &mut admit_bounds {
                    bounds.push((t0, t1));
                    admitted.fetch_add(1, Ordering::Relaxed);
                }
                dispatch(&mut scheduler);
                next += 1;
            }
        }
        // All jobs admitted: run the virtual clock out so residual queued
        // jobs coalesce into their final batches, then release the pools.
        scheduler.drain(&jobs);
        dispatch(&mut scheduler);
        for queue in &exec_queues {
            queue.close();
        }
        fallback_queue.close();

        for handle in worker_handles {
            worker_results.push(handle.join().expect("backend worker panicked"));
        }
        worker_results.push(fallback_handle.join().expect("fallback worker panicked"));
        if let Some(handle) = sampler_handle {
            sampler_stop.store(true, Ordering::Relaxed);
            handle.join().expect("sampler panicked");
        }
    });

    let trace: RouteTrace = scheduler.trace().to_vec();
    assert_eq!(trace.len(), n_jobs, "every job gets a routing decision");

    // Assemble per-job outcomes in job-id order (the same order the sim
    // sums in, so the BER mean is bit-identical).
    let mut ber_by_job: Vec<Option<f64>> = vec![None; n_jobs];
    let mut completed_at: Vec<Option<Instant>> = vec![None; n_jobs];
    for (id, ber, done) in worker_results.into_iter().flatten() {
        ber_by_job[id] = Some(ber);
        completed_at[id] = Some(done);
    }

    // Sequencer-side stage spans and per-cell frame lanes, emitted after
    // the run from the recorded instants.
    if let Some(collector) = telemetry {
        let bounds = admit_bounds.as_ref().expect("observing");
        let stamps = formed_at.as_ref().expect("observing");
        {
            let mut seq = collector.recorder(pid, TID_SEQUENCER, "sequencer");
            for id in 0..n_jobs {
                let delivered = delivered_at[id].expect("delivered");
                let (t0, t1) = bounds[id];
                let job = Some(id as u64);
                seq.span_wall("stage", "enqueue", job, delivered, t0);
                seq.span_wall("stage", "admit", job, t0, t1);
                seq.span_wall("stage", "form", job, t1, stamps[id].expect("formed"));
            }
        }
        let mut producer_recs: Vec<_> = (0..n_producers)
            .map(|p| collector.recorder(pid, TID_PRODUCER_BASE + p as u32, &format!("producer{p}")))
            .collect();
        let mut frame_recs: Vec<_> = (0..config.n_cells)
            .map(|c| collector.recorder(pid, TID_FRAME_BASE + c as u32, &format!("cell{c} frames")))
            .collect();
        for (id, job) in jobs.iter().enumerate() {
            let delivered = delivered_at[id].expect("delivered");
            producer_recs[job.cell % n_producers].mark_wall("produce", Some(id as u64), delivered);
            frame_recs[job.cell].span_wall(
                "job",
                "frame",
                Some(id as u64),
                delivered,
                completed_at[id].expect("completed"),
            );
        }
    }

    let started = delivered_at
        .iter()
        .map(|t| t.expect("every job was delivered"))
        .min()
        .expect("non-empty point");
    let finished = completed_at
        .iter()
        .map(|t| t.expect("every job completed"))
        .max()
        .expect("non-empty point");
    let makespan = finished.duration_since(started);

    // Log-bucketed latency digest: bounded-relative-error percentiles
    // without keeping (or sorting) the full latency vector.
    let mut latency_hist = LogHistogram::new();
    for id in 0..n_jobs {
        let from = delivered_at[id].expect("delivered");
        let to = completed_at[id].expect("completed");
        latency_hist.record(to.duration_since(from).as_secs_f64() * 1e3);
    }

    // Self-check: the control plane alone must take the same decisions.
    let sim_trace = route_trace(config);
    let replay_divergences = diff_traces(&trace, &sim_trace).len();

    let fallbacks = trace.iter().filter(|r| r.is_none()).count();
    let n = n_jobs as f64;
    let report = FabricRtReport {
        mix: String::new(), // filled by the grid runner
        n_cells: config.n_cells,
        arrival_period_us: config.arrival_period_us,
        jobs: n_jobs,
        ber: safe_ratio(
            ber_by_job
                .iter()
                .map(|b| b.expect("every job has a result"))
                .sum::<f64>(),
            n,
        ),
        fallback_rate: safe_ratio(fallbacks as f64, n),
        frames_per_sec: safe_ratio(n, makespan.as_secs_f64()),
        p50_ms: latency_hist.percentile(50.0),
        p99_ms: latency_hist.percentile(99.0),
        p999_ms: latency_hist.percentile(99.9),
        decision_ns_per_job: safe_ratio(decision_ns as f64, n),
        wall_ms: makespan.as_secs_f64() * 1e3,
        replay_divergences,
    };
    (report, trace)
}

// ---------------------------------------------------------------------------
// The grid
// ---------------------------------------------------------------------------

/// A full realtime-fabric sweep: the config echo, one wall-clock report per
/// grid point, and the recorded routing traces (emitted separately as the
/// replay-trace document, not part of `BENCH_fabric_rt.json`).
#[derive(Debug, Clone)]
pub struct FabricRtGridReport {
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
    /// Latency budget on the virtual clock (µs).
    pub deadline_us: f64,
    /// Grid seed.
    pub seed: u64,
    /// Arrival-process tag.
    pub arrival: String,
    /// Producer threads per point.
    pub producers: usize,
    /// Delivery-queue shards per point.
    pub queue_shards: usize,
    /// Per-point reports: mix-major, then cell count, then load.
    pub points: Vec<FabricRtReport>,
    /// Per-point routing traces, parallel to `points`.
    pub traces: Vec<RouteTrace>,
    /// Telemetry digest across all points — present only when the grid ran
    /// with a collector (`--telemetry`); rendered as the `"telemetry"`
    /// stanza of `BENCH_fabric_rt.json`. `None` leaves the document
    /// byte-identical to a pre-telemetry run.
    pub telemetry: Option<TelemetrySummary>,
}

/// Runs the full realtime (mix × cells × load) grid. Points run
/// sequentially — each point's producers and worker pools occupy the
/// machine — over the exact per-point configs the virtual grid expands to,
/// so the sim can replay every trace.
///
/// # Panics
/// Panics when `config.mode` is not [`FabricMode::Realtime`], or on any
/// [`FabricGridConfig::validate`] violation.
pub fn run_fabric_rt_grid(config: &FabricGridConfig) -> FabricRtGridReport {
    run_fabric_rt_grid_observed(config, None)
}

/// [`run_fabric_rt_grid`] with optional telemetry: point `i` of the flat
/// mix-major grid records its spans and counter samples under trace
/// process `i + 1`, and the returned report carries the
/// [`TelemetrySummary`] digest. The routing traces and every deterministic
/// report field are identical with and without a collector.
///
/// # Panics
/// As [`run_fabric_rt_grid`].
pub fn run_fabric_rt_grid_observed(
    config: &FabricGridConfig,
    telemetry: Option<&Collector>,
) -> FabricRtGridReport {
    config.validate().unwrap_or_else(|e| panic!("{e}"));
    let FabricMode::Realtime(rt) = config.mode else {
        panic!("run_fabric_rt_grid needs a realtime-mode config (FabricMode::Realtime)");
    };

    let mut points = Vec::new();
    let mut traces = Vec::new();
    for i in 0..config.grid_len() {
        let (mix_name, point) = config.point(i);
        let (mut report, trace) = run_fabric_rt_point(&point, rt, telemetry, 1 + i as u32);
        report.mix = mix_name.to_string();
        points.push(report);
        traces.push(trace);
    }

    FabricRtGridReport {
        n_users: config.track.n_users,
        n_rx: config.track.n_rx,
        modulation: config.track.modulation.name().to_string(),
        noise_variance: config.track.noise_variance,
        frames_per_cell: config.frames_per_cell,
        deadline_us: config.deadline_us,
        seed: config.seed,
        arrival: config.arrival.name().to_string(),
        producers: rt.producers,
        queue_shards: rt.queue_shards,
        points,
        traces,
        telemetry: telemetry.map(TelemetrySummary::from_collector),
    }
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

record!(FabricRtReport {
    mix: String,
    n_cells: usize,
    arrival_period_us: f64,
    jobs: usize,
    ber: Ratio,
    fallback_rate: Ratio,
    frames_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    decision_ns_per_job: f64,
    wall_ms: f64,
    replay_divergences: usize,
});

impl FabricRtGridReport {
    /// Renders the report as the `BENCH_fabric_rt.json` document (schema in
    /// `crates/bench/README.md`). Wall-clock fields vary per machine and
    /// run; the deterministic fields (`jobs`, `ber`, `fallback_rate`,
    /// `replay_divergences`) do not.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("bench", "fabric-rt".into()),
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
                    ("arrival", self.arrival.as_str().into()),
                    ("producers", self.producers.into()),
                    ("queue_shards", self.queue_shards.into()),
                ]),
            ),
            ("points", Vec::<FabricRtReport>::to_json(&self.points)),
        ];
        if let Some(summary) = &self.telemetry {
            fields.push(("telemetry", summary.to_json()));
        }
        render(
            &Json::object(fields),
            &Layout::Block(&[
                SCENARIO,
                ("points", ROWS),
                ("telemetry", TelemetrySummary::LAYOUT),
            ]),
        )
    }
}

impl crate::report::Report for FabricRtGridReport {
    fn name(&self) -> &'static str {
        "fabric-rt"
    }

    fn schema_version(&self) -> u32 {
        1
    }

    fn to_json(&self) -> String {
        FabricRtGridReport::to_json(self)
    }

    fn table(&self) -> crate::report::Table {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&[
            "mix",
            "cells",
            "period_us",
            "ber",
            "fallback",
            "frames/s",
            "p50_ms",
            "p99_ms",
            "p99.9_ms",
            "decide_ns",
            "diverge",
        ]);
        for p in &self.points {
            table.push_row(vec![
                p.mix.clone(),
                p.n_cells.to_string(),
                fnum(p.arrival_period_us, 0),
                fnum(p.ber, 5),
                fnum(p.fallback_rate, 4),
                fnum(p.frames_per_sec, 1),
                fnum(p.p50_ms, 2),
                fnum(p.p99_ms, 2),
                fnum(p.p999_ms, 2),
                fnum(p.decision_ns_per_job, 0),
                p.replay_divergences.to_string(),
            ]);
        }
        table
    }
}

// ---------------------------------------------------------------------------
// The replay-trace document
// ---------------------------------------------------------------------------

/// Indices where two routing traces disagree (a length mismatch counts
/// every position past the shorter trace).
pub fn diff_traces(recorded: &[Option<usize>], simulated: &[Option<usize>]) -> Vec<usize> {
    let len = recorded.len().max(simulated.len());
    (0..len)
        .filter(|&i| recorded.get(i) != simulated.get(i))
        .collect()
}

/// The tag that marks a replay-trace document.
const TRACE_TAG: (&str, &str) = ("bench", "fabric-rt-trace");

record!(
    /// The replay-trace document behind its [`TRACE_TAG`]: the full spec (so
    /// the replayer can rebuild the exact grid) plus each point's recorded
    /// routing decisions.
    struct TraceDoc {
        spec: Json,
        points: Vec<TracePoint>,
    }
);

record!(
    /// One point of a [`TraceDoc`] (`null` routes are classical fallbacks).
    struct TracePoint {
        mix: String,
        n_cells: usize,
        arrival_period_us: f64,
        routes: Vec<Option<usize>>,
    }
);

/// Renders the replay-trace document: the full spec (so the replayer can
/// rebuild the exact grid) plus each point's recorded routing decisions
/// (`null` = classical fallback). Schema in `crates/bench/README.md`.
pub fn trace_doc(config: &FabricGridConfig, report: &FabricRtGridReport) -> String {
    let doc = TraceDoc {
        spec: ExperimentSpec::Fabric(config.clone()).to_doc(),
        points: report
            .points
            .iter()
            .zip(&report.traces)
            .map(|(p, routes)| TracePoint {
                mix: p.mix.clone(),
                n_cells: p.n_cells,
                arrival_period_us: p.arrival_period_us,
                routes: routes.clone(),
            })
            .collect(),
    };
    let mut text = encode_tagged(TRACE_TAG, &doc).to_string_pretty();
    text.push('\n');
    text
}

/// One point's replay verdict.
#[derive(Debug, Clone)]
pub struct PointReplay {
    /// Backend-mix name.
    pub mix: String,
    /// Radio cells.
    pub n_cells: usize,
    /// Mean per-cell arrival period (µs).
    pub arrival_period_us: f64,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Positions where the recorded trace and the fresh routing disagree.
    pub divergences: Vec<usize>,
}

/// The verdict of replaying a recorded trace document through the
/// virtual-time control plane.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-point verdicts, in document order.
    pub points: Vec<PointReplay>,
}

impl ReplayReport {
    /// Total routing-decision divergences across all points.
    pub fn total_divergences(&self) -> usize {
        self.points.iter().map(|p| p.divergences.len()).sum()
    }
}

/// Replays a recorded trace document through the virtual-time control
/// plane: rebuilds the grid from the embedded spec, routes every point
/// (solving nothing), and diffs each [`RouteTrace`] against the recorded
/// one. Zero divergence is the realtime service's CI contract.
///
/// # Errors
/// Returns a [`SpecError`] on malformed documents or a spec/points
/// mismatch. Divergences are **not** errors — they are the report's
/// content; callers decide the exit status.
pub fn replay_trace_doc(text: &str) -> Result<ReplayReport, SpecError> {
    let ctx = "trace";
    let json = Json::parse(text).map_err(|e| SpecError::new(ctx, e.to_string()))?;
    let doc: TraceDoc = decode_tagged(&json, TRACE_TAG, "not a fabric-rt-trace document", ctx)?;
    let ExperimentSpec::Fabric(config) = ExperimentSpec::from_doc(&doc.spec)? else {
        return Err(SpecError::new(ctx, "embedded spec is not a fabric spec"));
    };
    let total = config.grid_len();
    if total != doc.points.len() {
        return Err(SpecError::new(
            ctx,
            format!(
                "trace has {} points but the spec expands to {total}",
                doc.points.len(),
            ),
        ));
    }

    let mut points = Vec::with_capacity(total);
    for (i, recorded) in doc.points.iter().enumerate() {
        let (mix_name, point_config) = config.point(i);
        if recorded.mix != mix_name {
            return Err(SpecError::new(
                format!("{ctx}.points[{i}]"),
                format!(
                    "point order mismatch: trace says '{}', spec expands to '{mix_name}'",
                    recorded.mix
                ),
            ));
        }
        let sim_trace = route_trace(&point_config);
        points.push(PointReplay {
            mix: mix_name.to_string(),
            n_cells: point_config.n_cells,
            arrival_period_us: point_config.arrival_period_us,
            jobs: recorded.routes.len(),
            divergences: diff_traces(&recorded.routes, &sim_trace),
        });
    }
    Ok(ReplayReport { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{
        run_fabric, AnnealerConfig, ArrivalProcess, BackendMix, BackendSpec, MockQpuConfig,
        NetworkModel, SaPoolConfig,
    };
    use crate::sched::SchedOptions;
    use crate::stream::CostModel;
    use hqw_phy::channel::{snr_db_to_noise_variance, TrackConfig};
    use hqw_phy::modulation::Modulation;
    use hqw_qubo::sa::SaParams;
    use std::time::Duration;

    /// Runs `f` on a helper thread and fails fast (instead of hanging the
    /// suite) if it does not finish within `WATCHDOG` — the queue-deadlock
    /// guard the `[profile.checked]` CI job relies on.
    const WATCHDOG: Duration = Duration::from_secs(120);

    fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(WATCHDOG) {
            Ok(value) => {
                handle.join().expect("watchdog body panicked");
                value
            }
            Err(_) => panic!("{name}: deadlock suspected (no result within {WATCHDOG:?})"),
        }
    }

    fn track() -> TrackConfig {
        TrackConfig {
            n_users: 2,
            n_rx: 2,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(14.0, 2),
        }
    }

    fn quick_pool() -> Vec<BackendSpec> {
        vec![
            BackendSpec::SaPool(SaPoolConfig {
                workers: 2,
                max_batch: 4,
                sa: SaParams {
                    sweeps: 24,
                    num_reads: 1,
                    threads: 1,
                    ..SaParams::default()
                },
            }),
            BackendSpec::Pimc(AnnealerConfig {
                num_reads: 1,
                anneal_us: 1.0,
                sweeps_per_us: 4,
                capacity: 1,
                max_batch: 2,
            }),
            BackendSpec::MockQpu(MockQpuConfig {
                num_reads: 2,
                anneal_us: 1.0,
                sweeps_per_us: 4,
                trotter_slices: 4,
                max_batch: 4,
                network: NetworkModel {
                    rtt_base_us: 30.0,
                    jitter_us: 10.0,
                },
                programming_us: 120.0,
                embed_derive_us_per_qubit: 2.0,
                chain_strength: 2.0,
            }),
        ]
    }

    fn point(
        n_cells: usize,
        period: f64,
        deadline: f64,
        arrival: ArrivalProcess,
        backends: Vec<BackendSpec>,
    ) -> FabricConfig {
        FabricConfig {
            track: track(),
            n_cells,
            frames_per_cell: 12,
            arrival_period_us: period,
            arrival,
            deadline_us: deadline,
            cost: CostModel::default(),
            backends,
            sched: SchedOptions::default(),
            seed: 42,
        }
    }

    fn rt_grid(arrival: ArrivalProcess, rt: RealtimeConfig) -> FabricGridConfig {
        FabricGridConfig {
            track: track(),
            frames_per_cell: 8,
            cell_counts: vec![2, 3],
            arrival_periods_us: vec![300.0, 120.0],
            mixes: vec![BackendMix {
                name: "pool".into(),
                backends: quick_pool(),
            }],
            arrival,
            mode: FabricMode::Realtime(rt),
            deadline_us: 600.0,
            cost: CostModel::default(),
            sched: SchedOptions::default(),
            seed: 7,
            threads: 0,
        }
    }

    #[test]
    fn realtime_routing_matches_the_virtual_sim_under_contention() {
        with_watchdog("contention", || {
            // Bursty load across a heterogeneous pool with real producer
            // and worker threads racing: the recorded decisions must still
            // equal the deterministic sim's, and so must the detected bits.
            let config = point(
                3,
                100.0,
                500.0,
                ArrivalProcess::Bursty { burst: 3 },
                quick_pool(),
            );
            let rt = RealtimeConfig {
                producers: 3,
                queue_shards: 2,
            };
            let (report, trace) = run_fabric_rt_point(&config, rt, None, 1);
            assert_eq!(report.replay_divergences, 0, "routing diverged");
            assert_eq!(report.jobs, 3 * 12);
            let sim = run_fabric(&config);
            assert_eq!(report.ber.to_bits(), sim.ber.to_bits(), "BER drifted");
            assert_eq!(report.fallback_rate, sim.fallback_rate);
            assert_eq!(trace.len(), report.jobs);
            assert!(report.frames_per_sec > 0.0);
            assert!(report.p999_ms >= report.p99_ms);
            assert!(report.p99_ms >= report.p50_ms);
            assert!(report.decision_ns_per_job > 0.0);
        });
    }

    #[test]
    fn fallbacks_and_every_arrival_process_stay_replayable() {
        with_watchdog("arrivals", || {
            for arrival in [
                ArrivalProcess::Periodic,
                ArrivalProcess::Bursty { burst: 4 },
            ] {
                // A tight deadline forces a fallback mixture.
                let config = point(2, 80.0, 250.0, arrival, quick_pool());
                let rt = RealtimeConfig {
                    producers: 2,
                    queue_shards: 3,
                };
                let (report, _) = run_fabric_rt_point(&config, rt, None, 1);
                assert_eq!(report.replay_divergences, 0, "{} diverged", arrival.name());
                let sim = run_fabric(&config);
                assert_eq!(report.ber.to_bits(), sim.ber.to_bits());
            }
        });
    }

    #[test]
    fn grid_runs_and_trace_doc_replays_with_zero_divergence() {
        with_watchdog("replay", || {
            let config = rt_grid(
                ArrivalProcess::Bursty { burst: 2 },
                RealtimeConfig {
                    producers: 2,
                    queue_shards: 2,
                },
            );
            let report = run_fabric_rt_grid(&config);
            assert_eq!(report.points.len(), 2 * 2); // 1 mix x 2 cells x 2 periods
            assert_eq!(report.traces.len(), report.points.len());
            for p in &report.points {
                assert_eq!(p.replay_divergences, 0, "{}: diverged", p.mix);
            }

            let doc = trace_doc(&config, &report);
            let replay = replay_trace_doc(&doc).expect("valid trace doc");
            assert_eq!(replay.points.len(), report.points.len());
            assert_eq!(replay.total_divergences(), 0);

            // A corrupted route is caught at its position.
            let json = Json::parse(&doc).expect("trace doc parses");
            let mut parsed: TraceDoc = decode_tagged(&json, TRACE_TAG, "", "trace").unwrap();
            let route = &mut parsed.points[1].routes[2];
            *route = if *route == Some(0) { Some(1) } else { Some(0) };
            let corrupted = encode_tagged(TRACE_TAG, &parsed).to_string_pretty();
            let replay = replay_trace_doc(&corrupted).expect("still well-formed");
            assert_eq!(replay.total_divergences(), 1);
            assert_eq!(replay.points[1].divergences, vec![2]);

            // A truncated document is an error, not a silent pass.
            assert!(replay_trace_doc("{\"bench\": \"other\"}").is_err());
        });
    }

    #[test]
    fn report_json_is_well_formed_and_tagged() {
        with_watchdog("json", || {
            let config = rt_grid(
                ArrivalProcess::Periodic,
                RealtimeConfig {
                    producers: 1,
                    queue_shards: 1,
                },
            );
            let report = run_fabric_rt_grid(&config);
            let text = FabricRtGridReport::to_json(&report);
            let parsed = Json::parse(&text).expect("report JSON parses");
            assert_eq!(
                parsed.get("bench").and_then(Json::as_str),
                Some("fabric-rt")
            );
            let points = parsed.get("points").and_then(Json::as_arr).expect("points");
            assert_eq!(points.len(), report.points.len());
            for p in points {
                assert!(p.get("frames_per_sec").and_then(Json::as_f64).is_some());
                assert!(p.get("p999_ms").and_then(Json::as_f64).is_some());
                assert!(p
                    .get("decision_ns_per_job")
                    .and_then(Json::as_f64)
                    .is_some());
                assert_eq!(p.get("replay_divergences").and_then(Json::as_u64), Some(0));
            }
        });
    }

    #[test]
    #[should_panic(expected = "FabricConfig: need at least one frame per cell")]
    fn zero_frame_realtime_grid_panics_before_any_thread_starts() {
        // Validation runs before the first point, so a zero-frame grid never
        // reaches a point with no jobs.
        let mut config = rt_grid(
            ArrivalProcess::Periodic,
            RealtimeConfig {
                producers: 2,
                queue_shards: 2,
            },
        );
        config.frames_per_cell = 0;
        run_fabric_rt_grid(&config);
    }

    #[test]
    fn telemetry_never_perturbs_routing_and_spans_are_well_formed() {
        with_watchdog("telemetry", || {
            let config = rt_grid(
                ArrivalProcess::Bursty { burst: 2 },
                RealtimeConfig {
                    producers: 2,
                    queue_shards: 2,
                },
            );
            let baseline = run_fabric_rt_grid(&config);
            let collector = Collector::new();
            let observed = run_fabric_rt_grid_observed(&config, Some(&collector));

            // The zero-perturbation contract: identical routing, identical
            // deterministic fields, zero divergence — bit for bit.
            assert_eq!(baseline.traces, observed.traces);
            for (a, b) in baseline.points.iter().zip(&observed.points) {
                assert_eq!(a.ber.to_bits(), b.ber.to_bits());
                assert_eq!(a.fallback_rate, b.fallback_rate);
                assert_eq!(b.replay_divergences, 0);
            }

            // Per-job stage chains are contiguous: the stage sum equals the
            // end-to-end span (within float eps), and every lifecycle stage
            // shows up.
            let events = collector.events();
            let mut stage_sum: std::collections::BTreeMap<(u32, u64), f64> =
                std::collections::BTreeMap::new();
            let mut end_to_end: std::collections::BTreeMap<(u32, u64), f64> =
                std::collections::BTreeMap::new();
            for e in &events {
                let Some(job) = e.job else { continue };
                match e.cat {
                    "stage" => *stage_sum.entry((e.pid, job)).or_insert(0.0) += e.dur_us,
                    "job" => {
                        end_to_end.insert((e.pid, job), e.dur_us);
                    }
                    _ => {}
                }
            }
            assert!(!end_to_end.is_empty());
            for (key, &total) in &end_to_end {
                let sum = stage_sum.get(key).copied().unwrap_or(f64::NAN);
                assert!(
                    (sum - total).abs() <= 1.0 + total * 1e-9,
                    "job {key:?}: stage sum {sum} vs end-to-end {total}"
                );
            }
            for stage in ["enqueue", "admit", "form", "wait", "solve"] {
                assert!(
                    events.iter().any(|e| e.cat == "stage" && e.name == stage),
                    "missing stage {stage}"
                );
            }
            assert!(
                collector.counters().iter().any(|c| c.name == "queues"),
                "sampler emitted no queue samples"
            );

            // The stanza renders, parses, and appears in the JSON document
            // only when telemetry ran.
            let summary = observed.telemetry.as_ref().expect("summary present");
            assert!(summary.end_to_end.count() > 0);
            assert!(!summary.table().is_empty());
            let with = FabricRtGridReport::to_json(&observed);
            let without = FabricRtGridReport::to_json(&baseline);
            assert!(with.contains("\"telemetry\""));
            assert!(!without.contains("\"telemetry\""));
            Json::parse(&with).expect("telemetry-bearing report parses");

            // The Chrome trace document parses too.
            Json::parse(&collector.to_chrome_json()).expect("chrome trace parses");
        });
    }

    #[test]
    fn diff_traces_flags_value_and_length_mismatches() {
        assert!(diff_traces(&[Some(0), None], &[Some(0), None]).is_empty());
        assert_eq!(diff_traces(&[Some(0), None], &[Some(0), Some(1)]), vec![1]);
        assert_eq!(diff_traces(&[Some(0)], &[Some(0), Some(1)]), vec![1]);
        assert_eq!(diff_traces(&[], &[None]), vec![0]);
    }
}
