//! Zero-perturbation observability for the fabric engines: span recorders,
//! log2-bucketed latency histograms, counter time series, and the Chrome
//! trace-event exporter.
//!
//! ## The zero-perturbation contract
//!
//! Telemetry **reads clocks but feeds nothing back into scheduling**. The
//! realtime service's routing is a pure function of the virtual arrival
//! sequence (the control plane only charges), and the virtual-time engines are
//! deterministic by construction — so enabling telemetry must leave every
//! committed `BENCH_*.json` byte-identical and the replay contract at zero
//! divergence. The `telemetry` CI job pins this with `cmp` on a
//! with/without-telemetry run pair.
//!
//! ## Pieces
//!
//! * [`LogHistogram`] — a hand-rolled log2-bucketed histogram (32 linear
//!   sub-buckets per octave straight from the float's top mantissa bits):
//!   mergeable, serializable, percentile queries with relative error
//!   bounded by one sub-bucket (≤ 1/32). The realtime service records
//!   every latency into one of these instead of keeping and sorting the
//!   full latency vector.
//! * [`Collector`] / [`Recorder`] — per-thread event recording without
//!   shared-lock traffic on the hot path: each thread buffers spans into a
//!   plain `Vec` and flushes once, when the recorder drops.
//! * [`CounterSample`] — the periodic sampler's queue-depth / in-flight /
//!   backend-utilization time series.
//! * [`TelemetrySummary`] — per-stage histograms + counter maxima: the
//!   `TELEMETRY` stanza of `BENCH_fabric_rt.json` and the per-stage CLI
//!   breakdown table.
//! * [`Collector::to_chrome_json`] — the `trace.json` exporter in Chrome
//!   trace-event format (open in Perfetto / `chrome://tracing`).
//!
//! Wall-clock engines stamp spans from `Instant`s against the collector's
//! origin; virtual-clock engines ([`crate::fabric`], [`crate::stream`])
//! emit the same event shapes with virtual-µs timestamps.

use crate::report::{render, Layout, ROWS};
use crate::spec::codec::{record, Field, Record};
use crate::spec::json::Json;
use crate::spec::SpecError;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Log2-bucketed histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per octave: each power-of-two range splits into `2^5 = 32`
/// linear sub-buckets keyed by the value's top 5 mantissa bits.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// A mergeable log2-bucketed histogram with bounded-relative-error
/// percentile queries.
///
/// `record` maps a positive value to `(biased exponent, top 5 mantissa
/// bits)` — a pure bit extraction, no `log2` rounding — so each octave
/// `[2^k, 2^{k+1})` splits into 32 linear sub-buckets. A percentile query
/// walks the cumulative counts and returns the owning bucket's midpoint,
/// clamped into the exact recorded `[min, max]`; the result is within
/// [`LogHistogram::RELATIVE_ERROR`] of the recorded value at that rank.
///
/// Zero, negative and subnormal values collapse into a dedicated zero
/// bucket; non-finite values are ignored. Merging adds bucket counts and
/// widens min/max, so merge is exactly associative and commutative
/// (property-tested in `tests/telemetry_proptests.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// `(biased exponent << 5 | mantissa top bits) → count`.
    buckets: BTreeMap<u64, u64>,
    /// Count of zero/negative/subnormal observations.
    zero: u64,
    /// Total observations (all buckets plus the zero bucket).
    count: u64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Worst-case relative error of a percentile query against the exact
    /// nearest-rank percentile of the recorded values: one sub-bucket,
    /// `1/32`.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(v: f64) -> u64 {
        debug_assert!(v >= f64::MIN_POSITIVE && v.is_finite());
        let bits = v.to_bits();
        let exp = (bits >> 52) & 0x7ff;
        let sub = (bits >> (52 - SUB_BITS)) & (SUB - 1);
        (exp << SUB_BITS) | sub
    }

    /// `[lo, hi)` bounds of bucket `idx` (inverse of the bit extraction).
    fn bucket_bounds(idx: u64) -> (f64, f64) {
        let exp = idx >> SUB_BITS;
        let sub = idx & (SUB - 1);
        let lo = f64::from_bits((exp << 52) | (sub << (52 - SUB_BITS)));
        let hi = if sub + 1 < SUB {
            f64::from_bits((exp << 52) | ((sub + 1) << (52 - SUB_BITS)))
        } else {
            f64::from_bits((exp + 1) << 52)
        };
        (lo, hi)
    }

    /// Records one observation. Non-finite values are ignored; zero,
    /// negative and subnormal values land in the zero bucket.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < f64::MIN_POSITIVE {
            self.zero += 1;
        } else {
            *self.buckets.entry(Self::bucket_index(v)).or_insert(0) += 1;
        }
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank percentile query: the midpoint of the bucket owning
    /// rank `ceil(p/100 · count)`, clamped into the exact `[min, max]`.
    /// Within [`LogHistogram::RELATIVE_ERROR`] of the recorded value at
    /// that rank; 0.0 when empty (a point with no observations reports
    /// zeroed latencies, not NaN).
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "LogHistogram::percentile: p out of range"
        );
        if self.count == 0 {
            return 0.0;
        }
        if p == 0.0 {
            return self.min;
        }
        if p == 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero;
        let raw = if rank <= seen {
            0.0
        } else {
            let mut value = self.max;
            for (&idx, &c) in &self.buckets {
                seen += c;
                if rank <= seen {
                    let (lo, hi) = Self::bucket_bounds(idx);
                    value = 0.5 * (lo + hi);
                    break;
                }
            }
            value
        };
        raw.clamp(self.min, self.max)
    }

    /// Merges another histogram into this one. Exactly associative and
    /// commutative: bucket counts add, min/max widen.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

record!(
    /// The wire form of a [`LogHistogram`]: its `[index, count]` bucket pairs
    /// plus the exact extremes (0 when empty). Bucket keys and counts are
    /// integers and min/max round-trip through the shortest-`Display` float
    /// codec, so decoding is exact.
    struct HistogramDoc {
        sub_buckets: u64,
        count: u64,
        zero: u64,
        min: f64,
        max: f64,
        buckets: Vec<Vec<u64>>,
    }
);

/// A histogram is written as its `HistogramDoc`; reading one back
/// rejects a sub-bucket width other than this build's, malformed or
/// duplicate buckets, and counts that do not add up.
impl Field for LogHistogram {
    type Value = LogHistogram;

    fn to_json(h: &LogHistogram) -> Json {
        HistogramDoc {
            sub_buckets: SUB,
            count: h.count,
            zero: h.zero,
            min: h.min(),
            max: h.max(),
            buckets: h.buckets.iter().map(|(&idx, &c)| vec![idx, c]).collect(),
        }
        .encode()
    }

    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<LogHistogram, SpecError> {
        let ctx = &format!("{ctx}.{key}");
        let doc = HistogramDoc::decode(json, ctx)?;
        if doc.sub_buckets != SUB {
            return Err(SpecError::new(ctx, "sub-bucket width mismatch"));
        }
        let mut buckets = BTreeMap::new();
        for pair in &doc.buckets {
            let &[idx, c] = pair.as_slice() else {
                return Err(SpecError::new(
                    ctx,
                    "bucket entries are [index, count] pairs",
                ));
            };
            if buckets.insert(idx, c).is_some() {
                return Err(SpecError::new(ctx, format!("duplicate bucket index {idx}")));
            }
        }
        if doc.zero + buckets.values().sum::<u64>() != doc.count {
            return Err(SpecError::new(ctx, "bucket counts do not sum to count"));
        }
        let (min, max) = if doc.count == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (doc.min, doc.max)
        };
        Ok(LogHistogram {
            buckets,
            zero: doc.zero,
            count: doc.count,
            min,
            max,
        })
    }
}

// ---------------------------------------------------------------------------
// Events, recorders, counters
// ---------------------------------------------------------------------------

/// One span or mark in the trace. Timestamps are µs — wall-clock spans are
/// stamped relative to the collector's origin, virtual-clock spans carry
/// the simulation's own µs clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Trace process id — one per grid point, so a single `trace.json`
    /// holds the whole sweep.
    pub pid: u32,
    /// Trace thread id within the point (see the engine's tid map).
    pub tid: u32,
    /// Span name (stage name, backend name, …).
    pub name: String,
    /// Category: `"stage"` (one lifecycle stage of one job), `"job"` (a
    /// job's end-to-end span), `"batch"` (a worker's batch solve), or
    /// `"mark"` (an instant).
    pub cat: &'static str,
    /// Start, µs.
    pub ts_us: f64,
    /// Duration, µs (0 for marks).
    pub dur_us: f64,
    /// Job id the event belongs to, when it belongs to one.
    pub job: Option<u64>,
}

/// One periodic-sampler reading: a named set of gauge values at one
/// instant.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Trace process id (grid point).
    pub pid: u32,
    /// Counter-track name (`"queues"`, `"utilization"`, …).
    pub name: &'static str,
    /// Sample time, µs since the collector origin.
    pub ts_us: f64,
    /// `(series name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

#[derive(Debug, Default)]
struct CollectorInner {
    events: Vec<TraceEvent>,
    counters: Vec<CounterSample>,
    processes: BTreeMap<u32, String>,
    threads: BTreeMap<(u32, u32), String>,
}

/// The run-wide telemetry sink. Threads record through per-thread
/// [`Recorder`]s (plain `Vec` buffers, flushed under the lock once at drop)
/// so the hot path takes no shared lock.
#[derive(Debug)]
pub struct Collector {
    origin: Instant,
    inner: Mutex<CollectorInner>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// Creates a collector; wall-clock spans are stamped relative to this
    /// moment.
    pub fn new() -> Self {
        Collector {
            origin: Instant::now(),
            inner: Mutex::new(CollectorInner::default()),
        }
    }

    /// µs elapsed from the collector origin to `t` (0 for instants before
    /// the origin).
    pub fn us_since_origin(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Names a trace process (grid point) in the exported trace.
    pub fn label_process(&self, pid: u32, name: &str) {
        let mut inner = self.inner.lock().expect("collector poisoned");
        inner.processes.insert(pid, name.to_string());
    }

    /// Opens a per-thread recorder on `(pid, tid)`, registering the thread
    /// name. Dropping the recorder flushes its buffered events.
    pub fn recorder(&self, pid: u32, tid: u32, thread_name: &str) -> Recorder<'_> {
        {
            let mut inner = self.inner.lock().expect("collector poisoned");
            inner.threads.insert((pid, tid), thread_name.to_string());
        }
        Recorder {
            collector: self,
            pid,
            tid,
            events: Vec::new(),
        }
    }

    /// Appends one sampler reading.
    pub fn push_counter(&self, sample: CounterSample) {
        let mut inner = self.inner.lock().expect("collector poisoned");
        inner.counters.push(sample);
    }

    fn flush(&self, events: &mut Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("collector poisoned");
        inner.events.append(events);
    }

    /// A deterministic snapshot of every recorded event, sorted by
    /// `(pid, tid, ts, name)` — so virtual-clock traces are byte-stable
    /// across runs regardless of flush interleaving.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("collector poisoned");
        let mut events = inner.events.clone();
        events.sort_by(|a, b| {
            (a.pid, a.tid)
                .cmp(&(b.pid, b.tid))
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(a.name.cmp(&b.name))
                .then(a.job.cmp(&b.job))
        });
        events
    }

    /// A snapshot of every counter sample, sorted by `(pid, name, ts)`.
    pub fn counters(&self) -> Vec<CounterSample> {
        let inner = self.inner.lock().expect("collector poisoned");
        let mut counters = inner.counters.clone();
        counters.sort_by(|a, b| {
            (a.pid, a.name)
                .cmp(&(b.pid, b.name))
                .then(a.ts_us.total_cmp(&b.ts_us))
        });
        counters
    }

    /// Renders the Chrome trace-event document: metadata (process/thread
    /// names), `X` complete events for spans, `i` instants for marks, and
    /// `C` counter events for the sampler series. Load it in Perfetto or
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let (processes, threads) = {
            let inner = self.inner.lock().expect("collector poisoned");
            (inner.processes.clone(), inner.threads.clone())
        };
        let meta = |kind: &str, pid: u32, tid: u32, name: &str| {
            Json::object([
                ("ph", "M".into()),
                ("name", kind.into()),
                ("pid", u64::from(pid).into()),
                ("tid", u64::from(tid).into()),
                ("args", Json::object([("name", name.into())])),
            ])
        };
        let mut events: Vec<Json> = processes
            .iter()
            .map(|(&pid, name)| meta("process_name", pid, 0, name))
            .chain(
                threads
                    .iter()
                    .map(|(&(pid, tid), name)| meta("thread_name", pid, tid, name)),
            )
            .collect();
        for e in self.events() {
            let mut fields = if e.cat == "mark" {
                vec![("ph", "i".into()), ("s", "t".into())]
            } else {
                vec![("ph", "X".into())]
            };
            fields.extend([
                ("name", e.name.as_str().into()),
                ("cat", e.cat.into()),
                ("pid", u64::from(e.pid).into()),
                ("tid", u64::from(e.tid).into()),
                ("ts", e.ts_us.into()),
            ]);
            if e.cat != "mark" {
                fields.push(("dur", e.dur_us.into()));
            }
            let args = e.job.map(|job| ("job", job.into()));
            fields.push(("args", Json::object(args)));
            events.push(Json::object(fields));
        }
        for c in self.counters() {
            let args = c.values.iter().map(|(k, v)| (k.as_str(), (*v).into()));
            events.push(Json::object([
                ("ph", "C".into()),
                ("name", c.name.into()),
                ("pid", u64::from(c.pid).into()),
                ("tid", 0u64.into()),
                ("ts", c.ts_us.into()),
                ("args", Json::object(args)),
            ]));
        }
        let doc = Json::object([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Json::Arr(events)),
        ]);
        render(&doc, &Layout::Line(&[("traceEvents", ROWS)]))
    }

    /// Writes [`Collector::to_chrome_json`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        crate::report::write_creating_parents(path, &self.to_chrome_json())
    }
}

/// A per-thread span buffer opened by [`Collector::recorder`]. Recording
/// appends to a local `Vec`; the collector lock is taken once, on drop.
#[derive(Debug)]
pub struct Recorder<'a> {
    collector: &'a Collector,
    pid: u32,
    tid: u32,
    events: Vec<TraceEvent>,
}

impl Recorder<'_> {
    /// Records a wall-clock span between two instants.
    pub fn span_wall(
        &mut self,
        cat: &'static str,
        name: &str,
        job: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let ts_us = self.collector.us_since_origin(start);
        let dur_us = (self.collector.us_since_origin(end) - ts_us).max(0.0);
        self.span_at(cat, name, job, ts_us, dur_us);
    }

    /// Records a span at explicit µs coordinates (virtual-clock engines).
    pub fn span_at(
        &mut self,
        cat: &'static str,
        name: &str,
        job: Option<u64>,
        ts_us: f64,
        dur_us: f64,
    ) {
        self.events.push(TraceEvent {
            pid: self.pid,
            tid: self.tid,
            name: name.to_string(),
            cat,
            ts_us,
            dur_us,
            job,
        });
    }

    /// Records a wall-clock instant mark.
    pub fn mark_wall(&mut self, name: &str, job: Option<u64>, at: Instant) {
        let ts_us = self.collector.us_since_origin(at);
        self.events.push(TraceEvent {
            pid: self.pid,
            tid: self.tid,
            name: name.to_string(),
            cat: "mark",
            ts_us,
            dur_us: 0.0,
            job,
        });
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        self.collector.flush(&mut self.events);
    }
}

// ---------------------------------------------------------------------------
// Summary: per-stage histograms + counter maxima
// ---------------------------------------------------------------------------

/// One stage's latency histogram within a [`TelemetrySummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name (`"enqueue"`, `"admit"`, `"form"`, `"wait"`, `"solve"`).
    pub stage: String,
    /// Span-duration histogram (µs).
    pub hist: LogHistogram,
}

/// The digest of a collector: per-stage and end-to-end latency histograms
/// plus counter maxima. Rendered as the `TELEMETRY` stanza of
/// `BENCH_fabric_rt.json` and the per-stage CLI breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Per-stage histograms, sorted by stage name.
    pub stages: Vec<StageStats>,
    /// End-to-end (cat `"job"`) span histogram (µs).
    pub end_to_end: LogHistogram,
    /// Total spans recorded (all categories except marks).
    pub spans: usize,
    /// Sampler readings taken.
    pub samples: usize,
    /// `(series name, maximum observed value)` across all counter samples,
    /// sorted by name.
    pub counters: Vec<(String, f64)>,
}

impl TelemetrySummary {
    /// Digests a collector's events and counters.
    pub fn from_collector(collector: &Collector) -> TelemetrySummary {
        let events = collector.events();
        let counters = collector.counters();
        let mut stages: BTreeMap<String, LogHistogram> = BTreeMap::new();
        let mut end_to_end = LogHistogram::new();
        let mut spans = 0usize;
        for e in &events {
            match e.cat {
                "stage" => {
                    spans += 1;
                    stages.entry(e.name.clone()).or_default().record(e.dur_us);
                }
                "job" => {
                    spans += 1;
                    end_to_end.record(e.dur_us);
                }
                "batch" => spans += 1,
                _ => {}
            }
        }
        let mut maxima: BTreeMap<String, f64> = BTreeMap::new();
        for sample in &counters {
            for (name, value) in &sample.values {
                let slot = maxima.entry(name.clone()).or_insert(f64::NEG_INFINITY);
                *slot = slot.max(*value);
            }
        }
        TelemetrySummary {
            stages: stages
                .into_iter()
                .map(|(stage, hist)| StageStats { stage, hist })
                .collect(),
            end_to_end,
            spans,
            samples: counters.len(),
            counters: maxima.into_iter().collect(),
        }
    }

    /// The per-stage latency breakdown table printed by the CLI when
    /// telemetry is enabled.
    pub fn table(&self) -> crate::report::Table {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&["stage", "count", "p50_us", "p90_us", "p99_us", "max_us"]);
        let mut push = |name: &str, hist: &LogHistogram| {
            table.push_row(vec![
                name.to_string(),
                hist.count().to_string(),
                fnum(hist.percentile(50.0), 1),
                fnum(hist.percentile(90.0), 1),
                fnum(hist.percentile(99.0), 1),
                fnum(hist.max(), 1),
            ]);
        };
        for s in &self.stages {
            push(&s.stage, &s.hist);
        }
        push("end_to_end", &self.end_to_end);
        table
    }

    /// The `"telemetry"` stanza of a report (its layout is
    /// `TelemetrySummary::LAYOUT`). The percentile fields are ordered by
    /// construction — `check_telemetry` in `ci/check_bench.py`
    /// re-verifies.
    pub(crate) fn to_json(&self) -> Json {
        let row = |label: &str, hist: &LogHistogram| {
            Json::object([
                ("stage", label.into()),
                ("count", hist.count().into()),
                ("p50_us", hist.percentile(50.0).into()),
                ("p90_us", hist.percentile(90.0).into()),
                ("p99_us", hist.percentile(99.0).into()),
                ("max_us", hist.max().into()),
            ])
        };
        let counters = self.counters.iter().map(|(name, max)| {
            Json::object([("name", name.as_str().into()), ("max", (*max).into())])
        });
        Json::object([
            ("spans", self.spans.into()),
            ("samples", self.samples.into()),
            (
                "stages",
                Json::Arr(self.stages.iter().map(|s| row(&s.stage, &s.hist)).collect()),
            ),
            ("end_to_end", row("end_to_end", &self.end_to_end)),
            ("counters", Json::Arr(counters.collect())),
        ])
    }

    /// The stanza's layout: one key per line, one stage or counter per
    /// line.
    pub(crate) const LAYOUT: Layout = Layout::Block(&[("stages", ROWS), ("counters", ROWS)]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_one_bucket_of_exact() {
        let mut h = LogHistogram::new();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.37).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * 1000.0_f64).ceil().max(1.0) as usize;
            let exact = sorted[rank - 1];
            let approx = h.percentile(p);
            assert!(
                (approx - exact).abs() <= exact * LogHistogram::RELATIVE_ERROR + 1e-12,
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(h.min(), 0.37);
        assert_eq!(h.max(), 370.0);
    }

    #[test]
    fn histogram_percentiles_are_monotone_in_p() {
        let mut h = LogHistogram::new();
        for i in 0..500 {
            h.record(((i * 7919) % 1000) as f64 + 0.5);
        }
        let mut prev = f64::NEG_INFINITY;
        for p in 0..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn histogram_handles_zero_negative_and_nonfinite() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 3); // NaN and inf ignored
        assert_eq!(h.percentile(0.0), -3.0); // clamped to exact min
        assert_eq!(h.percentile(100.0), 2.0);
    }

    #[test]
    fn empty_histogram_is_total() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_merge_equals_sequential() {
        let mut whole = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for i in 0..200 {
            let v = (i as f64 * 1.7).exp().min(1e12) % 997.0;
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = LogHistogram::new();
        for v in [0.0, 1e-9, 0.5, 1.0, 3.25, 1e6, 7.0] {
            h.record(v);
        }
        let round_trip =
            |h: &LogHistogram| LogHistogram::from_json(&LogHistogram::to_json(h), "hist", "test");
        assert_eq!(round_trip(&h).expect("round trip"), h);

        let empty = LogHistogram::new();
        assert_eq!(round_trip(&empty).expect("empty round trip"), empty);

        // Inconsistent totals are rejected, not silently absorbed.
        let mut doc = LogHistogram::to_json(&h);
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "count" {
                    *v = Json::UInt(99);
                }
            }
        }
        assert!(LogHistogram::from_json(&doc, "hist", "test").is_err());
    }

    #[test]
    fn recorder_flushes_on_drop_and_events_sort_deterministically() {
        let collector = Collector::new();
        collector.label_process(1, "point-0");
        {
            let mut rec = collector.recorder(1, 2, "worker");
            rec.span_at("stage", "solve", Some(4), 20.0, 5.0);
            rec.span_at("stage", "solve", Some(3), 10.0, 5.0);
            assert!(collector.events().is_empty(), "buffered until drop");
        }
        let events = collector.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].job, Some(3)); // sorted by ts
        assert_eq!(events[1].job, Some(4));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_phases() {
        let collector = Collector::new();
        collector.label_process(1, "point \"zero\"");
        {
            let mut rec = collector.recorder(1, 1, "sequencer");
            rec.span_at("stage", "admit", Some(0), 1.0, 2.0);
            rec.mark_wall("produce", Some(0), Instant::now());
        }
        collector.push_counter(CounterSample {
            pid: 1,
            name: "queues",
            ts_us: 5.0,
            values: vec![("delivery".to_string(), 3.0)],
        });
        let text = collector.to_chrome_json();
        let doc = Json::parse(&text).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert!(phases.contains(&"M"));
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
    }

    #[test]
    fn summary_digests_stages_and_counters() {
        let collector = Collector::new();
        {
            let mut rec = collector.recorder(1, 1, "t");
            rec.span_at("stage", "admit", Some(0), 0.0, 2.0);
            rec.span_at("stage", "solve", Some(0), 2.0, 8.0);
            rec.span_at("job", "frame", Some(0), 0.0, 10.0);
            rec.span_at("batch", "sa-pool", None, 2.0, 8.0);
        }
        collector.push_counter(CounterSample {
            pid: 1,
            name: "queues",
            ts_us: 1.0,
            values: vec![("delivery".to_string(), 2.0)],
        });
        collector.push_counter(CounterSample {
            pid: 1,
            name: "queues",
            ts_us: 2.0,
            values: vec![("delivery".to_string(), 5.0)],
        });
        let summary = TelemetrySummary::from_collector(&collector);
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.samples, 2);
        assert_eq!(summary.stages.len(), 2);
        let p50 = |name: &str| {
            summary
                .stages
                .iter()
                .find(|s| s.stage == name)
                .map(|s| s.hist.percentile(50.0))
        };
        assert_eq!(p50("admit"), Some(2.0));
        assert_eq!(p50("missing"), None);
        assert_eq!(summary.end_to_end.count(), 1);
        assert_eq!(summary.counters, vec![("delivery".to_string(), 5.0)]);

        // The stanza parses and keeps its percentile ordering.
        let stanza = render(&summary.to_json(), &TelemetrySummary::LAYOUT);
        let doc = Json::parse(&stanza).expect("stanza parses");
        for stage in doc.get("stages").and_then(Json::as_arr).expect("stages") {
            let p50 = stage.get("p50_us").and_then(Json::as_f64).unwrap();
            let p99 = stage.get("p99_us").and_then(Json::as_f64).unwrap();
            let max = stage.get("max_us").and_then(Json::as_f64).unwrap();
            assert!(p50 <= p99 && p99 <= max);
        }

        // The breakdown table has one row per stage plus end-to-end.
        assert_eq!(summary.table().len(), 3);
    }
}
