//! The adaptive-vs-static scheduling experiment: the paired fabric sweep
//! behind `BENCH_sched.json`.
//!
//! The fabric's admission control budgets against a cost model; the
//! interesting question for the adaptive plane (`crate::sched`) is what
//! happens when that model is *wrong*. This experiment runs every grid
//! point under two **workloads** —
//!
//! * `"calibrated"` — the planner's cost model is the true one, and
//! * `"mispredicted"` — admission quotes come from a deliberately
//!   miscalibrated [`CostModel`] while charging stays honest,
//!
//! and under two **arms** per point: the historical static scheduler and
//! the configured learning policy. Both arms of a point share one seed, one
//! frame stream and one class assignment, so the comparison isolates the
//! scheduler. The CI gate (`ci/check_bench.py --sched`) pins the headline:
//! the adaptive arm must dominate static under miscalibration and match it
//! under calibration.
//!
//! Per-class statistics aggregate across grid points through the mergeable
//! [`LogHistogram`] carried by every [`crate::sched::ClassReport`] —
//! percentiles of the
//! merged distribution, never averages of averages — which is also what
//! keeps sharded runs (`hqw run --shard k/N`) byte-identical to
//! single-process ones.

use crate::fabric::{render_coordinates, run_fabric, BackendMix, FabricConfig, FabricReport};
use crate::grid::{check_coordinates, GridEngine};
use crate::pipeline::item_seed;
use crate::scenario::json_num;
use crate::sched::{ClassMix, PriorityClass, SchedOptions, SchedPolicy};
use crate::spec::json::Json;
use crate::spec::{check_keys, req, req_f64, req_str, req_usize, SpecError};
use crate::stream::CostModel;
use crate::telemetry::{Collector, LogHistogram};
use hqw_phy::channel::TrackConfig;

/// The two planner-calibration workloads, in grid order.
pub const SCHED_WORKLOADS: [&str; 2] = ["calibrated", "mispredicted"];

/// Configuration of the (workload × cells × load) adaptive-scheduling
/// sweep. One backend mix, one learning policy; every point runs both the
/// static and the adaptive arm.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedGridConfig {
    /// Channel process shared by every cell.
    pub track: TrackConfig,
    /// Frames per cell.
    pub frames_per_cell: usize,
    /// Cell counts to sweep.
    pub cell_counts: Vec<usize>,
    /// Per-cell arrival periods to sweep (µs), descending = rising load.
    pub arrival_periods_us: Vec<f64>,
    /// The backend pool both arms route over.
    pub mix: BackendMix,
    /// The learning policy of the adaptive arm (must not be
    /// [`SchedPolicy::Static`] — that is the control arm).
    pub policy: SchedPolicy,
    /// Offered traffic mix over the service tiers (both arms).
    pub classes: ClassMix,
    /// The miscalibrated planner model of the `"mispredicted"` workload.
    /// Admission quotes use it; charging stays on `cost`.
    pub assumed_cost: CostModel,
    /// Latency budget shared by every point (µs).
    pub deadline_us: f64,
    /// The true work-counter → service-time model.
    pub cost: CostModel,
    /// Grid seed. Point seeds derive from it and the cell-count index only,
    /// so workloads, loads and arms all see identical frames.
    pub seed: u64,
    /// Worker threads for the point fan-out (0 = all cores).
    pub threads: usize,
}

impl SchedGridConfig {
    /// Validates the grid configuration.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let ctx = "SchedGridConfig";
        if self.policy == SchedPolicy::Static {
            return Err(SpecError::new(
                ctx,
                "the adaptive arm's policy must not be \"static\" \
                 (static is the built-in control arm)",
            ));
        }
        if self.cell_counts.is_empty() {
            return Err(SpecError::new(ctx, "empty cells axis"));
        }
        if self.arrival_periods_us.is_empty() {
            return Err(SpecError::new(ctx, "empty load axis"));
        }
        // Every point shares the remaining parameters; validate once per
        // (workload, arm) through a representative point.
        for workload in SCHED_WORKLOADS {
            for adaptive in [false, true] {
                self.point_config(
                    workload,
                    self.cell_counts[0],
                    self.arrival_periods_us[0],
                    0,
                    adaptive,
                )
                .validate()?;
            }
        }
        Ok(())
    }

    /// The scheduling options of one arm under one workload.
    fn arm_options(&self, workload: &str, adaptive: bool) -> SchedOptions {
        SchedOptions {
            policy: if adaptive {
                self.policy
            } else {
                SchedPolicy::Static
            },
            assumed_cost: if workload == "mispredicted" {
                Some(self.assumed_cost)
            } else {
                None
            },
            classes: self.classes,
        }
    }

    /// The fabric point configuration of one arm of one grid point.
    fn point_config(
        &self,
        workload: &str,
        n_cells: usize,
        arrival_period_us: f64,
        cells_idx: usize,
        adaptive: bool,
    ) -> FabricConfig {
        FabricConfig {
            track: self.track,
            n_cells,
            frames_per_cell: self.frames_per_cell,
            arrival_period_us,
            arrival: crate::fabric::ArrivalProcess::Periodic,
            deadline_us: self.deadline_us,
            cost: self.cost,
            backends: self.mix.backends.clone(),
            sched: self.arm_options(workload, adaptive),
            // Cell-count-indexed only: identical frames across workloads,
            // loads and arms.
            seed: item_seed(self.seed, cells_idx),
        }
    }

    /// Point `id`'s (workload, cell-count index, arrival period):
    /// workload-major, then cell count, then load.
    fn coordinates(&self, id: usize) -> (&'static str, usize, f64) {
        let loads = self.arrival_periods_us.len();
        let cells_n = self.cell_counts.len();
        (
            SCHED_WORKLOADS[id / (cells_n * loads)],
            (id / loads) % cells_n,
            self.arrival_periods_us[id % loads],
        )
    }
}

/// One (workload, cells, load) grid point: the same fabric run under both
/// arms.
#[derive(Debug, Clone)]
pub struct SchedPointReport {
    /// `"calibrated"` or `"mispredicted"`.
    pub workload: String,
    /// Radio cells sharing the fabric.
    pub n_cells: usize,
    /// Per-cell arrival period (µs).
    pub arrival_period_us: f64,
    /// The static control arm.
    pub static_arm: FabricReport,
    /// The learning arm.
    pub adaptive: FabricReport,
}

impl SchedPointReport {
    /// Renders the point as a single-line JSON object (the shard/checkpoint
    /// payload and one entry of the report's `points` array).
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"n_cells\": {}, \"arrival_period_us\": {}, \
             \"static\": {}, \"adaptive\": {}}}",
            self.workload,
            self.n_cells,
            json_num(self.arrival_period_us),
            self.static_arm.to_json_object(),
            self.adaptive.to_json_object(),
        )
    }

    /// Parses a [`SchedPointReport::to_json_object`] document back exactly.
    pub(crate) fn from_json(o: &Json, ctx: &str) -> Result<SchedPointReport, SpecError> {
        check_keys(
            o,
            &[
                "workload",
                "n_cells",
                "arrival_period_us",
                "static",
                "adaptive",
            ],
            ctx,
        )?;
        Ok(SchedPointReport {
            workload: req_str(o, "workload", ctx)?.to_string(),
            n_cells: req_usize(o, "n_cells", ctx)?,
            arrival_period_us: req_f64(o, "arrival_period_us", ctx)?,
            static_arm: FabricReport::from_json(req(o, "static", ctx)?, &format!("{ctx}.static"))?,
            adaptive: FabricReport::from_json(
                req(o, "adaptive", ctx)?,
                &format!("{ctx}.adaptive"),
            )?,
        })
    }
}

/// Cross-point aggregate of one arm under one workload — what the CI gate
/// reads and the results table prints. Derived entirely from the point
/// reports at render time (merged [`LogHistogram`]s, summed integer
/// counters), so shard merges reproduce it exactly.
#[derive(Debug, Clone)]
pub struct ArmSummary {
    /// `"calibrated"` or `"mispredicted"`.
    pub workload: String,
    /// `"static"` or `"adaptive"`.
    pub arm: String,
    /// Total jobs across the workload's points.
    pub jobs: usize,
    /// Jobs that missed their class-effective deadline.
    pub misses: usize,
    /// Fraction of jobs downgraded to the classical fallback.
    pub fallback_rate: f64,
    /// 99th-percentile latency of the merged distribution (µs).
    pub p99_latency_us: f64,
    /// Total preemptions.
    pub preemptions: u64,
    /// Per-class aggregates, most-urgent first, empty classes omitted.
    pub classes: Vec<ClassSummary>,
}

/// Per-class slice of an [`ArmSummary`].
#[derive(Debug, Clone)]
pub struct ClassSummary {
    /// The class.
    pub class: PriorityClass,
    /// Jobs of this class.
    pub jobs: usize,
    /// Class-effective deadline misses.
    pub misses: usize,
    /// 99th-percentile latency of the merged class distribution (µs).
    pub p99_latency_us: f64,
}

impl ArmSummary {
    fn to_json_object(&self) -> String {
        let classes = self
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"class\": \"{}\", \"jobs\": {}, \"misses\": {}, \
                     \"p99_latency_us\": {}}}",
                    c.class.name(),
                    c.jobs,
                    c.misses,
                    json_num(c.p99_latency_us)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"workload\": \"{}\", \"arm\": \"{}\", \"jobs\": {}, \
             \"misses\": {}, \"fallback_rate\": {}, \"p99_latency_us\": {}, \
             \"preemptions\": {}, \"classes\": [{classes}]}}",
            self.workload,
            self.arm,
            self.jobs,
            self.misses,
            json_num(self.fallback_rate),
            json_num(self.p99_latency_us),
            self.preemptions,
        )
    }
}

/// The full adaptive-scheduling report: config echo, per-point reports, and
/// the derived per-arm summaries.
#[derive(Debug, Clone)]
pub struct SchedGridReport {
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
    /// Nominal latency budget (µs).
    pub deadline_us: f64,
    /// Adaptive-arm policy name (`"ewma"` / `"ucb"`).
    pub policy: String,
    /// Backend-mix name.
    pub mix: String,
    /// Grid seed.
    pub seed: u64,
    /// Per-point reports: workload-major, then cell count, then load.
    pub points: Vec<SchedPointReport>,
}

impl SchedGridReport {
    /// Aggregates each (workload, arm) across its grid points: integer
    /// counters summed, percentiles from the merged per-class
    /// [`LogHistogram`]s.
    pub fn summaries(&self) -> Vec<ArmSummary> {
        let mut out = Vec::new();
        for workload in SCHED_WORKLOADS {
            for arm in ["static", "adaptive"] {
                let reports: Vec<&FabricReport> = self
                    .points
                    .iter()
                    .filter(|p| p.workload == workload)
                    .map(|p| {
                        if arm == "static" {
                            &p.static_arm
                        } else {
                            &p.adaptive
                        }
                    })
                    .collect();
                if reports.is_empty() {
                    continue;
                }
                let mut hist = LogHistogram::new();
                let mut classes = Vec::new();
                for class in PriorityClass::ALL {
                    let mut c_hist = LogHistogram::new();
                    let mut jobs = 0usize;
                    let mut misses = 0usize;
                    for r in &reports {
                        for c in r.classes.iter().filter(|c| c.class == class) {
                            c_hist.merge(&c.hist);
                            jobs += c.jobs;
                            misses += c.misses;
                        }
                    }
                    if jobs == 0 {
                        continue;
                    }
                    hist.merge(&c_hist);
                    classes.push(ClassSummary {
                        class,
                        jobs,
                        misses,
                        p99_latency_us: c_hist.percentile(99.0),
                    });
                }
                let jobs: usize = classes.iter().map(|c| c.jobs).sum();
                let misses: usize = classes.iter().map(|c| c.misses).sum();
                let total_jobs: usize = reports.iter().map(|r| r.jobs).sum();
                let fallbacks: f64 = reports
                    .iter()
                    .map(|r| r.fallback_rate * r.jobs as f64)
                    .sum();
                out.push(ArmSummary {
                    workload: workload.to_string(),
                    arm: arm.to_string(),
                    jobs,
                    misses,
                    fallback_rate: if total_jobs > 0 {
                        fallbacks / total_jobs as f64
                    } else {
                        0.0
                    },
                    p99_latency_us: hist.percentile(99.0),
                    preemptions: reports.iter().map(|r| r.preemptions).sum(),
                    classes,
                });
            }
        }
        out
    }

    /// Renders the report as the `BENCH_sched.json` document (schema in
    /// `crates/bench/README.md`). Pure function of the report contents:
    /// byte-identical across runs, thread counts and shard partitions.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"sched\",\n  \"scenario\": {\n");
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
        s.push_str(&format!("    \"policy\": \"{}\",\n", self.policy));
        s.push_str(&format!("    \"mix\": \"{}\",\n", self.mix));
        s.push_str(&format!("    \"seed\": {}\n  }},\n", self.seed));
        s.push_str("  \"summary\": [\n");
        let summaries = self.summaries();
        for (i, a) in summaries.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&a.to_json_object());
            s.push_str(if i + 1 < summaries.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n  \"points\": [\n");
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

impl crate::report::Report for SchedGridReport {
    fn name(&self) -> &'static str {
        "sched"
    }

    fn schema_version(&self) -> u32 {
        1
    }

    fn to_json(&self) -> String {
        SchedGridReport::to_json(self)
    }

    fn table(&self) -> crate::report::Table {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&[
            "workload",
            "arm",
            "jobs",
            "miss_rate",
            "fallback",
            "p99_us",
            "urllc_p99",
            "embb_p99",
            "bulk_p99",
            "preempt",
        ]);
        for a in self.summaries() {
            let class_p99 = |class: PriorityClass| -> String {
                a.classes
                    .iter()
                    .find(|c| c.class == class)
                    .map_or("-".to_string(), |c| fnum(c.p99_latency_us, 1))
            };
            table.push_row(vec![
                a.workload.clone(),
                a.arm.clone(),
                a.jobs.to_string(),
                fnum(a.misses as f64 / a.jobs.max(1) as f64, 4),
                fnum(a.fallback_rate, 4),
                fnum(a.p99_latency_us, 1),
                class_p99(PriorityClass::Urllc),
                class_p99(PriorityClass::Embb),
                class_p99(PriorityClass::Bulk),
                a.preemptions.to_string(),
            ]);
        }
        table
    }
}

/// The sched grid is the `sched` family's [`GridEngine`]: point `id` is
/// one (workload, cells, load) point of the workload-major grid, and runs
/// the virtual-time fabric sim **twice** (static arm, then adaptive arm)
/// over identical frames.
impl GridEngine for SchedGridConfig {
    type Unit = SchedPointReport;
    type Point = SchedPointReport;
    type Report = SchedGridReport;

    fn validate(&self) -> Result<(), SpecError> {
        SchedGridConfig::validate(self)
    }

    fn grid_len(&self) -> usize {
        SCHED_WORKLOADS.len() * self.cell_counts.len() * self.arrival_periods_us.len()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn run_unit(&self, id: usize, _: usize, _: Option<&Collector>, _: u32) -> SchedPointReport {
        let (workload, cells_idx, period) = self.coordinates(id);
        let n_cells = self.cell_counts[cells_idx];
        let run_arm = |adaptive: bool| -> FabricReport {
            let mut report =
                run_fabric(&self.point_config(workload, n_cells, period, cells_idx, adaptive));
            report.mix = self.mix.name.clone();
            report
        };
        SchedPointReport {
            workload: workload.to_string(),
            n_cells,
            arrival_period_us: period,
            static_arm: run_arm(false),
            adaptive: run_arm(true),
        }
    }

    fn reduce(&self, _: usize, mut units: Vec<SchedPointReport>) -> SchedPointReport {
        units.pop().expect("one unit per sched point")
    }

    fn encode(&self, point: &SchedPointReport) -> String {
        point.to_json_object()
    }

    fn decode(&self, id: usize, doc: &Json, ctx: &str) -> Result<SchedPointReport, SpecError> {
        let point = SchedPointReport::from_json(doc, ctx)?;
        let (workload, cells_idx, period) = self.coordinates(id);
        check_coordinates(
            ctx,
            render_coordinates(&point.workload, point.n_cells, point.arrival_period_us),
            render_coordinates(workload, self.cell_counts[cells_idx], period),
        )?;
        Ok(point)
    }

    fn assemble(&self, points: Vec<SchedPointReport>) -> Result<SchedGridReport, SpecError> {
        Ok(SchedGridReport {
            n_users: self.track.n_users,
            n_rx: self.track.n_rx,
            modulation: self.track.modulation.name().to_string(),
            noise_variance: self.track.noise_variance,
            frames_per_cell: self.frames_per_cell,
            deadline_us: self.deadline_us,
            policy: self.policy.name().to_string(),
            mix: self.mix.name.clone(),
            seed: self.seed,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{BackendSpec, SaPoolConfig};
    use crate::grid::{assemble_records, run_grid};
    use crate::report::PointRecord;
    use hqw_phy::channel::snr_db_to_noise_variance;
    use hqw_phy::modulation::Modulation;
    use hqw_qubo::sa::SaParams;

    fn track() -> TrackConfig {
        TrackConfig {
            n_users: 2,
            n_rx: 2,
            modulation: Modulation::Qpsk,
            rho: 0.9,
            noise_variance: snr_db_to_noise_variance(14.0, 2),
        }
    }

    fn quick_config(threads: usize) -> SchedGridConfig {
        SchedGridConfig {
            track: track(),
            frames_per_cell: 12,
            cell_counts: vec![2],
            arrival_periods_us: vec![300.0, 150.0],
            mix: BackendMix {
                name: "sa-pool".into(),
                backends: vec![BackendSpec::SaPool(SaPoolConfig {
                    workers: 2,
                    max_batch: 4,
                    sa: SaParams {
                        sweeps: 32,
                        num_reads: 2,
                        threads: 1,
                        ..SaParams::default()
                    },
                })],
            },
            policy: SchedPolicy::Ewma { shift: 1 },
            classes: ClassMix {
                urllc: 1,
                embb: 2,
                bulk: 1,
            },
            assumed_cost: CostModel {
                us_per_sweep: 0.15,
                ..CostModel::default()
            },
            deadline_us: 700.0,
            cost: CostModel::default(),
            seed: 11,
            threads,
        }
    }

    #[test]
    fn rejects_a_static_adaptive_arm() {
        let mut config = quick_config(1);
        config.policy = SchedPolicy::Static;
        assert!(config.validate().is_err());
    }

    #[test]
    fn grid_is_deterministic_and_thread_invariant() {
        let serial = run_grid(&quick_config(1), None).to_json();
        let parallel = run_grid(&quick_config(0), None).to_json();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn calibrated_points_route_identically_across_arms() {
        // Jitter-free backends + the true cost model: the EWMA corrections
        // stay pinned at identity, so the adaptive arm must reproduce the
        // static arm byte-for-byte on the calibrated workload.
        let report = run_grid(&quick_config(0), None);
        for p in report.points.iter().filter(|p| p.workload == "calibrated") {
            assert_eq!(
                p.static_arm.to_json_object(),
                p.adaptive.to_json_object(),
                "calibrated arms diverged at cells={} period={}",
                p.n_cells,
                p.arrival_period_us
            );
        }
    }

    #[test]
    fn summaries_cover_both_workloads_and_arms() {
        let report = run_grid(&quick_config(0), None);
        let summaries = report.summaries();
        assert_eq!(summaries.len(), 4);
        for a in &summaries {
            assert!(a.jobs > 0);
            assert!(!a.classes.is_empty());
            // Classes report most-urgent first.
            for w in a.classes.windows(2) {
                assert!(w[0].class.rank() > w[1].class.rank());
            }
        }
    }

    /// The report's points, encoded as shard/checkpoint records.
    fn records(config: &SchedGridConfig, report: &SchedGridReport) -> Vec<PointRecord> {
        report
            .points
            .iter()
            .enumerate()
            .map(|(id, point)| PointRecord {
                id,
                payload: config.encode(point),
            })
            .collect()
    }

    #[test]
    fn report_round_trips_through_points() {
        let config = quick_config(0);
        let report = run_grid(&config, None);
        let rebuilt = assemble_records(&config, records(&config, &report)).expect("round trip");
        assert_eq!(rebuilt.to_json(), report.to_json());
    }

    #[test]
    fn from_points_rejects_mismatched_coordinates() {
        let config = quick_config(0);
        let report = run_grid(&config, None);
        let mut points = records(&config, &report);
        points.swap(0, 1);
        let (a, b) = (points[0].id, points[1].id);
        points[0].id = b;
        points[1].id = a;
        let err = assemble_records(&config, points).unwrap_err();
        assert!(
            err.to_string().contains("do not match"),
            "unexpected error: {err}"
        );
    }
}
