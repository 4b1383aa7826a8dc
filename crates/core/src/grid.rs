//! The one grid engine: every point-grid experiment (`ber`, `stream`,
//! `fabric`, `sched` and the paper figures) runs, shards, merges and
//! resumes through this module.
//!
//! An experiment family implements [`GridEngine`] — how many points its
//! grid has, how to compute one point, how to check a decoded point
//! against its grid coordinates, and how to assemble the report — and gets
//! the rest once, generically (a point is a [`Record`], so its payload
//! codec is its field table):
//!
//! * [`run_grid`] / [`run_records`] — id validation plus the
//!   [`parallel_map_indexed`] fan-out. The unit of parallel work is a
//!   (point, unit) pair, so an engine whose points are expensive
//!   aggregates (the BER sweep's SNR columns, averaged over channel
//!   realizations) fans out below the point level.
//! * [`run_records`] / [`assemble_records`] — the shard/checkpoint record
//!   codec: ids checked to cover the grid exactly, payloads decoded and
//!   cross-checked against their grid coordinates, the report reassembled
//!   byte-identical to a single-process run.
//! * [`spec_grid`] — the family dispatch: the one `match` from an
//!   [`ExperimentSpec`] to its engine, behind the type-erased [`SpecGrid`]
//!   surface the distributed plane (`crate::shard`) drives.
//!
//! ## Determinism contract
//!
//! A point's result must depend only on the engine and the point's id in
//! the **full** grid — never on which subset of ids is running, the thread
//! count, or thread placement — so any shard partition merges back to the
//! single-run bytes. Units are reduced serially in grid order.

use crate::fabric::FabricMode;
use crate::report::{PointRecord, Report};
use crate::scenario::{paper_roster, BerSweep};
use crate::spec::codec::Record;
use crate::spec::json::Json;
use crate::spec::{ExperimentSpec, SpecError};
use crate::telemetry::Collector;
use hqw_math::parallel::parallel_map_indexed;

/// One experiment family's point grid.
///
/// Implementations are cheap views over a configuration: the generic
/// runners call [`GridEngine::run_unit`] from worker threads, so engines
/// hold no mutable state.
pub trait GridEngine: Sync {
    /// The result of one unit of parallel work.
    type Unit: Send;
    /// The result of one grid point (one shard/checkpoint record).
    type Point: Record;
    /// The assembled report.
    type Report: Report + 'static;

    /// Validates the configuration (the runners panic with its message).
    ///
    /// # Errors
    /// Returns the first violated constraint.
    fn validate(&self) -> Result<(), SpecError>;

    /// Number of points in the full grid (ids are `0..grid_len`).
    fn grid_len(&self) -> usize;

    /// Worker threads for the fan-out (0 = all available cores).
    fn threads(&self) -> usize;

    /// Units of parallel work per point (default 1: the point is the unit).
    fn units_per_point(&self) -> usize {
        1
    }

    /// Runs unit `unit` of point `id`. Telemetry, when given, is emitted
    /// under trace process `pid` (`id + 1`, stable whether the point runs
    /// alone or as part of the full grid).
    fn run_unit(
        &self,
        id: usize,
        unit: usize,
        telemetry: Option<&Collector>,
        pid: u32,
    ) -> Self::Unit;

    /// Reduces a point's units (in unit order) to the point's result.
    fn reduce(&self, id: usize, units: Vec<Self::Unit>) -> Self::Point;

    /// Reads a record payload back ([`Record::decode`] plus whatever the
    /// payload leaves to the spec), rejecting out-of-range values and grid
    /// coordinates that contradict the record's id.
    ///
    /// # Errors
    /// Returns a [`SpecError`] naming the offending field.
    fn decode(&self, id: usize, doc: &Json, ctx: &str) -> Result<Self::Point, SpecError>;

    /// Assembles the report from every point, in grid order.
    ///
    /// # Errors
    /// Returns a [`SpecError`] when decoded points disagree with each other
    /// (records from different runs).
    fn assemble(&self, points: Vec<Self::Point>) -> Result<Self::Report, SpecError>;
}

/// Runs the points `ids` (strictly increasing, in range) with the exact
/// results they have in the full grid.
///
/// # Panics
/// Panics on an invalid configuration or on ids that are out of range or
/// not strictly increasing.
fn run_points<E: GridEngine>(
    engine: &E,
    ids: &[usize],
    telemetry: Option<&Collector>,
) -> Vec<E::Point> {
    if let Err(e) = engine
        .validate()
        .and_then(|()| check_point_ids(ids, engine.grid_len(), "run_points"))
    {
        panic!("{e}");
    }
    let per_point = engine.units_per_point();
    let cells: Vec<(usize, usize)> = ids
        .iter()
        .flat_map(|&id| (0..per_point).map(move |unit| (id, unit)))
        .collect();
    let mut units = parallel_map_indexed(&cells, engine.threads(), |_, &(id, unit)| {
        engine.run_unit(id, unit, telemetry, 1 + id as u32)
    })
    .into_iter();
    ids.iter()
        .map(|&id| engine.reduce(id, units.by_ref().take(per_point).collect()))
        .collect()
}

/// Runs the full grid and assembles its report.
///
/// # Panics
/// Panics on an invalid configuration.
pub fn run_grid<E: GridEngine>(engine: &E, telemetry: Option<&Collector>) -> E::Report {
    let ids: Vec<usize> = (0..engine.grid_len()).collect();
    engine
        .assemble(run_points(engine, &ids, telemetry))
        .expect("points of one run assemble")
}

/// Runs the points `ids` and encodes them as shard/checkpoint records.
///
/// # Panics
/// Panics on an invalid configuration or on ids that are out of range or
/// not strictly increasing.
pub fn run_records<E: GridEngine>(engine: &E, ids: &[usize]) -> Vec<PointRecord> {
    run_points(engine, ids, None)
        .iter()
        .zip(ids)
        .map(|(point, &id)| PointRecord {
            id,
            payload: point.encode(),
        })
        .collect()
}

/// Reassembles the report from a complete set of records (any order).
///
/// # Errors
/// Returns a [`SpecError`] when ids are missing, duplicated or out of
/// range, or a payload fails to decode.
pub fn assemble_records<E: GridEngine>(
    engine: &E,
    mut records: Vec<PointRecord>,
) -> Result<E::Report, SpecError> {
    sort_and_check_point_ids(&mut records, engine.grid_len(), "records")?;
    let points = records
        .iter()
        .map(|record| engine.decode(record.id, &record.payload, &format!("point {}", record.id)))
        .collect::<Result<Vec<_>, SpecError>>()?;
    engine.assemble(points)
}

/// Checks that `ids` are strictly increasing and within `0..total` — the
/// id contract of point subsets, shard documents and checkpoints.
///
/// # Errors
/// Names the first duplicated, unsorted or out-of-range id.
pub(crate) fn check_point_ids(ids: &[usize], total: usize, ctx: &str) -> Result<(), SpecError> {
    if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
        let message = if w[0] == w[1] {
            format!("duplicate point id {}", w[0])
        } else {
            format!(
                "point ids must be strictly increasing, got {} then {}",
                w[0], w[1]
            )
        };
        return Err(SpecError::new(ctx, message));
    }
    match ids.last() {
        Some(&last) if last >= total => Err(SpecError::new(
            ctx,
            format!("point id {last} out of range (grid has {total} points)"),
        )),
        _ => Ok(()),
    }
}

/// Sorts `records` by id and checks they cover `0..total` exactly.
///
/// # Errors
/// Names the first duplicated, out-of-range, or missing id.
fn sort_and_check_point_ids(
    records: &mut [PointRecord],
    total: usize,
    ctx: &str,
) -> Result<(), SpecError> {
    records.sort_by_key(|p| p.id);
    let ids: Vec<usize> = records.iter().map(|p| p.id).collect();
    check_point_ids(&ids, total, ctx)?;
    if ids.len() != total {
        let missing: Vec<String> = (0..total)
            .filter(|id| ids.binary_search(id).is_err())
            .take(8)
            .map(|id| id.to_string())
            .collect();
        return Err(SpecError::new(
            ctx,
            format!("missing point id(s) {} of 0..{total}", missing.join(", ")),
        ));
    }
    Ok(())
}

/// A spec's grid engine with its types erased — what the shard, merge and
/// checkpoint plane drives.
pub trait SpecGrid {
    /// Number of points in the full grid.
    fn total_points(&self) -> usize;

    /// Points run at once (0 = all cores), as [`GridEngine::threads`].
    fn point_threads(&self) -> usize;

    /// Runs the points `ids` (strictly increasing, in range) as records.
    fn run_records(&self, ids: &[usize]) -> Vec<PointRecord>;

    /// Reassembles the report from a complete set of records.
    ///
    /// # Errors
    /// As [`assemble_records`].
    fn assemble_records(&self, records: Vec<PointRecord>) -> Result<Box<dyn Report>, SpecError>;

    /// Runs the full grid and assembles its report (as [`run_grid`]).
    fn run_report(&self, telemetry: Option<&Collector>) -> Box<dyn Report>;
}

impl<E: GridEngine> SpecGrid for E {
    fn total_points(&self) -> usize {
        self.grid_len()
    }

    fn point_threads(&self) -> usize {
        self.threads()
    }

    fn run_records(&self, ids: &[usize]) -> Vec<PointRecord> {
        run_records(self, ids)
    }

    fn assemble_records(&self, records: Vec<PointRecord>) -> Result<Box<dyn Report>, SpecError> {
        Ok(Box::new(assemble_records(self, records)?))
    }

    fn run_report(&self, telemetry: Option<&Collector>) -> Box<dyn Report> {
        Box::new(run_grid(self, telemetry))
    }
}

/// The family dispatch: the grid engine a spec runs on. A BER spec runs
/// over [`paper_roster`]; a stream spec's classical arm is MMSE matched to
/// its track.
///
/// # Errors
/// Returns a [`SpecError`] for the one spec without a point grid: a
/// realtime fabric run (its points occupy wall-clock worker threads).
pub fn spec_grid(spec: &ExperimentSpec) -> Result<Box<dyn SpecGrid + '_>, SpecError> {
    Ok(match spec {
        ExperimentSpec::Ber(config) => Box::new(BerSweep {
            config,
            detectors: paper_roster(config.seed),
        }),
        ExperimentSpec::Stream(config) => Box::new(config.clone()),
        ExperimentSpec::Fabric(config) if config.mode == FabricMode::Virtual => {
            Box::new(config.clone())
        }
        ExperimentSpec::Fabric(_) => {
            return Err(SpecError::new(
                "grid",
                "the realtime fabric service cannot be sharded \
                 (points occupy wall-clock worker threads)",
            ));
        }
        ExperimentSpec::Sched(config) => Box::new(config.clone()),
        ExperimentSpec::Figure(config) => Box::new(config.clone()),
    })
}

/// Checks a decoded point's own grid coordinates against the ones its id
/// maps to. Both sides are rendered by the engine with `Display`, whose
/// shortest round-trip float form makes string equality bit equality.
///
/// # Errors
/// Returns a [`SpecError`] quoting both coordinate sets.
pub(crate) fn check_coordinates(ctx: &str, got: String, want: String) -> Result<(), SpecError> {
    if got == want {
        return Ok(());
    }
    Err(SpecError::new(
        ctx,
        format!("grid coordinates ({got}) do not match the spec grid point ({want})"),
    ))
}
