//! The distributed experiment plane: deterministic shards, streaming
//! checkpoints, and byte-stable merges.
//!
//! The paper's fabric argument only pays off at scales a single process
//! can't hold; this module is the substrate that lets any grid-style
//! [`ExperimentSpec`] span processes (and machines) without giving up the
//! workspace's byte-reproducibility contract. Three pieces:
//!
//! * **Sharding** — [`shard_ids`] deterministically partitions a spec's
//!   point grid ([`grid_len`]) into `N` strided subsets; the spec's grid
//!   engine ([`spec_grid`]) runs one subset with the exact per-point seeds
//!   of the full run, and [`ShardReport`] is the self-describing output
//!   document (spec + fingerprint + point records).
//! * **Merging** — [`merge_shards`] validates a set of shards (same spec
//!   fingerprint, pairwise-disjoint ids, exact grid coverage) and
//!   reassembles the ordinary report through the spec's grid engine
//!   ([`crate::grid::SpecGrid::assemble_records`]): `merge(shards over
//!   k/N)` is **byte-identical** to the single-run report for any `N`,
//!   which the `shard-merge` CI job pins against the committed
//!   `BENCH_*.json`.
//! * **Checkpointing** — [`Checkpoint`] is a JSONL journal (header line +
//!   one line per completed point) a long run appends to; a killed run
//!   resumes by parsing the journal (tolerating a torn trailing line),
//!   running only the missing points, and assembling the identical final
//!   report.
//!
//! Everything is keyed by [`spec_fingerprint`] — a hash of the spec's
//! canonical JSON — so shards or checkpoints from different specs (or the
//! same spec at different seeds/scales) can never be mixed silently.

use crate::grid::{check_point_ids, spec_grid};
use crate::report::{PointRecord, Report};
use crate::spec::json::Json;
use crate::spec::{check_keys, req, req_str, req_u64, req_usize, ExperimentSpec, SpecError};

/// Version of the shard/checkpoint document schemas this build reads and
/// writes (documented in `crates/bench/README.md`). Bump on any
/// incompatible change.
pub const SHARD_SCHEMA_VERSION: u64 = 1;

/// Fingerprint of a spec's canonical JSON document (FNV-1a 64, 16 hex
/// digits): the compatibility key stamped into every shard and checkpoint
/// so artifacts from different specs cannot be merged silently.
pub fn spec_fingerprint(spec: &ExperimentSpec) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in spec.to_json().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The number of shardable grid points a spec expands to: SNR points for a
/// BER sweep, (policy × ρ × load) cells for the stream grid,
/// (mix × cells × load) points for the virtual fabric grid,
/// (workload × cells × load) points for the sched grid.
///
/// # Errors
/// As [`spec_grid`]: canned figure experiments, realtime fabric runs and
/// empty grids have no shardable point grid.
pub fn grid_len(spec: &ExperimentSpec) -> Result<usize, SpecError> {
    Ok(spec_grid(spec)?.total_points())
}

/// The point ids of shard `index` of `count` (1-based) over a grid of
/// `total` points: the strided subset `{id : id ≡ index−1 (mod count)}`.
///
/// Striding (rather than contiguous ranges) balances grids whose point
/// cost varies systematically along an axis — e.g. high-load fabric points
/// simulate more queueing than low-load ones. The shards partition
/// `0..total` exactly: pairwise disjoint, union complete (property-tested
/// in `tests/shard_proptests.rs`).
///
/// # Panics
/// Panics unless `1 <= index <= count`.
pub fn shard_ids(total: usize, index: usize, count: usize) -> Vec<usize> {
    assert!(
        index >= 1 && index <= count,
        "shard_ids: index must satisfy 1 <= index ({index}) <= count ({count})"
    );
    (0..total).filter(|id| id % count == index - 1).collect()
}

/// Renders the spec's canonical JSON document in compact (single-line)
/// form, for embedding in shard headers and checkpoint lines.
fn compact_spec(spec: &ExperimentSpec) -> String {
    Json::parse(&spec.to_json())
        .expect("spec JSON is valid by construction")
        .to_string_compact()
}

/// Rejects shard/checkpoint documents of another schema version.
fn check_schema_version(doc: &Json, ctx: &str) -> Result<(), SpecError> {
    let version = req_u64(doc, "schema_version", ctx)?;
    if version != SHARD_SCHEMA_VERSION {
        return Err(SpecError::new(
            ctx,
            format!(
                "unsupported schema_version {version} (this build reads {SHARD_SCHEMA_VERSION})"
            ),
        ));
    }
    Ok(())
}

/// Parses the embedded spec subtree of a shard/checkpoint header and
/// cross-checks it against the header's own tags.
fn parse_embedded_spec(
    header: &Json,
    ctx: &str,
) -> Result<(ExperimentSpec, String, usize), SpecError> {
    let spec_doc = req(header, "spec", ctx)?.to_string_compact();
    let spec = ExperimentSpec::parse(&spec_doc)
        .map_err(|e| SpecError::new(ctx.to_string(), format!("embedded spec: {e}")))?;
    let experiment = req_str(header, "experiment", ctx)?;
    if experiment != spec.family() {
        return Err(SpecError::new(
            ctx.to_string(),
            format!(
                "experiment tag '{experiment}' does not match the embedded spec family '{}'",
                spec.family()
            ),
        ));
    }
    let fingerprint = req_str(header, "fingerprint", ctx)?.to_string();
    let actual = spec_fingerprint(&spec);
    if fingerprint != actual {
        return Err(SpecError::new(
            ctx.to_string(),
            format!(
                "fingerprint mismatch: document says {fingerprint} but the \
                 embedded spec hashes to {actual}"
            ),
        ));
    }
    let total = req_usize(header, "total_points", ctx)?;
    let expected = grid_len(&spec)?;
    if total != expected {
        return Err(SpecError::new(
            ctx.to_string(),
            format!(
                "total_points {total} does not match the embedded spec's \
                 grid ({expected} points)"
            ),
        ));
    }
    Ok((spec, fingerprint, total))
}

/// Parses one `{"id": N, "point": {...}}` record object.
fn parse_point_entry(doc: &Json, ctx: &str) -> Result<PointRecord, SpecError> {
    check_keys(doc, &["id", "point"], ctx)?;
    Ok(PointRecord {
        id: req_usize(doc, "id", ctx)?,
        payload: req(doc, "point", ctx)?.to_string_compact(),
    })
}

/// The record ids, in order.
fn record_ids(points: &[PointRecord]) -> Vec<usize> {
    points.iter().map(|p| p.id).collect()
}

/// One shard's output: the spec it was cut from, which slice it is, and the
/// completed point records. `hqw run --shard k/N` writes one; `hqw merge`
/// reassembles a full set into the ordinary report.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The experiment the shard belongs to.
    pub spec: ExperimentSpec,
    /// [`spec_fingerprint`] of `spec` (the merge compatibility key).
    pub fingerprint: String,
    /// 1-based shard index.
    pub index: usize,
    /// Total shard count of the partition.
    pub count: usize,
    /// Size of the full point grid.
    pub total_points: usize,
    /// Completed point records, sorted by id.
    pub points: Vec<PointRecord>,
}

impl ShardReport {
    /// Builds a shard report, validating the shard coordinates and point
    /// ids against the spec's grid.
    ///
    /// # Errors
    /// Returns a [`SpecError`] for unshardable specs, an out-of-range
    /// `index`/`count`, or ids that are unsorted, duplicated, or out of
    /// range.
    pub fn new(
        spec: &ExperimentSpec,
        index: usize,
        count: usize,
        points: Vec<PointRecord>,
    ) -> Result<ShardReport, SpecError> {
        let ctx = "ShardReport";
        let total_points = grid_len(spec)?;
        if index < 1 || index > count {
            return Err(SpecError::new(
                ctx,
                format!("shard index must satisfy 1 <= index ({index}) <= count ({count})"),
            ));
        }
        check_point_ids(&record_ids(&points), total_points, ctx)?;
        Ok(ShardReport {
            spec: spec.clone(),
            fingerprint: spec_fingerprint(spec),
            index,
            count,
            total_points,
            points,
        })
    }

    /// Renders the shard document (schema in `crates/bench/README.md`).
    /// Pure function of the shard contents.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"shard\",\n");
        s.push_str(&format!("  \"schema_version\": {SHARD_SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"experiment\": \"{}\",\n", self.spec.family()));
        s.push_str(&format!("  \"fingerprint\": \"{}\",\n", self.fingerprint));
        s.push_str(&format!(
            "  \"shard\": {{\"index\": {}, \"count\": {}}},\n",
            self.index, self.count
        ));
        s.push_str(&format!("  \"total_points\": {},\n", self.total_points));
        let ids = self
            .points
            .iter()
            .map(|p| p.id.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!("  \"point_ids\": [{ids}],\n"));
        s.push_str(&format!("  \"spec\": {},\n", compact_spec(&self.spec)));
        if self.points.is_empty() {
            s.push_str("  \"points\": []\n}\n");
        } else {
            s.push_str("  \"points\": [\n");
            for (i, p) in self.points.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"id\": {}, \"point\": {}}}{}\n",
                    p.id,
                    p.payload,
                    if i + 1 < self.points.len() { "," } else { "" }
                ));
            }
            s.push_str("  ]\n}\n");
        }
        s
    }

    /// Parses a [`ShardReport::to_json`] document back, re-validating the
    /// header (fingerprint vs embedded spec, ids vs grid).
    ///
    /// # Errors
    /// Returns a [`SpecError`] on syntax errors, schema mismatches, a
    /// fingerprint that does not hash from the embedded spec, or
    /// inconsistent point ids.
    pub fn parse(text: &str) -> Result<ShardReport, SpecError> {
        let ctx = "shard document";
        let doc = Json::parse(text).map_err(|e| SpecError::new(ctx, e.to_string()))?;
        check_keys(
            &doc,
            &[
                "bench",
                "schema_version",
                "experiment",
                "fingerprint",
                "shard",
                "total_points",
                "point_ids",
                "spec",
                "points",
            ],
            ctx,
        )?;
        if req_str(&doc, "bench", ctx)? != "shard" {
            return Err(SpecError::new(
                ctx,
                "not a shard document (bench != \"shard\")",
            ));
        }
        check_schema_version(&doc, ctx)?;
        let (spec, fingerprint, total_points) = parse_embedded_spec(&doc, ctx)?;
        let shard = req(&doc, "shard", ctx)?;
        let shard_ctx = &format!("{ctx}.shard");
        check_keys(shard, &["index", "count"], shard_ctx)?;
        let index = req_usize(shard, "index", shard_ctx)?;
        let count = req_usize(shard, "count", shard_ctx)?;
        if index < 1 || index > count {
            return Err(SpecError::new(
                shard_ctx.clone(),
                format!("shard index must satisfy 1 <= index ({index}) <= count ({count})"),
            ));
        }
        let points = req(&doc, "points", ctx)?
            .as_arr()
            .ok_or_else(|| SpecError::new(ctx, "field \"points\" must be an array"))?
            .iter()
            .enumerate()
            .map(|(i, p)| parse_point_entry(p, &format!("{ctx}.points[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let actual = record_ids(&points);
        check_point_ids(&actual, total_points, ctx)?;
        let declared = req(&doc, "point_ids", ctx)?
            .as_arr()
            .ok_or_else(|| SpecError::new(ctx, "field \"point_ids\" must be an array"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|u| usize::try_from(u).ok())
                    .ok_or_else(|| {
                        SpecError::new(
                            ctx,
                            "field \"point_ids\" must contain only unsigned integers",
                        )
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if declared != actual {
            return Err(SpecError::new(
                ctx,
                "point_ids header does not match the points array",
            ));
        }
        Ok(ShardReport {
            spec,
            fingerprint,
            index,
            count,
            total_points,
            points,
        })
    }
}

/// Merges a set of shards back into the ordinary single-run report.
///
/// Each shard carries a label (typically its file path) used in error
/// messages. The shards must share one spec fingerprint, have
/// pairwise-disjoint point sets, and cover the grid exactly; the merged
/// report is byte-identical to the corresponding single-process run.
///
/// # Errors
/// Returns a [`SpecError`] naming the offending shard(s) on mixed
/// fingerprints, overlapping point sets, or missing points.
pub fn merge_shards(shards: &[(String, ShardReport)]) -> Result<Box<dyn Report>, SpecError> {
    let ctx = "merge";
    let Some((first_label, first)) = shards.first() else {
        return Err(SpecError::new(ctx, "no shards to merge"));
    };
    for (label, shard) in &shards[1..] {
        if shard.fingerprint != first.fingerprint {
            return Err(SpecError::new(
                ctx,
                format!(
                    "mixed spec fingerprints: '{first_label}' has {} but '{label}' has {}",
                    first.fingerprint, shard.fingerprint
                ),
            ));
        }
    }
    let total = first.total_points;
    let mut owner: Vec<Option<&str>> = vec![None; total];
    let mut points = Vec::new();
    for (label, shard) in shards {
        for p in &shard.points {
            if let Some(prev) = owner[p.id] {
                return Err(SpecError::new(
                    ctx,
                    format!(
                        "overlapping point sets: point id {} appears in both \
                         '{prev}' and '{label}'",
                        p.id
                    ),
                ));
            }
            owner[p.id] = Some(label);
            points.push(p.clone());
        }
    }
    let missing: Vec<String> = owner
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .take(8)
        .map(|(id, _)| id.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(SpecError::new(
            ctx,
            format!(
                "missing point id(s) {} of 0..{total} — the shards do not \
                 cover the grid",
                missing.join(", ")
            ),
        ));
    }
    spec_grid(&first.spec)?.assemble_records(points)
}

/// A streaming checkpoint: the JSONL journal a long run appends completed
/// points to, and a killed run resumes from.
///
/// Line 1 is the header (spec + fingerprint + grid size); every following
/// line is one completed point record. [`Checkpoint::parse`] tolerates a
/// torn **trailing** line (a kill mid-append) but rejects corruption
/// anywhere else.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The experiment the checkpoint belongs to.
    pub spec: ExperimentSpec,
    /// [`spec_fingerprint`] of `spec`.
    pub fingerprint: String,
    /// Size of the full point grid.
    pub total_points: usize,
    /// Completed point records, sorted by id.
    pub points: Vec<PointRecord>,
}

impl Checkpoint {
    /// Renders the header line (line 1 of the journal, no trailing
    /// newline).
    ///
    /// # Errors
    /// Returns a [`SpecError`] for specs without a shardable grid.
    pub fn header_line(spec: &ExperimentSpec) -> Result<String, SpecError> {
        let total = grid_len(spec)?;
        Ok(format!(
            "{{\"checkpoint\": \"hqw\", \"schema_version\": {SHARD_SCHEMA_VERSION}, \
             \"experiment\": \"{}\", \"fingerprint\": \"{}\", \
             \"total_points\": {total}, \"spec\": {}}}",
            spec.family(),
            spec_fingerprint(spec),
            compact_spec(spec)
        ))
    }

    /// Renders one completed point as a journal line (no trailing newline).
    pub fn point_line(record: &PointRecord) -> String {
        format!("{{\"id\": {}, \"point\": {}}}", record.id, record.payload)
    }

    /// Parses a journal back. A torn trailing line (the run was killed
    /// mid-append) is dropped; malformed content anywhere else is an
    /// error, as are duplicate or out-of-range ids.
    ///
    /// # Errors
    /// Returns a [`SpecError`] on a bad header, mid-file corruption, or
    /// inconsistent ids.
    pub fn parse(text: &str) -> Result<Checkpoint, SpecError> {
        let ctx = "checkpoint";
        let mut lines = text.lines();
        let header_text = lines
            .next()
            .ok_or_else(|| SpecError::new(ctx, "empty checkpoint file"))?;
        let header =
            Json::parse(header_text).map_err(|e| SpecError::new(ctx, format!("line 1: {e}")))?;
        check_keys(
            &header,
            &[
                "checkpoint",
                "schema_version",
                "experiment",
                "fingerprint",
                "total_points",
                "spec",
            ],
            ctx,
        )?;
        if req_str(&header, "checkpoint", ctx)? != "hqw" {
            return Err(SpecError::new(ctx, "not an hqw checkpoint"));
        }
        check_schema_version(&header, ctx)?;
        let (spec, fingerprint, total_points) = parse_embedded_spec(&header, ctx)?;
        let rest: Vec<&str> = lines.collect();
        let mut points = Vec::new();
        for (i, line) in rest.iter().enumerate() {
            let last = i + 1 == rest.len();
            let doc = match Json::parse(line) {
                Ok(doc) => doc,
                // A kill mid-append leaves at most one torn line, and only
                // at the tail; anything else is real corruption.
                Err(_) if last => break,
                Err(e) => {
                    return Err(SpecError::new(ctx, format!("line {}: {e}", i + 2)));
                }
            };
            points.push(parse_point_entry(&doc, &format!("{ctx} line {}", i + 2))?);
        }
        points.sort_by_key(|p| p.id);
        check_point_ids(&record_ids(&points), total_points, ctx)?;
        Ok(Checkpoint {
            spec,
            fingerprint,
            total_points,
            points,
        })
    }

    /// Re-renders the journal (header + completed points + trailing
    /// newline) — the repaired form a resume rewrites before appending, so
    /// a torn tail never accumulates.
    pub fn render(&self) -> String {
        let mut s = Self::header_line(&self.spec).expect("parsed checkpoints have a valid grid");
        s.push('\n');
        for p in &self.points {
            s.push_str(&Self::point_line(p));
            s.push('\n');
        }
        s
    }

    /// The grid ids not yet completed, in grid order.
    pub fn remaining_ids(&self) -> Vec<usize> {
        let have: std::collections::BTreeSet<usize> = self.points.iter().map(|p| p.id).collect();
        (0..self.total_points)
            .filter(|id| !have.contains(id))
            .collect()
    }

    /// Whether every grid point is completed.
    pub fn is_complete(&self) -> bool {
        self.points.len() == self.total_points
    }

    /// Assembles the final report from a complete journal.
    ///
    /// # Errors
    /// Returns a [`SpecError`] when points are missing or fail the
    /// family's record validation.
    pub fn assemble(&self) -> Result<Box<dyn Report>, SpecError> {
        if !self.is_complete() {
            return Err(SpecError::new(
                "checkpoint",
                format!(
                    "incomplete: {}/{} points done — run with --resume to finish it",
                    self.points.len(),
                    self.total_points
                ),
            ));
        }
        spec_grid(&self.spec)?.assemble_records(self.points.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_grid, run_records};
    use crate::scenario::{BerSweep, ScenarioDetector, SnrSweepConfig};
    use crate::spec::CannedSpec;
    use crate::CannedKind;
    use hqw_phy::channel::ChannelModel;
    use hqw_phy::detect::ZeroForcing;
    use hqw_phy::modulation::Modulation;

    fn tiny_ber_spec() -> ExperimentSpec {
        ExperimentSpec::Ber(SnrSweepConfig {
            n_users: 2,
            n_rx: 2,
            modulation: Modulation::Qpsk,
            channel: ChannelModel::UnitGainRandomPhase,
            snr_db: vec![0.0, 10.0, 20.0, 30.0],
            realizations: 2,
            seed: 11,
            threads: 1,
        })
    }

    fn tiny_sweep(config: &SnrSweepConfig) -> BerSweep<'_> {
        BerSweep {
            config,
            detectors: vec![ScenarioDetector::fixed(false, ZeroForcing)],
        }
    }

    fn tiny_records(ids: &[usize]) -> Vec<PointRecord> {
        let ExperimentSpec::Ber(config) = tiny_ber_spec() else {
            unreachable!()
        };
        run_records(&tiny_sweep(&config), ids)
    }

    #[test]
    fn shard_ids_partition_the_grid() {
        for total in [0, 1, 7, 12] {
            for count in 1..=5 {
                let mut seen = vec![false; total];
                for index in 1..=count {
                    for id in shard_ids(total, index, count) {
                        assert!(!seen[id], "id {id} assigned twice");
                        seen[id] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total={total} count={count}");
            }
        }
        // Strided: shard 1/3 of 7 points takes ids ≡ 0 (mod 3).
        assert_eq!(shard_ids(7, 1, 3), vec![0, 3, 6]);
        assert_eq!(shard_ids(7, 3, 3), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "1 <= index")]
    fn shard_ids_rejects_zero_index() {
        shard_ids(4, 0, 2);
    }

    #[test]
    fn grid_len_counts_points_and_rejects_unshardable_specs() {
        assert_eq!(grid_len(&tiny_ber_spec()), Ok(4));

        let canned = ExperimentSpec::Canned(CannedSpec {
            experiment: CannedKind::Fig3,
            scale: crate::experiments::Scale::quick(),
            seed: 1,
        });
        let err = grid_len(&canned).unwrap_err();
        assert!(err.to_string().contains("no point grid"), "got: {err}");

        let ExperimentSpec::Ber(mut config) = tiny_ber_spec() else {
            unreachable!()
        };
        config.snr_db.clear();
        let err = grid_len(&ExperimentSpec::Ber(config)).unwrap_err();
        assert!(err.to_string().contains("empty"), "got: {err}");
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let a = spec_fingerprint(&tiny_ber_spec());
        assert_eq!(a, spec_fingerprint(&tiny_ber_spec()));
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        let mut other = tiny_ber_spec();
        other.set_seed(12);
        assert_ne!(a, spec_fingerprint(&other));
    }

    #[test]
    fn shard_report_round_trips_through_json() {
        let spec = tiny_ber_spec();
        let ids = shard_ids(4, 1, 3);
        let shard = ShardReport::new(&spec, 1, 3, tiny_records(&ids)).expect("valid shard");
        let text = shard.to_json();
        let parsed = ShardReport::parse(&text).expect(&text);
        assert_eq!(parsed.spec, spec);
        assert_eq!(parsed.fingerprint, shard.fingerprint);
        assert_eq!((parsed.index, parsed.count), (1, 3));
        assert_eq!(parsed.total_points, 4);
        assert_eq!(parsed.points, shard.points);
        // The round trip is byte-exact too.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn shard_parse_rejects_tampered_documents() {
        let spec = tiny_ber_spec();
        let shard = ShardReport::new(&spec, 1, 1, tiny_records(&[0, 1, 2, 3])).unwrap();
        let text = shard.to_json();

        let err = ShardReport::parse(&text.replace("\"seed\": 11", "\"seed\": 12")).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

        let err = ShardReport::parse(&text.replace("\"bench\": \"shard\"", "\"bench\": \"ber\""))
            .unwrap_err();
        assert!(err.to_string().contains("not a shard document"), "{err}");

        let err =
            ShardReport::parse(&text.replace("\"schema_version\": 1", "\"schema_version\": 99"))
                .unwrap_err();
        assert!(
            err.to_string().contains("unsupported schema_version"),
            "{err}"
        );

        let err = ShardReport::parse(
            &text.replace("\"point_ids\": [0, 1, 2, 3]", "\"point_ids\": [0, 1, 2]"),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("point_ids header does not match"),
            "{err}"
        );
    }

    #[test]
    fn merge_reassembles_the_single_run_bytes_for_any_partition() {
        let spec = tiny_ber_spec();
        let ExperimentSpec::Ber(config) = &spec else {
            unreachable!()
        };
        let full = run_grid(&tiny_sweep(config), None).to_json();
        for count in 1..=5 {
            let shards: Vec<(String, ShardReport)> = (1..=count)
                .map(|index| {
                    let ids = shard_ids(4, index, count);
                    (
                        format!("shard{index}.json"),
                        ShardReport::new(&spec, index, count, tiny_records(&ids)).unwrap(),
                    )
                })
                .collect();
            let merged = merge_shards(&shards).expect("complete partition");
            assert_eq!(merged.to_json(), full, "count={count}");
        }
    }

    #[test]
    fn merge_rejects_mixed_overlapping_and_incomplete_shards() {
        let spec = tiny_ber_spec();
        let mut other = spec.clone();
        other.set_seed(99);
        let s1 = ShardReport::new(&spec, 1, 2, tiny_records(&[0, 2])).unwrap();
        let s2 = ShardReport::new(&spec, 2, 2, tiny_records(&[1, 3])).unwrap();

        let err = merge_shards(&[]).unwrap_err();
        assert!(err.to_string().contains("no shards"), "{err}");

        let mut foreign = s2.clone();
        foreign.spec = other.clone();
        foreign.fingerprint = spec_fingerprint(&other);
        let err =
            merge_shards(&[("a.json".into(), s1.clone()), ("b.json".into(), foreign)]).unwrap_err();
        assert!(err.to_string().contains("mixed spec fingerprints"), "{err}");
        assert!(err.to_string().contains("a.json") && err.to_string().contains("b.json"));

        let err = merge_shards(&[
            ("a.json".into(), s1.clone()),
            ("a2.json".into(), s1.clone()),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("overlapping point sets"), "{err}");
        assert!(err.to_string().contains("point id 0"), "{err}");

        let err = merge_shards(&[("a.json".into(), s1.clone())]).unwrap_err();
        assert!(
            err.to_string().contains("missing point id(s) 1, 3"),
            "{err}"
        );

        let merged = merge_shards(&[("a.json".into(), s1), ("b.json".into(), s2)]).unwrap();
        assert_eq!(merged.name(), "ber");
    }

    #[test]
    fn checkpoint_journal_round_trips_and_tolerates_a_torn_tail() {
        let spec = tiny_ber_spec();
        let records = tiny_records(&[0, 1, 2, 3]);
        let mut journal = Checkpoint::header_line(&spec).unwrap();
        journal.push('\n');
        for r in &records[..2] {
            journal.push_str(&Checkpoint::point_line(r));
            journal.push('\n');
        }
        let ck = Checkpoint::parse(&journal).expect("clean journal");
        assert_eq!(ck.spec, spec);
        assert_eq!(ck.points.len(), 2);
        assert_eq!(ck.remaining_ids(), vec![2, 3]);
        assert!(!ck.is_complete());
        assert!(ck
            .assemble()
            .unwrap_err()
            .to_string()
            .contains("incomplete"));
        assert_eq!(ck.render(), journal);

        // A torn tail (kill mid-append) is dropped...
        let torn = format!("{journal}{}", &Checkpoint::point_line(&records[2])[..20]);
        let ck = Checkpoint::parse(&torn).expect("torn tail tolerated");
        assert_eq!(ck.points.len(), 2);
        // ...but corruption mid-file is not.
        let mid = format!(
            "{}\n{}\n{}\n",
            Checkpoint::header_line(&spec).unwrap(),
            &Checkpoint::point_line(&records[0])[..20],
            Checkpoint::point_line(&records[1]),
        );
        let err = Checkpoint::parse(&mid).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        // A complete journal assembles to the single-run bytes.
        let mut full = Checkpoint::header_line(&spec).unwrap();
        full.push('\n');
        for r in &records {
            full.push_str(&Checkpoint::point_line(r));
            full.push('\n');
        }
        let ck = Checkpoint::parse(&full).unwrap();
        assert!(ck.is_complete());
        let ExperimentSpec::Ber(config) = &spec else {
            unreachable!()
        };
        assert_eq!(
            ck.assemble().unwrap().to_json(),
            run_grid(&tiny_sweep(config), None).to_json()
        );
    }

    #[test]
    fn checkpoint_rejects_duplicates_and_foreign_headers() {
        let spec = tiny_ber_spec();
        let records = tiny_records(&[0]);
        let mut journal = Checkpoint::header_line(&spec).unwrap();
        journal.push('\n');
        journal.push_str(&Checkpoint::point_line(&records[0]));
        journal.push('\n');
        journal.push_str(&Checkpoint::point_line(&records[0]));
        journal.push('\n');
        let err = Checkpoint::parse(&journal).unwrap_err();
        assert!(err.to_string().contains("duplicate point id 0"), "{err}");

        let err = Checkpoint::parse("").unwrap_err();
        assert!(err.to_string().contains("empty checkpoint"), "{err}");

        let err = Checkpoint::parse("{\"checkpoint\": \"other\"}").unwrap_err();
        assert!(err.to_string().contains("not an hqw checkpoint"), "{err}");
    }
}
