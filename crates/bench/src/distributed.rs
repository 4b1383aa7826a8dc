//! Runners for the distributed experiment plane: `hqw run --shard K/N`,
//! `hqw run --checkpoint`/`--resume`, and `hqw merge`.
//!
//! Every function here drives the same grid engines as [`crate::runs`],
//! through the spec's [`SpecGrid`], so a shard or a resumed run computes
//! the exact bytes the single-process run would have: `hqw merge` over any
//! shard partition — and a kill-and-resume cycle — reproduces the
//! committed `BENCH_*.json` byte-for-byte (the `shard-merge` CI job pins
//! both).
//! Errors come back as user-facing strings; the `hqw` binary prints them
//! with the usage line and exits 2.

use crate::cli::{report_file_names, Options};
use hqw_core::grid::{spec_grid, SpecGrid};
use hqw_core::report::{write_creating_parents, PointRecord};
use hqw_core::shard::{merge_shards, shard_ids, spec_fingerprint, Checkpoint, ShardReport};
use hqw_core::spec::ExperimentSpec;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// The spec's grid engine, or the user-facing message for specs without a
/// shardable grid (canned figures, realtime fabric, empty grids).
fn grid(spec: &ExperimentSpec) -> Result<Box<dyn SpecGrid + '_>, String> {
    spec_grid(spec).map_err(|e| e.to_string())
}

/// Runs shard `index`/`count` of a spec's grid and writes the
/// [`ShardReport`] document (default name
/// `SHARD_<family>_<index>of<count>.json`, `--json` overrides).
///
/// # Errors
/// Returns a message for unshardable specs or write failures.
pub fn run_shard(
    spec: &ExperimentSpec,
    opts: &Options,
    index: usize,
    count: usize,
) -> Result<(), String> {
    let grid = grid(spec)?;
    let total = grid.total_points();
    let ids = shard_ids(total, index, count);
    println!(
        "=== {} shard {index}/{count}: {} of {total} grid points",
        spec.family(),
        ids.len()
    );
    println!(
        "    fingerprint={} seed={}",
        spec_fingerprint(spec),
        spec.seed()
    );
    println!();
    let records = grid.run_records(&ids);
    let shard = ShardReport::new(spec, index, count, records).map_err(|e| e.to_string())?;
    let default_name = format!("SHARD_{}_{index}of{count}.json", spec.family());
    let path = opts.json_path(&default_name);
    write_creating_parents(&path, &shard.to_json())
        .map_err(|e| format!("cannot write shard report '{}': {e}", path.display()))?;
    println!("shard report written to {}", path.display());
    Ok(())
}

/// Runs `ids` in thread-count-sized waves, appending each completed wave
/// to the journal before starting the next, so a kill loses at most one
/// wave of work.
fn run_and_journal(
    spec: &ExperimentSpec,
    grid: &dyn SpecGrid,
    file: &mut File,
    path: &Path,
    ids: &[usize],
) -> Result<Vec<PointRecord>, String> {
    let wave = match spec.threads() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let mut all = Vec::with_capacity(ids.len());
    for chunk in ids.chunks(wave) {
        let records = grid.run_records(chunk);
        let mut buf = String::new();
        for record in &records {
            buf.push_str(&Checkpoint::point_line(record));
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot append to checkpoint '{}': {e}", path.display()))?;
        all.extend(records);
    }
    Ok(all)
}

/// Runs a full grid while journaling completed points to a fresh JSONL
/// checkpoint at `path`, then emits the ordinary report.
///
/// # Errors
/// Returns a message when `path` already exists (use `--resume`), for
/// unshardable specs, or on I/O failures.
pub fn run_checkpointed(spec: &ExperimentSpec, opts: &Options, path: &Path) -> Result<(), String> {
    if path.exists() {
        return Err(format!(
            "checkpoint '{}' already exists; use --resume to continue it",
            path.display()
        ));
    }
    let grid = grid(spec)?;
    let total = grid.total_points();
    let header = Checkpoint::header_line(spec).map_err(|e| e.to_string())?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create checkpoint directory: {e}"))?;
        }
    }
    let mut file = File::create(path)
        .map_err(|e| format!("cannot create checkpoint '{}': {e}", path.display()))?;
    writeln!(file, "{header}")
        .and_then(|()| file.flush())
        .map_err(|e| format!("cannot write checkpoint '{}': {e}", path.display()))?;
    println!(
        "checkpointing {total} {} point(s) to {}",
        spec.family(),
        path.display()
    );
    let ids: Vec<usize> = (0..total).collect();
    let records = run_and_journal(spec, grid.as_ref(), &mut file, path, &ids)?;
    let report = grid.assemble_records(records).map_err(|e| e.to_string())?;
    opts.emit_report(report.as_ref());
    Ok(())
}

/// Resumes a checkpointed run: parses the journal (repairing any torn
/// trailing line in place), runs only the missing points, and emits the
/// identical final report.
///
/// # Errors
/// Returns a message for an unreadable/corrupt journal or I/O failures.
pub fn run_resume(path: &Path, opts: &Options) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint '{}': {e}", path.display()))?;
    let ck = Checkpoint::parse(&text)
        .map_err(|e| format!("invalid checkpoint '{}': {e}", path.display()))?;
    // Rewrite the repaired journal before appending: a torn tail from the
    // killed run must not end up mid-file.
    std::fs::write(path, ck.render())
        .map_err(|e| format!("cannot rewrite checkpoint '{}': {e}", path.display()))?;
    let remaining = ck.remaining_ids();
    println!(
        "resuming {} from {}: {}/{} point(s) done, {} to run",
        ck.spec.family(),
        path.display(),
        ck.points.len(),
        ck.total_points,
        remaining.len()
    );
    let grid = grid(&ck.spec)?;
    let mut points = ck.points.clone();
    if !remaining.is_empty() {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen checkpoint '{}': {e}", path.display()))?;
        points.extend(run_and_journal(
            &ck.spec,
            grid.as_ref(),
            &mut file,
            path,
            &remaining,
        )?);
    }
    let report = grid
        .assemble_records(points)
        .map_err(|e| format!("invalid checkpoint '{}': {e}", path.display()))?;
    opts.emit_report(report.as_ref());
    Ok(())
}

/// Merges shard report files into the ordinary single-run report (default
/// output: the family's `BENCH_*.json`), printing the merged table.
///
/// # Errors
/// Returns a message for unreadable/invalid shard files, mixed
/// fingerprints, overlapping point sets, missing points, or write
/// failures.
pub fn run_merge(paths: &[String], out: Option<&Path>) -> Result<(), String> {
    let mut shards = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read shard file '{path}': {e}"))?;
        let shard =
            ShardReport::parse(&text).map_err(|e| format!("invalid shard file '{path}': {e}"))?;
        shards.push((path.clone(), shard));
    }
    let report = merge_shards(&shards).map_err(|e| e.to_string())?;
    let (_, json_default) = report_file_names(report.as_ref());
    let path = out.unwrap_or_else(|| Path::new(&json_default));
    report
        .write_json(path)
        .map_err(|e| format!("cannot write merged report '{}': {e}", path.display()))?;
    println!("{}", report.render_table());
    println!("merged {} shard(s) into {}", shards.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqw_core::grid::{assemble_records, run_grid};

    fn quick_spec(family: &str) -> ExperimentSpec {
        let opts =
            Options::parse(["--quick".to_string(), "--seed".to_string(), "5".to_string()]).unwrap();
        crate::registry::spec(family, &opts).unwrap()
    }

    #[test]
    fn stream_points_match_the_full_grid_run() {
        let spec = quick_spec("stream");
        let ExperimentSpec::Stream(config) = &spec else {
            unreachable!()
        };
        // Shrink the grid so the test stays fast.
        let mut config = config.clone();
        config.frames = 8;
        config.rhos = vec![0.0, 0.9];
        config.arrival_periods_us = vec![400.0, 120.0];
        let spec = ExperimentSpec::Stream(config.clone());
        let grid = spec_grid(&spec).unwrap();
        let total = grid.total_points();

        let full = run_grid(&config, None);
        let mut halves: Vec<PointRecord> = Vec::new();
        for index in 1..=2 {
            halves.extend(grid.run_records(&shard_ids(total, index, 2)));
        }
        let rebuilt = assemble_records(&config, halves).expect("records merge");
        assert_eq!(rebuilt.to_json(), full.to_json());
    }

    #[test]
    fn fabric_points_match_the_full_grid_run() {
        let spec = quick_spec("fabric");
        let ExperimentSpec::Fabric(config) = &spec else {
            unreachable!()
        };
        let mut config = config.clone();
        config.frames_per_cell = 6;
        config.cell_counts = vec![2];
        config.arrival_periods_us = vec![400.0, 120.0];
        config.mixes.truncate(2);
        let spec = ExperimentSpec::Fabric(config.clone());
        let grid = spec_grid(&spec).unwrap();
        let total = grid.total_points();

        let full = hqw_core::run_fabric_grid(&config);
        let mut parts: Vec<PointRecord> = Vec::new();
        for index in 1..=3 {
            parts.extend(grid.run_records(&shard_ids(total, index, 3)));
        }
        let rebuilt = assemble_records(&config, parts).expect("records merge");
        assert_eq!(rebuilt.to_json(), full.to_json());
    }

    #[test]
    fn sched_points_match_the_full_grid_run() {
        // Satellite of the adaptive-scheduling plane: sharding a sched grid
        // must not lose per-class aggregation — the merged report (whose
        // summary block is recomputed from merged per-class histograms) is
        // byte-identical to the single-process run.
        let spec = quick_spec("sched");
        let ExperimentSpec::Sched(config) = &spec else {
            unreachable!()
        };
        let mut config = config.clone();
        config.frames_per_cell = 8;
        let spec = ExperimentSpec::Sched(config.clone());
        let grid = spec_grid(&spec).unwrap();
        let total = grid.total_points();

        let full = run_grid(&config, None);
        let mut parts: Vec<PointRecord> = Vec::new();
        for index in 1..=3 {
            parts.extend(grid.run_records(&shard_ids(total, index, 3)));
        }
        let rebuilt = assemble_records(&config, parts).expect("records merge");
        assert_eq!(rebuilt.to_json(), full.to_json());
    }

    #[test]
    fn unshardable_specs_are_reported() {
        for (family, needle) in [("fabric-rt", "realtime"), ("fig3", "no point grid")] {
            let err = grid(&quick_spec(family)).err().expect("unshardable");
            assert!(err.contains(needle), "{err}");
        }
    }
}
