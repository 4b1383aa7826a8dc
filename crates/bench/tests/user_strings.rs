//! User strings reach every document escaped: a spec whose mix name holds
//! a quote, a backslash and a newline still writes reports, checkpoint
//! journals and shard documents that parse, resume and merge.

use hqw_bench::cli::Options;
use hqw_bench::registry;
use hqw_core::spec::json::Json;
use hqw_core::spec::ExperimentSpec;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A mix name that breaks any writer that does not escape it.
const NAME: &str = "sa \"pool\" \\ two\nlines";

fn hqw(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_hqw"))
        .args(args)
        .output()
        .expect("spawn hqw");
    assert!(
        out.status.success(),
        "hqw {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn quick(name: &str) -> ExperimentSpec {
    let opts = Options::parse(["--quick".to_string()]).unwrap();
    registry::spec(name, &opts).unwrap()
}

/// Writes `spec` into `dir`, runs it plainly and returns the report path.
fn write_and_run(dir: &Path, spec: &ExperimentSpec) -> (PathBuf, PathBuf) {
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let report = dir.join("plain.json");
    hqw(&[
        "run",
        path(&spec_path),
        "--out",
        path(dir),
        "--json",
        path(&report),
    ]);
    (spec_path, report)
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap()
}

#[test]
fn fabric_mix_names_are_escaped_through_every_document() {
    let dir = std::env::temp_dir().join(format!("hqw_user_strings_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The quick fabric preset's SA pool alone, two points, few frames.
    let ExperimentSpec::Fabric(mut config) = quick("fabric") else {
        panic!("fabric preset must be a Fabric spec")
    };
    config.mixes.truncate(1);
    config.mixes[0].name = NAME.to_string();
    config.frames_per_cell = 6;
    config.cell_counts = vec![2];
    config.arrival_periods_us = vec![400.0, 200.0];
    let (spec_path, report) = write_and_run(&dir, &ExperimentSpec::Fabric(config));

    // The plain run's report parses and carries the name intact.
    let plain = read(&report);
    let doc = Json::parse(&plain).expect("report parses");
    let points = doc.get("points").and_then(Json::as_arr).unwrap();
    assert_eq!(points[0].get("mix").and_then(Json::as_str), Some(NAME));

    // A checkpointed run completes, and resuming its journal reproduces it.
    let journal = dir.join("ck.jsonl");
    let checkpointed = dir.join("checkpointed.json");
    hqw(&[
        "run",
        path(&spec_path),
        "--checkpoint",
        path(&journal),
        "--out",
        path(&dir),
        "--json",
        path(&checkpointed),
    ]);
    assert_eq!(read(&checkpointed), plain);
    let resumed = dir.join("resumed.json");
    hqw(&[
        "run",
        "--resume",
        path(&journal),
        "--out",
        path(&dir),
        "--json",
        path(&resumed),
    ]);
    assert_eq!(read(&resumed), plain);

    // A 2-way shard merge equals the single run.
    let shards: Vec<PathBuf> = (1..=2).map(|k| dir.join(format!("s{k}.json"))).collect();
    for (k, shard) in shards.iter().enumerate() {
        let selector = format!("{}/2", k + 1);
        hqw(&[
            "run",
            path(&spec_path),
            "--shard",
            &selector,
            "--out",
            path(&dir),
            "--json",
            path(shard),
        ]);
    }
    let merged = dir.join("merged.json");
    hqw(&[
        "merge",
        path(&shards[0]),
        path(&shards[1]),
        "-o",
        path(&merged),
    ]);
    assert_eq!(read(&merged), plain);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sched_mix_names_are_escaped_in_the_report_header() {
    let dir = std::env::temp_dir().join(format!("hqw_user_strings_sched_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let ExperimentSpec::Sched(mut config) = quick("sched") else {
        panic!("sched preset must be a Sched spec")
    };
    config.mix.name = NAME.to_string();
    config.frames_per_cell = 6;
    config.arrival_periods_us = vec![240.0];
    let (_, report) = write_and_run(&dir, &ExperimentSpec::Sched(config));

    let doc = Json::parse(&read(&report)).expect("report parses");
    let scenario = doc.get("scenario").unwrap();
    assert_eq!(scenario.get("mix").and_then(Json::as_str), Some(NAME));

    std::fs::remove_dir_all(&dir).ok();
}
