//! User strings reach every document escaped: a spec whose mix name holds
//! a quote, a backslash and a newline still writes reports, checkpoint
//! journals and shard documents that parse, resume and merge. So does a
//! spec whose mix name is a non-BMP char written as a UTF-16 surrogate
//! pair escape, as Python's `json.dumps` writes it.

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

/// Writes `spec_text` into `dir`, runs it plainly and returns the spec and
/// report paths.
fn write_and_run(dir: &Path, spec_text: &str) -> (PathBuf, PathBuf) {
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec_text).unwrap();
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

/// Runs the quick fabric preset's SA pool under mix name `name`, its spec
/// text passed through `rewrite`, plainly, checkpointed, resumed and as a
/// 2-way shard merge: every report carries `name` and all agree.
fn check_fabric_mix_name(tag: &str, name: &str, rewrite: impl Fn(String) -> String) {
    let dir = std::env::temp_dir().join(format!("hqw_user_strings_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The quick fabric preset's SA pool alone, two points, few frames.
    let ExperimentSpec::Fabric(mut config) = quick("fabric") else {
        panic!("fabric preset must be a Fabric spec")
    };
    config.mixes.truncate(1);
    config.mixes[0].name = name.to_string();
    config.frames_per_cell = 6;
    config.cell_counts = vec![2];
    config.arrival_periods_us = vec![400.0, 200.0];
    let spec_text = rewrite(ExperimentSpec::Fabric(config).to_json());
    let (spec_path, report) = write_and_run(&dir, &spec_text);

    // The plain run's report parses and carries the name intact.
    let plain = read(&report);
    let doc = Json::parse(&plain).expect("report parses");
    let points = doc.get("points").and_then(Json::as_arr).unwrap();
    assert_eq!(points[0].get("mix").and_then(Json::as_str), Some(name));

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
fn fabric_mix_names_are_escaped_through_every_document() {
    check_fabric_mix_name("quotes", NAME, |text| text);
}

#[test]
fn surrogate_pair_escapes_in_a_spec_decode_to_one_char() {
    check_fabric_mix_name("emoji", "sa-pool \u{1F680}", |text| {
        let escaped = text.replace('\u{1F680}', "\\ud83d\\ude80");
        assert_ne!(escaped, text, "the spec must carry the escaped pair");
        escaped
    });
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
    let (_, report) = write_and_run(&dir, &ExperimentSpec::Sched(config).to_json());

    let doc = Json::parse(&read(&report)).expect("report parses");
    let scenario = doc.get("scenario").unwrap();
    assert_eq!(scenario.get("mix").and_then(Json::as_str), Some(NAME));

    std::fs::remove_dir_all(&dir).ok();
}
