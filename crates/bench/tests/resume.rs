//! The `hqw` binary's checkpoint contract end to end: a complete journal
//! resumes to the byte-identical report, and a journal whose point payload
//! carries an out-of-range value is rejected on `--resume` with exit
//! status 2 instead of being written into a report.

use hqw_bench::cli::Options;
use hqw_bench::registry;
use hqw_core::spec::ExperimentSpec;
use std::path::Path;
use std::process::{Command, Output};

fn hqw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hqw"))
        .args(args)
        .output()
        .expect("spawn hqw")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn tampered_checkpoint_resume_exits_2() {
    let dir = std::env::temp_dir().join(format!("hqw_resume_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The quick stream preset, shrunk so the debug binary runs it fast.
    let opts = Options::parse(["--quick".to_string()]).unwrap();
    let Some(ExperimentSpec::Stream(mut config)) = registry::spec("stream", &opts) else {
        panic!("stream preset must be a Stream spec")
    };
    config.frames = 6;
    config.rhos = vec![0.5];
    config.arrival_periods_us = vec![400.0];
    let spec_path = dir.join("stream.json");
    std::fs::write(&spec_path, ExperimentSpec::Stream(config).to_json()).unwrap();

    let journal = dir.join("ck.jsonl");
    let full = dir.join("full.json");
    let run = hqw(&[
        "run",
        path(&spec_path),
        "--checkpoint",
        path(&journal),
        "--out",
        path(&dir),
        "--json",
        path(&full),
    ]);
    assert!(run.status.success(), "{run:?}");

    // Resuming the complete journal reproduces the run's bytes.
    let resumed = dir.join("resumed.json");
    let ok = hqw(&[
        "run",
        "--resume",
        path(&journal),
        "--out",
        path(&dir),
        "--json",
        path(&resumed),
    ]);
    assert!(ok.status.success(), "{ok:?}");
    assert_eq!(
        std::fs::read(&full).unwrap(),
        std::fs::read(&resumed).unwrap()
    );

    // Line 2 is the first point record: make its BER impossible.
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines[1]
        .find("\"ber\": ")
        .expect("stream records carry a ber")
        + 7;
    let end = at + lines[1][at..].find(',').unwrap();
    lines[1].replace_range(at..end, "-5");
    std::fs::write(&journal, lines.join("\n") + "\n").unwrap();

    let tampered = dir.join("tampered.json");
    let bad = hqw(&[
        "run",
        "--resume",
        path(&journal),
        "--out",
        path(&dir),
        "--json",
        path(&tampered),
    ]);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("\"ber\" must be a ratio"), "{stderr}");
    assert!(
        !tampered.exists(),
        "a rejected resume must not write a report"
    );

    std::fs::remove_dir_all(&dir).ok();
}
