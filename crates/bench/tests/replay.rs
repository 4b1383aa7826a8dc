//! `hqw replay` compares a recorded routing trace against the control
//! plane's own decisions: an untouched quick `fabric-rt` trace replays with
//! exit 0, and one flipped route makes it exit 1 naming that position.

use hqw_core::spec::json::Json;
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

/// The value under `key` of an object.
fn field_mut<'a>(value: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = value else {
        panic!("expected an object holding '{key}'")
    };
    let (_, value) = fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing '{key}'"));
    value
}

/// `doc` with job `job` of point `point` routed somewhere else.
fn flip_route(doc: &str, point: usize, job: usize) -> String {
    let mut doc = Json::parse(doc).expect("trace document parses");
    let Json::Arr(points) = field_mut(&mut doc, "points") else {
        panic!("points is an array")
    };
    let Json::Arr(routes) = field_mut(&mut points[point], "routes") else {
        panic!("routes is an array")
    };
    routes[job] = match routes[job] {
        Json::UInt(0) => Json::UInt(1),
        _ => Json::UInt(0),
    };
    doc.to_string_pretty()
}

#[test]
fn replay_names_a_flipped_route_and_passes_the_untouched_trace() {
    let dir = std::env::temp_dir().join(format!("hqw_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("rt.json");
    let run = hqw(&[
        "run",
        "fabric-rt",
        "--quick",
        "--out",
        path(&dir),
        "--json",
        path(&report),
    ]);
    assert!(
        run.status.success(),
        "fabric-rt run: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let trace = dir.join("fabric_rt_trace.json");

    let untouched = hqw(&["replay", path(&trace)]);
    let stdout = String::from_utf8_lossy(&untouched.stdout);
    assert_eq!(untouched.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("zero divergence"), "{stdout}");

    let tampered = dir.join("tampered.json");
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::write(&tampered, flip_route(&text, 1, 3)).unwrap();
    let out = hqw(&["replay", path(&tampered)]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let verdicts: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(verdicts.len(), 4, "{stdout}");
    for (i, verdict) in verdicts.iter().enumerate() {
        if i == 1 {
            assert!(verdict.ends_with("DIVERGED at job(s) [3]"), "{verdict}");
        } else {
            assert!(verdict.ends_with(": ok"), "{verdict}");
        }
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 routing decision(s) diverged"),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
