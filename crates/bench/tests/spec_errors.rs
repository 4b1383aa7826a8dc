//! Spec files the `hqw` binary must reject with exit status 2 and a spec
//! error on stderr, never a panic.

use hqw_bench::cli::Options;
use hqw_bench::registry;
use hqw_core::spec::ExperimentSpec;

/// Asserts that `bad` fails to parse with `unknown field "kernel"` and that
/// `hqw run` on it exits 2 with that error and no panic.
fn assert_kernel_key_exits_2(bad: &str, file: &str) {
    let err = ExperimentSpec::parse(bad).unwrap_err();
    assert!(
        err.to_string().contains("unknown field \"kernel\""),
        "got: {err}"
    );

    let dir = std::env::temp_dir().join(format!("hqw_spec_errors_{}_{file}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{file}.json"));
    std::fs::write(&path, bad).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hqw"))
        .args([
            "run",
            path.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn hqw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown field \"kernel\""), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

fn quick_preset_json(name: &str) -> String {
    let opts = Options::parse(["--quick".to_string()]).unwrap();
    registry::spec(name, &opts)
        .unwrap_or_else(|| panic!("{name} preset"))
        .to_json()
}

#[test]
fn annealer_backend_kernel_key_exits_2() {
    // The annealer simulators have one sweep kernel, so a spec that still
    // selects one carries an unknown field.
    let text = quick_preset_json("fabric");
    for backend in ["pimc", "svmc"] {
        let tag = format!("\"backend\": \"{backend}\"");
        assert!(
            text.contains(&tag),
            "the fabric preset has no {backend} backend"
        );
        let bad = text.replacen(&tag, &format!("{tag}, \"kernel\": \"exact\""), 1);
        assert_kernel_key_exits_2(&bad, &format!("{backend}_kernel"));
    }
}

#[test]
fn sa_stanza_kernel_key_exits_2() {
    // SA has one sweep kernel too, so an SA stanza that names one, either
    // `exact` or `fast`, carries an unknown field: the fabric preset's
    // `sa_pool` backend and the stream spec's `sa` alike.
    for preset in ["fabric", "stream"] {
        let text = quick_preset_json(preset);
        let tag = "\"sa\": {";
        assert!(text.contains(tag), "the {preset} preset has no SA stanza");
        for kernel in ["exact", "fast"] {
            let bad = text.replacen(tag, &format!("{tag}\"kernel\": \"{kernel}\", "), 1);
            assert_kernel_key_exits_2(&bad, &format!("{preset}_sa_{kernel}"));
        }
    }
}
