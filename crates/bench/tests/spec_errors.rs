//! Spec files the `hqw` binary must reject with exit status 2 and a spec
//! error on stderr, never a panic.

use hqw_bench::cli::Options;
use hqw_bench::registry;
use hqw_core::spec::ExperimentSpec;

/// Asserts that `hqw <args>` exits 2 with `needle` on stderr and no panic.
fn assert_hqw_exits_2(args: &[&str], needle: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hqw"))
        .args(args)
        .output()
        .expect("spawn hqw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Asserts that the spec text `bad` fails to parse with `needle` and that
/// `hqw run` on it as a spec file exits 2 with that error and no panic.
fn assert_spec_file_exits_2(bad: &str, file: &str, needle: &str) {
    let err = ExperimentSpec::parse(bad).unwrap_err();
    assert!(err.to_string().contains(needle), "got: {err}");

    let dir = std::env::temp_dir().join(format!("hqw_spec_errors_{}_{file}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{file}.json"));
    std::fs::write(&path, bad).unwrap();
    assert_hqw_exits_2(
        &[
            "run",
            path.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ],
        needle,
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// [`assert_spec_file_exits_2`] for a spec that still selects a sweep kernel.
fn assert_kernel_key_exits_2(bad: &str, file: &str) {
    assert_spec_file_exits_2(bad, file, "unknown field \"kernel\"");
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

#[test]
fn deleted_canned_kinds_exit_2() {
    // The non-paper canned experiments are gone: by registry name and by
    // spec-file tag alike they are unknown experiments, not panics.
    assert_hqw_exits_2(
        &["run", "ablation-greedy", "--quick"],
        "unknown experiment 'ablation-greedy'",
    );
    let text = quick_preset_json("fig3");
    let tag = "\"experiment\": \"fig3\"";
    assert!(text.contains(tag), "the fig3 preset has no experiment tag");
    let bad = text.replacen(tag, "\"experiment\": \"ext-iterative\"", 1);
    assert_spec_file_exits_2(&bad, "ext_iterative", "unknown experiment 'ext-iterative'");
}

/// `text` with the JSON object that follows `key` swapped for `object`.
fn replace_object(text: &str, key: &str, object: &str) -> String {
    let start = text
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {text}"))
        + key.len();
    let len = text[start..].find('}').expect("object closes") + 1;
    format!("{}{object}{}", &text[..start], &text[start + len..])
}

#[test]
fn deleted_policy_and_arrival_tags_exit_2() {
    // The UCB predictor and the diurnal and heavy-tailed arrival processes
    // are gone: a spec written with their old wire form names an unknown
    // tag, not a panic.
    let sched = quick_preset_json("sched");
    let bad = replace_object(
        &sched,
        "\"policy\": ",
        "{\"name\": \"ucb\", \"explore_milli\": 250}",
    );
    assert_spec_file_exits_2(&bad, "sched_ucb", "unknown scheduling policy 'ucb'");

    let fabric = quick_preset_json("fabric");
    let tag = "\"deadline_us\": ";
    assert!(fabric.contains(tag), "the fabric preset has no deadline");
    for (name, arrival) in [
        (
            "diurnal",
            "{\"process\": \"diurnal\", \"amplitude\": 0.5, \"cycle_frames\": 16}",
        ),
        (
            "heavy-tailed",
            "{\"process\": \"heavy-tailed\", \"alpha\": 1.5}",
        ),
    ] {
        let bad = fabric.replacen(tag, &format!("\"arrival\": {arrival}, {tag}"), 1);
        assert_spec_file_exits_2(
            &bad,
            &format!("fabric_{}", name.replace('-', "_")),
            &format!("unknown arrival process '{name}'"),
        );
    }
}
