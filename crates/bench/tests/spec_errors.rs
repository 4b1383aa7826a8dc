//! Spec files the `hqw` binary must reject with exit status 2 and a spec
//! error on stderr, never a panic.

use hqw_bench::cli::Options;
use hqw_bench::registry;
use hqw_core::spec::ExperimentSpec;

#[test]
fn annealer_backend_kernel_key_exits_2() {
    // The annealer simulators have one sweep kernel, so a spec that still
    // selects one carries an unknown field.
    let dir = std::env::temp_dir().join(format!("hqw_spec_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = Options::parse(["--quick".to_string()]).unwrap();
    let spec = registry::spec("fabric", &opts).expect("fabric preset");
    let text = spec.to_json();
    for backend in ["pimc", "svmc"] {
        let tag = format!("\"backend\": \"{backend}\"");
        assert!(
            text.contains(&tag),
            "the fabric preset has no {backend} backend"
        );
        let bad = text.replacen(&tag, &format!("{tag}, \"kernel\": \"exact\""), 1);
        let err = ExperimentSpec::parse(&bad).unwrap_err();
        assert!(
            err.to_string().contains("unknown field \"kernel\""),
            "got: {err}"
        );

        let path = dir.join(format!("{backend}_kernel.json"));
        std::fs::write(&path, &bad).unwrap();
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
    }
    std::fs::remove_dir_all(&dir).ok();
}
