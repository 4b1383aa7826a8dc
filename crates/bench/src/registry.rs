//! The experiment registry: every runnable experiment by name, with spec
//! presets at `--quick` / `--full` / standard scale.
//!
//! One table behind one binary. The `hqw` runner resolves
//! `hqw run <name>` through [`spec`], and `hqw list` renders [`all`] (and
//! [`manifest_json`] for CI iteration) — so every path into an experiment
//! goes through the same [`ExperimentSpec`]-driven wiring.

use crate::cli::{GivenFlags, Options};
use crate::runs;
use hqw_core::spec::{ExperimentSpec, FigureKind, FigureSpec, SPEC_VERSION};

/// One registry row: a runnable experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Registry key (`hqw run <name>`; also the spec `experiment` tag).
    pub name: &'static str,
    /// One-line description shown by `hqw list`.
    pub description: &'static str,
}

/// Every registered experiment, in listing order: the five grid
/// experiments first, then the paper figures in [`FigureKind::ALL`] order.
pub const ALL: [RegistryEntry; 12] = [
    RegistryEntry {
        name: "ber",
        description: "end-to-end BER/SER-vs-SNR across every detector family",
    },
    RegistryEntry {
        name: "stream",
        description: "deadline-aware streaming detection over a time-correlated channel",
    },
    RegistryEntry {
        name: "fabric",
        description: "multi-cell streaming detection over a shared multi-backend solver pool",
    },
    RegistryEntry {
        name: "fabric-rt",
        description: "wall-clock realtime fabric service with sim-replayable routing",
    },
    RegistryEntry {
        name: "sched",
        description: "static-vs-adaptive scheduling under calibrated and mispredicted cost models",
    },
    RegistryEntry {
        name: "fig3",
        description: "QUBO-simplification preprocessing across problem sizes and modulations",
    },
    RegistryEntry {
        name: "fig4-softinfo",
        description: "correct pair-constraints vs strength, noiseless and under ICE noise",
    },
    RegistryEntry {
        name: "fig5-schedules",
        description: "FA / RA / FR anneal schedule shapes",
    },
    RegistryEntry {
        name: "fig6",
        description: "dE% distribution of anneal samples, 36-variable problems, per modulation",
    },
    RegistryEntry {
        name: "fig7",
        description: "RA success probability & E[cost] vs initial-state quality dE_IS%",
    },
    RegistryEntry {
        name: "fig8",
        description: "p* and TTS(99%) vs s_p for FA / RA(initial states) / FR(oracle c_p)",
    },
    RegistryEntry {
        name: "headline",
        description: "best-parameter RA+GS vs best-parameter FA over 8-user 16-QAM instances",
    },
];

/// Every registered experiment.
pub fn all() -> &'static [RegistryEntry] {
    &ALL
}

/// Looks a registry row up by name.
pub fn find(name: &str) -> Option<&'static RegistryEntry> {
    ALL.iter().find(|e| e.name == name)
}

/// Builds the spec preset for a registered experiment at the CLI-selected
/// scale/seed (`None` for unknown names).
///
/// For the grid experiments this is the full declarative configuration;
/// for the figures it is the scale + seed pair. Presets are built with
/// `threads: 0` (all cores): the `--threads` flag is applied by
/// [`resolve_target`], the one place that decides the effective thread
/// count for every path into a run.
pub fn spec(name: &str, opts: &Options) -> Option<ExperimentSpec> {
    Some(match name {
        "ber" => ExperimentSpec::Ber(runs::ber_config(opts.scale_name, opts.seed, 0)),
        "stream" => ExperimentSpec::Stream(runs::stream_config(opts.scale_name, opts.seed, 0)),
        "fabric" => ExperimentSpec::Fabric(runs::fabric_config(opts.scale_name, opts.seed, 0)),
        "fabric-rt" => ExperimentSpec::Fabric(runs::fabric_rt_config(opts.scale_name, opts.seed)),
        "sched" => ExperimentSpec::Sched(runs::sched_config(opts.scale_name, opts.seed, 0)),
        other => ExperimentSpec::Figure(FigureSpec {
            experiment: FigureKind::from_name(other)?,
            scale: opts.scale,
            seed: opts.seed,
            threads: 0,
        }),
    })
}

/// Executes a spec: runs the experiment and emits its table/CSV/JSON
/// through the shared [`Options`] conventions.
///
/// The spec's own seed and, for a figure, its scale are copied into the
/// [`Options`] first (see `run_options`), so the stdout banner — the
/// reproducibility record — reports what actually ran, even when a spec
/// file's values differ from the CLI flags.
pub fn run_spec(spec: &ExperimentSpec, opts: &Options) {
    let opts = run_options(spec, opts);
    match spec {
        ExperimentSpec::Fabric(config) if spec.is_realtime() => runs::run_fabric_rt(config, &opts),
        _ => runs::run_grid_spec(spec, &opts),
    }
}

/// The [`Options`] a spec runs under: the spec's seed, and a figure's
/// scale, named `spec` in the banner when it is not the CLI's preset (a
/// spec file's own shape). The grid families' shapes are their configs,
/// which the banner's fingerprint line pins.
fn run_options(spec: &ExperimentSpec, opts: &Options) -> Options {
    let mut opts = opts.clone();
    opts.seed = spec.seed();
    if let ExperimentSpec::Figure(figure) = spec {
        if figure.scale != opts.scale {
            opts.scale_name = "spec";
        }
        opts.scale = figure.scale;
    }
    opts
}

/// Resolves a `hqw run <target>` argument into a spec. A `*.json` path is
/// parsed as a spec file: an explicitly-given `--seed` overrides the
/// file's value, and `--quick`/`--full` are rejected (a spec file carries
/// its own shape — scale presets only parameterize registry names, and
/// silently ignoring the flag would misreport what ran). Anything else is
/// a registry lookup.
///
/// This is the **single resolution point** for the effective thread count
/// (the precedence-matrix test below pins it): an explicitly-given
/// `--threads` overrides whatever the spec says (presets default to 0 =
/// all cores; spec files carry their own value), and is rejected on
/// realtime specs, whichever path the spec arrived by.
///
/// # Errors
/// Returns the user-facing message for an unknown name, an unreadable
/// file, a malformed/invalid spec document, or a scale flag on a
/// spec-file run — never panics.
pub fn resolve_target(
    target: &str,
    opts: &Options,
    given: GivenFlags,
) -> Result<ExperimentSpec, String> {
    let mut resolved = if target.ends_with(".json") {
        if given.scale {
            return Err(format!(
                "--quick/--full cannot apply to the spec file '{target}': \
                 scale presets parameterize registry names; set the shape in the spec instead"
            ));
        }
        let text = std::fs::read_to_string(target)
            .map_err(|e| format!("cannot read spec file '{target}': {e}"))?;
        let mut parsed = ExperimentSpec::parse(&text)
            .map_err(|e| format!("invalid spec file '{target}': {e}"))?;
        if given.seed {
            parsed.set_seed(opts.seed);
        }
        parsed
    } else {
        spec(target, opts).ok_or_else(|| {
            format!("unknown experiment '{target}' (run `hqw list` for the registry)")
        })?
    };
    if given.threads {
        // A realtime spec's thread topology is its `realtime` settings
        // (producers/queue shards); the grid-level `--threads` knob has
        // nothing to attach to, and silently ignoring it would misreport
        // what ran.
        if resolved.is_realtime() {
            return Err(format!(
                "--threads cannot apply to the realtime experiment '{target}': \
                 worker topology comes from the spec's \"realtime\" settings \
                 (producers/queue_shards)"
            ));
        }
        resolved.set_threads(opts.threads);
    }
    if opts.telemetry.is_some() && !resolved.supports_telemetry() {
        // BER sweeps and the figures have no frame lifecycle to trace;
        // silently writing an empty trace would misreport what ran.
        return Err(format!(
            "--telemetry cannot apply to '{target}': only the stream/fabric \
             engines emit frame-lifecycle spans"
        ));
    }
    Ok(resolved)
}

/// The machine-readable registry manifest `hqw list --json` prints: the
/// spec version plus every experiment's name and description. CI iterates
/// it to run each registered experiment at quick scale, and
/// `ci/check_bench.py` validates it against the expected registry shape.
pub fn manifest_json() -> String {
    use hqw_core::spec::json::Json;
    Json::Obj(vec![
        ("spec_version".to_string(), Json::UInt(SPEC_VERSION)),
        (
            "experiments".to_string(),
            Json::Arr(
                ALL.iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(e.name.to_string())),
                            (
                                "description".to_string(),
                                Json::Str(e.description.to_string()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string())).expect("valid flags")
    }

    #[test]
    fn registry_names_are_unique_and_resolve_to_specs() {
        let mut seen = std::collections::HashSet::new();
        for entry in all() {
            assert!(seen.insert(entry.name), "duplicate name {}", entry.name);
            assert!(!entry.description.is_empty());
            let spec = spec(entry.name, &opts(&["--quick"]))
                .unwrap_or_else(|| panic!("{} has no preset", entry.name));
            assert_eq!(spec.family(), entry.name);
            spec.validate().expect("registry presets must validate");
        }
    }

    #[test]
    fn canned_entries_match_canned_kinds_exactly() {
        let figures: Vec<&str> = all()
            .iter()
            .map(|e| e.name)
            .filter(|n| !matches!(*n, "ber" | "stream" | "fabric" | "fabric-rt" | "sched"))
            .collect();
        let kinds: Vec<&str> = FigureKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(figures, kinds);
        assert_eq!(all().len(), 12);
    }

    #[test]
    fn presets_scale_with_the_flags() {
        let quick = spec("ber", &opts(&["--quick"])).unwrap();
        let full = spec("ber", &opts(&["--full"])).unwrap();
        assert_ne!(quick, full);
        let seeded = spec("ber", &opts(&["--quick", "--seed", "9"])).unwrap();
        assert_eq!(seeded.seed(), 9);
        // Presets are thread-neutral: --threads is resolve_target's job.
        assert_eq!(seeded.threads(), 0);
    }

    #[test]
    fn the_banner_reports_a_figure_specs_own_scale() {
        let cli = opts(&["--quick"]);
        let preset = spec("fig6", &cli).unwrap();
        assert_eq!(run_options(&preset, &cli).scale_name, "quick");

        let mut file = preset.clone();
        if let ExperimentSpec::Figure(figure) = &mut file {
            figure.scale.reads += 1;
            figure.seed = 17;
        }
        let ran = run_options(&file, &cli);
        assert_eq!((ran.scale_name, ran.seed), ("spec", 17));
        assert_eq!(ran.scale.reads, cli.scale.reads + 1);
    }

    /// No flags given explicitly.
    const NO_FLAGS: GivenFlags = GivenFlags {
        threads: false,
        seed: false,
        scale: false,
    };

    #[test]
    fn threads_precedence_is_decided_in_one_place() {
        // The full flag-vs-spec-vs-default matrix, for both paths a spec
        // can arrive by (registry name, spec file). Expected = flag when
        // explicitly given, else the spec's own value (presets carry the
        // 0 = all-cores default).
        let dir =
            std::env::temp_dir().join(format!("hqw_threads_matrix_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // (given --threads?, flag value, spec-file threads, expected name-path, expected file-path)
        let cases = [
            (false, 0, 3, 0, 3), // nothing given: preset default / file value
            (true, 2, 3, 2, 2),  // flag beats both
            (true, 0, 3, 0, 0),  // explicit 0 still wins (all cores)
            (false, 7, 3, 0, 3), // value present but not *given*: ignored
        ];
        for (i, (given_threads, flag, file_threads, want_name, want_file)) in
            cases.into_iter().enumerate()
        {
            let mut cli = opts(&["--quick"]);
            cli.threads = flag;
            let given = GivenFlags {
                threads: given_threads,
                ..NO_FLAGS
            };

            let by_name = resolve_target("ber", &cli, given).unwrap();
            assert_eq!(by_name.threads(), want_name, "case {i} (name path)");

            let mut spec_in = spec("ber", &opts(&["--quick"])).unwrap();
            spec_in.set_threads(file_threads);
            let path = dir.join(format!("case{i}.json"));
            std::fs::write(&path, spec_in.to_json()).unwrap();
            let by_file = resolve_target(path.to_str().unwrap(), &cli, given).unwrap();
            assert_eq!(by_file.threads(), want_file, "case {i} (file path)");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_on_a_realtime_spec_is_rejected() {
        // By registry name…
        let cli = opts(&["--quick", "--threads", "4"]);
        let given = GivenFlags {
            threads: true,
            ..NO_FLAGS
        };
        let err = resolve_target("fabric-rt", &cli, given).unwrap_err();
        assert!(err.contains("--threads cannot apply"), "{err}");
        assert!(err.contains("realtime"), "{err}");

        // …and by spec file: the file's threads field is left untouched,
        // the flag is rejected rather than silently dropped.
        let dir = std::env::temp_dir().join(format!("hqw_rt_threads_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.json");
        let spec_in = spec("fabric-rt", &opts(&["--quick"])).unwrap();
        assert!(spec_in.is_realtime());
        std::fs::write(&path, spec_in.to_json()).unwrap();
        let path_str = path.to_str().unwrap();
        let err = resolve_target(path_str, &cli, given).unwrap_err();
        assert!(err.contains("--threads cannot apply"), "{err}");
        // Without the flag the same file resolves fine.
        let resolved = resolve_target(path_str, &opts(&[]), NO_FLAGS).unwrap();
        assert_eq!(resolved, spec_in);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_flag_on_an_unsupported_spec_is_rejected() {
        let mut cli = opts(&["--quick"]);
        cli.telemetry = Some(std::path::PathBuf::from("trace.json"));
        for unsupported in ["ber", "sched", "fig3", "headline"] {
            let err = resolve_target(unsupported, &cli, NO_FLAGS).unwrap_err();
            assert!(err.contains("--telemetry cannot apply"), "{err}");
        }
        for supported in ["stream", "fabric", "fabric-rt"] {
            resolve_target(supported, &cli, NO_FLAGS)
                .unwrap_or_else(|e| panic!("{supported} should accept --telemetry: {e}"));
        }
    }

    #[test]
    fn unknown_names_resolve_to_errors_not_panics() {
        assert!(spec("nope", &opts(&[])).is_none());
        let err = resolve_target("nope", &opts(&[]), NO_FLAGS).unwrap_err();
        assert!(err.contains("unknown experiment 'nope'"));
        let err = resolve_target("/no/such/file.json", &opts(&[]), NO_FLAGS).unwrap_err();
        assert!(err.contains("cannot read spec file"));
    }

    #[test]
    fn spec_files_resolve_and_honor_explicit_overrides() {
        // Process-unique dir: concurrent `cargo test` invocations must not
        // race on the spec fixture.
        let dir = std::env::temp_dir().join(format!("hqw_registry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ber.json");
        let spec_in = spec("ber", &opts(&["--quick", "--seed", "5"])).unwrap();
        std::fs::write(&path, spec_in.to_json()).unwrap();
        let path_str = path.to_str().unwrap();
        let cli = opts(&["--threads", "7", "--seed", "11"]);

        // Flags present on the command line but not *explicitly* marked
        // given leave the file's values untouched…
        let resolved = resolve_target(path_str, &cli, NO_FLAGS).unwrap();
        assert_eq!(resolved, spec_in);
        // …explicitly-given --threads/--seed override the file.
        let given = GivenFlags {
            threads: true,
            seed: true,
            scale: false,
        };
        let resolved = resolve_target(path_str, &cli, given).unwrap();
        match resolved {
            ExperimentSpec::Ber(c) => {
                assert_eq!(c.threads, 7);
                assert_eq!(c.seed, 11);
            }
            _ => unreachable!(),
        }

        // --quick/--full cannot apply to a spec file: rejected, not
        // silently ignored.
        let given = GivenFlags {
            scale: true,
            ..NO_FLAGS
        };
        let err = resolve_target(path_str, &cli, given).unwrap_err();
        assert!(err.contains("--quick/--full cannot apply"), "{err}");

        // Malformed documents come back as messages, not panics.
        std::fs::write(&path, "{broken").unwrap();
        let err = resolve_target(path_str, &opts(&[]), NO_FLAGS).unwrap_err();
        assert!(err.contains("invalid spec file"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_lists_every_experiment() {
        use hqw_core::spec::json::Json;
        let manifest = Json::parse(&manifest_json()).expect("manifest is valid JSON");
        assert_eq!(
            manifest.get("spec_version").and_then(Json::as_u64),
            Some(SPEC_VERSION)
        );
        let experiments = manifest.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(experiments.len(), all().len());
        let names: Vec<&str> = experiments
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        for headline in ["ber", "stream", "fabric"] {
            assert!(names.contains(&headline), "{headline} missing");
        }
    }
}
