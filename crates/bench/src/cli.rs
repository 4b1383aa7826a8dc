//! The shared experiment flags of `hqw run`, and the `hqw` command parser.
//!
//! Flags (all optional):
//! * `--quick`       — test-scale run (seconds).
//! * `--full`        — publication-scale run (long).
//! * `--seed <n>`    — RNG seed (default 2026).
//! * `--out <dir>`   — CSV output directory (default `results/`).
//! * `--threads <n>` — worker threads for parallel sweeps (0 = all cores;
//!   results are bit-identical for any value).
//! * `--json <path>` — JSON report path, for experiments that emit one
//!   (default: the experiment's `BENCH_*.json` at the workspace root).
//! * `--telemetry <path>` — capture a Chrome trace-event file at `path`
//!   (off by default; only the stream/fabric engines support it).
//!
//! Malformed arguments are reported on stderr with the usage line and exit
//! the process with status 2 (never a panic/abort — CI and scripts get a
//! clean diagnostic and a nonzero status).

use hqw_core::experiments::Scale;
use hqw_core::report::Report;
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Experiment scale.
    pub scale: Scale,
    /// Human-readable scale name.
    pub scale_name: &'static str,
    /// RNG seed.
    pub seed: u64,
    /// CSV output directory.
    pub out_dir: PathBuf,
    /// Worker threads for parallel sweeps (0 = all available cores).
    pub threads: usize,
    /// Override path for JSON reports (`None` = binary default).
    pub json_out: Option<PathBuf>,
    /// `--telemetry PATH` — capture spans/histograms/counter series and
    /// write a Chrome trace-event file at `PATH` (`None` = telemetry off,
    /// the default; observation never perturbs results either way).
    pub telemetry: Option<PathBuf>,
}

impl Options {
    /// Parses an explicit argument list (the flags after `hqw run <name>`).
    ///
    /// # Errors
    /// Returns a human-readable message for an unknown flag, a flag missing
    /// its value, or a value that fails to parse.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        Self::parse_tracked(args).map(|(options, _)| options)
    }

    /// [`Options::parse`] plus the [`GivenFlags`] record of which flags
    /// appeared explicitly — the one pass that both parses values and
    /// tracks presence, so the two can never disagree.
    ///
    /// # Errors
    /// Same as [`Options::parse`].
    pub fn parse_tracked(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, GivenFlags), String> {
        let mut scale = Scale::standard();
        let mut scale_name = "standard";
        let mut seed = 2026u64;
        let mut out_dir = PathBuf::from("results");
        let mut threads = 0usize;
        let mut json_out = None;
        let mut telemetry = None;
        let mut given = GivenFlags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    scale = Scale::quick();
                    scale_name = "quick";
                    given.scale = true;
                }
                "--full" => {
                    scale = Scale::full();
                    scale_name = "full";
                    given.scale = true;
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs an unsigned integer, got '{v}'"))?;
                    given.seed = true;
                }
                "--out" => {
                    out_dir = PathBuf::from(args.next().ok_or("--out needs a path")?);
                }
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    threads = v
                        .parse()
                        .map_err(|_| format!("--threads needs an unsigned integer, got '{v}'"))?;
                    given.threads = true;
                }
                "--json" => {
                    json_out = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
                }
                "--telemetry" => {
                    telemetry = Some(PathBuf::from(
                        args.next().ok_or("--telemetry needs a path")?,
                    ));
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok((
            Options {
                scale,
                scale_name,
                seed,
                out_dir,
                threads,
                json_out,
                telemetry,
            },
            given,
        ))
    }

    /// Path for a named CSV in the output directory.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }

    /// Path for the run's JSON report: the `--json` override when given,
    /// `default_name` (at the working directory) otherwise.
    pub fn json_path(&self, default_name: &str) -> PathBuf {
        self.json_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(default_name))
    }

    /// Prints the standard experiment header.
    pub fn banner(&self, figure: &str, what: &str) {
        println!("=== {figure}: {what}");
        println!(
            "    scale={} seed={} (see EXPERIMENTS.md for paper-vs-measured notes)",
            self.scale_name, self.seed
        );
        println!();
    }

    /// The one emission path every report-producing experiment uses: print
    /// the table, write the CSV under `--out`, write the JSON report at the
    /// `--json` override or the report's default name (see
    /// [`report_file_names`]).
    ///
    /// # Panics
    /// Panics when the CSV or JSON file cannot be written.
    pub fn emit_report(&self, report: &dyn Report) {
        let (csv_name, json_default) = report_file_names(report);
        println!("{}", report.render_table());
        let csv_path = self.csv_path(&csv_name);
        report.write_csv(&csv_path).expect("write CSV");
        println!("CSV written to {}", csv_path.display());
        let json_path = self.json_path(&json_default);
        report.write_json(&json_path).expect("write JSON report");
        println!("JSON report written to {}", json_path.display());
    }
}

/// A report's standard file names: `fig_<name>.csv` (under `--out`) and
/// `BENCH_<name>.json`, with the report name's dashes as underscores.
pub fn report_file_names(report: &dyn Report) -> (String, String) {
    let stem = report.name().replace('-', "_");
    (format!("fig_{stem}.csv"), format!("BENCH_{stem}.json"))
}

/// Usage summary of the `hqw` runner binary.
///
/// For spec-file runs, `--seed`/`--threads` override the file's values and
/// `--quick`/`--full` are rejected (a spec file carries its own shape; the
/// scale presets only parameterize registry names).
pub const HQW_USAGE: &str = "usage: hqw list [--json]\n       \
     hqw run <name|spec.json> [--quick|--full] [--seed N] [--out DIR] [--threads N] [--json PATH]\n                \
     [--telemetry PATH] [--shard K/N] [--checkpoint PATH]\n       \
     hqw run --resume <checkpoint> [--out DIR] [--json PATH]\n       \
     hqw merge <shard.json>... [-o PATH]\n       \
     hqw replay <trace.json>";

/// Which standard flags appeared *explicitly* on a `hqw run` command line —
/// the spec-file resolution path uses this to override exactly what the
/// user asked for (and to reject what cannot apply) instead of silently
/// ignoring flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GivenFlags {
    /// `--threads` appeared (overrides a spec file's `threads` field).
    pub threads: bool,
    /// `--seed` appeared (overrides a spec file's `seed` field).
    pub seed: bool,
    /// `--quick` or `--full` appeared (rejected for spec-file runs).
    pub scale: bool,
}

/// Everything a `hqw run` command line can say: the target, the standard
/// flags, and the distributed-plane selectors (`--shard`, `--checkpoint`,
/// `--resume`). Parsed and cross-validated in one place so the runner only
/// sees consistent combinations.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Registry name, or a path ending in `.json` to a spec file. `None`
    /// only for `--resume` runs (the checkpoint carries the spec).
    pub target: Option<String>,
    /// The standard experiment flags.
    pub options: Options,
    /// Which flags the user gave explicitly.
    pub given: GivenFlags,
    /// `--shard K/N` — run only shard `K` of an `N`-way grid partition and
    /// emit a `ShardReport` instead of the full report.
    pub shard: Option<(usize, usize)>,
    /// `--checkpoint PATH` — journal completed points to a fresh JSONL
    /// checkpoint while running.
    pub checkpoint: Option<PathBuf>,
    /// `--resume PATH` — continue a killed checkpointed run.
    pub resume: Option<PathBuf>,
}

/// A parsed `hqw` runner command line.
#[derive(Debug, Clone)]
pub enum HqwCommand {
    /// `hqw list [--json]` — print the experiment registry.
    List {
        /// Emit the machine-readable JSON manifest instead of a table.
        json: bool,
    },
    /// `hqw run <name|spec.json> [flags]` — run one experiment (or one
    /// shard of it, or resume a checkpointed run).
    Run(RunArgs),
    /// `hqw merge <shard.json>... [-o PATH]` — reassemble shard reports
    /// into the ordinary single-run report (byte-identical to running
    /// unsharded). Exit 2 on mixed fingerprints, overlapping point sets,
    /// or missing points.
    Merge {
        /// Shard report files, in any order.
        shards: Vec<String>,
        /// `-o`/`--out` output path (`None` = the family's `BENCH_*.json`
        /// default).
        out: Option<PathBuf>,
    },
    /// `hqw replay <trace.json>` — re-feed a recorded realtime routing
    /// trace through the virtual-time sim and diff the decisions. Exit 0
    /// on zero divergence, 1 on any divergence, 2 on a malformed document.
    Replay {
        /// Path to the `fabric_rt_trace.json` document to replay.
        trace: String,
    },
}

/// Parses a `--shard K/N` value.
fn parse_shard(value: &str) -> Result<(usize, usize), String> {
    let err = || format!("--shard needs K/N with 1 <= K <= N, got '{value}'");
    let (index, count) = value.split_once('/').ok_or_else(err)?;
    let index: usize = index.parse().map_err(|_| err())?;
    let count: usize = count.parse().map_err(|_| err())?;
    if index < 1 || index > count {
        return Err(err());
    }
    Ok((index, count))
}

impl HqwCommand {
    /// Parses an explicit argument list (testable core of the `hqw` main).
    ///
    /// # Errors
    /// Returns a human-readable message for a missing/unknown subcommand or
    /// malformed flags; the binary prints it with [`HQW_USAGE`] and exits
    /// with status 2 — never a panic.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<HqwCommand, String> {
        let mut args = args.into_iter();
        match args.next().as_deref() {
            None => Err("missing command (expected 'list' or 'run')".to_string()),
            Some("list") => {
                let mut json = false;
                for arg in args {
                    match arg.as_str() {
                        "--json" => json = true,
                        other => return Err(format!("unknown list flag '{other}'")),
                    }
                }
                Ok(HqwCommand::List { json })
            }
            Some("run") => {
                let mut target = None;
                let mut shard = None;
                let mut checkpoint = None;
                let mut resume = None;
                let mut std_args = Vec::new();
                let mut first = true;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--shard" => {
                            let v = args.next().ok_or("--shard needs K/N (e.g. --shard 2/4)")?;
                            shard = Some(parse_shard(&v)?);
                        }
                        "--checkpoint" => {
                            checkpoint = Some(PathBuf::from(
                                args.next().ok_or("--checkpoint needs a path")?,
                            ));
                        }
                        "--resume" => {
                            resume = Some(PathBuf::from(
                                args.next().ok_or("--resume needs a checkpoint path")?,
                            ));
                        }
                        // Value-taking standard flags travel with their
                        // value, so the value is never mistaken for a
                        // positional (missing values are reported by the
                        // shared Options parser).
                        "--seed" | "--out" | "--threads" | "--json" | "--telemetry" => {
                            std_args.push(arg.clone());
                            if let Some(value) = args.next() {
                                std_args.push(value);
                            }
                        }
                        _ if !arg.starts_with('-') => {
                            if !first {
                                return Err(format!(
                                    "unexpected argument '{arg}' \
                                     (the experiment target must come first)"
                                ));
                            }
                            target = Some(arg);
                        }
                        _ => std_args.push(arg),
                    }
                    first = false;
                }
                let (options, given) = Options::parse_tracked(std_args)?;
                if resume.is_some() {
                    if let Some(target) = &target {
                        return Err(format!(
                            "--resume takes no experiment target (the checkpoint \
                             carries the spec), got '{target}'"
                        ));
                    }
                    if shard.is_some() {
                        return Err("--shard cannot be combined with --resume".to_string());
                    }
                    if checkpoint.is_some() {
                        return Err("--checkpoint cannot be combined with --resume \
                             (the resumed journal already names itself)"
                            .to_string());
                    }
                    if given.scale || given.seed || given.threads {
                        return Err("--quick/--full/--seed/--threads cannot apply to --resume: \
                             the checkpoint pins its spec"
                            .to_string());
                    }
                    if options.telemetry.is_some() {
                        return Err("--telemetry cannot be combined with --resume \
                             (a resumed run replays journaled points, so there is no \
                             live execution to trace)"
                            .to_string());
                    }
                } else if target.is_none() {
                    return Err(
                        "run needs an experiment name, spec file, or --resume <checkpoint>"
                            .to_string(),
                    );
                }
                if shard.is_some() && checkpoint.is_some() {
                    return Err("--shard cannot be combined with --checkpoint \
                         (shards are merged, not resumed)"
                        .to_string());
                }
                if shard.is_some() && options.telemetry.is_some() {
                    return Err("--telemetry cannot be combined with --shard \
                         (traces are per-process; merge reassembles reports, not spans)"
                        .to_string());
                }
                Ok(HqwCommand::Run(RunArgs {
                    target,
                    options,
                    given,
                    shard,
                    checkpoint,
                    resume,
                }))
            }
            Some("merge") => {
                let mut shards = Vec::new();
                let mut out = None;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "-o" | "--out" => {
                            out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?));
                        }
                        other if other.starts_with('-') => {
                            return Err(format!("unknown merge flag '{other}'"));
                        }
                        _ => shards.push(arg),
                    }
                }
                if shards.is_empty() {
                    return Err("merge needs at least one shard file".to_string());
                }
                Ok(HqwCommand::Merge { shards, out })
            }
            Some("replay") => {
                let trace = args.next().ok_or("replay needs a trace file")?;
                if trace.starts_with('-') {
                    return Err(format!("replay needs a trace file, got flag '{trace}'"));
                }
                if let Some(extra) = args.next() {
                    return Err(format!(
                        "replay takes exactly one trace file, got '{extra}'"
                    ));
                }
                Ok(HqwCommand::Replay { trace })
            }
            Some(other) => Err(format!("unknown command '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> + use<> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn parse_ok(list: &[&str]) -> Options {
        Options::parse(args(list)).expect("arguments should parse")
    }

    fn parse_err(list: &[&str]) -> String {
        Options::parse(args(list)).expect_err("arguments should be rejected")
    }

    #[test]
    fn defaults_are_standard_scale() {
        let o = parse_ok(&[]);
        assert_eq!(o.scale_name, "standard");
        assert_eq!(o.seed, 2026);
        assert_eq!(o.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn quick_and_full_switch_scales() {
        assert_eq!(parse_ok(&["--quick"]).scale_name, "quick");
        assert_eq!(parse_ok(&["--full"]).scale_name, "full");
        // Later flags win.
        let o = parse_ok(&["--quick", "--full"]);
        assert_eq!(o.scale_name, "full");
    }

    #[test]
    fn seed_and_out_parse_values() {
        let o = parse_ok(&["--seed", "7", "--out", "/tmp/x"]);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.csv_path("a.csv"), PathBuf::from("/tmp/x/a.csv"));
    }

    #[test]
    fn threads_and_json_parse_values() {
        let o = parse_ok(&[]);
        assert_eq!(o.threads, 0);
        assert!(o.json_out.is_none());
        let o = parse_ok(&["--threads", "3", "--json", "/tmp/ber.json"]);
        assert_eq!(o.threads, 3);
        assert_eq!(o.json_out, Some(PathBuf::from("/tmp/ber.json")));
    }

    #[test]
    fn telemetry_parses_a_path_and_defaults_off() {
        let o = parse_ok(&[]);
        assert!(o.telemetry.is_none());
        let o = parse_ok(&["--telemetry", "/tmp/trace.json"]);
        assert_eq!(o.telemetry, Some(PathBuf::from("/tmp/trace.json")));
        assert_eq!(parse_err(&["--telemetry"]), "--telemetry needs a path");
    }

    #[test]
    fn json_path_prefers_the_override() {
        let o = parse_ok(&[]);
        assert_eq!(o.json_path("BENCH_x.json"), PathBuf::from("BENCH_x.json"));
        let o = parse_ok(&["--json", "/tmp/report.json"]);
        assert_eq!(
            o.json_path("BENCH_x.json"),
            PathBuf::from("/tmp/report.json")
        );
    }

    #[test]
    fn malformed_values_are_reported_not_panicked() {
        assert!(parse_err(&["--threads", "many"]).contains("--threads"));
        assert!(parse_err(&["--threads", "many"]).contains("'many'"));
        assert!(parse_err(&["--seed", "xyz"]).contains("--seed"));
        assert!(parse_err(&["--seed", "-3"]).contains("'-3'"));
    }

    #[test]
    fn missing_values_are_reported() {
        assert_eq!(parse_err(&["--seed"]), "--seed needs a value");
        assert_eq!(parse_err(&["--out"]), "--out needs a path");
        assert_eq!(parse_err(&["--threads"]), "--threads needs a value");
        assert_eq!(parse_err(&["--json"]), "--json needs a path");
    }

    #[test]
    fn unknown_flags_are_reported() {
        assert_eq!(parse_err(&["--nope"]), "unknown flag '--nope'");
        // A valid prefix doesn't rescue a later bad flag.
        assert_eq!(parse_err(&["--quick", "--oops"]), "unknown flag '--oops'");
    }

    fn hqw_ok(list: &[&str]) -> HqwCommand {
        HqwCommand::parse(args(list)).expect("command should parse")
    }

    fn hqw_err(list: &[&str]) -> String {
        HqwCommand::parse(args(list)).expect_err("command should be rejected")
    }

    #[test]
    fn hqw_list_parses_with_and_without_json() {
        assert!(matches!(
            hqw_ok(&["list"]),
            HqwCommand::List { json: false }
        ));
        assert!(matches!(
            hqw_ok(&["list", "--json"]),
            HqwCommand::List { json: true }
        ));
        assert_eq!(hqw_err(&["list", "--oops"]), "unknown list flag '--oops'");
    }

    fn run_args(list: &[&str]) -> RunArgs {
        match hqw_ok(list) {
            HqwCommand::Run(run) => run,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hqw_run_parses_target_and_tracks_explicit_flags() {
        let run = run_args(&["run", "ber", "--quick", "--threads", "2"]);
        assert_eq!(run.target.as_deref(), Some("ber"));
        assert_eq!(run.options.scale_name, "quick");
        assert_eq!(run.options.threads, 2);
        assert_eq!(
            run.given,
            GivenFlags {
                threads: true,
                seed: false,
                scale: true,
            }
        );
        assert_eq!((run.shard, run.checkpoint, run.resume), (None, None, None));

        let run = run_args(&["run", "specs/my.json", "--seed", "3"]);
        assert_eq!(run.target.as_deref(), Some("specs/my.json"));
        assert_eq!(
            run.given,
            GivenFlags {
                threads: false,
                seed: true,
                scale: false,
            }
        );
    }

    #[test]
    fn hqw_run_parses_shard_selectors() {
        let run = run_args(&["run", "ber", "--quick", "--shard", "2/3"]);
        assert_eq!(run.shard, Some((2, 3)));

        for bad in ["5/3", "0/3", "3", "a/b", "2/0", "/", "-1/3"] {
            let err = hqw_err(&["run", "ber", "--shard", bad]);
            assert!(err.contains("--shard needs K/N"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
        assert_eq!(
            hqw_err(&["run", "ber", "--shard"]),
            "--shard needs K/N (e.g. --shard 2/4)"
        );
        assert!(
            hqw_err(&["run", "ber", "--shard", "1/2", "--checkpoint", "ck.jsonl"])
                .contains("--shard cannot be combined with --checkpoint")
        );
    }

    #[test]
    fn hqw_run_parses_checkpoint_and_resume() {
        let run = run_args(&["run", "ber", "--quick", "--checkpoint", "ck.jsonl"]);
        assert_eq!(run.checkpoint, Some(PathBuf::from("ck.jsonl")));
        assert!(run.resume.is_none());

        let run = run_args(&["run", "--resume", "ck.jsonl", "--json", "out.json"]);
        assert!(run.target.is_none());
        assert_eq!(run.resume, Some(PathBuf::from("ck.jsonl")));

        assert_eq!(
            hqw_err(&["run", "ber", "--checkpoint"]),
            "--checkpoint needs a path"
        );
        assert_eq!(
            hqw_err(&["run", "--resume"]),
            "--resume needs a checkpoint path"
        );
        assert!(hqw_err(&["run", "ber", "--resume", "ck.jsonl"])
            .contains("--resume takes no experiment target"));
        assert!(hqw_err(&["run", "--resume", "ck.jsonl", "--shard", "1/2"])
            .contains("--shard cannot be combined with --resume"));
        assert!(
            hqw_err(&["run", "--resume", "ck.jsonl", "--checkpoint", "x.jsonl"])
                .contains("--checkpoint cannot be combined with --resume")
        );
        for pinned in [["--seed", "3"], ["--threads", "2"], ["--quick", "--quick"]] {
            let err = hqw_err(&["run", "--resume", "ck.jsonl", pinned[0], pinned[1]]);
            assert!(err.contains("the checkpoint pins its spec"), "{err}");
        }
    }

    #[test]
    fn hqw_run_routes_telemetry_and_rejects_impossible_combos() {
        let run = run_args(&["run", "fabric-rt", "--quick", "--telemetry", "trace.json"]);
        assert_eq!(run.options.telemetry, Some(PathBuf::from("trace.json")));

        assert!(hqw_err(&[
            "run",
            "fabric-rt",
            "--telemetry",
            "t.json",
            "--shard",
            "1/2"
        ])
        .contains("--telemetry cannot be combined with --shard"));
        assert!(
            hqw_err(&["run", "--resume", "ck.jsonl", "--telemetry", "t.json"])
                .contains("--telemetry cannot be combined with --resume")
        );
        assert_eq!(
            hqw_err(&["run", "fabric-rt", "--telemetry"]),
            "--telemetry needs a path"
        );
    }

    #[test]
    fn hqw_merge_parses_shards_and_output() {
        match hqw_ok(&["merge", "a.json", "b.json", "-o", "out.json"]) {
            HqwCommand::Merge { shards, out } => {
                assert_eq!(shards, vec!["a.json", "b.json"]);
                assert_eq!(out, Some(PathBuf::from("out.json")));
            }
            other => panic!("unexpected {other:?}"),
        }
        match hqw_ok(&["merge", "a.json"]) {
            HqwCommand::Merge { shards, out } => {
                assert_eq!(shards, vec!["a.json"]);
                assert!(out.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(hqw_err(&["merge"]), "merge needs at least one shard file");
        assert_eq!(hqw_err(&["merge", "-o"]), "--out needs a path");
        assert_eq!(
            hqw_err(&["merge", "a.json", "--frob"]),
            "unknown merge flag '--frob'"
        );
    }

    #[test]
    fn hqw_replay_parses_one_trace_file() {
        match hqw_ok(&["replay", "results/fabric_rt_trace.json"]) {
            HqwCommand::Replay { trace } => {
                assert_eq!(trace, "results/fabric_rt_trace.json");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(hqw_err(&["replay"]), "replay needs a trace file");
        assert!(hqw_err(&["replay", "--quick"]).contains("got flag '--quick'"));
        assert!(hqw_err(&["replay", "a.json", "b.json"]).contains("exactly one trace file"));
    }

    #[test]
    fn hqw_malformed_commands_are_reported_not_panicked() {
        assert_eq!(hqw_err(&[]), "missing command (expected 'list' or 'run')");
        assert_eq!(hqw_err(&["frob"]), "unknown command 'frob'");
        assert_eq!(
            hqw_err(&["run"]),
            "run needs an experiment name, spec file, or --resume <checkpoint>"
        );
        assert_eq!(
            hqw_err(&["run", "--quick"]),
            "run needs an experiment name, spec file, or --resume <checkpoint>"
        );
        assert!(hqw_err(&["run", "ber", "extra"]).contains("unexpected argument 'extra'"));
        // Flag errors surface through the shared Options parser.
        assert_eq!(
            hqw_err(&["run", "ber", "--threads", "many"]),
            "--threads needs an unsigned integer, got 'many'"
        );
    }

    #[test]
    fn parse_tracked_presence_matches_values() {
        let (o, given) = Options::parse_tracked(args(&[])).unwrap();
        assert_eq!(given, GivenFlags::default());
        assert_eq!(o.threads, 0);
        let (o, given) =
            Options::parse_tracked(args(&["--threads", "2", "--seed", "9", "--full"])).unwrap();
        assert_eq!(o.threads, 2);
        assert_eq!(o.seed, 9);
        assert_eq!(
            given,
            GivenFlags {
                threads: true,
                seed: true,
                scale: true,
            }
        );
    }
}
