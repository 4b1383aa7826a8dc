//! Golden-equivalence tests for the unified runner.
//!
//! The contract: routing an experiment through the spec layer + registry
//! must emit **byte-identical** JSON to driving the grid engine directly
//! at the same seed/thread count. CI additionally pins the binary-level
//! reports (`hqw run <family> --quick` vs the committed `BENCH_*.json` via
//! `cmp`); these tests pin the same property at library level and at
//! test-friendly scale, so a drift shows up in `cargo test` before it
//! shows up in CI.

use hqw_bench::cli::Options;
use hqw_bench::registry;
use hqw_core::grid::run_grid;
use hqw_core::report::Report;
use hqw_core::scenario::{paper_roster, BerReport, BerSweep};
use hqw_core::spec::ExperimentSpec;
use hqw_core::stream::DispatchPolicy;
use hqw_core::{run_fabric_grid, FabricGridConfig, SnrSweepConfig, StreamGridConfig};
use hqw_phy::channel::snr_db_to_noise_variance;
use hqw_phy::modulation::Modulation;

fn opts(args: &[&str]) -> Options {
    Options::parse(args.iter().map(|s| s.to_string())).expect("valid flags")
}

/// The `ber` spec's run: the sweep over the paper roster.
fn ber_run(config: &SnrSweepConfig) -> BerReport {
    let sweep = BerSweep {
        config,
        detectors: paper_roster(config.seed),
    };
    run_grid(&sweep, None)
}

/// The registry's `ber --quick` preset must match the shape the legacy
/// `ber` runner has always used (the shape that produced the committed
/// `BENCH_ber.json`), and running it through the spec codec must change
/// nothing.
#[test]
fn ber_quick_preset_matches_the_legacy_shape_and_survives_the_codec() {
    let spec = registry::spec("ber", &opts(&["--quick", "--seed", "2026"])).unwrap();
    let ExperimentSpec::Ber(config) = &spec else {
        panic!("ber preset must be a Ber spec")
    };
    assert_eq!(config.n_users, 3);
    assert_eq!(config.modulation, Modulation::Qpsk);
    assert_eq!(config.snr_db, vec![0.0, 8.0, 16.0, 24.0]);
    assert_eq!(config.realizations, 4);
    assert_eq!(config.seed, 2026);

    let reparsed = ExperimentSpec::parse(&spec.to_json()).expect("preset serializes");
    assert_eq!(reparsed, spec);
}

/// A reduced BER sweep produces byte-identical JSON whether the config is
/// used directly or round-tripped through the spec document first — the
/// codec introduces no drift in the numbers that drive the simulation.
#[test]
fn ber_report_is_byte_identical_through_the_spec_codec() {
    let config = SnrSweepConfig::builder(3, Modulation::Qpsk)
        .snr_db(vec![4.0, 20.0])
        .realizations(2)
        .seed(2026)
        .threads(1)
        .build()
        .expect("valid config");
    let direct = ber_run(&config).to_json();

    let spec = ExperimentSpec::Ber(config);
    let ExperimentSpec::Ber(parsed) =
        ExperimentSpec::parse(&spec.to_json()).expect("spec round-trips")
    else {
        panic!("parsed spec changed family")
    };
    let via_codec = ber_run(&parsed).to_json();
    assert_eq!(direct, via_codec);
}

/// Same property for the stream engine, at reduced scale: the preset
/// shape is pinned and the codec is transparent to the simulation.
#[test]
fn stream_report_is_byte_identical_through_the_spec_codec() {
    let spec = registry::spec("stream", &opts(&["--quick"])).unwrap();
    let ExperimentSpec::Stream(preset) = &spec else {
        panic!("stream preset must be a Stream spec")
    };
    assert_eq!(preset.frames, 64);
    assert_eq!(preset.rhos, vec![0.0, 0.5, 0.95]);
    assert_eq!(preset.arrival_periods_us, vec![400.0, 160.0, 90.0]);
    assert_eq!(preset.policies, DispatchPolicy::ALL.to_vec());

    // Reduced-scale run through the codec.
    let config = StreamGridConfig {
        frames: 16,
        arrival_periods_us: vec![300.0, 90.0],
        rhos: vec![0.0, 0.95],
        ..preset.clone()
    };
    let direct = run_grid(&config, None).to_json();

    let ExperimentSpec::Stream(parsed) =
        ExperimentSpec::parse(&ExperimentSpec::Stream(config).to_json()).expect("round-trips")
    else {
        panic!("parsed spec changed family")
    };
    let via_codec = run_grid(&parsed, None).to_json();
    assert_eq!(direct, via_codec);
}

/// Same property for the fabric engine, at reduced scale.
#[test]
fn fabric_report_is_byte_identical_through_the_spec_codec() {
    let spec = registry::spec("fabric", &opts(&["--quick"])).unwrap();
    let ExperimentSpec::Fabric(preset) = &spec else {
        panic!("fabric preset must be a Fabric spec")
    };
    assert_eq!(preset.frames_per_cell, 24);
    assert_eq!(preset.cell_counts, vec![2, 4]);
    assert_eq!(preset.mixes.len(), 4);
    assert_eq!(
        preset.track.noise_variance,
        snr_db_to_noise_variance(14.0, 2)
    );

    let config = FabricGridConfig {
        frames_per_cell: 8,
        cell_counts: vec![2],
        arrival_periods_us: vec![200.0],
        mixes: preset.mixes[..2].to_vec(),
        ..preset.clone()
    };
    let direct = run_fabric_grid(&config).to_json();

    let ExperimentSpec::Fabric(parsed) =
        ExperimentSpec::parse(&ExperimentSpec::Fabric(config).to_json()).expect("round-trips")
    else {
        panic!("parsed spec changed family")
    };
    let via_codec = run_fabric_grid(&parsed).to_json();
    assert_eq!(direct, via_codec);
}

/// The Report trait's CSV/table renderings agree with each other and with
/// the JSON on shape: every emission of one run comes from one report
/// value (the dedupe the trait exists for).
#[test]
fn report_surfaces_agree_on_shape() {
    let config = SnrSweepConfig::builder(2, Modulation::Qpsk)
        .snr_db(vec![10.0])
        .realizations(1)
        .seed(5)
        .threads(1)
        .build()
        .expect("valid config");
    let report = ber_run(&config);
    assert_eq!(Report::name(&report), "ber");
    assert_eq!(report.schema_version(), 1);

    let table = report.render_table();
    let csv = report.to_csv();
    // One CSV row per (detector, point) plus the header; the table adds a
    // separator line.
    let rows = paper_roster(config.seed).len();
    assert_eq!(csv.lines().count(), rows + 1);
    assert_eq!(table.lines().count(), rows + 2);
    assert!(csv.starts_with("detector,snr_db,"));
    assert_eq!(Report::to_json(&report), report.to_json());
}
