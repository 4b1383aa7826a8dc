//! The committed virtual-time reports are fixed points of the record
//! codec: every point object in `BENCH_{ber,stream,fabric,sched}.json`
//! decodes through its record decoder and encodes back to the same bytes.
//! No experiment runs here — a codec change that would reorder, reformat
//! or drop a field fails before any report is regenerated.

use hqw_core::fabric::FabricReport;
use hqw_core::scenario::BerPoint;
use hqw_core::sched_grid::SchedPointReport;
use hqw_core::spec::codec::Record;
use hqw_core::spec::json::Json;
use hqw_core::stream::StreamReport;

/// Checks every line of `file` holding a record with key `key` (one
/// compact record per line, as the report writer lays them out) and
/// returns how many it checked.
fn check_record_lines<R: Record>(file: &str, key: &str) -> usize {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut checked = 0;
    for line in text.lines() {
        let line = line.trim_start().trim_end_matches(',');
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        if json.get(key).is_none() || !line.starts_with('{') {
            continue;
        }
        let record = R::decode(&json, file).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(record.encode().to_string_compact(), line, "{file}");
        checked += 1;
    }
    checked
}

/// The number of records in `file`'s array at `path` (object keys, with
/// `*` flattening an array of objects).
fn count(file: &str, path: &[&str]) -> usize {
    let text =
        std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))).unwrap();
    let mut level = vec![Json::parse(&text).unwrap()];
    for key in path {
        level = match *key {
            "*" => level
                .iter()
                .flat_map(|v| v.as_arr().unwrap().to_vec())
                .collect(),
            key => level.iter().map(|v| v.get(key).unwrap().clone()).collect(),
        };
    }
    level.iter().map(|v| v.as_arr().unwrap().len()).sum()
}

#[test]
fn committed_ber_points_are_codec_fixed_points() {
    let n = check_record_lines::<BerPoint>("BENCH_ber.json", "snr_db");
    assert_eq!(n, count("BENCH_ber.json", &["series", "*", "points"]));
}

#[test]
fn committed_stream_cells_are_codec_fixed_points() {
    let n = check_record_lines::<StreamReport>("BENCH_stream.json", "policy");
    assert_eq!(n, count("BENCH_stream.json", &["cells"]));
}

#[test]
fn committed_fabric_points_are_codec_fixed_points() {
    let n = check_record_lines::<FabricReport>("BENCH_fabric.json", "mix");
    assert_eq!(n, count("BENCH_fabric.json", &["points"]));
}

#[test]
fn committed_sched_points_are_codec_fixed_points() {
    // Summary rows carry no "static" arm; only the points are records.
    let n = check_record_lines::<SchedPointReport>("BENCH_sched.json", "static");
    assert_eq!(n, count("BENCH_sched.json", &["points"]));
}
