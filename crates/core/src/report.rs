//! The unified report surface: the one document writer and the table/CSV
//! rendering helpers.
//!
//! [`Report`] is the one trait every experiment report implements — the
//! grid reports (`BerReport`, `StreamGridReport`, `FabricGridReport`,
//! `SchedGridReport`), the realtime fabric's and the paper figures'
//! `FigureReport` all render through it, so JSON emission, CSV emission
//! and the stdout table live here instead of being copy-pasted per
//! experiment. `render` is the one writer behind every JSON document the
//! workspace emits — the reports, shard documents and Chrome traces: a
//! [`Json`] tree plus a `Layout` saying where its lines break. The figure
//! reports' tables are the series the paper plots; [`Table`] keeps that
//! output consistent and machine-readable (CSV files land in `results/` so
//! downstream plotting never re-runs experiments).

use crate::spec::codec::record;
use crate::spec::json::{write_string, Json};
use std::path::Path;

/// The unified experiment-report surface: one trait carrying every
/// rendering the runner needs, implemented by each grid report.
///
/// The committed `BENCH_*.json` documents are [`Report::to_json`] output
/// verbatim: implementations must keep `to_json` a pure function of the
/// report contents (byte-identical across runs and thread counts — the CI
/// determinism gate diffs them).
pub trait Report: std::fmt::Debug {
    /// Stable machine-readable report name (`"ber"`, `"stream"`,
    /// `"fabric"` — the JSON document's `bench` tag).
    fn name(&self) -> &'static str;

    /// Version of the report's JSON schema (documented in
    /// `crates/bench/README.md`). Bump on any incompatible change.
    fn schema_version(&self) -> u32;

    /// Renders the full JSON document.
    fn to_json(&self) -> String;

    /// Builds the human-readable results table (also the CSV row source).
    fn table(&self) -> Table;

    /// The CSV file's name: `fig_<name>.csv`, dashes as underscores.
    fn csv_name(&self) -> String {
        format!("fig_{}.csv", self.name().replace('-', "_"))
    }

    /// Renders the results table with aligned columns.
    fn render_table(&self) -> String {
        self.table().render()
    }

    /// Renders the results table as a CSV document.
    fn to_csv(&self) -> String {
        self.table().to_csv_string()
    }

    /// Writes [`Report::to_json`] to `path`, creating parent directories.
    ///
    /// # Errors
    /// Propagates I/O failures.
    fn write_json(&self, path: &Path) -> std::io::Result<()> {
        write_creating_parents(path, &self.to_json())
    }

    /// Writes [`Report::to_csv`] to `path`, creating parent directories.
    ///
    /// # Errors
    /// Propagates I/O failures.
    fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        write_creating_parents(path, &self.to_csv())
    }
}

/// One grid point of a grid report: the stable grid-order id plus the
/// point's record.
///
/// The payload is the exact record the full report embeds for this point,
/// so reassembling a grid's records through
/// [`crate::grid::assemble_records`] reproduces the report byte-for-byte —
/// the invariant the shard/merge and checkpoint planes are built on. The
/// float codec round-trips exactly (shortest `Display` form parsed back
/// with `str::parse::<f64>`), so going through text loses nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Grid-order point id: the index into the spec's expanded point grid
    /// (`0..grid_len`). Which grid dimension a point spans is
    /// engine-specific — one SNR column for BER, one (policy, ρ, load)
    /// cell for the stream grid, one (mix, cells, load) cell for the
    /// fabric grid.
    pub id: usize,
    /// The point's record, engine-specific schema (documented in
    /// `crates/bench/README.md`).
    pub payload: Json,
}

record!(PointRecord {
    id: usize,
    payload as "point": Json,
});

/// Where a document's lines break. Keys a layout does not list are
/// [`Layout::Inline`].
#[derive(Debug)]
pub(crate) enum Layout {
    /// One compact line.
    Inline,
    /// An object with one key per line.
    Block(&'static [(&'static str, Layout)]),
    /// An object on one line whose listed keys may break it.
    Line(&'static [(&'static str, Layout)]),
    /// An array with one element per line.
    Rows(&'static Layout),
}

/// The layout of a grid report's `scenario` header.
pub(crate) const SCENARIO: (&str, Layout) = ("scenario", Layout::Block(&[]));

/// An array of records, one compact record per line.
pub(crate) const ROWS: Layout = Layout::Rows(&Layout::Inline);

/// Renders a document with two-space indentation and a trailing newline.
pub(crate) fn render(doc: &Json, layout: &Layout) -> String {
    let mut out = String::new();
    write_laid_out(doc, layout, 0, &mut out);
    out.push('\n');
    out
}

fn write_laid_out(value: &Json, layout: &Layout, depth: usize, out: &mut String) {
    let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
    fn layout_of(keys: &'static [(&'static str, Layout)], key: &str) -> &'static Layout {
        keys.iter()
            .find(|(k, _)| *k == key)
            .map_or(&Layout::Inline, |(_, l)| l)
    }
    match (layout, value) {
        (Layout::Block(keys), Json::Obj(fields)) => {
            out.push_str("{\n");
            for (i, (key, v)) in fields.iter().enumerate() {
                pad(out, depth + 1);
                write_string(out, key);
                out.push_str(": ");
                write_laid_out(v, layout_of(keys, key), depth + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push('}');
        }
        (Layout::Line(keys), Json::Obj(fields)) => {
            out.push('{');
            for (i, (key, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_string(out, key);
                out.push_str(": ");
                write_laid_out(v, layout_of(keys, key), depth, out);
            }
            out.push('}');
        }
        (Layout::Rows(row), Json::Arr(items)) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, depth + 1);
                write_laid_out(item, row, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push(']');
        }
        _ => value.write_compact(out),
    }
}

/// Writes `content` to `path`, creating parent directories first (shared by
/// every report emitter so the path convention lives in one place).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_creating_parents(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
}

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "Table: row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a CSV document (header + rows, comma-separated,
    /// quoted only when needed).
    pub fn to_csv_string(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        for line in std::iter::once(&self.header).chain(&self.rows) {
            out.push_str(&line.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes [`Table::to_csv_string`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        write_creating_parents(path, &self.to_csv_string())
    }
}

/// Formats a float with fixed precision, rendering non-finite values
/// readably (`inf` for unreachable TTS) and a value that rounds to zero
/// without a sign.
pub fn fnum(value: f64, decimals: usize) -> String {
    if value.is_infinite() {
        "inf".to_string()
    } else if value.is_nan() {
        "nan".to_string()
    } else {
        let text = format!("{value:.decimals$}");
        // A negative value that rounds to zero would print as "-0.00".
        match text.strip_prefix('-') {
            Some(digits) if digits.bytes().all(|b| b == b'0' || b == b'.') => digits.to_string(),
            _ => text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.push_row(vec!["a".into(), "1".into()]);
        t.push_row(vec!["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_round_trip_with_quoting() {
        let dir = std::env::temp_dir().join("hqw_report_test");
        let path = dir.join("out.csv");
        let mut t = Table::new(&["a", "b"]);
        t.push_row(vec!["plain".into(), "has,comma".into()]);
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("\"has,comma\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnum_handles_non_finite() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(f64::INFINITY, 2), "inf");
        assert_eq!(fnum(f64::NAN, 2), "nan");
        // A negative value that rounds to zero prints unsigned…
        assert_eq!(fnum(-1e-14, 2), "0.00");
        assert_eq!(fnum(-0.004, 2), "0.00");
        assert_eq!(fnum(-0.0, 0), "0");
        // …and one that stays negative after rounding keeps its sign.
        assert_eq!(fnum(-0.006, 2), "-0.01");
        assert_eq!(fnum(-10.0, 1), "-10.0");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }
}
