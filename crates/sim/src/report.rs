//! Experiment output: ASCII tables for the terminal and JSON series
//! under `results/`.

use crate::json::{Json, ToJson};
use std::fmt::Write as _;

/// A printable result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (experiment id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row data (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", header.join("  "));
        let _ = writeln!(
            out,
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", cells.join("  "));
        }
        out
    }
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1048576.0 {
        format!("{:.2}MiB", b / 1048576.0)
    } else if b >= 1024.0 {
        format!("{:.2}KiB", b / 1024.0)
    } else {
        format!("{b:.0}B")
    }
}

/// Writes a [`ToJson`] result to `results/<name>.json` under the
/// workspace root (best effort; returns the path written).
pub fn write_json<T: ToJson + ?Sized>(
    name: &str,
    value: &T,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().render_pretty())?;
    Ok(path)
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title", self.title.to_json()),
            ("headers", self.headers.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("E0: demo", &["k", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-key".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== E0: demo =="));
        assert!(s.contains("long-key"));
        // Both value cells right-aligned to the same column width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn humanized_formats() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1500.0), "1.50µs");
        assert_eq!(fmt_ns(2.5e6), "2.50ms");
        assert_eq!(fmt_ns(3.2e9), "3.20s");
        assert_eq!(fmt_bytes(10.0), "10B");
        assert_eq!(fmt_bytes(2048.0), "2.00KiB");
        assert_eq!(fmt_bytes(3.0 * 1048576.0), "3.00MiB");
    }
}
