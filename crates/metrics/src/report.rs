//! Plain-text table and CSV rendering for the figure harness.

use std::fmt::Write as _;

/// A simple column-aligned text table with an optional title, rendered in
//  monospace for terminal output, plus CSV export.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:>width$}", cells[i], width = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the CSV form (no title; header + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Renders a trace rollup as a table: one row per event kind, plus
/// per-phase totals.
#[must_use]
pub fn trace_rollup_table(rollup: &crate::trace::TraceRollup) -> TextTable {
    let mut t = TextTable::new("trace events", &["kind", "count"]);
    for (kind, count) in &rollup.by_kind {
        t.row(vec![(*kind).to_owned(), count.to_string()]);
    }
    for (i, phase) in crate::phases::Phase::ALL.iter().enumerate() {
        if rollup.by_phase[i] > 0 {
            t.row(vec![
                format!("(phase) {}", phase.name()),
                rollup.by_phase[i].to_string(),
            ]);
        }
    }
    if let Some(exec) = &rollup.executor {
        t.row(vec![
            "(executor) workers/steals/parks".to_owned(),
            format!("{}/{}/{}", exec.workers, exec.steals, exec.parks),
        ]);
        t.row(vec![
            "(executor) maxdepth".to_owned(),
            exec.max_mailbox_depth.to_string(),
        ]);
    }
    t.row(vec!["total".to_owned(), rollup.total.to_string()]);
    t
}

/// Renders a metrics report as a percentile table: one row per histogram
/// (count / mean / p50 / p90 / p99 / max) followed by counter and gauge
/// rows with blank percentile cells.
#[must_use]
pub fn metrics_report_table(metrics: &crate::registry::MetricsReport) -> TextTable {
    let mut t = TextTable::new(
        "metrics",
        &["instrument", "count", "mean", "p50", "p90", "p99", "max"],
    );
    let blank = String::new;
    for h in &metrics.histograms {
        t.row(vec![
            h.name.clone(),
            h.count.to_string(),
            format!("{:.1}", h.mean),
            h.p50.to_string(),
            h.p90.to_string(),
            h.p99.to_string(),
            h.max.to_string(),
        ]);
    }
    for (name, value) in &metrics.counters {
        t.row(vec![
            format!("(counter) {name}"),
            value.to_string(),
            blank(),
            blank(),
            blank(),
            blank(),
            blank(),
        ]);
    }
    for (name, value) in &metrics.gauges {
        t.row(vec![
            format!("(gauge) {name}"),
            value.to_string(),
            blank(),
            blank(),
            blank(),
            blank(),
            blank(),
        ]);
    }
    t
}

/// Formats seconds with figure-friendly precision.
#[must_use]
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.1}")
    } else {
        format!("{secs:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new("demo", &["x", "value"]);
        t.row(vec!["1".into(), "10".into()]);
        t.row(vec!["100".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new("", &["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        t.row(vec!["q\"q".into(), "z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"q\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new("", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_secs_precision() {
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(123.456), "123.5");
        assert_eq!(fmt_secs(0.0), "0.00");
    }

    #[test]
    fn empty_table() {
        let t = TextTable::new("t", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.render().contains('a'));
    }
}
