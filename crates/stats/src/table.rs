//! Plain-text table rendering for experiment output.
//!
//! Every experiment binary prints the rows/series of its paper artifact
//! as an aligned text table (and optionally CSV). Kept here so all
//! binaries format identically.

use std::fmt::Write as _;

/// A simple column-aligned text table builder.
///
/// ```
/// use lp_stats::Table;
/// let mut t = Table::new(&["load", "p99 (us)"]);
/// t.row(&["0.5".into(), "12.3".into()]);
/// t.row(&["0.9".into(), "140.0".into()]);
/// let s = t.render();
/// assert!(s.contains("load"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row. Missing cells render empty; extra cells are
    /// dropped.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(ncols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "== {t} ==");
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let mut line = String::new();
            for (i, &w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{:<w$}  ", cell);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders the table as CSV (headers + rows, comma-separated, cells
    /// containing commas are quoted).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
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

/// Formats nanoseconds as microseconds with 1 decimal, the unit used in
/// the paper's plots.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// Formats nanoseconds as microseconds with 2 decimals.
pub fn us2(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1_000.0)
}

/// Formats a fraction as a percentage with 1 decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Formats requests-per-second as kRPS with 1 decimal.
pub fn krps(rps: f64) -> String {
    format!("{:.1}", rps / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]).with_title("demo");
        t.row(&["xxxxxx".into(), "1".into()]);
        t.row(&["y".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== demo ==");
        assert!(lines[1].starts_with("a       long-header"));
        // All data rows align under the header.
        assert!(lines[3].starts_with("xxxxxx  1"));
        assert!(lines[4].starts_with("y       2"));
    }

    #[test]
    fn short_rows_and_long_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains('1'));
        assert!(!s.contains('3'), "extra cells must be dropped");
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["name", "v"]);
        t.row(&["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn len_counts_rows() {
        let mut t = Table::new(&["x"]);
        assert!(t.is_empty());
        t.row(&["42".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(1_500), "1.5");
        assert_eq!(us2(1_550), "1.55");
        assert_eq!(pct(0.015), "1.5%");
        assert_eq!(krps(55_000.0), "55.0");
    }
}
