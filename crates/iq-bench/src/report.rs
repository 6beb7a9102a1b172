//! Plain-text table/series rendering for the reproduction reports.

use std::fmt::Write as _;

/// A rendered report: a title, column headers, and string rows.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Report {
    /// Report title (e.g. `"Table 2 — load and query times (s)"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

/// One report column, declared once: its title and how a row's cell is
/// formatted.
pub type Column<'a, R> = (&'static str, &'a dyn Fn(&R) -> String);

impl Report {
    /// A report with one line per item of `rows`, its headers and cells
    /// both taken from `columns`.
    pub fn from_columns<R>(
        title: impl Into<String>,
        rows: impl IntoIterator<Item = R>,
        columns: &[Column<'_, R>],
    ) -> Self {
        Self {
            title: title.into(),
            headers: columns.iter().map(|(h, _)| h.to_string()).collect(),
            rows: rows
                .into_iter()
                .map(|r| columns.iter().map(|(_, cell)| cell(&r)).collect())
                .collect(),
            notes: Vec::new(),
        }
    }

    /// New empty report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Render as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// Format seconds with sub-second precision for short times.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Format a dollar amount.
pub fn usd(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut r = Report::new("Demo", &["name", "value"]);
        r.row(vec!["a".into(), "1".into()]);
        r.row(vec!["long-name".into(), "22".into()]);
        r.note("a note");
        let text = r.to_text();
        assert!(text.contains("## Demo"));
        assert!(text.contains("long-name"));
        assert!(text.contains("note: a note"));
    }

    #[test]
    fn number_formats() {
        assert_eq!(secs(1234.5), "1234");
        assert_eq!(secs(23.25), "23.2");
        assert_eq!(secs(0.5), "0.500");
        assert_eq!(usd(12.049), "12.05");
    }
}
