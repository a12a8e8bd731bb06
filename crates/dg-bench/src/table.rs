//! Fixed-width table printing for the bench binaries.

use std::fmt::Write as _;

/// A simple left-column + numeric-columns text table, printed in the
/// style of the paper's per-benchmark bar charts.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// A table whose numeric columns carry the given titles.
    pub fn new(columns: &[&str]) -> Self {
        Table { header: columns.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row of raw strings.
    pub fn row_strings(&mut self, label: &str, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push((label.to_string(), cells));
    }

    /// Append a row of values formatted with `fmt` (e.g. `|v| format!("{v:.1}%")`).
    pub fn row(&mut self, label: &str, values: &[f64], fmt: impl Fn(f64) -> String) {
        self.row_strings(label, values.iter().map(|&v| fmt(v)).collect());
    }

    /// Append a percentage row (`12.3%`).
    pub fn row_pct(&mut self, label: &str, values: &[f64]) {
        self.row(label, values, |v| format!("{:.1}%", v * 100.0));
    }

    /// Append a ratio row (`2.55x`).
    pub fn row_ratio(&mut self, label: &str, values: &[f64]) {
        self.row(label, values, |v| format!("{v:.2}x"));
    }

    /// Append a plain-number row with two decimals.
    pub fn row_num(&mut self, label: &str, values: &[f64]) {
        self.row(label, values, |v| format!("{v:.2}"));
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once("benchmark".len()))
            .max()
            .unwrap_or(8);
        let col_ws: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|(_, cells)| cells[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(4)
            })
            .collect();
        let mut out = String::new();
        write!(out, "{:label_w$}", "benchmark").unwrap();
        for (h, w) in self.header.iter().zip(&col_ws) {
            write!(out, "  {h:>w$}").unwrap();
        }
        out.push('\n');
        let total = label_w + col_ws.iter().map(|w| w + 2).sum::<usize>();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for (label, cells) in &self.rows {
            write!(out, "{label:label_w$}").unwrap();
            for (c, w) in cells.iter().zip(&col_ws) {
                write!(out, "  {c:>w$}").unwrap();
            }
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout under a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n");
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-column"]);
        t.row_pct("bench1", &[0.5, 0.123]);
        t.row_ratio("b2", &[2.0, 1.0]);
        let s = t.render();
        assert!(s.contains("benchmark"));
        assert!(s.contains("50.0%"));
        assert!(s.contains("2.00x"));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 4);
        // Header and rows share one width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_wrong_arity() {
        let mut t = Table::new(&["a"]);
        t.row_pct("x", &[0.1, 0.2]);
    }
}
