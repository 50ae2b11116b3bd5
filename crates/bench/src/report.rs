//! Plain-text table output shared by the figure binaries.
//!
//! Every binary prints (a) a human-readable markdown table mirroring the
//! layout of the corresponding table/figure in the paper, and (b) an
//! optional machine-readable JSON blob for downstream plotting.

use serde::Serialize;

/// A simple column-aligned markdown table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row/header length mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Prints a JSON document to stdout prefixed by a marker line, so plots can
/// be regenerated from captured output.
pub fn print_json<T: Serialize>(label: &str, value: &T) {
    match serde_json::to_string(value) {
        Ok(json) => println!("JSON {label}: {json}"),
        Err(err) => eprintln!("failed to serialize {label}: {err}"),
    }
}

/// Formats a float with two decimal places (speedups, work increases).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a count with thousands separators (task and edge counts).
pub fn count(x: u64) -> String {
    let digits = x.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(vec!["alpha".into(), "1.00".into()]);
        t.add_row(vec!["b".into(), "12.50".into()]);
        let rendered = t.render();
        assert!(rendered.contains("### Demo"));
        assert!(rendered.contains("| alpha | 1.00  |"));
        assert!(rendered.contains("| b     | 12.50 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_row_is_rejected() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn f2_formats_two_decimals() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(f2(2.0), "2.00");
    }

    #[test]
    fn count_groups_thousands() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1_000), "1,000");
        assert_eq!(count(1_234_567), "1,234,567");
    }
}
