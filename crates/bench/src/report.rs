//! Table output shared by the figures.
//!
//! A [`Table`] keeps its numbers: a cell is text, a number or absent, and
//! is formatted only when the table is rendered.  The markdown the
//! binaries print and the `JSON <name>:` line they end with are two views
//! of the same cells, so tests and plots read the values the table shows.

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A label or an integer parameter, shown as is.
    Text(String),
    /// A measured number, shown with two decimals.
    Num(f64),
    /// Nothing to report (shown as `-`, `null` in JSON).
    Absent,
}

impl Value {
    /// The number when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn render(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Num(x) => format!("{x:.2}"),
            Value::Absent => "-".to_string(),
        }
    }

    fn json(&self) -> String {
        match self {
            Value::Text(s) => json_string(s),
            // JSON has no NaN or infinity.
            Value::Num(x) if x.is_finite() => x.to_string(),
            Value::Num(_) | Value::Absent => "null".to_string(),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<Option<f64>> for Value {
    fn from(x: Option<f64>) -> Self {
        x.map_or(Value::Absent, Value::Num)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A titled table with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates a table with the given title and column headers (copied
    /// into the table).
    pub fn new<H: Into<String>>(
        title: impl Into<String>,
        header: impl IntoIterator<Item = H>,
    ) -> Self {
        Self {
            title: title.into(),
            header: header.into_iter().map(H::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn add_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.header.len(), "row/header length mismatch");
        self.rows.push(row);
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Value::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&fmt_row(&self.header));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep));
        for row in &rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// The table as one JSON object:
    /// `{"title": .., "columns": [..], "rows": [[..], ..]}`.
    pub fn to_json(&self) -> String {
        let columns: Vec<String> = self.header.iter().map(|h| json_string(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(Value::json).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"title\":{},\"columns\":[{}],\"rows\":[{}]}}",
            json_string(&self.title),
            columns.join(","),
            rows.join(",")
        )
    }
}

/// Prints every table as markdown, then the same tables as one
/// `JSON <name>: [..]` line so plots can be regenerated from captured
/// output.
pub fn print_tables(name: &str, tables: &[Table]) {
    for table in tables {
        println!("{}", table.render());
    }
    let docs: Vec<String> = tables.iter().map(Table::to_json).collect();
    println!("JSON {name}: [{}]", docs.join(","));
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

    fn demo() -> Table {
        let mut t = Table::new("Demo", ["name", "value"]);
        t.add_row(vec!["alpha".into(), 1.0.into()]);
        t.add_row(vec!["b".into(), 12.5.into()]);
        t.add_row(vec!["none".into(), None.into()]);
        t
    }

    #[test]
    fn renders_aligned_markdown() {
        let rendered = demo().render();
        assert!(rendered.contains("### Demo"));
        assert!(rendered.contains("| alpha | 1.00  |"));
        assert!(rendered.contains("| b     | 12.50 |"));
        assert!(rendered.contains("| none  | -     |"));
        assert_eq!(demo().rows().len(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_row_is_rejected() {
        let mut t = demo();
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn count_groups_thousands() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1_000), "1,000");
        assert_eq!(count(1_234_567), "1,234,567");
    }
}
