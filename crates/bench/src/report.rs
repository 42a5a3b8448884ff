//! Tiny table type for experiment outputs.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A labelled numeric table: one header per value column, one label per
/// row. This is the exchange format between experiments and front-ends.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (e.g. `"Fig 6 — Logistic Regression, 12 workers"`).
    pub title: String,
    /// Value column headers.
    pub columns: Vec<String>,
    /// Rows: `(label, values)` with `values.len() == columns.len()`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count disagrees with the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Value at `(row_label, column)` — convenience for assertions.
    ///
    /// # Panics
    ///
    /// Panics if the row or column does not exist.
    #[must_use]
    pub fn value(&self, row_label: &str, column: &str) -> f64 {
        let col = self
            .columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no column {column}"));
        let row = self
            .rows
            .iter()
            .find(|(l, _)| l == row_label)
            .unwrap_or_else(|| panic!("no row {row_label}"));
        row.1[col]
    }

    /// Renders a fixed-width text table.
    #[must_use]
    pub fn render(&self) -> String {
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8)
            + 2;
        let col_width = self
            .columns
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(8)
            .max(10)
            + 2;
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:<label_width$}", "");
        for c in &self.columns {
            let _ = write!(out, "{c:>col_width$}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<label_width$}");
            for v in values {
                let _ = write!(out, "{v:>col_width$.4}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the table as CSV. Labels and headers such as `mds(12,9)`
    /// are quoted per RFC 4180; values keep their `{v:?}` text.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        let header: Vec<Cow<'_, str>> = std::iter::once("label")
            .chain(self.columns.iter().map(String::as_str))
            .map(csv_field)
            .collect();
        writeln!(f, "{}", header.join(","))?;
        for (label, values) in &self.rows {
            let vals: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
            writeln!(f, "{},{}", csv_field(label), vals.join(","))?;
        }
        Ok(())
    }
}

/// One CSV field: quoted when it holds a comma, a quote or a line break,
/// with embedded quotes doubled; verbatim otherwise.
fn csv_field(field: &str) -> Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", vec!["a".into(), "b".into()]);
        t.push_row("row1", vec![1.0, 2.0]);
        t.push_row("row2", vec![3.5, 4.25]);
        t
    }

    #[test]
    fn value_lookup() {
        let t = sample();
        assert_eq!(t.value("row2", "b"), 4.25);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn missing_column_panics() {
        let _ = sample().value("row1", "zzz");
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("demo"));
        assert!(s.contains("row1"));
        assert!(s.contains("4.2500"));
    }

    fn csv_text(t: &Table, file: &str) -> String {
        let path = std::env::temp_dir()
            .join("s2c2_bench_report_test")
            .join(file);
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(path).ok();
        content
    }

    /// Splits one CSV line, honouring quoted fields and doubled quotes.
    fn split_csv_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn csv_roundtrip_shape() {
        let content = csv_text(&sample(), "plain.csv");
        assert_eq!(content, "label,a,b\nrow1,1.0,2.0\nrow2,3.5,4.25\n");
    }

    #[test]
    fn csv_quotes_fields_holding_commas_and_quotes() {
        let mut t = Table::new("q", vec!["s2c2 (12,10)".into(), "plain".into()]);
        t.push_row("mds(12,9)", vec![1.5, 2.0]);
        t.push_row("say \"hi\"", vec![3.0, 4.0]);
        let content = csv_text(&t, "quoted.csv");
        let lines: Vec<Vec<String>> = content.lines().map(split_csv_line).collect();
        assert_eq!(lines[0], ["label", "s2c2 (12,10)", "plain"]);
        assert_eq!(lines[1], ["mds(12,9)", "1.5", "2.0"]);
        assert_eq!(lines[2], ["say \"hi\"", "3.0", "4.0"]);
        assert!(lines.iter().all(|l| l.len() == t.columns.len() + 1));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_enforced() {
        let mut t = Table::new("x", vec!["a".into()]);
        t.push_row("r", vec![1.0, 2.0]);
    }
}
