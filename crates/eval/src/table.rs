//! Aligned ASCII / CSV table emission for regenerated paper tables.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// ```
/// use hypart_eval::table::Table;
///
/// let mut t = Table::new(["algo", "ibm01", "ibm02"]);
/// t.add_row(["LIFO", "333/639", "271/551"]);
/// let text = t.render();
/// assert!(text.contains("LIFO"));
/// assert!(t.to_csv().starts_with("algo,ibm01,ibm02\n"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Table {
    pub(crate) headers: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
    pub(crate) title: String,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: String::new(),
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header count.
    pub fn add_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:<w$}");
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (RFC-4180 quoting for cells containing
    /// commas, quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["a", "bbbb"]);
        t.add_row(["xxxxx", "y"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "a      bbbb");
        assert_eq!(lines[2], "xxxxx  y");
    }

    #[test]
    fn title_is_printed_first() {
        let t = Table::new(["c"]).with_title("Table 1: stuff");
        assert!(t.render().starts_with("Table 1: stuff\n"));
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn wrong_arity_panics() {
        let mut t = Table::new(["a", "b"]);
        t.add_row(["only-one"]);
    }

    #[test]
    fn csv_escapes_properly() {
        let mut t = Table::new(["name", "value"]);
        t.add_row(["with,comma", "with\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn num_rows_counts() {
        let mut t = Table::new(["x"]);
        assert_eq!(t.num_rows(), 0);
        t.add_row(["1"]);
        t.add_row(["2"]);
        assert_eq!(t.num_rows(), 2);
    }
}
