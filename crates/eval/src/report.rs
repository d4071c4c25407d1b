//! Markdown experiment reports.
//!
//! The paper closes §3 by noting that a richer presentation medium than a
//! conference page ("e.g., a webpage") should carry the standard
//! deviations and distribution descriptors that tables omit. This module
//! assembles exactly that artifact: a markdown report combining tables,
//! preformatted plots, and distribution summaries.

use std::fmt::Write as _;

use crate::stats::Summary;
use crate::table::Table;

/// Incremental markdown report builder.
///
/// ```
/// use hypart_eval::report::Report;
/// use hypart_eval::table::Table;
///
/// let mut report = Report::new("Nightly partitioning run");
/// report.section("Setup");
/// report.paragraph("50 seeded trials per configuration.");
/// let mut t = Table::new(["algo", "cut"]);
/// t.add_row(["LIFO", "333/639"]);
/// report.table(&t);
/// let markdown = report.render();
/// assert!(markdown.starts_with("# Nightly partitioning run"));
/// assert!(markdown.contains("| algo | cut |"));
/// ```
#[derive(Clone, Debug)]
pub struct Report {
    title: String,
    blocks: Vec<Block>,
}

#[derive(Clone, Debug)]
enum Block {
    Section(String),
    Subsection(String),
    Paragraph(String),
    Table(Table),
    Preformatted(String),
}

impl Report {
    /// Creates a report with a top-level title.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            blocks: Vec::new(),
        }
    }

    /// Adds a `##` section heading.
    pub fn section(&mut self, heading: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Section(heading.into()));
        self
    }

    /// Adds a `###` subsection heading.
    pub fn subsection(&mut self, heading: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Subsection(heading.into()));
        self
    }

    /// Adds a prose paragraph.
    pub fn paragraph(&mut self, text: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Paragraph(text.into()));
        self
    }

    /// Adds a [`Table`] as a markdown pipe table (its title, if any,
    /// becomes an italic caption line).
    pub fn table(&mut self, table: &Table) -> &mut Self {
        self.blocks.push(Block::Table(table.clone()));
        self
    }

    /// Adds preformatted text (ASCII plots, frontier reports, diagrams).
    pub fn preformatted(&mut self, text: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Preformatted(text.into()));
        self
    }

    /// Adds a distribution summary line for a labeled sample — the
    /// "standard deviations and other descriptors" the paper wants
    /// reported.
    pub fn distribution(&mut self, label: &str, sample: &[f64]) -> &mut Self {
        match Summary::of(sample) {
            Some(s) => self.paragraph(format!(
                "**{label}** (n={}): min {:.1}, median {:.1}, mean {:.1} ± {:.1}, max {:.1}",
                s.n, s.min, s.median, s.mean, s.std_dev, s.max
            )),
            None => self.paragraph(format!("**{label}**: no samples")),
        }
    }

    /// Renders the whole report as markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}\n", self.title);
        for block in &self.blocks {
            match block {
                Block::Section(h) => {
                    let _ = writeln!(out, "## {h}\n");
                }
                Block::Subsection(h) => {
                    let _ = writeln!(out, "### {h}\n");
                }
                Block::Paragraph(p) => {
                    let _ = writeln!(out, "{p}\n");
                }
                Block::Preformatted(text) => {
                    let _ = writeln!(out, "```text\n{}\n```\n", text.trim_end());
                }
                Block::Table(table) => {
                    if !table.title.is_empty() {
                        let _ = writeln!(out, "*{}*\n", table.title);
                    }
                    let _ = writeln!(out, "| {} |", table.headers.join(" | "));
                    let _ = writeln!(out, "|{}|", vec!["---"; table.headers.len()].join("|"));
                    for row in &table.rows {
                        let _ = writeln!(out, "| {} |", row.join(" | "));
                    }
                    let _ = writeln!(out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_all_block_kinds() {
        let mut report = Report::new("T");
        report
            .section("S")
            .subsection("SS")
            .paragraph("hello")
            .preformatted("plot\nhere");
        let mut t = Table::new(["a", "b"]);
        t.add_row(["1", "2"]);
        report.table(&t);
        let md = report.render();
        assert!(md.contains("# T"));
        assert!(md.contains("## S"));
        assert!(md.contains("### SS"));
        assert!(md.contains("hello"));
        assert!(md.contains("```text\nplot\nhere\n```"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn distribution_line() {
        let mut report = Report::new("T");
        report.distribution("cuts", &[1.0, 2.0, 3.0]);
        let md = report.render();
        assert!(md.contains("**cuts** (n=3)"));
        assert!(md.contains("median 2.0"));
        report.distribution("empty", &[]);
        assert!(report.render().contains("no samples"));
    }

    #[test]
    fn csv_cells_with_commas_survive() {
        let mut t = Table::new(["x"]);
        t.add_row(["a,b"]);
        let mut report = Report::new("T");
        report.table(&t);
        assert!(report.render().contains("| a,b |"));
    }

    #[test]
    fn titled_table_renders_its_caption() {
        let mut t = Table::new(["x"]).with_title("Table 1: stuff");
        t.add_row(["1"]);
        let mut report = Report::new("T");
        report.table(&t);
        assert!(
            report.render().contains("*Table 1: stuff*\n\n| x |\n"),
            "{}",
            report.render()
        );
    }
}
