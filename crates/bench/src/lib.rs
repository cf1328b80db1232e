//! Shared harness utilities for the reproduction binaries and benches.
//!
//! Each `repro_*` binary regenerates one table or figure from the paper's
//! evaluation; this crate holds the small shared pieces (table rendering,
//! the command-line parser) so the binaries stay readable, and the two
//! experiment engines behind the paper's tables: [`table1`] (exact
//! expected widths by grid enumeration) and [`table2`] (the LandShark
//! case study's envelope violations through the sweep grid).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline_ops;
pub mod cli;
pub mod drive;
pub mod golden;
pub mod table1;
pub mod table2;

/// A minimal fixed-width text table writer for experiment output.
///
/// # Example
///
/// ```
/// use arsf_bench::TextTable;
///
/// let mut t = TextTable::new(vec!["setup".into(), "value".into()]);
/// t.row(vec!["n = 3".into(), "10.77".into()]);
/// let text = t.render();
/// assert!(text.contains("setup"));
/// assert!(text.contains("10.77"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with column alignment and a header rule.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |row: &[String], widths: &mut [usize]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&self.header, &mut widths);
        for row in &self.rows {
            measure(row, &mut widths);
        }
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}"));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = TextTable::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xxxxx".into()]);
        t.row(vec!["y".into(), "z".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(vec!["only".into()]);
        let text = t.render();
        assert!(text.contains("only"));
        assert_eq!(text.lines().count(), 2);
    }
}
