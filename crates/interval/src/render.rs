//! ASCII rendering of interval diagrams.
//!
//! The paper communicates most of its intuition through interval diagrams
//! (Figures 1–5): stacked horizontal bars for sensor intervals, sinusoid
//! bars for attacked sensors, and fusion intervals below a dashed
//! separator. This module reproduces those diagrams in plain text so the
//! `repro_fig*` binaries can regenerate every figure in a terminal.
//!
//! # Example
//!
//! ```
//! use arsf_interval::render::{Diagram, RowStyle};
//! use arsf_interval::Interval;
//!
//! # fn main() -> Result<(), arsf_interval::IntervalError> {
//! let mut d = Diagram::new();
//! d.row("s1", Interval::new(0.0, 4.0)?, RowStyle::Correct);
//! d.row("a1", Interval::new(3.0, 6.0)?, RowStyle::Attacked);
//! d.separator();
//! d.row("S", Interval::new(0.0, 6.0)?, RowStyle::Fusion);
//! let text = d.render(40);
//! assert!(text.contains("s1"));
//! assert!(text.contains('~')); // attacked intervals drawn as sinusoids
//! # Ok(())
//! # }
//! ```

use crate::{Interval, Scalar};

/// Visual style of a diagram row, mirroring the paper's figure language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowStyle {
    /// A correct sensor interval: `|----------|`.
    Correct,
    /// An attacked (forged) interval, drawn as a sinusoid: `~~~~~~~~`.
    Attacked,
    /// A fusion interval: `#==========#`.
    Fusion,
    /// A single marked point (e.g. the true value): `*`.
    Marker,
}

/// One labelled row of a [`Diagram`].
#[derive(Debug, Clone, PartialEq)]
struct Row {
    label: String,
    interval: Interval<f64>,
    style: RowStyle,
}

/// Items laid out vertically: either an interval row or a separator line.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    Row(Row),
    Separator,
}

/// A builder for multi-row interval diagrams rendered as ASCII art.
///
/// Rows are displayed in insertion order; [`Diagram::separator`] inserts the
/// dashed horizontal line the paper uses to divide sensor intervals from
/// fusion intervals. See the [module documentation](self) for an example.
#[derive(Debug, Clone, Default)]
pub struct Diagram {
    items: Vec<Item>,
}

impl Diagram {
    /// Creates an empty diagram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a labelled interval row. Non-`f64` scalars can be converted
    /// with [`Interval::to_f64_interval`] first.
    pub fn row<T: Scalar>(
        &mut self,
        label: impl Into<String>,
        interval: Interval<T>,
        style: RowStyle,
    ) -> &mut Self {
        self.items.push(Item::Row(Row {
            label: label.into(),
            interval: interval.to_f64_interval(),
            style,
        }));
        self
    }

    /// Appends a marked point (rendered as a one-character row).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite.
    pub fn point(&mut self, label: impl Into<String>, x: f64) -> &mut Self {
        let interval = Interval::degenerate(x)
            .unwrap_or_else(|_| panic!("marker coordinate {x} must be finite"));
        self.items.push(Item::Row(Row {
            label: label.into(),
            interval,
            style: RowStyle::Marker,
        }));
        self
    }

    /// Appends the dashed separator between sensor and fusion rows.
    pub fn separator(&mut self) -> &mut Self {
        self.items.push(Item::Separator);
        self
    }

    /// Renders the diagram using `columns` characters for the coordinate
    /// axis (minimum 16; narrower requests are widened to 16).
    ///
    /// Returns an empty string for a diagram with no interval rows.
    pub fn render(&self, columns: usize) -> String {
        let columns = columns.max(16);
        let rows: Vec<&Row> = self
            .items
            .iter()
            .filter_map(|it| match it {
                Item::Row(r) => Some(r),
                Item::Separator => None,
            })
            .collect();
        if rows.is_empty() {
            return String::new();
        }

        let lo = rows
            .iter()
            .map(|r| r.interval.lo())
            .fold(f64::INFINITY, f64::min);
        let hi = rows
            .iter()
            .map(|r| r.interval.hi())
            .fold(f64::NEG_INFINITY, f64::max);
        let span = if hi > lo { hi - lo } else { 1.0 };
        let label_width = rows
            .iter()
            .map(|r| r.label.chars().count())
            .max()
            .unwrap_or(0);
        let scale = |x: f64| -> usize {
            let t = (x - lo) / span;
            ((t * (columns - 1) as f64).round() as usize).min(columns - 1)
        };

        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Separator => {
                    out.push_str(&" ".repeat(label_width + 2));
                    out.push_str(&"-".repeat(columns));
                    out.push('\n');
                }
                Item::Row(row) => {
                    let start = scale(row.interval.lo());
                    let end = scale(row.interval.hi());
                    let mut line = vec![' '; columns];
                    match row.style {
                        RowStyle::Marker => line[start] = '*',
                        RowStyle::Correct => draw_bar(&mut line, start, end, '-', '|'),
                        RowStyle::Attacked => draw_bar(&mut line, start, end, '~', '~'),
                        RowStyle::Fusion => draw_bar(&mut line, start, end, '=', '#'),
                    }
                    let padded = format!("{:>label_width$}", row.label);
                    out.push_str(&padded);
                    out.push_str(": ");
                    out.extend(line);
                    out.push('\n');
                }
            }
        }
        // Axis with endpoint annotations.
        out.push_str(&" ".repeat(label_width + 2));
        let lo_text = format_coord(lo);
        let hi_text = format_coord(hi);
        let pad = columns.saturating_sub(lo_text.len() + hi_text.len());
        out.push_str(&lo_text);
        out.push_str(&" ".repeat(pad));
        out.push_str(&hi_text);
        out.push('\n');
        out
    }
}

fn draw_bar(line: &mut [char], start: usize, end: usize, fill: char, cap: char) {
    if start == end {
        line[start] = cap;
        return;
    }
    for c in line.iter_mut().take(end + 1).skip(start) {
        *c = fill;
    }
    line[start] = cap;
    line[end] = cap;
}

fn format_coord(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn empty_diagram_renders_empty() {
        assert_eq!(Diagram::new().render(40), "");
        // A separator alone still counts as "no rows".
        let mut d = Diagram::new();
        d.separator();
        assert_eq!(d.render(40), "");
    }

    #[test]
    fn single_row_spans_full_width() {
        let mut d = Diagram::new();
        d.row("s", iv(0.0, 10.0), RowStyle::Correct);
        let text = d.render(20);
        let line = text.lines().next().unwrap();
        assert!(line.starts_with("s: |"));
        assert!(line.trim_end().ends_with('|'));
    }

    #[test]
    fn styles_use_distinct_glyphs() {
        let mut d = Diagram::new();
        d.row("c", iv(0.0, 10.0), RowStyle::Correct);
        d.row("a", iv(0.0, 10.0), RowStyle::Attacked);
        d.separator();
        d.row("f", iv(0.0, 10.0), RowStyle::Fusion);
        let text = d.render(24);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains('-') && lines[0].contains('|'));
        assert!(lines[1].contains('~'));
        assert!(lines[2].chars().all(|c| c == '-' || c == ' '));
        assert!(lines[3].contains('=') && lines[3].contains('#'));
    }

    #[test]
    fn marker_renders_single_star() {
        let mut d = Diagram::new();
        d.row("s", iv(0.0, 10.0), RowStyle::Correct);
        d.point("v", 5.0);
        let text = d.render(21);
        let marker_line = text.lines().nth(1).unwrap();
        assert_eq!(marker_line.matches('*').count(), 1);
    }

    #[test]
    fn degenerate_interval_renders_single_cap() {
        let mut d = Diagram::new();
        d.row("wide", iv(0.0, 10.0), RowStyle::Correct);
        d.row("pt", iv(5.0, 5.0), RowStyle::Correct);
        let text = d.render(40);
        let pt_line = text.lines().nth(1).unwrap();
        assert_eq!(pt_line.matches('|').count(), 1);
    }

    #[test]
    fn axis_line_shows_bounds() {
        let mut d = Diagram::new();
        d.row("s", iv(-2.0, 7.5), RowStyle::Correct);
        let text = d.render(30);
        let axis = text.lines().last().unwrap();
        assert!(axis.contains("-2"));
        assert!(axis.contains("7.5"));
    }

    #[test]
    fn narrow_width_is_clamped() {
        let mut d = Diagram::new();
        d.row("s", iv(0.0, 1.0), RowStyle::Correct);
        // Must not panic even for absurdly small widths.
        let text = d.render(1);
        assert!(!text.is_empty());
    }

    #[test]
    fn labels_are_right_aligned() {
        let mut d = Diagram::new();
        d.row("long-label", iv(0.0, 1.0), RowStyle::Correct);
        d.row("s", iv(0.0, 1.0), RowStyle::Correct);
        let text = d.render(20);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("long-label: "));
        assert!(lines[1].starts_with("         s: "));
    }
}
