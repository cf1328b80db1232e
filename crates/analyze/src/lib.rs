//! Static analysis over ARSF experiment definitions.
//!
//! The paper's guarantees only hold under *structural* preconditions —
//! Marzullo/Brooks–Iyengar containment needs `n > 2f`, the attacker must
//! stay within the corruption budget, and the closed-loop envelope needs
//! `δ1 ≤ δ2` — yet scenarios, sweep grids and golden baselines are plain
//! data that can silently violate them. This crate checks the data
//! *before* anything runs:
//!
//! * [`analyze_scenario`] lints one [`Scenario`] (presets, grid cells);
//! * [`analyze_grid`] lints a whole
//!   [`SweepGrid`](arsf_core::sweep::SweepGrid) — axis-level checks plus
//!   per-cell scenario lints over the axis combinations that can
//!   actually differ, each finding pointed at a representative cell;
//! * [`analyze_baseline_file`] / [`analyze_baseline_dir`] lint persisted
//!   [`Baseline`](arsf_core::sweep::store::Baseline)s — recomputed
//!   content addresses, rows that are not their golden grid's cells,
//!   orphaned files, missing recordings — and
//!   [`tolerance_findings`] flags check-harness tolerances that match no
//!   column anywhere;
//! * the [`VERIFIERS`] table holds the three static verifiers, each
//!   judging a grid from its declaration alone, without simulating:
//!   * `guarantees` — each cell's worst-case fusion guarantees (bound
//!     regime, Theorem-2 width bound, truth containment;
//!     [`guarantee_report`]);
//!   * `detectability` — each cell's verdict: provably invisible to its
//!     detector, provably flagged every fused round, or contingent, plus
//!     a false-alarm-freedom certificate ([`detect_report`]);
//!   * `dominance` — a partial order over the grid's cells:
//!     [`OrderEdge`]s between cells differing in one axis coordinate
//!     where the theory proves a metric ordering (Table II's schedule
//!     chain, the certificates, the width-bound lattice;
//!     [`dominance_report`]).
//!
//!   Each [`Verifier`] row carries the verifier's grid pass, the vet of a
//!   stored baseline against the grid's facts, and the record-time veto
//!   whose findings refuse a recording unless their id is passed to
//!   `--allow`.
//!
//! # Rules and severities
//!
//! Every finding id is a [`Rule`]: a stable kebab-case id with a fixed
//! [`Severity`], one const each in [`rules`], all listed in [`RULES`].
//! Each pass is a plain function that derives its facts once (one
//! [`guarantee_report`] or [`detect_report`] per cell, one
//! [`dominance_report`] per grid) and builds its typed [`Finding`]s,
//! each carrying a [`Location`], through [`Rule::finding`]. The pass
//! drivers' file and cross-file findings (`baseline-parse`,
//! `baseline-io`, `baseline-orphan`, `baseline-missing`,
//! `baseline-skipped`, `tolerance-dead`) come from the same table.
//!
//! [`Severity::Error`] marks definitions the engines reject or the
//! paper's theorems void outright; [`Severity::Warn`] marks degenerate
//! but runnable definitions; [`Severity::Info`] marks worst-case
//! pessimism worth knowing about. [`exit_code`] maps a finding set to
//! the `sweep_lint` process convention: `2` if any error, `1` if any
//! warning, else `0` (info findings alone are clean).
//!
//! # Example
//!
//! ```
//! use arsf_analyze::{analyze_grid, exit_code, Severity};
//! use arsf_core::scenario::{Scenario, SuiteSpec};
//! use arsf_core::sweep::SweepGrid;
//!
//! // n = 3 sensors with f = 2 violates the n > 2f soundness bound.
//! let base = Scenario::new("unsound", SuiteSpec::Widths(vec![1.0, 2.0, 3.0])).with_f(2);
//! let findings = analyze_grid(&SweepGrid::new(base));
//! assert!(findings.iter().any(|f| f.lint == "fusion-soundness"));
//! assert_eq!(exit_code(&findings), 2);
//! assert_eq!(findings[0].severity, Severity::Error);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod baseline;
mod detectability;
mod dominance;
mod grid;
mod guarantees;
mod lints;
mod model;
pub mod rules;
mod verifier;

use std::fmt;
use std::path::PathBuf;

use arsf_core::scenario::Scenario;
use arsf_core::sweep::row::json_string;

pub use baseline::{analyze_baseline_dir, analyze_baseline_file, tolerance_findings};
pub use detectability::{
    analyze_grid_detectability, detect_report, vet_baseline_detectability, DetectReport,
    DetectVerdict, InvisibleReason,
};
pub use dominance::{
    analyze_grid_dominance, dominance_report, vet_baseline_dominance, BoundInversion,
    DominanceReport, FRegression, OrderEdge, OrderRule,
};
pub use grid::analyze_grid;
pub use guarantees::{
    analyze_grid_guarantees, guarantee_report, vet_baseline_guarantees, GuaranteeReport,
};
pub use rules::{Rule, RULES};
pub use verifier::{Verifier, VERIFIERS};

/// How bad a finding is.
///
/// Ordered: `Info < Warn < Error`, so `findings.iter().map(|f|
/// f.severity).max()` is the overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing, but sound and runnable; never fails a lint run.
    Info,
    /// Degenerate or wasteful, but the engines will execute it.
    Warn,
    /// The engines reject it, or the paper's guarantees are void.
    Error,
}

impl Severity {
    /// The renderer's lowercase tag: `error`, `warning` or `info`.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// Where a finding points: the preset, grid cell, axis value, file or
/// tolerance column it is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// A named scenario (a registry preset or a stand-alone definition).
    Scenario {
        /// The scenario's name.
        name: String,
    },
    /// One grid cell, by grid-order index.
    Cell {
        /// The cell index (`SweepGrid::scenario(cell)` reproduces it).
        cell: usize,
    },
    /// One or more positions on a named grid axis.
    Axis {
        /// The axis name (`suites`, `fusers`, `seeds`, …).
        axis: &'static str,
        /// The offending indices within the axis.
        indices: Vec<usize>,
    },
    /// A file on disk (a baseline, or the baseline directory itself).
    File {
        /// The path as given to the pass driver.
        path: PathBuf,
    },
    /// A golden grid known to the harness (used when its baseline file
    /// is missing, so there is no file to point at).
    Grid {
        /// The golden grid's registry name.
        name: String,
    },
    /// A tolerance column in a check-harness configuration.
    Column {
        /// The configured column or family name.
        column: String,
    },
    /// An ordered pair of grid cells a dominance edge connects.
    CellPair {
        /// The ⪯ side's grid-order cell index.
        lesser: usize,
        /// The ⪰ side's grid-order cell index.
        greater: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Scenario { name } => write!(f, "scenario `{name}`"),
            Location::Cell { cell } => write!(f, "cell {cell}"),
            Location::Axis { axis, indices } => {
                let ids: Vec<String> = indices.iter().map(|i| i.to_string()).collect();
                write!(f, "{axis} axis [{}]", ids.join(", "))
            }
            Location::File { path } => write!(f, "{}", path.display()),
            Location::Grid { name } => write!(f, "golden grid `{name}`"),
            Location::Column { column } => write!(f, "tolerance `{column}`"),
            Location::CellPair { lesser, greater } => write!(f, "cells {lesser} ⪯ {greater}"),
        }
    }
}

/// One problem a lint found.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The id of the [`Rule`] that produced it.
    pub lint: &'static str,
    /// The finding's severity.
    pub severity: Severity,
    /// What the finding is about.
    pub location: Location,
    /// Human-readable explanation, self-contained (no context needed).
    pub message: String,
}

impl Finding {
    /// Renders the finding as one `severity[lint] location: message`
    /// line.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity.label(),
            self.lint,
            self.location,
            self.message
        )
    }
}

/// Runs the structural scenario checks over one scenario.
///
/// Findings come back sorted most-severe-first (stable within a
/// severity, so the rule order breaks ties).
pub fn analyze_scenario(scenario: &Scenario) -> Vec<Finding> {
    let mut findings = Vec::new();
    let location = Location::Scenario {
        name: scenario.name.clone(),
    };
    lints::check_scenario(scenario, &location, &mut findings);
    sort_findings(&mut findings);
    findings
}

/// Stable-sorts findings most-severe-first.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
}

/// The `sweep_lint` process exit code for a finding set: `2` if any
/// [`Severity::Error`], else `1` if any [`Severity::Warn`], else `0`
/// ([`Severity::Info`] findings alone are clean).
pub fn exit_code(findings: &[Finding]) -> i32 {
    match findings.iter().map(|f| f.severity).max() {
        Some(Severity::Error) => 2,
        Some(Severity::Warn) => 1,
        _ => 0,
    }
}

/// Renders findings for humans: one line per finding plus a summary
/// tail (`clean` when there are none).
pub fn render(findings: &[Finding]) -> String {
    match findings {
        [] => finding_lines(findings),
        _ => finding_lines(findings) + &tally(findings.iter()),
    }
}

/// Renders labelled pass findings for humans: a `== pass ==` header per
/// pass, each pass's findings (or a per-pass `clean` line), and one
/// overall summary tail — the text shape of `sweep_lint all`.
pub fn render_passes(passes: &[(&str, Vec<Finding>)]) -> String {
    let body: String = passes
        .iter()
        .map(|(pass, findings)| format!("== {pass} ==\n{}", finding_lines(findings)))
        .collect();
    body + &tally(passes.iter().flat_map(|(_, findings)| findings))
}

/// The one findings printer behind [`render`] and [`render_passes`]: a
/// line per finding, or a `clean` line when there are none.
fn finding_lines(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "clean: no findings\n".to_string();
    }
    findings.iter().map(|f| f.render() + "\n").collect()
}

/// The summary tail: `findings` counted by severity.
fn tally<'a>(findings: impl Iterator<Item = &'a Finding> + Clone) -> String {
    let count = |severity| findings.clone().filter(|f| f.severity == severity).count();
    format!(
        "{} error(s), {} warning(s), {} note(s)\n",
        count(Severity::Error),
        count(Severity::Warn),
        count(Severity::Info)
    )
}

/// Renders labelled pass findings as a JSON array (dependency-free;
/// locations are pre-rendered strings, matching the human renderer).
/// Every object carries the stable `"schema": 1` marker and the pass
/// name alongside the finding's lint, severity, location and message,
/// so downstream tooling can key on them across `sweep_lint`
/// subcommands.
pub fn render_json_passes(passes: &[(&str, Vec<Finding>)]) -> String {
    let objects: Vec<String> = passes
        .iter()
        .flat_map(|(pass, findings)| findings.iter().map(move |finding| (pass, finding)))
        .map(|(pass, finding)| {
            format!(
                "\n  {{\"schema\": 1, \"pass\": {}, \"lint\": {}, \"severity\": {}, \
                 \"location\": {}, \"message\": {}}}",
                json_string(pass),
                json_string(finding.lint),
                json_string(finding.severity.label()),
                json_string(&finding.location.to_string()),
                json_string(&finding.message),
            )
        })
        .collect();
    format!("[{}\n]\n", objects.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(severity: Severity) -> Finding {
        Finding {
            lint: "test-lint",
            severity,
            location: Location::Cell { cell: 3 },
            message: "something".to_string(),
        }
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn exit_code_maps_severities_to_the_process_convention() {
        assert_eq!(exit_code(&[]), 0);
        assert_eq!(exit_code(&[finding(Severity::Info)]), 0);
        assert_eq!(
            exit_code(&[finding(Severity::Info), finding(Severity::Warn)]),
            1
        );
        assert_eq!(
            exit_code(&[finding(Severity::Warn), finding(Severity::Error)]),
            2
        );
    }

    #[test]
    fn renderer_names_the_location_and_counts_by_severity() {
        let findings = [finding(Severity::Error), finding(Severity::Warn)];
        let text = render(&findings);
        assert!(text.contains("error[test-lint] cell 3: something"));
        assert!(text.contains("warning[test-lint] cell 3: something"));
        assert!(text.contains("1 error(s), 1 warning(s), 0 note(s)"));
        assert!(render(&[]).contains("clean: no findings"));
    }

    #[test]
    fn locations_render_distinctly() {
        let axis = Location::Axis {
            axis: "fusers",
            indices: vec![0, 2],
        };
        assert_eq!(axis.to_string(), "fusers axis [0, 2]");
        let preset = Location::Scenario {
            name: "baseline-open-loop".to_string(),
        };
        assert_eq!(preset.to_string(), "scenario `baseline-open-loop`");
        let column = Location::Column {
            column: "vehicle_mean_widths".to_string(),
        };
        assert_eq!(column.to_string(), "tolerance `vehicle_mean_widths`");
        let pair = Location::CellPair {
            lesser: 4,
            greater: 17,
        };
        assert_eq!(pair.to_string(), "cells 4 ⪯ 17");
    }

    #[test]
    fn pass_renderers_carry_schema_pass_and_headers() {
        let passes = vec![
            ("presets", vec![finding(Severity::Warn)]),
            ("dominance", vec![]),
        ];
        let text = render_passes(&passes);
        assert!(text.contains("== presets ==\n"));
        assert!(text.contains("== dominance ==\nclean: no findings"));
        assert!(text.ends_with("0 error(s), 1 warning(s), 0 note(s)\n"));

        let json = render_json_passes(&passes);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"pass\": \"presets\""));
        assert!(json.trim_end().ends_with(']'));
        // Comma placement: a single object means no trailing comma.
        assert_eq!(json.matches("},").count(), 0);
        // Two passes of one finding each: one separating comma.
        let two = render_json_passes(&[
            ("a", vec![finding(Severity::Info)]),
            ("b", vec![finding(Severity::Info)]),
        ]);
        assert_eq!(two.matches("},").count(), 1);
        // Messages are escaped, and two findings of one pass are
        // separated by exactly one comma.
        let mut quoted = finding(Severity::Warn);
        quoted.message = "a \"quoted\"\nmessage".to_string();
        let json = render_json_passes(&[("a", vec![quoted.clone(), quoted])]);
        assert!(json.contains("\\\"quoted\\\"\\n"));
        assert_eq!(json.matches("\"lint\": \"test-lint\"").count(), 2);
        assert_eq!(json.matches("},").count(), 1);
        assert!(json.trim_end().ends_with(']'));
    }
}
