//! Output verification: the analyzer's vets of every report, and — at
//! the default seed — a near-exact diff against the committed golden
//! baselines.

use std::time::Instant;

use arsf_analyze::{Finding, Location, Severity};
use arsf_core::sweep::diff::{diff, DiffConfig};
use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::{SweepGrid, SweepReport};

/// Directory of the committed baselines, relative to the repository root.
pub const BASELINE_DIR: &str = "baselines";

fn location(grid: &SweepGrid) -> Location {
    Location::Grid {
        name: grid.base().name.clone(),
    }
}

/// The guarantee, detectability and dominance vets of the report's
/// baseline: every finding they raise.
pub fn vets(grid: &SweepGrid, report: &SweepReport) -> Vec<Finding> {
    let baseline = Baseline::from_report(grid, report);
    let at = location(grid);
    let mut findings = arsf_analyze::vet_baseline_guarantees(grid, &baseline, &at);
    findings.extend(arsf_analyze::vet_baseline_detectability(
        grid, &baseline, &at,
    ));
    findings.extend(arsf_analyze::vet_baseline_dominance(grid, &baseline, &at));
    findings
}

/// The error-severity findings among [`vets`], rendered.
pub fn vet_errors(grid: &SweepGrid, report: &SweepReport) -> Vec<String> {
    vets(grid, report)
        .into_iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| f.render())
        .collect()
}

/// Diffs the report against the baseline committed for its grid under
/// `DiffConfig::near_exact()`; returns the rendered drifts (empty when
/// clean).
///
/// # Errors
///
/// Returns a message when no valid baseline is stored for the grid.
pub fn golden_drift(grid: &SweepGrid, report: &SweepReport) -> Result<Vec<String>, String> {
    let stored = Baseline::load_for_grid(BASELINE_DIR, grid)
        .map_err(|e| format!("loading the committed baseline: {e}"))?;
    stored
        .verify_address()
        .map_err(|e| format!("committed baseline failed address verification: {e}"))?;
    let current = Baseline::from_report(grid, report);
    let result = diff(&stored, &current, &DiffConfig::near_exact());
    Ok(result.drifts().iter().map(|d| d.render()).collect())
}

/// One timed analyzer pass over a grid and its report: the four grid
/// passes plus the three baseline vets. Returns the seconds taken and
/// the findings raised.
pub fn timed_analysis(grid: &SweepGrid, report: &SweepReport) -> (f64, usize) {
    let start = Instant::now();
    let mut findings = arsf_analyze::analyze_grid(grid).len();
    findings += arsf_analyze::analyze_grid_guarantees(grid).len();
    findings += arsf_analyze::analyze_grid_detectability(grid).len();
    findings += arsf_analyze::analyze_grid_dominance(grid).len();
    findings += vets(grid, report).len();
    (start.elapsed().as_secs_f64(), findings)
}
