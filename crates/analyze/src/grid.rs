//! The sweep-grid pass: axis-level lints plus per-cell scenario lints
//! over the axis combinations that can actually differ.
//!
//! A grid with millions of cells cannot be linted by materialising
//! every cell, and does not need to be: the scenario-level properties a
//! lint can observe depend only on (suite, fault set, attacker) — the
//! budget and soundness checks — and on (detector, rounds) — the window
//! checks. [`analyze_grid`] therefore scans two small combination
//! groups, pins every other axis to its first value, and locates each
//! finding at the representative cell's grid index via
//! [`SweepGrid::cell_index`]. Findings are deduplicated by
//! `(lint, message)` so a base-scenario property (say an inverted
//! envelope, which every cell inherits) is reported once.

use std::collections::HashSet;

use arsf_core::sweep::{Axis, AxisCoords, SweepGrid};

use crate::lints::{check_grid, check_scenario};
use crate::{sort_findings, Finding, Location};

/// Runs the structural checks over a sweep grid.
///
/// Axis-level checks (`duplicate-axis-value`, `seed-collision`) see the
/// whole grid; scenario-level checks run over the
/// fault-sets × attackers and detectors × rounds combination
/// groups with the remaining axes pinned, each finding located at a
/// representative [`Location::Cell`]. Findings come back sorted
/// most-severe-first.
pub fn analyze_grid(grid: &SweepGrid) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_grid(grid, &mut findings);

    let mut seen: HashSet<(&'static str, String)> = HashSet::new();
    let shape = grid.shape();
    for (outer, inner) in [
        (Axis::FaultSets, Axis::Attackers),
        (Axis::Detectors, Axis::Rounds),
    ] {
        for i in 0..shape[outer as usize] {
            for j in 0..shape[inner as usize] {
                let mut coords = [0; 7];
                coords[outer as usize] = i;
                coords[inner as usize] = j;
                scan_cell(grid, coords, &mut seen, &mut findings);
            }
        }
    }

    sort_findings(&mut findings);
    findings
}

/// Checks one representative cell, locating its findings at the cell
/// index and deduplicating by `(lint, message)` across cells.
fn scan_cell(
    grid: &SweepGrid,
    coords: AxisCoords,
    seen: &mut HashSet<(&'static str, String)>,
    out: &mut Vec<Finding>,
) {
    let cell = grid.cell_index(coords);
    let mut cell_findings = Vec::new();
    check_scenario(
        &grid.scenario(cell),
        &Location::Cell { cell },
        &mut cell_findings,
    );
    out.extend(
        cell_findings
            .into_iter()
            .filter(|finding| seen.insert((finding.lint, finding.message.clone()))),
    );
}

#[cfg(test)]
mod tests {
    use arsf_core::scenario::{AttackerSpec, ClosedLoopSpec, Scenario, StrategySpec, SuiteSpec};
    use arsf_core::sweep::SweepGrid;
    use arsf_core::DetectionMode;

    use super::analyze_grid;
    use crate::{Location, Severity};

    #[test]
    fn grid_findings_point_at_representative_cells() {
        // Cells vary fusers (2) × attackers (2, second over budget) ×
        // seeds (2); seeds vary fastest, suites slowest.
        let base = Scenario::new("grid", SuiteSpec::Landshark);
        let grid = SweepGrid::new(base)
            .attackers([
                AttackerSpec::None,
                AttackerSpec::Fixed {
                    sensors: vec![0, 1],
                    strategy: StrategySpec::GreedyHigh,
                },
            ])
            .fusers([
                arsf_core::scenario::FuserSpec::Marzullo,
                arsf_core::scenario::FuserSpec::BrooksIyengar,
            ])
            .seeds([1, 2]);
        let findings = analyze_grid(&grid);
        let budget: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "attacker-budget")
            .collect();
        assert_eq!(budget.len(), 1, "one finding per distinct message");
        // attacker index 1, all other axes pinned to 0: cell index is
        // attacker * (schedules * fusers * detectors * rounds * seeds)
        // = 1 * (1 * 2 * 1 * 1 * 2) = 4.
        assert_eq!(budget[0].location, Location::Cell { cell: 4 });
        assert_eq!(budget[0].severity, Severity::Error);
    }

    #[test]
    fn base_scenario_findings_are_reported_once() {
        let base = Scenario::new("envelope", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(30.0).with_deltas(1.0, 0.25));
        let grid = SweepGrid::new(base)
            .detectors([DetectionMode::Off, DetectionMode::Immediate])
            .rounds([10, 20]);
        let findings = analyze_grid(&grid);
        let envelope: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "envelope-order")
            .collect();
        assert_eq!(envelope.len(), 1, "deduplicated across all scanned cells");
        assert_eq!(envelope[0].location, Location::Cell { cell: 0 });
    }

    #[test]
    fn window_findings_come_from_the_detector_rounds_group() {
        let grid = SweepGrid::new(Scenario::new("w", SuiteSpec::Landshark))
            .detectors([
                DetectionMode::Immediate,
                DetectionMode::Windowed {
                    window: 500,
                    tolerance: 3,
                },
            ])
            .rounds([100, 1000]);
        let findings = analyze_grid(&grid);
        let window: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "detector-window")
            .collect();
        // Only (windowed, 100 rounds) trips: window 500 > 100.
        assert_eq!(window.len(), 1);
        // detector=1, rounds=0, seeds len 1: cell = (1 * 2 + 0) * 1 = 2.
        assert_eq!(window[0].location, Location::Cell { cell: 2 });
    }

    #[test]
    fn a_clean_grid_has_no_findings() {
        let grid = SweepGrid::new(Scenario::new("clean", SuiteSpec::Landshark))
            .fusers([
                arsf_core::scenario::FuserSpec::Marzullo,
                arsf_core::scenario::FuserSpec::BrooksIyengar,
            ])
            .seeds([7, 8, 9]);
        assert!(analyze_grid(&grid).is_empty());
    }
}
