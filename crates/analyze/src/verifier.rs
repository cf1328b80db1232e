//! The verifier table: the guarantee, detectability and dominance passes
//! as rows of one [`VERIFIERS`] array.
//!
//! Every consumer — the `sweep_lint` subcommands, the record-time vetoes
//! and the ids `--allow` accepts — iterates the table instead of naming a
//! pass, so a fourth verifier is one more entry.

use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::SweepGrid;

use crate::{
    analyze_grid_detectability, analyze_grid_dominance, analyze_grid_guarantees, detect_lints,
    detectability, dominance, guarantee_lints, guarantees, order_lints, sort_findings,
    vet_baseline_detectability, vet_baseline_dominance, vet_baseline_guarantees, Finding, Lint,
    Location,
};

/// One static verifier: a lint registry, a grid pass that derives facts
/// from the declaration alone, a vet of stored baselines against those
/// facts, and a record-time veto.
pub struct Verifier {
    /// The `sweep_lint` subcommand and the `--json` `"pass"` value.
    pub name: &'static str,
    /// What the pass derives, as a noun phrase (`"dominance orderings"`):
    /// the `baseline-missing` message and the `sweep_lint` usage use it.
    pub noun: &'static str,
    /// The lint id of every [`veto`](Self::veto) finding; the record
    /// paths' `--allow` accepts it.
    pub veto_id: &'static str,
    /// The pass's dedicated lint registry.
    pub lints: fn() -> Vec<Box<dyn Lint>>,
    /// Runs the pass over a grid without simulating a round.
    pub analyze_grid: fn(&SweepGrid) -> Vec<Finding>,
    /// Vets a stored baseline against the grid's static facts, locating
    /// findings at the given location (the baseline file, typically).
    pub vet: fn(&SweepGrid, &Baseline, &Location) -> Vec<Finding>,
    /// The findings that refuse freezing a freshly-run baseline of the
    /// grid, unless their id is allowed.
    pub veto: fn(&SweepGrid, &Baseline) -> Vec<Finding>,
}

/// The static verifiers, in `sweep_lint all` order.
pub const VERIFIERS: [Verifier; 3] = [
    Verifier {
        name: "guarantees",
        noun: "guarantees",
        veto_id: "guarantee-unbounded",
        lints: guarantee_lints,
        analyze_grid: analyze_grid_guarantees,
        vet: vet_baseline_guarantees,
        veto: guarantees::veto,
    },
    Verifier {
        name: "detectability",
        noun: "detectability verdicts",
        veto_id: "detect-vacuous",
        lints: detect_lints,
        analyze_grid: analyze_grid_detectability,
        vet: vet_baseline_detectability,
        veto: detectability::veto,
    },
    Verifier {
        name: "dominance",
        noun: "dominance orderings",
        veto_id: "order-violation",
        lints: order_lints,
        analyze_grid: analyze_grid_dominance,
        vet: vet_baseline_dominance,
        veto: dominance::veto,
    },
];

/// The shared grid driver of the verifier passes: every lint's
/// `check_scenario` on every cell (findings relocated to their
/// [`Location::Cell`]), then every lint's `check_grid`, sorted
/// most-severe-first.
pub(crate) fn lint_grid(lints: &[Box<dyn Lint>], grid: &SweepGrid) -> Vec<Finding> {
    let mut findings = Vec::new();
    for cell in grid.cells() {
        let first = findings.len();
        for lint in lints {
            lint.check_scenario(&cell.scenario, &mut findings);
        }
        for finding in &mut findings[first..] {
            finding.location = Location::Cell { cell: cell.index };
        }
    }
    for lint in lints {
        lint.check_grid(grid, &mut findings);
    }
    sort_findings(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_veto_ids_are_unique_and_registered() {
        for (i, verifier) in VERIFIERS.iter().enumerate() {
            for other in &VERIFIERS[i + 1..] {
                assert_ne!(verifier.name, other.name);
                assert_ne!(verifier.veto_id, other.veto_id);
            }
            assert!(
                (verifier.lints)()
                    .iter()
                    .any(|l| l.id() == verifier.veto_id),
                "{}: veto id `{}` is not one of its lints",
                verifier.name,
                verifier.veto_id
            );
        }
    }
}
