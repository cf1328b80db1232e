//! The verifier table: the guarantee, detectability and dominance passes
//! as rows of one [`VERIFIERS`] array.
//!
//! Every consumer — the `sweep_lint` subcommands, the record-time vetoes
//! and the ids `--allow` accepts — iterates the table instead of naming a
//! pass, so a fourth verifier is one more entry.

use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::SweepGrid;

use crate::rules::{DETECT_VACUOUS, GUARANTEE_UNBOUNDED, ORDER_VIOLATION};
use crate::{
    analyze_grid_detectability, analyze_grid_dominance, analyze_grid_guarantees, detectability,
    dominance, guarantees, vet_baseline_detectability, vet_baseline_dominance,
    vet_baseline_guarantees, Finding, Location,
};

/// One static verifier: a grid pass that derives facts from the
/// declaration alone, a vet of stored baselines against those facts, and
/// a record-time veto.
pub struct Verifier {
    /// The `sweep_lint` subcommand and the `--json` `"pass"` value.
    pub name: &'static str,
    /// What the pass derives, as a noun phrase (`"dominance orderings"`):
    /// the `baseline-missing` message and the `sweep_lint` usage use it.
    pub noun: &'static str,
    /// The lint id of every [`veto`](Self::veto) finding; the record
    /// paths' `--allow` accepts it.
    pub veto_id: &'static str,
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
        veto_id: GUARANTEE_UNBOUNDED.id,
        analyze_grid: analyze_grid_guarantees,
        vet: vet_baseline_guarantees,
        veto: guarantees::veto,
    },
    Verifier {
        name: "detectability",
        noun: "detectability verdicts",
        veto_id: DETECT_VACUOUS.id,
        analyze_grid: analyze_grid_detectability,
        vet: vet_baseline_detectability,
        veto: detectability::veto,
    },
    Verifier {
        name: "dominance",
        noun: "dominance orderings",
        veto_id: ORDER_VIOLATION.id,
        analyze_grid: analyze_grid_dominance,
        vet: vet_baseline_dominance,
        veto: dominance::veto,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Severity, RULES};

    #[test]
    fn names_and_veto_ids_are_unique_and_are_error_rules() {
        for (i, verifier) in VERIFIERS.iter().enumerate() {
            for other in &VERIFIERS[i + 1..] {
                assert_ne!(verifier.name, other.name);
                assert_ne!(verifier.veto_id, other.veto_id);
            }
            assert!(
                RULES
                    .iter()
                    .any(|rule| rule.id == verifier.veto_id && rule.severity == Severity::Error),
                "{}: veto id `{}` is not an error rule",
                verifier.name,
                verifier.veto_id
            );
        }
    }
}
