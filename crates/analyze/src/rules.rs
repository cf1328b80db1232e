//! The rule table: one [`Rule`] const per finding id, each with its
//! fixed severity, all listed in [`RULES`]. Every [`Finding`] is built
//! through [`Rule::finding`], so an id always carries the same severity.

use crate::{Finding, Location, Severity};

/// A finding id and the severity of every finding it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable kebab-case identifier, e.g. `fusion-soundness`.
    pub id: &'static str,
    /// The severity of every finding of this rule.
    pub severity: Severity,
}

impl Rule {
    /// A finding of this rule at `location`.
    pub fn finding(&self, location: Location, message: impl Into<String>) -> Finding {
        Finding {
            lint: self.id,
            severity: self.severity,
            location,
            message: message.into(),
        }
    }
}

const fn rule(id: &'static str, severity: Severity) -> Rule {
    Rule { id, severity }
}

// Scenario checks: one preset, or one grid cell.

/// The scenario fails `Scenario::validate`, so no engine can execute it.
pub(crate) const SCENARIO_VALIDATE: Rule = rule("scenario-validate", Severity::Error);
/// The suite has `n ≤ 2f` sensors, voiding the `n > 2f` containment
/// precondition.
pub(crate) const FUSION_SOUNDNESS: Rule = rule("fusion-soundness", Severity::Error);
/// A fixed attacker compromises more distinct sensors than the fault
/// assumption `f`.
pub(crate) const ATTACKER_BUDGET: Rule = rule("attacker-budget", Severity::Error);
/// Fault injection touches more distinct sensors than the fault
/// assumption `f`.
pub(crate) const FAULT_BUDGET: Rule = rule("fault-budget", Severity::Warn);
/// Faults plus attacker can jointly corrupt more than `f` sensors in one
/// round, though each is within `f` alone.
pub(crate) const COMBINED_BUDGET: Rule = rule("combined-budget", Severity::Info);
/// A windowed detector's window exceeds the run length, tracks no
/// sensors, or its tolerance reaches its window.
pub(crate) const DETECTOR_WINDOW: Rule = rule("detector-window", Severity::Warn);
/// The closed-loop envelope has `δ1 > δ2`, inverting the paper's
/// assumption.
pub(crate) const ENVELOPE_ORDER: Rule = rule("envelope-order", Severity::Warn);
/// The scenario runs zero rounds, so every metric is vacuous.
pub(crate) const EMPTY_RUN: Rule = rule("empty-run", Severity::Warn);

// Grid checks: axis-level structure.

/// An axis lists the same value twice, multiplying grid size without
/// adding coverage.
pub(crate) const DUPLICATE_AXIS_VALUE: Rule = rule("duplicate-axis-value", Severity::Warn);
/// Two grid cells derive the same per-cell RNG seed and sample identical
/// streams.
pub(crate) const SEED_COLLISION: Rule = rule("seed-collision", Severity::Warn);

// Baseline files and the baseline directory.

/// A baseline file is not a readable baseline.
pub const BASELINE_PARSE: Rule = rule("baseline-parse", Severity::Error);
/// The stored content address does not match the recomputed address of
/// the embedded definition.
pub(crate) const BASELINE_ADDRESS: Rule = rule("baseline-address", Severity::Error);
/// The baseline's file stem is not its stored content address.
pub(crate) const BASELINE_FILENAME: Rule = rule("baseline-filename", Severity::Error);
/// A golden grid's stored baseline does not hold exactly the grid's
/// cells, `0..len` in grid order.
pub(crate) const BASELINE_CELLS: Rule = rule("baseline-cells", Severity::Error);
/// The baseline directory itself cannot be listed.
pub const BASELINE_IO: Rule = rule("baseline-io", Severity::Error);
/// A `*.json` file with a content-address stem that no golden grid
/// references.
pub(crate) const BASELINE_ORPHAN: Rule = rule("baseline-orphan", Severity::Warn);
/// A golden grid has no stored baseline to check or vet.
pub const BASELINE_MISSING: Rule = rule("baseline-missing", Severity::Warn);
/// A `*.json` file whose stem is not a content address, so no baseline
/// check ever reads it.
pub(crate) const BASELINE_SKIPPED: Rule = rule("baseline-skipped", Severity::Info);
/// A configured check-harness tolerance matches no column in any stored
/// baseline.
pub(crate) const TOLERANCE_DEAD: Rule = rule("tolerance-dead", Severity::Warn);

// The guarantee verifier.

/// The declared fault/attacker budget admits no static fused-width
/// bound; recorded results are unfalsifiable. The record-time veto of
/// the guarantee verifier.
pub(crate) const GUARANTEE_UNBOUNDED: Rule = rule("guarantee-unbounded", Severity::Error);
/// The static width bound exceeds the suite's span: the guarantee is
/// weaker than trusting the least precise sensor alone.
pub(crate) const GUARANTEE_VACUOUS: Rule = rule("guarantee-vacuous", Severity::Warn);
/// Reports the statically derived worst-case fused width and
/// truth-containment verdict.
pub(crate) const GUARANTEE_WIDTH: Rule = rule("guarantee-width", Severity::Info);
/// A stored baseline metric violates its cell's statically derived
/// guarantee.
pub(crate) const GUARANTEE_VIOLATION: Rule = rule("guarantee-violation", Severity::Error);

// The detectability verifier.

/// Reports the statically derived detection verdict (provably invisible,
/// provably flagged, or contingent) and the false-alarm-freedom
/// certificate.
pub(crate) const DETECT_VERDICT: Rule = rule("detect-verdict", Severity::Info);
/// An enabled detector whose overlap check can never fire under this
/// fuser: the detection columns are vacuous.
pub(crate) const DETECT_INVISIBLE: Rule = rule("detect-invisible", Severity::Warn);
/// Summarises, per attacker × detector pair, how many grid cells are
/// provably invisible, provably flagged, or contingent.
pub(crate) const DETECT_COVERAGE: Rule = rule("detect-coverage", Severity::Info);
/// A stored baseline detection column contradicts its cell's statically
/// derived detectability verdict, or does not decode.
pub(crate) const DETECT_VIOLATION: Rule = rule("detect-violation", Severity::Error);
/// Every corruptible cell of a grid being recorded is provably invisible
/// to its detector: the baseline's detection columns would be vacuous.
/// The record-time veto of the detectability verifier; `sweep_lint`
/// never reports it.
pub(crate) const DETECT_VACUOUS: Rule = rule("detect-vacuous", Severity::Error);

// The dominance verifier.

/// A provable cross-cell metric ordering derived from the theory
/// (Table II schedule ordering, certificates, or the width-bound
/// lattice).
pub(crate) const ORDER_EDGE: Rule = rule("order-edge", Severity::Info);
/// The grid has single-axis cell pairs but no provable ordering on any
/// of them, so the dominance pass cannot vet its baselines.
pub(crate) const ORDER_VACUOUS: Rule = rule("order-vacuous", Severity::Warn);
/// A derived or stored metric ordering contradicts a provable dominance
/// edge: an analyzer inconsistency (inverted derived bounds, a width
/// bound failing f-monotonicity), or a stored baseline inverting an
/// edge. The record-time veto of the dominance verifier.
pub(crate) const ORDER_VIOLATION: Rule = rule("order-violation", Severity::Error);

/// Every rule, in the order above.
pub const RULES: &[Rule] = &[
    SCENARIO_VALIDATE,
    FUSION_SOUNDNESS,
    ATTACKER_BUDGET,
    FAULT_BUDGET,
    COMBINED_BUDGET,
    DETECTOR_WINDOW,
    ENVELOPE_ORDER,
    EMPTY_RUN,
    DUPLICATE_AXIS_VALUE,
    SEED_COLLISION,
    BASELINE_PARSE,
    BASELINE_ADDRESS,
    BASELINE_FILENAME,
    BASELINE_CELLS,
    BASELINE_IO,
    BASELINE_ORPHAN,
    BASELINE_MISSING,
    BASELINE_SKIPPED,
    TOLERANCE_DEAD,
    GUARANTEE_UNBOUNDED,
    GUARANTEE_VACUOUS,
    GUARANTEE_WIDTH,
    GUARANTEE_VIOLATION,
    DETECT_VERDICT,
    DETECT_INVISIBLE,
    DETECT_COVERAGE,
    DETECT_VIOLATION,
    DETECT_VACUOUS,
    ORDER_EDGE,
    ORDER_VACUOUS,
    ORDER_VIOLATION,
];

#[cfg(test)]
mod tests {
    use super::RULES;

    #[test]
    fn rule_ids_are_unique_and_kebab_case() {
        for (i, rule) in RULES.iter().enumerate() {
            assert!(
                RULES[i + 1..].iter().all(|other| other.id != rule.id),
                "duplicate rule id `{}`",
                rule.id
            );
            let kebab = !rule.id.is_empty()
                && !rule.id.starts_with('-')
                && !rule.id.ends_with('-')
                && !rule.id.contains("--")
                && rule
                    .id
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
            assert!(kebab, "rule id `{}` is not kebab-case", rule.id);
        }
    }
}
