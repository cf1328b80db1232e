//! Static dominance derivation: cross-cell orderings from the theory
//! alone, with no simulation — the relational third layer over the
//! per-cell guarantee ([`guarantee_report`]) and detectability
//! ([`detect_report`](crate::detect_report)) layers.
//!
//! The paper's central empirical claim is an *ordering*, not a number:
//! under the ascending transmission schedule an adaptive attacker learns
//! least and causes zero safety violations, descending is worst, and
//! random sits between (Table II). [`dominance_report`] abstractly
//! evaluates a [`SweepGrid`] and derives a partial order over its cells:
//! [`OrderEdge`]s `lesser ⪯ greater` between cells that differ in
//! **exactly one** axis coordinate, each proved by one [`OrderRule`]:
//!
//! * [`OrderRule::ScheduleOrdering`] — ascending ⪯ random ⪯ descending,
//!   when an armed stealthy (adaptive) attacker is present and no
//!   corrupting fault muddies the signal. Which recorded counters the
//!   edge is vetted over is itself certificate-gated, because a changed
//!   schedule reshuffles the whole round trajectory and only a
//!   certificate makes a counter per-seed comparable: the truth-loss
//!   counters are vetted when both cells prove truth containment (both
//!   then record exactly `0`), `flagged_rounds` when both cells prove
//!   invisibility, and the closed-loop `preemptions` counter always —
//!   that ordering *is* Table II's headline claim (zero violations under
//!   ascending vs. dozens under descending, a gap that dwarfs seed
//!   noise), and `--allow order-violation` on the record paths is the
//!   designed escape hatch for exotic grids.
//! * [`OrderRule::ContainmentCertificate`] — the lesser cell's fused
//!   interval provably contains the truth every round
//!   ([`GuaranteeReport::truth_containment`]), so its `truth_lost`
//!   counters are exactly `0`; a neighbour without the certificate can
//!   only record `≥ 0`. Deterministically sound on any axis.
//! * [`OrderRule::InvisibilityCertificate`] — the lesser cell is
//!   provably invisible to its detector
//!   ([`DetectVerdict::ProvablyInvisible`]), so its `flagged_rounds` is
//!   exactly `0`; same argument.
//! * [`OrderRule::HistoryDefense`] — dynamics-aware historical fusion
//!   intersects the propagated previous interval with the memoryless
//!   Marzullo fusion, so its *worst-case width bound* never exceeds
//!   Marzullo's. Bound-level only: per-seed recorded widths routinely
//!   cross (the bound orders suprema, not samples), so no stored column
//!   is vetted — an inverted pair of derived bounds is reported as an
//!   analyzer inconsistency instead.
//! * [`OrderRule::AttackerStrength`] — the attacker-strength lattice
//!   (an attacker that does not forge is below one that does, and
//!   fewer forged sensors per round below more): a strictly weaker
//!   attacker cannot have a larger worst-case width bound. Bound-level
//!   only, same reasoning.
//! * [`OrderRule::FaultInclusion`] — fault-set inclusion `S ⊆ S′`
//!   cannot shrink the worst-case width bound. Bound-level only.
//!
//! The Theorem-2 bound's **f-monotonicity** is checked per cell rather
//! than per pair — the fault budget `f` is base-scenario configuration,
//! not a grid axis — by recomputing the bound at `f − 1` and requiring
//! it not to exceed the bound at `f` ([`FRegression`] when it does).
//!
//! [`analyze_grid_dominance`] derives the report once per grid and
//! surfaces it as three rules (a dedicated pass like the guarantee and
//! detectability passes): `order-edge` (info, one per provable edge),
//! `order-vacuous` (warn: the grid admits single-axis cell pairs but no
//! provable ordering on any of them), and `order-violation` (error: a
//! derived-bound inversion or f-regression at analysis time, or — via
//! [`vet_baseline_dominance`] — a stored baseline whose metrics
//! contradict a provable edge beyond the near-exact tolerance floor).
//!
//! [`GuaranteeReport::truth_containment`]: crate::GuaranteeReport::truth_containment

use std::cmp::Ordering;

use arsf_core::scenario::{FuserSpec, Scenario};
use arsf_core::sweep::diff::Tolerance;
use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::{Axis, SweepGrid};

use crate::detectability::{detect_report_of, DetectVerdict};
use crate::guarantees::guarantee_report;
use crate::model::Model;
use crate::rules::{ORDER_EDGE, ORDER_VACUOUS, ORDER_VIOLATION};
use crate::{sort_findings, Finding, Location};

/// Absolute slack when comparing two derived width bounds: both come
/// from the same closed-form evaluation, so anything beyond rounding
/// noise is a genuine inversion.
const EPSILON: f64 = 1e-9;

/// Stored columns ordered by the schedule rule when both cells carry
/// both certificates (the paper's full Table II counter set; columns
/// absent or null in a record are skipped at vet time, so open-loop
/// grids simply have no `preemptions` to check).
const SCHEDULE_METRICS: &[&str] = &[
    "preemptions",
    "truth_lost",
    "truth_loss_rate",
    "flagged_rounds",
];

/// Schedule-rule columns when only truth containment is certified.
const SCHEDULE_TRUTH_METRICS: &[&str] = &["preemptions", "truth_lost", "truth_loss_rate"];

/// Schedule-rule columns when only invisibility is certified.
const SCHEDULE_FLAG_METRICS: &[&str] = &["preemptions", "flagged_rounds"];

/// Schedule-rule columns with neither certificate: the safety-violation
/// counter alone, Table II's headline ordering.
const SCHEDULE_CORE_METRICS: &[&str] = &["preemptions"];

/// Stored columns ordered by a containment certificate.
const TRUTH_METRICS: &[&str] = &["truth_lost", "truth_loss_rate"];

/// Stored columns ordered by an invisibility certificate.
const FLAG_METRICS: &[&str] = &["flagged_rounds"];

/// The theory rule proving one dominance edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderRule {
    /// Table II's schedule ordering: ascending ⪯ random ⪯ descending on
    /// the violation counters when an armed stealthy attacker adapts to
    /// what it has seen.
    ScheduleOrdering,
    /// The attacker-strength lattice: a strictly weaker attacker cannot
    /// have a larger worst-case width bound.
    AttackerStrength,
    /// Fault-set inclusion: `S ⊆ S′` cannot shrink the worst-case width
    /// bound.
    FaultInclusion,
    /// Historical fusion's worst-case width bound never exceeds the
    /// memoryless Marzullo bound it intersects with.
    HistoryDefense,
    /// The lesser cell provably keeps the truth inside its fused
    /// interval, so its truth-loss counters are exactly zero.
    ContainmentCertificate,
    /// The lesser cell is provably invisible to its detector, so its
    /// flagged-rounds counter is exactly zero.
    InvisibilityCertificate,
}

impl OrderRule {
    /// A short human label, e.g. `schedule ordering`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            OrderRule::ScheduleOrdering => "schedule ordering",
            OrderRule::AttackerStrength => "attacker strength",
            OrderRule::FaultInclusion => "fault inclusion",
            OrderRule::HistoryDefense => "history defense",
            OrderRule::ContainmentCertificate => "containment certificate",
            OrderRule::InvisibilityCertificate => "invisibility certificate",
        }
    }

    /// One sentence stating the theory behind the rule.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            OrderRule::ScheduleOrdering => {
                "Table II: a schedule exposing fewer correct intervals to an adaptive \
                 attacker cannot cause more violations"
            }
            OrderRule::AttackerStrength => {
                "a strictly weaker attacker cannot have a larger worst-case fused width \
                 bound"
            }
            OrderRule::FaultInclusion => {
                "adding faults to a fault set cannot shrink the worst-case fused width \
                 bound"
            }
            OrderRule::HistoryDefense => {
                "historical fusion intersects the propagated previous interval with the \
                 memoryless fusion, so its width bound never exceeds Marzullo's"
            }
            OrderRule::ContainmentCertificate => {
                "a cell whose fused interval provably contains the truth records exactly \
                 zero truth losses"
            }
            OrderRule::InvisibilityCertificate => {
                "a cell provably invisible to its detector records exactly zero flagged \
                 rounds"
            }
        }
    }
}

/// One provable dominance edge: `lesser ⪯ greater`, cells differing in
/// exactly the named axis coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderEdge {
    /// The ⪯ side, by grid-order cell index.
    pub lesser: usize,
    /// The ⪰ side, by grid-order cell index.
    pub greater: usize,
    /// The one axis the two cells differ on.
    pub axis: Axis,
    /// The rule proving the ordering.
    pub rule: OrderRule,
    /// Stored columns the ordering is vetted over (`lesser ≤ greater`
    /// up to the near-exact floor). Empty for bound-level rules, whose
    /// claim orders derived worst-case bounds, not per-seed samples.
    pub metrics: &'static [&'static str],
    /// The compared `(lesser, greater)` static width bounds, when the
    /// rule orders bounds.
    pub bounds: Option<(f64, f64)>,
}

/// A bound-level rule application whose derived bounds came out
/// inverted — the theory says `lesser`'s bound cannot exceed
/// `greater`'s, yet the abstract evaluator produced the opposite. An
/// analyzer inconsistency, surfaced as an `order-violation` error.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundInversion {
    /// The cell the rule claims is ⪯.
    pub lesser: usize,
    /// The cell the rule claims is ⪰.
    pub greater: usize,
    /// The one axis the two cells differ on.
    pub axis: Axis,
    /// The rule whose claim the derived bounds contradict.
    pub rule: OrderRule,
    /// The lesser cell's derived width bound.
    pub lesser_bound: f64,
    /// The greater cell's derived width bound.
    pub greater_bound: f64,
}

/// A cell whose Theorem-2 width bound *shrank* when the declared fault
/// budget was raised back from `f − 1` to `f` — equivalently, lowering
/// `f` increased the bound. Monotonicity in `f` is a theorem, so this
/// is an analyzer inconsistency, surfaced as an `order-violation`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FRegression {
    /// The offending cell.
    pub cell: usize,
    /// The cell's declared fault budget.
    pub f: usize,
    /// The derived bound at `f − 1`.
    pub lower_f_bound: f64,
    /// The derived bound at `f`.
    pub bound: f64,
}

/// The statically derived partial order over one grid's cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DominanceReport {
    /// Every provable edge, in grid order of the lower-indexed cell.
    pub edges: Vec<OrderEdge>,
    /// Single-axis-differing cell pairs `(a, b, axis)` with `a < b` in
    /// grid order and no provable ordering in either direction.
    pub incomparable: Vec<(usize, usize, Axis)>,
    /// Bound-level claims contradicted by the derived bounds.
    pub inversions: Vec<BoundInversion>,
    /// Per-cell f-monotonicity violations of the width bound.
    pub f_regressions: Vec<FRegression>,
}

/// Per-cell facts the pair rules consume, computed once per cell.
struct CellFacts {
    scenario: Scenario,
    model: Model,
    containment: bool,
    invisible: bool,
    width_bound: Option<f64>,
}

fn cell_facts(grid: &SweepGrid) -> Vec<CellFacts> {
    grid.cells()
        .map(|cell| {
            let model = Model::of(&cell.scenario);
            let detect = detect_report_of(&cell.scenario, &model);
            CellFacts {
                containment: detect.guarantees.truth_containment,
                invisible: matches!(detect.verdict, DetectVerdict::ProvablyInvisible { .. }),
                width_bound: detect.guarantees.width_bound,
                model,
                scenario: cell.scenario,
            }
        })
        .collect()
}

/// Enumerates every unordered pair of cells differing in exactly one
/// axis coordinate, each pair exactly once (`a < b` in grid order).
fn single_axis_pairs(grid: &SweepGrid) -> Vec<(usize, usize, Axis)> {
    let shape = grid.shape();
    let mut pairs = Vec::new();
    for index in 0..grid.len() {
        let coords = grid.coords(index);
        for (axis, len) in Axis::ALL.into_iter().zip(shape) {
            for other in coords[axis as usize] + 1..len {
                let mut neighbour = coords;
                neighbour[axis as usize] = other;
                pairs.push((index, grid.cell_index(neighbour), axis));
            }
        }
    }
    pairs
}

/// `true` when the scenario's attacker is the stealthy adaptive kind the
/// schedule ordering reasons about, with at least one sensor to forge,
/// and no corrupting fault adds schedule-independent violations that
/// would swamp the ordering.
fn schedule_ordering_armed(model: &Model) -> bool {
    model.forges && model.forged_per_round() >= 1 && model.corrupting.is_empty()
}

/// Applies every pair rule to one single-axis pair, pushing edges and
/// bound inversions.
fn edges_for_pair(
    facts: &[CellFacts],
    a: usize,
    b: usize,
    axis: Axis,
    edges: &mut Vec<OrderEdge>,
    inversions: &mut Vec<BoundInversion>,
) {
    let edge = |lesser: usize,
                greater: usize,
                rule: OrderRule,
                metrics: &'static [&'static str],
                bounds: Option<(f64, f64)>| OrderEdge {
        lesser,
        greater,
        axis,
        rule,
        metrics,
        bounds,
    };

    // Certificate rules: deterministically sound on any axis, strict
    // direction only (two certified cells both record exactly zero, so
    // neither dominates the other).
    let (fa, fb) = (&facts[a], &facts[b]);
    if fa.containment != fb.containment {
        let (l, g) = if fa.containment { (a, b) } else { (b, a) };
        edges.push(edge(
            l,
            g,
            OrderRule::ContainmentCertificate,
            TRUTH_METRICS,
            None,
        ));
    }
    if fa.invisible != fb.invisible {
        let (l, g) = if fa.invisible { (a, b) } else { (b, a) };
        edges.push(edge(
            l,
            g,
            OrderRule::InvisibilityCertificate,
            FLAG_METRICS,
            None,
        ));
    }

    // A bound-level claim `l ⪯ g`: emit the edge when the derived bounds
    // agree, an inversion finding when they contradict the theory.
    let mut bound_claim = |l: usize, g: usize, rule: OrderRule| {
        if let (Some(lb), Some(gb)) = (facts[l].width_bound, facts[g].width_bound) {
            if lb <= gb + EPSILON {
                edges.push(edge(l, g, rule, &[], Some((lb, gb))));
            } else {
                inversions.push(BoundInversion {
                    lesser: l,
                    greater: g,
                    axis,
                    rule,
                    lesser_bound: lb,
                    greater_bound: gb,
                });
            }
        }
    };

    match axis {
        Axis::Schedules => {
            let ranks = (
                fa.scenario.schedule.exposure_rank(),
                fb.scenario.schedule.exposure_rank(),
            );
            if let (Some(ra), Some(rb)) = ranks {
                if ra != rb && schedule_ordering_armed(&fa.model) {
                    let (l, g) = if ra < rb { (a, b) } else { (b, a) };
                    // A changed schedule reshuffles the whole round
                    // trajectory, so a counter is only per-seed
                    // comparable across the pair when a certificate pins
                    // it (both cells then record exactly zero); the
                    // closed-loop preemption counter is Table II's
                    // headline ordering and is always vetted.
                    let metrics = match (
                        fa.containment && fb.containment,
                        fa.invisible && fb.invisible,
                    ) {
                        (true, true) => SCHEDULE_METRICS,
                        (true, false) => SCHEDULE_TRUTH_METRICS,
                        (false, true) => SCHEDULE_FLAG_METRICS,
                        (false, false) => SCHEDULE_CORE_METRICS,
                    };
                    edges.push(edge(l, g, OrderRule::ScheduleOrdering, metrics, None));
                }
            }
        }
        Axis::Fusers => {
            let historical = |s: &Scenario| matches!(s.fuser, FuserSpec::Historical { .. });
            let marzullo = |s: &Scenario| matches!(s.fuser, FuserSpec::Marzullo);
            if historical(&fa.scenario) && marzullo(&fb.scenario) {
                bound_claim(a, b, OrderRule::HistoryDefense);
            } else if historical(&fb.scenario) && marzullo(&fa.scenario) {
                bound_claim(b, a, OrderRule::HistoryDefense);
            }
        }
        Axis::Attackers => match fa.model.strength_cmp(&fb.model) {
            Ordering::Less => bound_claim(a, b, OrderRule::AttackerStrength),
            Ordering::Greater => bound_claim(b, a, OrderRule::AttackerStrength),
            Ordering::Equal => {}
        },
        Axis::FaultSets => {
            let subset =
                |x: &Scenario, y: &Scenario| x.faults.iter().all(|entry| y.faults.contains(entry));
            let a_in_b = subset(&fa.scenario, &fb.scenario);
            let b_in_a = subset(&fb.scenario, &fa.scenario);
            if a_in_b && !b_in_a {
                bound_claim(a, b, OrderRule::FaultInclusion);
            } else if b_in_a && !a_in_b {
                bound_claim(b, a, OrderRule::FaultInclusion);
            }
        }
        _ => {}
    }
}

/// Derives the full partial order over a grid's cells from the
/// declarations alone — no cell is ever simulated.
pub fn dominance_report(grid: &SweepGrid) -> DominanceReport {
    let facts = cell_facts(grid);
    let mut edges = Vec::new();
    let mut inversions = Vec::new();
    let mut incomparable = Vec::new();
    for (a, b, axis) in single_axis_pairs(grid) {
        let before = edges.len() + inversions.len();
        edges_for_pair(&facts, a, b, axis, &mut edges, &mut inversions);
        if edges.len() + inversions.len() == before {
            incomparable.push((a, b, axis));
        }
    }

    // f-monotonicity self-check: the bound at f − 1 must not exceed the
    // bound at f. Cells whose budget is 0 or whose bound vanishes at
    // either f have nothing to compare.
    let mut f_regressions = Vec::new();
    for (cell, fact) in facts.iter().enumerate() {
        let (Some(bound), true) = (fact.width_bound, fact.scenario.f > 0) else {
            continue;
        };
        let weaker = fact.scenario.clone().with_f(fact.scenario.f - 1);
        if let Some(lower_f_bound) = guarantee_report(&weaker).width_bound {
            if lower_f_bound > bound + EPSILON {
                f_regressions.push(FRegression {
                    cell,
                    f: fact.scenario.f,
                    lower_f_bound,
                    bound,
                });
            }
        }
    }

    DominanceReport {
        edges,
        incomparable,
        inversions,
        f_regressions,
    }
}

/// Runs the dominance pass over a grid, most-severe-first: every
/// provable edge as an `order-edge` located at its cell pair, an
/// `order-vacuous` warning when nothing is provable, and
/// `order-violation` errors for bound inversions (at their cell pair)
/// and f-regressions (at their cell).
pub fn analyze_grid_dominance(grid: &SweepGrid) -> Vec<Finding> {
    let report = dominance_report(grid);
    let mut findings = Vec::new();
    for edge in &report.edges {
        let claim = if let Some((lb, gb)) = edge.bounds {
            format!("the worst-case width bound ({lb:.6} ≤ {gb:.6})")
        } else {
            edge.metrics.join(", ")
        };
        findings.push(ORDER_EDGE.finding(
            Location::CellPair {
                lesser: edge.lesser,
                greater: edge.greater,
            },
            format!(
                "`{}` axis: {} proves cell {} ⪯ cell {} on {claim}",
                edge.axis.name(),
                edge.rule.label(),
                edge.lesser,
                edge.greater,
            ),
        ));
    }
    if report.edges.is_empty() && !report.incomparable.is_empty() {
        findings.push(ORDER_VACUOUS.finding(
            Location::Grid {
                name: grid.base().name.clone(),
            },
            format!(
                "{} single-axis cell pair(s), none provably ordered: no armed axis \
                 (stealthy schedule comparison, certificate gap, or width-bound \
                 lattice) applies to this grid",
                report.incomparable.len()
            ),
        ));
    }
    for inversion in &report.inversions {
        findings.push(ORDER_VIOLATION.finding(
            Location::CellPair {
                lesser: inversion.lesser,
                greater: inversion.greater,
            },
            format!(
                "`{}` axis: {} claims cell {} ⪯ cell {}, but the derived width \
                 bounds invert ({:.6} > {:.6}) — analyzer inconsistency",
                inversion.axis.name(),
                inversion.rule.label(),
                inversion.lesser,
                inversion.greater,
                inversion.lesser_bound,
                inversion.greater_bound,
            ),
        ));
    }
    for regression in &report.f_regressions {
        findings.push(ORDER_VIOLATION.finding(
            Location::Cell {
                cell: regression.cell,
            },
            format!(
                "width bound fails f-monotonicity: lowering f from {} to {} raises \
                 the bound from {:.6} to {:.6} — analyzer inconsistency",
                regression.f,
                regression.f - 1,
                regression.bound,
                regression.lower_f_bound,
            ),
        ));
    }
    sort_findings(&mut findings);
    findings
}

/// The record-time veto: every recorded cell pair of a freshly-run
/// baseline that inverts a provable ordering — freezing it would make
/// `sweep_lint dominance` fail forever after.
pub(crate) fn veto(grid: &SweepGrid, baseline: &Baseline) -> Vec<Finding> {
    let location = Location::Grid {
        name: grid.base().name.clone(),
    };
    vet_baseline_dominance(grid, baseline, &location)
}

/// Vets a stored baseline against every provable dominance edge: for
/// each edge and each of its record-vetted columns present (non-null) in
/// both cells' records, the lesser cell's value must not exceed the
/// greater cell's beyond the same near-exact floor the diff harness
/// uses. Violations come back as `order-violation` errors at `location`
/// naming both cells, the column, the direction and the proving rule.
///
/// Bound-level edges (empty [`OrderEdge::metrics`]) are not checked
/// against records: their claim orders worst-case *bounds*, and per-seed
/// samples legitimately cross. Edges whose cells have no record are
/// skipped; the baseline pass flags a stored golden baseline whose rows
/// are not its grid's cells (`baseline-cells`), and recording refuses
/// one.
pub fn vet_baseline_dominance(
    grid: &SweepGrid,
    baseline: &Baseline,
    location: &Location,
) -> Vec<Finding> {
    let report = dominance_report(grid);
    // The same floor as `DiffConfig::near_exact()`: absorbs last-ulp
    // libm variation, fails any real inversion.
    let floor = Tolerance::new(1e-12, 1e-12);
    let record = |cell: usize| baseline.rows.iter().find(|row| row.cell == cell as u64);
    let mut findings = Vec::new();
    for edge in &report.edges {
        let (Some(lesser), Some(greater)) = (record(edge.lesser), record(edge.greater)) else {
            continue;
        };
        for &column in edge.metrics {
            let (Some(Some(lv)), Some(Some(gv))) = (lesser.metric(column), greater.metric(column))
            else {
                continue;
            };
            if lv > gv && !floor.allows(gv, lv) {
                findings.push(ORDER_VIOLATION.finding(
                    location.clone(),
                    format!(
                        "cells {l} ⪯ {g} `{column}`: stored {lv} at cell {l} exceeds \
                         stored {gv} at cell {g}, inverting the provable `{axis}`-axis \
                         ordering ({rule}: {why})",
                        l = edge.lesser,
                        g = edge.greater,
                        axis = edge.axis.name(),
                        rule = edge.rule.label(),
                        why = edge.rule.describe(),
                    ),
                ));
            }
        }
    }
    sort_findings(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use arsf_core::scenario::{AttackerSpec, StrategySpec, SuiteSpec};
    use arsf_core::DetectionMode;
    use arsf_schedule::SchedulePolicy;
    use arsf_sensor::FaultKind;

    fn attacked_base() -> Scenario {
        Scenario::new("dom", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(60)
    }

    fn edge_set(report: &DominanceReport) -> Vec<(usize, usize, OrderRule)> {
        report
            .edges
            .iter()
            .map(|e| (e.lesser, e.greater, e.rule))
            .collect()
    }

    #[test]
    fn schedule_chain_orders_ascending_random_descending() {
        // Schedules are the only multi-valued axis, so every edge is a
        // schedule edge: asc ⪯ random, random ⪯ desc, asc ⪯ desc, per
        // seed-axis value. Grid order: schedules slow, seeds fast.
        let grid = SweepGrid::new(attacked_base())
            .schedules([
                SchedulePolicy::Ascending,
                SchedulePolicy::Descending,
                SchedulePolicy::Random,
            ])
            .seeds([1, 2]);
        let report = dominance_report(&grid);
        let schedule_edges: Vec<_> = report
            .edges
            .iter()
            .filter(|e| e.rule == OrderRule::ScheduleOrdering)
            .map(|e| (e.lesser, e.greater))
            .collect();
        // Cells: 0,1 = asc × seeds; 2,3 = desc; 4,5 = random.
        let expected = [(0, 2), (1, 3), (0, 4), (1, 5), (4, 2), (5, 3)];
        assert_eq!(schedule_edges.len(), 6);
        for pair in expected {
            assert!(schedule_edges.contains(&pair), "missing edge {pair:?}");
        }
        for edge in &report.edges {
            if edge.rule == OrderRule::ScheduleOrdering {
                assert_eq!(edge.axis, Axis::Schedules);
                assert!(edge.metrics.contains(&"preemptions"));
                assert!(edge.metrics.contains(&"flagged_rounds"));
            }
        }
        assert!(report.inversions.is_empty());
        assert!(report.f_regressions.is_empty());
    }

    #[test]
    fn honest_attacker_disarms_the_schedule_rule() {
        let base = Scenario::new("honest", SuiteSpec::Landshark).with_rounds(60);
        let grid = SweepGrid::new(base)
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([1, 2]);
        let report = dominance_report(&grid);
        assert!(
            !report
                .edges
                .iter()
                .any(|e| e.rule == OrderRule::ScheduleOrdering),
            "an unarmed grid must not claim schedule ordering"
        );
    }

    #[test]
    fn certificates_order_marzullo_below_inverse_variance() {
        let grid = SweepGrid::new(attacked_base().with_detector(DetectionMode::Immediate))
            .fusers([FuserSpec::Marzullo, FuserSpec::InverseVariance]);
        let report = dominance_report(&grid);
        let edges = edge_set(&report);
        // Cell 0 = Marzullo (containment + stealth-invisible), cell 1 =
        // inverse-variance (neither certificate).
        assert!(edges.contains(&(0, 1, OrderRule::ContainmentCertificate)));
        assert!(edges.contains(&(0, 1, OrderRule::InvisibilityCertificate)));
    }

    #[test]
    fn history_defense_is_bound_level_only() {
        let grid = SweepGrid::new(attacked_base()).fusers([
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
            FuserSpec::Marzullo,
        ]);
        let report = dominance_report(&grid);
        let edge = report
            .edges
            .iter()
            .find(|e| e.rule == OrderRule::HistoryDefense)
            .expect("historical vs marzullo admits a history-defense edge");
        assert_eq!((edge.lesser, edge.greater), (0, 1));
        assert!(
            edge.metrics.is_empty(),
            "per-seed recorded widths may cross; only the bounds are ordered"
        );
        let (lb, gb) = edge.bounds.expect("both cells have static width bounds");
        assert!(lb <= gb + EPSILON);
        assert!(report.inversions.is_empty());
    }

    #[test]
    fn attacker_strength_orders_honest_below_stealthy() {
        let base = Scenario::new("str", SuiteSpec::Landshark).with_rounds(60);
        let grid = SweepGrid::new(base).attackers([
            AttackerSpec::None,
            AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            },
        ]);
        let report = dominance_report(&grid);
        let edge = report
            .edges
            .iter()
            .find(|e| e.rule == OrderRule::AttackerStrength)
            .expect("honest vs armed stealthy admits a strength edge");
        assert_eq!((edge.lesser, edge.greater), (0, 1));
        assert!(edge.metrics.is_empty());
        assert!(edge.bounds.is_some());
    }

    #[test]
    fn fault_inclusion_orders_subset_below_superset() {
        use arsf_sensor::FaultModel;
        // The superset adds a silent fault: the corruption budget stays
        // within f, so both cells keep a width bound to compare.
        let silent = FaultModel::new(FaultKind::Silent, 1.0);
        let bias = FaultModel::new(FaultKind::Bias { offset: 0.5 }, 1.0);
        let base = Scenario::new("faults", SuiteSpec::Landshark).with_rounds(60);
        let grid = SweepGrid::new(base).fault_sets([vec![(1, bias)], vec![(1, bias), (2, silent)]]);
        let report = dominance_report(&grid);
        let edge = report
            .edges
            .iter()
            .find(|e| e.rule == OrderRule::FaultInclusion)
            .expect("S ⊂ S' admits a fault-inclusion edge");
        assert_eq!((edge.lesser, edge.greater), (0, 1));
        assert_eq!(edge.axis, Axis::FaultSets);
    }

    #[test]
    fn symmetric_grid_is_vacuous() {
        // Honest attacker, both fusers containment-certified and
        // invisible, same schedule: every pair is incomparable.
        let base = Scenario::new("vac", SuiteSpec::Landshark).with_rounds(60);
        let grid = SweepGrid::new(base)
            .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
            .seeds([1, 2]);
        let report = dominance_report(&grid);
        assert!(report.edges.is_empty());
        assert!(!report.incomparable.is_empty());
        let findings = analyze_grid_dominance(&grid);
        assert!(findings.iter().any(|f| f.lint == "order-vacuous"));
        assert!(!findings.iter().any(|f| f.lint == "order-edge"));
    }

    #[test]
    fn analyze_grid_dominance_reports_edges_at_cell_pairs() {
        let grid = SweepGrid::new(attacked_base())
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending]);
        let findings = analyze_grid_dominance(&grid);
        let edge = findings
            .iter()
            .find(|f| f.lint == "order-edge")
            .expect("schedule pair yields an edge finding");
        assert_eq!(edge.severity, Severity::Info);
        assert_eq!(
            edge.location,
            Location::CellPair {
                lesser: 0,
                greater: 1
            }
        );
        assert!(edge.message.contains("schedule ordering"));
    }

    #[test]
    fn vet_accepts_a_fresh_run_and_catches_a_planted_inversion() {
        let grid = SweepGrid::new(attacked_base())
            .fusers([FuserSpec::Marzullo, FuserSpec::InverseVariance])
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending]);
        let mut baseline = Baseline::from_report(&grid, &grid.run_serial());
        let location = Location::Grid {
            name: "dom-test".to_string(),
        };
        assert_eq!(vet_baseline_dominance(&grid, &baseline, &location), vec![]);

        // Plant an inversion on a containment edge: the certified
        // Marzullo cell 0 suddenly stores truth losses. Stays inside any
        // per-cell tolerance; only the cross-cell ordering can see it.
        let row = &mut baseline.rows[0];
        let slot = row
            .metrics
            .iter_mut()
            .find(|(name, _)| name == "truth_lost")
            .expect("open-loop records carry truth_lost");
        slot.1 = Some(7.0);
        let findings = vet_baseline_dominance(&grid, &baseline, &location);
        assert!(!findings.is_empty(), "planted inversion must be caught");
        for finding in &findings {
            assert_eq!(finding.lint, "order-violation");
            assert_eq!(finding.severity, Severity::Error);
        }
        // The corrupted cell sits below both a containment neighbour
        // (cell 1, fuser axis) and a schedule neighbour (cell 2); both
        // orderings report, naming cells, column, direction and rule.
        let all = findings
            .iter()
            .map(|f| f.message.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        for needle in [
            "cells 0 ⪯ 1",
            "cells 0 ⪯ 2",
            "`truth_lost`",
            "containment certificate",
            "schedule ordering",
        ] {
            assert!(all.contains(needle), "missing {needle:?} in:\n{all}");
        }
    }

    #[test]
    fn width_bound_is_monotone_in_f_on_the_landshark_suite() {
        // Direct check of the theorem the per-cell self-check relies on.
        let base = Scenario::new("mono", SuiteSpec::Landshark).with_rounds(10);
        let bound = |f: usize| guarantee_report(&base.clone().with_f(f)).width_bound;
        let mut previous = None;
        for f in 0..2 {
            if let (Some(prev), Some(cur)) = (previous, bound(f)) {
                assert!(prev <= cur + EPSILON, "bound shrank when f rose to {f}");
            }
            previous = bound(f);
        }
        let report = dominance_report(&SweepGrid::new(attacked_base()));
        assert!(report.f_regressions.is_empty());
    }
}
