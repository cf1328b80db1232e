//! Static guarantee derivation: per-cell worst-case fusion bounds from
//! the declaration alone (paper Sections II-A and III-B), with no
//! simulation.
//!
//! [`guarantee_report`] abstractly evaluates one [`Scenario`]: from the
//! declared sensor widths, the fault assumption `f`, and the worst-case
//! corruption/silence budgets of the fault set and attacker, it derives
//! the Marzullo bound regime, a worst-case fused-width bound (Theorem 2,
//! extended to every [`FuserSpec`] the engines run, the historical
//! dynamics-bound fuser, and per-vehicle platoon suites), and whether
//! truth-containment is *provable* under the declared budgets.
//!
//! [`analyze_grid_guarantees`] derives the report once per cell and
//! surfaces it as three rules (a dedicated pass, not one of the
//! structural checks [`analyze_grid`](crate::analyze_grid) runs):
//!
//! * `guarantee-unbounded` (error) — the declared budget lands in the
//!   no-bound regime: whatever the sweep records is unfalsifiable;
//! * `guarantee-vacuous` (warn) — a bound exists but exceeds the widest
//!   single sensor, i.e. the guarantee is weaker than trusting the least
//!   precise sensor alone;
//! * `guarantee-width` (info) — the derived bound itself.
//!
//! [`vet_baseline_guarantees`] turns the report into a soundness oracle
//! over stored [`Baseline`]s: every `CellRecord`'s width and truth-loss
//! columns must respect the cell's statically derived bound, and a
//! drifted-but-within-tolerance cell that violates a theorem is flagged
//! as a `guarantee-violation` error.

use arsf_core::scenario::{FuserSpec, Scenario};
use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::SweepGrid;
use arsf_fusion::bounds::{
    historical_width_bound, regime, static_theorem2_bound, static_width_bound, BoundRegime,
};

use crate::model::Model;
use crate::rules::{GUARANTEE_UNBOUNDED, GUARANTEE_VACUOUS, GUARANTEE_VIOLATION, GUARANTEE_WIDTH};
use crate::{sort_findings, Finding, Location};

/// Absolute slack when comparing a recorded metric against a derived
/// bound: the bounds are exact sums of declared widths, the metrics are
/// round-tripped `f64`s, so anything beyond rounding noise is a genuine
/// violation.
const EPSILON: f64 = 1e-9;

/// The statically derived guarantees of one scenario cell.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct GuaranteeReport {
    /// Declared suite size `n`.
    pub n: usize,
    /// The fusion fault assumption `f`.
    pub f: usize,
    /// Worst-case transmitting sensors whose intervals may exclude the
    /// truth in one round, capped at `n`.
    pub corrupt: usize,
    /// Worst-case silenced sensors, capped at `n`.
    pub silent: usize,
    /// The Marzullo regime of the declared budget, taken worst-case over
    /// silent configurations (a budget exceeding `f` reads as
    /// [`BoundRegime::Unbounded`]).
    pub regime: BoundRegime,
    /// Worst-case fused width, when provable; `None` is the no-bound
    /// verdict.
    pub width_bound: Option<f64>,
    /// The widest single declared width — the "trust one sensor" span a
    /// useful bound should not exceed.
    pub span: f64,
    /// Whether the fused interval provably contains the truth every
    /// round under the declared budgets.
    pub truth_containment: bool,
    /// Fused outputs per round the bound applies to (platoon size
    /// closed-loop, else 1); every vehicle carries the same suite, so
    /// the scalar bound replicates.
    pub vehicles: usize,
}

impl GuaranteeReport {
    /// `true` when the bound exists but exceeds the widest single
    /// declared width: the fused output may be worse than trusting the
    /// least precise sensor alone.
    pub fn vacuous(&self) -> bool {
        self.width_bound
            .is_some_and(|bound| bound > self.span + EPSILON)
    }
}

/// The regime label used in finding messages.
fn regime_label(regime: BoundRegime) -> &'static str {
    match regime {
        BoundRegime::CorrectWidthBounded => "f < ⌈n/3⌉ (correct-width bounded)",
        BoundRegime::SomeWidthBounded => "f < ⌈n/2⌉ (some-width bounded)",
        BoundRegime::Unbounded => "f ≥ ⌈n/2⌉ or budget > f (unbounded)",
    }
}

/// Worst case over silent configurations: with `silent` sensors able to
/// drop out, every count `k ∈ 0..=silent` of absentees is reachable, and
/// the analysis must hold for all of them. `bound_at(present)` returns
/// the single-configuration bound; the worst case is `None` if any
/// configuration is unbounded, else the maximum. Configurations with
/// nothing transmitting produce no fused interval and are skipped.
fn worst_over_silent(model: &Model, bound_at: impl Fn(usize) -> Option<f64>) -> Option<f64> {
    let n = model.widths.len();
    let mut worst: Option<f64> = None;
    for k in 0..=model.silent.min(n.saturating_sub(1)) {
        let bound = bound_at(n - k)?;
        worst = Some(worst.map_or(bound, |w: f64| w.max(bound)));
    }
    worst
}

/// The worst regime (in guarantee strength) across silent
/// configurations, folding a corruption budget above `f` into
/// [`BoundRegime::Unbounded`].
fn budget_regime(model: &Model) -> BoundRegime {
    let n = model.widths.len();
    let rank = |r: BoundRegime| match r {
        BoundRegime::CorrectWidthBounded => 0,
        BoundRegime::SomeWidthBounded => 1,
        BoundRegime::Unbounded => 2,
    };
    let mut worst = BoundRegime::CorrectWidthBounded;
    for k in 0..=model.silent.min(n.saturating_sub(1)) {
        let present = n - k;
        let f = model.f.min(present - 1);
        let r = if model.corrupt.min(present) > f {
            BoundRegime::Unbounded
        } else {
            regime(present, f)
        };
        if rank(r) > rank(worst) {
            worst = r;
        }
    }
    worst
}

/// Marzullo-family truth containment: every silent configuration must
/// keep the corruption budget within the (clamped) fault assumption.
fn marzullo_containment(model: &Model) -> bool {
    let n = model.widths.len();
    if n == 0 {
        return false;
    }
    (0..=model.silent.min(n - 1)).all(|k| {
        let present = n - k;
        model.corrupt.min(present) <= model.f.min(present - 1)
    })
}

/// Whether the historical fuser's propagated history provably keeps
/// tracking the truth: the per-round drift must be statically known and
/// within the dynamics bound. A silenced round leaves the history
/// unpropagated while a ramping truth keeps moving, so silence voids the
/// proof unless the truth is constant; closed-loop truth (the vehicle's
/// actual speed) has no static drift bound at all.
fn history_tracks_truth(model: &Model, max_rate: f64, dt: f64) -> bool {
    if !max_rate.is_finite() || max_rate < 0.0 || !dt.is_finite() {
        return false;
    }
    match model.truth_rate {
        None => false,
        Some(rate) => rate == 0.0 || (model.silent == 0 && rate <= max_rate * dt.abs() + EPSILON),
    }
}

/// Statically derives the [`GuaranteeReport`] of one scenario.
///
/// # Example
///
/// ```
/// use arsf_analyze::guarantee_report;
/// use arsf_core::scenario::{AttackerSpec, Scenario, StrategySpec, SuiteSpec};
///
/// // The landshark suite (widths 0.2|0.2|1|2) under f = 1 with one
/// // compromised sensor: f < ⌈4/3⌉, so the fused interval is provably
/// // no wider than the widest declared sensor — 2.0 mph — and contains
/// // the truth, before a single round is simulated.
/// let scenario = Scenario::new("doc", SuiteSpec::Landshark).with_attacker(
///     AttackerSpec::Fixed { sensors: vec![0], strategy: StrategySpec::PhantomOptimal },
/// );
/// let report = guarantee_report(&scenario);
/// assert_eq!(report.width_bound, Some(2.0));
/// assert!(report.truth_containment);
/// assert!(!report.vacuous());
/// ```
pub fn guarantee_report(scenario: &Scenario) -> GuaranteeReport {
    let model = Model::of(scenario);
    let n = model.widths.len();
    let span = model.widths.iter().copied().fold(0.0_f64, f64::max);
    let mut ascending = model.widths.clone();
    ascending.sort_by(|a, b| a.total_cmp(b));
    // The budget every fuser below reasons about: in the worst case all
    // `silent` sensors are absent *and* all `corrupt` budgets land on
    // transmitting sensors.
    let reach = model.silent + model.corrupt;

    let (width_bound, truth_containment) = match &scenario.fuser {
        FuserSpec::Marzullo | FuserSpec::BrooksIyengar => (
            // Brooks–Iyengar's output interval coincides with Marzullo's,
            // so one analysis covers both.
            worst_over_silent(&model, |present| {
                static_width_bound(&model.widths, present, model.f, model.corrupt)
            }),
            marzullo_containment(&model),
        ),
        FuserSpec::Historical { max_rate, dt } => (
            // History only ever refines the memoryless interval (conflict
            // falls back to it), so the memoryless bound carries over.
            worst_over_silent(&model, |present| {
                historical_width_bound(
                    &model.widths,
                    present,
                    model.f,
                    model.corrupt,
                    *max_rate,
                    *dt,
                )
            }),
            marzullo_containment(&model) && history_tracks_truth(&model, *max_rate, *dt),
        ),
        // The common intersection is a subset of every transmitting
        // interval, in particular of some honest one; with `reach`
        // sensors possibly absent-or-corrupt, the narrowest certainly
        // honest transmitting width is the `reach`-th ascending one. A
        // corrupt interval can pull the intersection off the truth (or
        // empty it — a fusion failure, which records no width).
        FuserSpec::Intersection => (
            (reach < n).then(|| ascending[reach]),
            model.corrupt == 0 && n > 0,
        ),
        // The hull contains every transmitting interval: a single
        // corrupt sensor stretches it arbitrarily (width-preserving
        // forgery still moves the interval), so a bound only exists for
        // honest suites — the hull of truth-containing intervals, which
        // Theorem 2's two-widest sum covers. Containment needs one
        // honest transmitting sensor.
        FuserSpec::Hull => (
            (model.corrupt == 0)
                .then(|| static_theorem2_bound(&model.widths))
                .flatten(),
            reach < n,
        ),
        // Inverse-variance fusion's radius is `sqrt(1/Σ 1/σᵢ²)`, never
        // above the smallest transmitting σ; the narrowest certainly
        // honest width bounds it as for intersection. The weighted mean
        // chases corrupt readings, so truth containment is never
        // provable (it is a probabilistic baseline, not a resilient
        // fuser).
        FuserSpec::InverseVariance => ((reach < n).then(|| ascending[reach]), false),
        // The median of transmitted half-widths is bounded by the widest
        // declared width as long as corrupt readings cannot claim the
        // median position in the worst (most silenced) configuration.
        FuserSpec::MidpointMedian => {
            let present = n - model.silent.min(n);
            (
                (present > 0 && model.corrupt < present.div_ceil(2)).then_some(span),
                false,
            )
        }
        // `FuserSpec` is non-exhaustive: a fuser this analysis does not
        // know gets no guarantees, which is the sound default.
        _ => (None, false),
    };

    GuaranteeReport {
        n,
        f: model.f,
        corrupt: model.corrupt,
        silent: model.silent,
        regime: budget_regime(&model),
        width_bound,
        span,
        truth_containment,
        vehicles: model.vehicles,
    }
}

/// Runs the guarantee pass over every cell of a grid, most-severe-first:
/// per cell, `guarantee-unbounded` for a no-bound verdict,
/// `guarantee-vacuous` for a bound wider than the suite's span, and
/// `guarantee-width` reporting the bound, each at its
/// [`Location::Cell`].
///
/// Every guarantee finding belongs to the pass, not to the structural
/// checks: several legitimate registry presets intentionally explore
/// vacuous or attacked regimes. This derives a bound (or a no-bound
/// verdict) for every cell without running a single simulation round.
pub fn analyze_grid_guarantees(grid: &SweepGrid) -> Vec<Finding> {
    let mut findings = Vec::new();
    for cell in grid.cells() {
        let scenario = &cell.scenario;
        let at = || Location::Cell { cell: cell.index };
        let report = guarantee_report(scenario);
        let fuser = scenario.fuser.name();
        let Some(bound) = report.width_bound else {
            findings.push(GUARANTEE_UNBOUNDED.finding(
                at(),
                format!(
                    "fuser `{fuser}`: budget {} corrupt + {} silent of n = {} under f = {} \
                     lands in the no-bound regime ({}); no static width bound exists",
                    report.corrupt,
                    report.silent,
                    report.n,
                    report.f,
                    regime_label(report.regime),
                ),
            ));
            continue;
        };
        if report.vacuous() {
            findings.push(GUARANTEE_VACUOUS.finding(
                at(),
                format!(
                    "fuser `{fuser}`: static width bound {bound} exceeds the suite's span {} \
                     (widest declared sensor); the fused output may be worse than trusting \
                     the least precise sensor alone",
                    report.span,
                ),
            ));
        }
        let containment = if report.truth_containment {
            "truth containment provable"
        } else {
            "truth containment not provable"
        };
        let vehicles = if report.vehicles > 1 {
            format!(", per vehicle × {}", report.vehicles)
        } else {
            String::new()
        };
        findings.push(GUARANTEE_WIDTH.finding(
            at(),
            format!(
                "fuser `{fuser}`: regime {} with n = {}, f = {}, budget {} corrupt + {} silent: \
                 worst-case fused width ≤ {bound}, {containment}{vehicles}",
                regime_label(report.regime),
                report.n,
                report.f,
                report.corrupt,
                report.silent,
            ),
        ));
    }
    sort_findings(&mut findings);
    findings
}

/// The record-time veto: every cell with no static width bound, whose
/// recorded numbers would be unfalsifiable against the paper's
/// guarantees.
pub(crate) fn veto(grid: &SweepGrid, _baseline: &Baseline) -> Vec<Finding> {
    let mut findings = analyze_grid_guarantees(grid);
    findings.retain(|f| f.lint == GUARANTEE_UNBOUNDED.id);
    findings
}

/// Vets every stored [`CellRecord`](arsf_core::sweep::store::CellRecord)
/// of `baseline` against the statically derived guarantees of the
/// corresponding `grid` cell — a soundness oracle for golden baselines.
///
/// For every cell with a provable width bound, the recorded `max_width`,
/// `mean_width` and per-vehicle width columns must not exceed it; for
/// every cell with provable truth containment, the recorded `truth_lost`,
/// `truth_loss_rate` and per-vehicle truth-loss columns must be zero.
/// Violations are `guarantee-violation` errors carrying the cell index,
/// column, bound and observed value, located at `location` (the baseline
/// file, typically).
///
/// Records whose cell index falls outside the grid are skipped; the
/// baseline pass flags a stored golden baseline whose rows are not its
/// grid's cells (`baseline-cells`), and recording refuses one.
pub fn vet_baseline_guarantees(
    grid: &SweepGrid,
    baseline: &Baseline,
    location: &Location,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for record in &baseline.rows {
        let cell = record.cell as usize;
        if cell >= grid.len() {
            continue;
        }
        let report = guarantee_report(&grid.scenario(cell));

        let mut violation = |column: &str, message: String| {
            findings.push(GUARANTEE_VIOLATION.finding(
                location.clone(),
                format!("cell {cell} `{column}`: {message}"),
            ));
        };

        if let Some(bound) = report.width_bound {
            let mut width_columns = vec!["max_width".to_string(), "mean_width".to_string()];
            for vehicle in 0..report.vehicles {
                width_columns.push(format!("vehicle_max_widths[{vehicle}]"));
                width_columns.push(format!("vehicle_mean_widths[{vehicle}]"));
            }
            for column in &width_columns {
                if let Some(Some(observed)) = record.metric(column) {
                    if observed > bound + EPSILON {
                        violation(
                            column,
                            format!(
                                "observed {observed} exceeds the static Theorem-2 width \
                                 bound {bound}"
                            ),
                        );
                    }
                }
            }
        }

        if report.truth_containment {
            let mut loss_columns = vec!["truth_lost".to_string(), "truth_loss_rate".to_string()];
            for vehicle in 0..report.vehicles {
                loss_columns.push(format!("vehicle_truth_lost[{vehicle}]"));
            }
            for column in &loss_columns {
                if let Some(Some(observed)) = record.metric(column) {
                    if observed > 0.0 {
                        violation(
                            column,
                            format!(
                                "observed {observed}, but truth containment is statically \
                                 provable under the declared budgets (expected 0)"
                            ),
                        );
                    }
                }
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
    use arsf_core::scenario::{AttackerSpec, ClosedLoopSpec, StrategySpec, SuiteSpec, TruthSpec};
    use arsf_sensor::{FaultKind, FaultModel};

    fn attacked(scenario: Scenario, sensors: Vec<usize>) -> Scenario {
        scenario.with_attacker(AttackerSpec::Fixed {
            sensors,
            strategy: StrategySpec::PhantomOptimal,
        })
    }

    #[test]
    fn honest_landshark_is_tightly_bounded() {
        let report = guarantee_report(&Scenario::new("g", SuiteSpec::Landshark));
        assert_eq!(report.regime, BoundRegime::CorrectWidthBounded);
        assert_eq!(report.width_bound, Some(2.0));
        assert!(report.truth_containment);
        assert!(!report.vacuous());
        assert!(report.width_bound.is_some());
    }

    #[test]
    fn attacked_three_sensor_suite_is_vacuous() {
        // Table I's n = 3 suite: f = 1 = ⌈3/3⌉, one attacked sensor →
        // the some-width regime, bound = 11 + 17 = 28 > span 17.
        let scenario = attacked(
            Scenario::new("g", SuiteSpec::Widths(vec![5.0, 11.0, 17.0])),
            vec![0],
        );
        let report = guarantee_report(&scenario);
        assert_eq!(report.regime, BoundRegime::SomeWidthBounded);
        assert_eq!(report.width_bound, Some(28.0));
        assert!(report.vacuous());
        assert!(report.truth_containment);
        let findings = analyze_grid_guarantees(&SweepGrid::new(scenario.clone()));
        assert!(findings.iter().any(|f| f.lint == "guarantee-vacuous"));
    }

    #[test]
    fn over_budget_attack_is_unbounded() {
        let scenario = attacked(Scenario::new("g", SuiteSpec::Landshark), vec![0, 2]);
        let report = guarantee_report(&scenario);
        assert!(report.width_bound.is_none());
        assert!(!report.truth_containment);
        let findings = analyze_grid_guarantees(&SweepGrid::new(scenario.clone()));
        let unbounded = findings
            .iter()
            .find(|f| f.lint == "guarantee-unbounded")
            .expect("the no-bound verdict is flagged");
        assert_eq!(unbounded.severity, Severity::Error);
        assert!(!findings.iter().any(|f| f.lint == "guarantee-width"));
    }

    #[test]
    fn silence_degrades_the_regime() {
        // One silenced + one attacked landshark sensor: the k = 1
        // configuration has n = 3, f = 1 → some-width regime, so the
        // worst-case bound is the two-widest sum.
        let scenario = attacked(Scenario::new("g", SuiteSpec::Landshark), vec![0])
            .with_fault(1, FaultModel::new(FaultKind::Silent, 0.5));
        let report = guarantee_report(&scenario);
        assert_eq!(report.regime, BoundRegime::SomeWidthBounded);
        assert_eq!(report.width_bound, Some(3.0));
        assert!(report.truth_containment);
        assert!(report.vacuous());
    }

    #[test]
    fn intersection_and_inverse_variance_bound_by_ascending_reach() {
        for fuser in [FuserSpec::Intersection, FuserSpec::InverseVariance] {
            let scenario = attacked(Scenario::new("g", SuiteSpec::Landshark), vec![3])
                .with_fuser(fuser.clone());
            let report = guarantee_report(&scenario);
            // One of {0.2, 0.2, 1, 2} may be corrupt: the narrowest
            // certainly-honest width is the second ascending one.
            assert_eq!(report.width_bound, Some(0.2));
            assert!(!report.truth_containment, "{fuser:?}");
        }
        let honest = Scenario::new("g", SuiteSpec::Landshark).with_fuser(FuserSpec::Intersection);
        assert!(guarantee_report(&honest).truth_containment);
    }

    #[test]
    fn hull_is_bounded_only_when_honest() {
        let honest = Scenario::new("g", SuiteSpec::Landshark).with_fuser(FuserSpec::Hull);
        let report = guarantee_report(&honest);
        assert_eq!(report.width_bound, Some(3.0));
        assert!(report.truth_containment);
        let attacked = attacked(honest, vec![0]);
        let report = guarantee_report(&attacked);
        assert!(report.width_bound.is_none());
        assert!(report.truth_containment); // 3 honest sensors remain
    }

    #[test]
    fn midpoint_median_needs_an_honest_majority() {
        let ok = attacked(Scenario::new("g", SuiteSpec::Landshark), vec![0])
            .with_fuser(FuserSpec::MidpointMedian);
        assert_eq!(guarantee_report(&ok).width_bound, Some(2.0));
        let outvoted = attacked(Scenario::new("g", SuiteSpec::Landshark), vec![0, 1])
            .with_fuser(FuserSpec::MidpointMedian);
        assert!(guarantee_report(&outvoted).width_bound.is_none());
    }

    #[test]
    fn historical_containment_needs_a_compatible_drift() {
        let base = attacked(Scenario::new("g", SuiteSpec::Landshark), vec![0]).with_fuser(
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
        );
        let report = guarantee_report(&base);
        assert_eq!(report.width_bound, Some(2.0));
        assert!(report.truth_containment); // constant truth

        let slow_ramp = base.clone().with_truth(TruthSpec::Ramp {
            start: 10.0,
            rate_per_round: 0.3, // ≤ max_rate · dt = 0.35
        });
        assert!(guarantee_report(&slow_ramp).truth_containment);

        let fast_ramp = base.clone().with_truth(TruthSpec::Ramp {
            start: 10.0,
            rate_per_round: 0.5,
        });
        let report = guarantee_report(&fast_ramp);
        assert!(!report.truth_containment);
        assert_eq!(report.width_bound, Some(2.0)); // width still bounded

        let closed = base.with_closed_loop(ClosedLoopSpec::new(10.0));
        assert!(!guarantee_report(&closed).truth_containment);
    }

    #[test]
    fn platoon_cells_replicate_the_bound_per_vehicle() {
        let scenario = Scenario::new("g", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(3, 0.05));
        let report = guarantee_report(&scenario);
        assert_eq!(report.vehicles, 3);
        assert_eq!(report.width_bound, Some(2.0));
        assert!(report.truth_containment);
    }

    #[test]
    fn grid_pass_relocates_findings_to_cells() {
        let grid = SweepGrid::new(attacked(Scenario::new("g", SuiteSpec::Landshark), vec![0]))
            .fusers(vec![FuserSpec::Marzullo, FuserSpec::Hull]);
        let findings = analyze_grid_guarantees(&grid);
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .all(|f| matches!(f.location, Location::Cell { .. })));
        // The hull cell is unbounded (error first), the Marzullo cell
        // reports its bound.
        assert_eq!(findings[0].lint, "guarantee-unbounded");
        assert_eq!(findings[1].lint, "guarantee-width");
    }
}
