//! Static detectability derivation: per-cell detection verdicts from the
//! declaration alone (paper Section III-A and Footnote 1), with no
//! simulation — the detection-side twin of the guarantee layer
//! ([`guarantee_report`](crate::guarantee_report)).
//!
//! [`detect_report`] abstractly evaluates one [`Scenario`]: from which
//! sensors its faults and attacker can corrupt and forge, the fuser's
//! geometry and the detector's [`DetectionMode`], it classifies the
//! cell into a [`DetectVerdict`]:
//!
//! * [`DetectVerdict::ProvablyInvisible`] — the overlap check provably
//!   never fires: detection is off, the fuser's output intersects every
//!   transmitted interval by construction (hull, intersection), the
//!   suite is honest, or every forgery is stealth-clamped within budget
//!   (Section III-A: the forged interval always touches a point of
//!   maximal coverage inside the Marzullo interval);
//! * [`DetectVerdict::ProvablyFlagged`] — some sensor's corruption is so
//!   large it must land disjoint from the fused interval every fused
//!   round (a probability-1 fault whose offset exceeds the cell's static
//!   width bound plus the sensor's half-width), so it is flagged every
//!   fused round and condemned within a derivable number of rounds;
//! * [`DetectVerdict::Contingent`] — whether the check fires depends on
//!   magnitudes or runtime state; no static claim either way.
//!
//! The report also carries a **false-alarm-freedom** certificate: when
//! the fused interval provably contains the truth (or provably
//! intersects everything), an honest sensor's interval — which contains
//! the truth — can never be disjoint from it, so only the corrupted
//! sensors ([`DetectReport::suspects`]) can ever be flagged or
//! condemned.
//!
//! [`analyze_grid_detectability`] derives the report once per cell and
//! surfaces it as three rules (a dedicated pass like the guarantee
//! pass): `detect-verdict` (info, one per cell), `detect-invisible`
//! (warn: the detector is on but geometrically can never fire), and
//! `detect-coverage` (info, grid-level attack × detector matrix).
//! [`vet_baseline_detectability`] raises `detect-violation` (error) when
//! a stored `flagged_rounds` or condemnation set contradicts its cell's
//! verdict, and `detect-vacuous` is raised only by the record-time veto,
//! for a grid whose every corruptible cell is provably invisible.

use arsf_core::scenario::{FuserSpec, Scenario};
use arsf_core::sweep::row::decode_condemned;
use arsf_core::sweep::store::{detector_label, Baseline};
use arsf_core::sweep::SweepGrid;
use arsf_core::DetectionMode;
use arsf_sensor::FaultKind;

use crate::guarantees::{guarantee_report_of, GuaranteeReport};
use crate::model::Model;
use crate::rules::{
    DETECT_COVERAGE, DETECT_INVISIBLE, DETECT_VACUOUS, DETECT_VERDICT, DETECT_VIOLATION,
};
use crate::{sort_findings, Finding, Location};

/// Absolute slack when comparing recorded round counts against derived
/// bounds: the counts are exact integers round-tripped through `f64`, so
/// anything beyond rounding noise is a genuine violation.
const EPSILON: f64 = 1e-9;

/// Why a cell is provably invisible to its detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvisibleReason {
    /// Detection is disabled: nothing is ever flagged.
    DetectorOff,
    /// The fuser's output provably intersects every transmitted interval
    /// (hull contains them all; a non-empty intersection is inside them
    /// all), so the overlap check is vacuous for *any* attacker.
    FuserGeometry,
    /// No sensor can transmit a corrupted interval, and honest intervals
    /// provably overlap the fusion interval (false-alarm freedom).
    HonestSuite,
    /// Every forgery is stealth-clamped (Section III-A): with at most
    /// one attacked sensor per round inside the fault budget, the forged
    /// interval always touches a point of maximal coverage, which lies
    /// inside the Marzullo/Brooks–Iyengar interval.
    StealthClamp,
}

impl InvisibleReason {
    /// The phrase finding messages use.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            InvisibleReason::DetectorOff => "detection is off, nothing is ever flagged",
            InvisibleReason::FuserGeometry => {
                "the fused interval intersects every transmitted interval by construction, \
                 so the overlap check is vacuous"
            }
            InvisibleReason::HonestSuite => {
                "no sensor can transmit a corrupted interval, and honest intervals provably \
                 overlap the fusion interval"
            }
            InvisibleReason::StealthClamp => {
                "the Section III-A stealth clamp keeps every forged interval in contact with \
                 the fusion interval"
            }
        }
    }
}

/// The static detection verdict of one attacker × fault set × detector
/// cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectVerdict {
    /// The overlap check provably never fires: the recorded
    /// `flagged_rounds` must be 0 and the condemned set empty.
    ProvablyInvisible {
        /// Why the check can never fire.
        reason: InvisibleReason,
    },
    /// Some sensor provably violates the overlap check every fused
    /// round: `flagged_rounds` must equal the fused-round count.
    ProvablyFlagged {
        /// Violating *fused* rounds until the detector's verdict is
        /// final: the condemnation latency when the detector can
        /// condemn (1 for the immediate rule, `tolerance + 1` for a
        /// windowed detector), else 1 (the first flag).
        within: usize,
    },
    /// No static claim: detection depends on magnitudes and runtime
    /// state.
    Contingent,
}

impl DetectVerdict {
    /// The short label finding messages use.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            DetectVerdict::ProvablyInvisible { .. } => "provably invisible",
            DetectVerdict::ProvablyFlagged { .. } => "provably flagged",
            DetectVerdict::Contingent => "contingent",
        }
    }
}

/// The statically derived detectability of one scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectReport {
    /// The cell's verdict.
    pub verdict: DetectVerdict,
    /// The cell's detector, whose flag, condemn and latency facts the
    /// verdict uses.
    pub detector: DetectionMode,
    /// Whether honest sensors are provably never flagged: the fused
    /// interval provably contains the truth (so it intersects every
    /// truth-containing interval), or provably intersects everything.
    pub false_alarm_free: bool,
    /// Sensors that provably violate the overlap check every fused round
    /// (the witnesses behind [`DetectVerdict::ProvablyFlagged`]).
    pub certain: Vec<usize>,
    /// When false-alarm freedom holds, the closed set of sensors that
    /// can ever be flagged or condemned: the attacked set union the
    /// corrupting-faulted sensors (every sensor, for the
    /// random-each-round attacker). `None` when honest sensors cannot be
    /// statically exonerated.
    pub suspects: Option<Vec<usize>>,
    /// The cell's guarantee report, from which false-alarm freedom and
    /// the certain violators are derived.
    pub guarantees: GuaranteeReport,
}

/// Whether the fuser's output provably intersects every transmitted
/// interval, making the overlap check vacuous: the hull contains every
/// input, and a successful intersection is non-empty inside every input.
/// Detection only runs on successfully fused rounds, so the failed
/// intersection case never reaches the check.
fn fuser_geometry_vacuous(fuser: &FuserSpec) -> bool {
    matches!(fuser, FuserSpec::Hull | FuserSpec::Intersection)
}

/// The truth's range over the run, when statically known: the trajectory
/// is linear, so the endpoints bound it. `None` closed-loop (the truth
/// is the vehicle's actual speed) or for an empty run.
fn truth_range(scenario: &Scenario) -> Option<(f64, f64)> {
    if scenario.closed_loop.is_some() || scenario.rounds == 0 {
        return None;
    }
    let start = scenario.truth.at(0);
    let end = scenario.truth.at(scenario.rounds - 1);
    Some((start.min(end), start.max(end)))
}

/// The minimum distance from a fault's transmitted center to the truth,
/// over the whole run — the certainty margin of the fault's corruption.
/// `None` when the fault kind places no static claim.
fn fault_margin(kind: FaultKind, truth: (f64, f64)) -> Option<f64> {
    let (lo, hi) = truth;
    // Distance from a point to the truth range.
    let dist = |point: f64| {
        if point < lo {
            lo - point
        } else if point > hi {
            point - hi
        } else {
            0.0
        }
    };
    match kind {
        FaultKind::Bias { offset } => Some(offset.abs()),
        FaultKind::StuckAt { value } => Some(dist(value)),
        // The scaled center `truth · factor` sits `|truth| · |factor−1|`
        // from the truth; minimise over the run's truth range.
        FaultKind::Scale { factor } => Some(dist(0.0) * (factor - 1.0).abs()),
        FaultKind::Silent => None,
    }
}

/// Sensors that provably violate the overlap check every fused round:
/// the fault must fire every round (probability 1), place the interval's
/// center further from the truth than the static width bound plus the
/// sensor's half-width (the fused interval provably contains the truth
/// and is no wider than the bound, so disjointness is forced), and
/// nothing may override the transmission (the sensor is not attacked,
/// carries exactly one fault, and the run is open-loop with a known
/// truth range).
fn certain_violators(
    scenario: &Scenario,
    model: &Model,
    guarantees: &GuaranteeReport,
) -> Vec<usize> {
    if fuser_geometry_vacuous(&scenario.fuser) {
        return Vec::new(); // the check can never fire at all
    }
    let (Some(bound), true) = (guarantees.width_bound, guarantees.truth_containment) else {
        return Vec::new(); // no static frame to prove disjointness in
    };
    let Some(truth) = truth_range(scenario) else {
        return Vec::new();
    };
    // Random-each-round can attack anyone: no per-sensor claim survives.
    if model.random {
        return Vec::new();
    }
    let n = model.widths.len();
    let mut out = Vec::new();
    // An attacked sensor's transmission is forged by the strategy, not
    // the fault.
    for &sensor in model.corrupting.range(..n) {
        if model.attacked.contains(&sensor) {
            continue;
        }
        // A sensor with several fault entries has ambiguous composition
        // semantics; make no claim about it.
        let mut entries = scenario.faults.iter().filter(|(s, _)| *s == sensor);
        let (Some((_, fault)), None) = (entries.next(), entries.next()) else {
            continue;
        };
        if fault.probability() < 1.0 {
            continue;
        }
        let Some(margin) = fault_margin(fault.kind(), truth) else {
            continue;
        };
        if margin > bound + model.widths[sensor] / 2.0 + EPSILON {
            out.push(sensor);
        }
    }
    out
}

/// Whether every possible corruption is provably stealthy under this
/// fuser: Marzullo-family fusion, all corruption coming from a
/// stealth-clamped attacker touching at most one sensor per round, and
/// the corruption budget within `f` in every silent configuration (so
/// the clamp's maximal-coverage touch point provably lies inside the
/// fused interval).
fn stealth_invisible(scenario: &Scenario, model: &Model, guarantees: &GuaranteeReport) -> bool {
    let n = model.widths.len();
    let marzullo = matches!(
        scenario.fuser,
        FuserSpec::Marzullo | FuserSpec::BrooksIyengar
    );
    marzullo
        && model.corrupting.range(..n).next().is_none()
        && model.forged_per_round() <= 1
        && guarantees.truth_containment
}

/// Statically derives the [`DetectReport`] of one scenario.
///
/// # Example
///
/// ```
/// use arsf_analyze::{detect_report, DetectVerdict, InvisibleReason};
/// use arsf_core::scenario::{AttackerSpec, Scenario, StrategySpec, SuiteSpec};
///
/// // The paper's stealthy phantom attacker against Marzullo fusion with
/// // immediate detection: provably never flagged, before a single round
/// // is simulated.
/// let scenario = Scenario::new("doc", SuiteSpec::Landshark).with_attacker(
///     AttackerSpec::Fixed { sensors: vec![0], strategy: StrategySpec::PhantomOptimal },
/// );
/// let report = detect_report(&scenario);
/// assert_eq!(
///     report.verdict,
///     DetectVerdict::ProvablyInvisible { reason: InvisibleReason::StealthClamp },
/// );
/// assert!(report.false_alarm_free);
/// assert_eq!(report.suspects, Some(vec![0]));
/// ```
pub fn detect_report(scenario: &Scenario) -> DetectReport {
    detect_report_of(scenario, &Model::of(scenario))
}

/// [`detect_report`] of a scenario whose [`Model`] is already derived.
pub(crate) fn detect_report_of(scenario: &Scenario, model: &Model) -> DetectReport {
    let detector = scenario.detector;
    let geometry = fuser_geometry_vacuous(&scenario.fuser);
    let guarantees = guarantee_report_of(scenario, model);
    let false_alarm_free = geometry || guarantees.truth_containment;
    let certain = certain_violators(scenario, model, &guarantees);

    let verdict = if !detector.flags() {
        DetectVerdict::ProvablyInvisible {
            reason: InvisibleReason::DetectorOff,
        }
    } else if geometry {
        DetectVerdict::ProvablyInvisible {
            reason: InvisibleReason::FuserGeometry,
        }
    } else if !certain.is_empty() {
        DetectVerdict::ProvablyFlagged {
            within: detector.condemnation_latency().unwrap_or(1),
        }
    } else if model.corrupt == 0 && false_alarm_free {
        DetectVerdict::ProvablyInvisible {
            reason: InvisibleReason::HonestSuite,
        }
    } else if stealth_invisible(scenario, model, &guarantees) {
        DetectVerdict::ProvablyInvisible {
            reason: InvisibleReason::StealthClamp,
        }
    } else {
        DetectVerdict::Contingent
    };

    let suspects = false_alarm_free.then(|| model.suspects());

    DetectReport {
        verdict,
        detector,
        false_alarm_free,
        certain,
        suspects,
        guarantees,
    }
}

/// Runs the detectability pass over a grid, most-severe-first: per
/// cell, its `detect-verdict` and, when the enabled detector can never
/// fire under the cell's fuser, `detect-invisible`, each at its
/// [`Location::Cell`]; then one `detect-coverage` summary per attacker
/// × detector pair, in first-seen order.
///
/// This derives a [`DetectVerdict`] for every cell without running a
/// single simulation round.
pub fn analyze_grid_detectability(grid: &SweepGrid) -> Vec<Finding> {
    let mut findings = Vec::new();
    // (attacker label, detector label) → (invisible, flagged,
    // contingent, total), in first-seen order for determinism.
    let mut pairs: Vec<(String, String, [usize; 4])> = Vec::new();
    for cell in grid.cells() {
        let scenario = &cell.scenario;
        let at = || Location::Cell { cell: cell.index };
        let report = detect_report(scenario);
        let attacker = scenario.attacker.label();
        let detector = detector_label(&scenario.detector);
        let fuser = scenario.fuser.name();

        let detail = match report.verdict {
            DetectVerdict::ProvablyInvisible { reason } => format!(
                "{} ({}); static flagged_rounds bound 0",
                report.verdict.label(),
                reason.describe()
            ),
            DetectVerdict::ProvablyFlagged { within } => {
                let fate = if report.detector.condemns() {
                    format!("condemned within {within} violating fused round(s)")
                } else {
                    "flagged from the first fused round (this detector never condemns)".to_string()
                };
                format!(
                    "{}: sensor(s) {:?} violate the overlap check every fused round, {fate}",
                    report.verdict.label(),
                    report.certain,
                )
            }
            DetectVerdict::Contingent => format!(
                "{}: static analysis cannot place the corrupted intervals relative to the \
                 fusion interval",
                report.verdict.label()
            ),
        };
        let faf = match &report.suspects {
            Some(suspects) => format!(
                "; false-alarm freedom provable (only sensors {suspects:?} can ever be flagged)"
            ),
            None => String::new(),
        };
        findings.push(DETECT_VERDICT.finding(
            at(),
            format!(
                "attacker `{attacker}` × fuser `{fuser}` × detector `{detector}`: {detail}{faf}"
            ),
        ));

        if report.detector.flags() && fuser_geometry_vacuous(&scenario.fuser) {
            findings.push(DETECT_INVISIBLE.finding(
                at(),
                format!(
                    "detector `{detector}` can never fire under fuser `{fuser}`: the fused \
                     interval intersects every transmitted interval by construction, so the \
                     detection columns are vacuous for any attacker",
                ),
            ));
        }

        let slot = match pairs
            .iter()
            .position(|(a, d, _)| *a == attacker && *d == detector)
        {
            Some(slot) => slot,
            None => {
                pairs.push((attacker, detector, [0; 4]));
                pairs.len() - 1
            }
        };
        let counts = &mut pairs[slot].2;
        match report.verdict {
            DetectVerdict::ProvablyInvisible { .. } => counts[0] += 1,
            DetectVerdict::ProvablyFlagged { .. } => counts[1] += 1,
            DetectVerdict::Contingent => counts[2] += 1,
        }
        counts[3] += 1;
    }
    for (attacker, detector, [invisible, flagged, contingent, total]) in pairs {
        findings.push(DETECT_COVERAGE.finding(
            Location::Grid {
                name: grid.base().name.clone(),
            },
            format!(
                "attacker `{attacker}` × detector `{detector}`: {invisible}/{total} \
                 cell(s) provably invisible, {flagged} provably flagged, {contingent} \
                 contingent"
            ),
        ));
    }
    sort_findings(&mut findings);
    findings
}

/// The record-time veto: one `detect-vacuous` finding when the grid
/// declares at least one cell with a corruptible sensor and *every* such
/// cell is provably invisible to its detector — the grid's detection
/// columns would freeze a tautology.
pub(crate) fn veto(grid: &SweepGrid, _baseline: &Baseline) -> Vec<Finding> {
    let mut corruptible = 0usize;
    for cell in grid.cells() {
        let model = Model::of(&cell.scenario);
        if model.corrupt == 0 {
            continue;
        }
        corruptible += 1;
        let report = detect_report_of(&cell.scenario, &model);
        if !matches!(report.verdict, DetectVerdict::ProvablyInvisible { .. }) {
            return Vec::new();
        }
    }
    if corruptible == 0 {
        return Vec::new();
    }
    vec![DETECT_VACUOUS.finding(
        Location::Grid {
            name: grid.base().name.clone(),
        },
        format!(
            "all {corruptible} corruptible cell(s) are provably invisible to their detectors, \
             so the recorded detection columns would be vacuous (run `sweep_lint \
             detectability` for the per-cell verdicts)"
        ),
    )]
}

/// Vets every stored [`CellRecord`](arsf_core::sweep::store::CellRecord)
/// of `baseline` against the statically derived detectability of the
/// corresponding `grid` cell — the detection-side soundness oracle for
/// golden baselines.
///
/// For every cell, the recorded `flagged_rounds` must not exceed the
/// fused-round count (`rounds − fusion_failures`; detection only runs on
/// fused rounds). Provably invisible cells must record 0 flagged rounds
/// and an empty condemned set; provably flagged cells must record a
/// flagged count equal to the fused-round count, with every certain
/// sensor condemned once the detector has seen its latency's worth of
/// rounds; and under false-alarm freedom only the cell's suspects may
/// appear in the condemned set. Violations are `detect-violation` errors
/// carrying the cell index, column, bound and observed value, located at
/// `location` (the baseline file, typically); so is a `condemned` label
/// that does not decode, naming the bad entry.
///
/// Records whose cell index falls outside the grid are skipped; the
/// baseline pass flags a stored golden baseline whose rows are not its
/// grid's cells (`baseline-cells`), and recording refuses one.
pub fn vet_baseline_detectability(
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
        let scenario = grid.scenario(cell);
        let report = detect_report(&scenario);

        let mut violation = |column: &str, message: String| {
            findings.push(DETECT_VIOLATION.finding(
                location.clone(),
                format!("cell {cell} `{column}`: {message}"),
            ));
        };

        let rounds = record
            .label("rounds")
            .and_then(|value| value.parse::<f64>().ok())
            .unwrap_or(scenario.rounds as f64);
        let failures = record
            .metric("fusion_failures")
            .flatten()
            .unwrap_or(0.0)
            .max(0.0);
        let fused = (rounds - failures).max(0.0);
        let flagged = record.metric("flagged_rounds").flatten();

        if let Some(flagged) = flagged {
            // Universally sound: detection only assesses fused rounds.
            if flagged > fused + EPSILON {
                violation(
                    "flagged_rounds",
                    format!(
                        "observed {flagged} exceeds the {fused} fused round(s) the detector \
                         can assess ({rounds} rounds − {failures} fusion failures)"
                    ),
                );
            }
            match report.verdict {
                DetectVerdict::ProvablyInvisible { reason } => {
                    if flagged > EPSILON {
                        violation(
                            "flagged_rounds",
                            format!(
                                "observed {flagged} exceeds the static bound 0: the cell is \
                                 provably invisible ({})",
                                reason.describe()
                            ),
                        );
                    }
                }
                DetectVerdict::ProvablyFlagged { .. } => {
                    if flagged < fused - EPSILON {
                        violation(
                            "flagged_rounds",
                            format!(
                                "observed {flagged} is below the static lower bound {fused}: \
                                 sensor(s) {:?} provably violate the overlap check every \
                                 fused round",
                                report.certain
                            ),
                        );
                    }
                }
                DetectVerdict::Contingent => {}
            }
        }

        let condemned = match record.label("condemned").map(decode_condemned) {
            Some(Err(err)) => {
                violation("condemned", err);
                None
            }
            decoded => decoded.and_then(Result::ok),
        };
        if let Some(condemned) = &condemned {
            if let DetectVerdict::ProvablyInvisible { reason } = report.verdict {
                if !condemned.is_empty() {
                    violation(
                        "condemned",
                        format!(
                            "sensor(s) {condemned:?} condemned in a provably invisible cell \
                             ({})",
                            reason.describe()
                        ),
                    );
                }
            }
            if let DetectVerdict::ProvablyFlagged { within } = report.verdict {
                if report.detector.condemns() && fused >= within as f64 {
                    for sensor in &report.certain {
                        if !condemned.contains(sensor) {
                            violation(
                                "condemned",
                                format!(
                                    "sensor {sensor} provably violates every fused round and \
                                     must be condemned within {within} violating fused \
                                     round(s), but the stored condemned set is {condemned:?}"
                                ),
                            );
                        }
                    }
                }
            }
            if let Some(suspects) = &report.suspects {
                for sensor in condemned {
                    if !suspects.contains(sensor) {
                        violation(
                            "condemned",
                            format!(
                                "sensor {sensor} condemned despite provable false-alarm \
                                 freedom: only sensors {suspects:?} can ever violate the \
                                 overlap check"
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
    use arsf_core::DetectionMode;
    use arsf_sensor::{FaultKind, FaultModel};

    fn attacked(scenario: Scenario, sensors: Vec<usize>, strategy: StrategySpec) -> Scenario {
        scenario.with_attacker(AttackerSpec::Fixed { sensors, strategy })
    }

    fn verdict(scenario: &Scenario) -> DetectVerdict {
        detect_report(scenario).verdict
    }

    #[test]
    fn disabled_detection_is_invisible_regardless_of_attacker() {
        let scenario = attacked(
            Scenario::new("d", SuiteSpec::Landshark).with_detector(DetectionMode::Off),
            vec![0],
            StrategySpec::GreedyHigh,
        );
        assert_eq!(
            verdict(&scenario),
            DetectVerdict::ProvablyInvisible {
                reason: InvisibleReason::DetectorOff
            }
        );
    }

    #[test]
    fn geometric_fusers_disarm_the_overlap_check() {
        for fuser in [FuserSpec::Hull, FuserSpec::Intersection] {
            let scenario = attacked(
                Scenario::new("d", SuiteSpec::Landshark).with_fuser(fuser.clone()),
                vec![0],
                StrategySpec::GreedyLow,
            );
            assert_eq!(
                verdict(&scenario),
                DetectVerdict::ProvablyInvisible {
                    reason: InvisibleReason::FuserGeometry
                },
                "{fuser:?}"
            );
            assert!(detect_report(&scenario).false_alarm_free);
            let findings = analyze_grid_detectability(&SweepGrid::new(scenario.clone()));
            assert!(
                findings
                    .iter()
                    .any(|f| f.lint == "detect-invisible" && f.severity == Severity::Warn),
                "{fuser:?}: {findings:?}"
            );
        }
    }

    #[test]
    fn honest_marzullo_suite_is_invisible_and_false_alarm_free() {
        let report = detect_report(&Scenario::new("d", SuiteSpec::Landshark));
        assert_eq!(
            report.verdict,
            DetectVerdict::ProvablyInvisible {
                reason: InvisibleReason::HonestSuite
            }
        );
        assert!(report.false_alarm_free);
        assert_eq!(report.suspects, Some(vec![]));
    }

    #[test]
    fn stealth_clamped_attacks_are_provably_invisible() {
        for strategy in [
            StrategySpec::PhantomOptimal,
            StrategySpec::GreedyHigh,
            StrategySpec::GreedyLow,
        ] {
            for fuser in [FuserSpec::Marzullo, FuserSpec::BrooksIyengar] {
                let scenario = attacked(
                    Scenario::new("d", SuiteSpec::Landshark).with_fuser(fuser.clone()),
                    vec![2],
                    strategy,
                );
                assert_eq!(
                    verdict(&scenario),
                    DetectVerdict::ProvablyInvisible {
                        reason: InvisibleReason::StealthClamp
                    },
                    "{strategy:?} × {fuser:?}"
                );
                assert_eq!(detect_report(&scenario).suspects, Some(vec![2]));
            }
        }
        // Random-each-round forges one phantom sensor per round: stealthy,
        // but any sensor is a suspect.
        let random =
            Scenario::new("d", SuiteSpec::Landshark).with_attacker(AttackerSpec::RandomEachRound);
        let report = detect_report(&random);
        assert_eq!(
            report.verdict,
            DetectVerdict::ProvablyInvisible {
                reason: InvisibleReason::StealthClamp
            }
        );
        assert_eq!(report.suspects, Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn multi_sensor_stealth_attacks_are_contingent() {
        // With two sensors forged per round, the clamp's coverage
        // argument no longer closes (and the budget exceeds f = 1
        // anyway): no invisibility claim.
        let scenario = attacked(
            Scenario::new("d", SuiteSpec::Landshark),
            vec![0, 1],
            StrategySpec::PhantomOptimal,
        );
        assert_eq!(verdict(&scenario), DetectVerdict::Contingent);
        assert!(!detect_report(&scenario).false_alarm_free);
    }

    #[test]
    fn non_marzullo_fusers_leave_stealth_contingent() {
        // The stealth theorem places the touch point inside the
        // *Marzullo* interval; history-refined or weighted fusers can
        // exclude it (the committed descending-schedule baselines indeed
        // record thousands of flagged rounds for these cells).
        for fuser in [
            FuserSpec::InverseVariance,
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
            FuserSpec::MidpointMedian,
        ] {
            let scenario = attacked(
                Scenario::new("d", SuiteSpec::Landshark).with_fuser(fuser.clone()),
                vec![0],
                StrategySpec::PhantomOptimal,
            );
            assert_eq!(verdict(&scenario), DetectVerdict::Contingent, "{fuser:?}");
        }
    }

    #[test]
    fn certain_bias_fault_is_provably_flagged() {
        // Sensor 2 (width 1.0) biased by 4.0 with probability 1: the
        // fused interval stays within the static bound 2.0 of the truth,
        // and the biased center sits 4.0 > 2.0 + 0.5 away — disjoint
        // every round.
        let scenario = Scenario::new("d", SuiteSpec::Landshark)
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 4.0 }, 1.0))
            .with_rounds(120);
        let report = detect_report(&scenario);
        assert_eq!(report.verdict, DetectVerdict::ProvablyFlagged { within: 1 });
        assert_eq!(report.certain, vec![2]);
        assert_eq!(report.suspects, Some(vec![2]));

        let windowed = scenario.with_detector(DetectionMode::Windowed {
            window: 10,
            tolerance: 3,
        });
        assert_eq!(
            verdict(&windowed),
            DetectVerdict::ProvablyFlagged { within: 4 }
        );
    }

    #[test]
    fn sub_certain_faults_are_contingent() {
        let base = Scenario::new("d", SuiteSpec::Landshark);
        // Fires only half the time: no per-round claim.
        let sometimes = base
            .clone()
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 4.0 }, 0.5));
        assert_eq!(verdict(&sometimes), DetectVerdict::Contingent);
        // Offset below the bound + half-width margin: may still overlap.
        let small = base
            .clone()
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 2.0 }, 1.0));
        assert_eq!(verdict(&small), DetectVerdict::Contingent);
        // Closed-loop truth has no static range to measure the margin in.
        let closed = base
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 4.0 }, 1.0))
            .with_closed_loop(ClosedLoopSpec::new(10.0));
        assert_eq!(verdict(&closed), DetectVerdict::Contingent);
    }

    #[test]
    fn stuck_and_scale_margins_use_the_truth_range() {
        let base = Scenario::new("d", SuiteSpec::Landshark).with_rounds(100);
        // Stuck at 50 while the truth holds 10: margin 40.
        let stuck = base
            .clone()
            .with_fault(2, FaultModel::new(FaultKind::StuckAt { value: 50.0 }, 1.0));
        assert!(matches!(
            verdict(&stuck),
            DetectVerdict::ProvablyFlagged { .. }
        ));
        // A ramp that reaches the stuck value erases the margin.
        let crossed = stuck.with_truth(TruthSpec::Ramp {
            start: 10.0,
            rate_per_round: 1.0, // reaches 50 at round 40
        });
        assert_eq!(verdict(&crossed), DetectVerdict::Contingent);
        // Scale 6× at truth 10: center 60, margin 50.
        let scaled = base
            .clone()
            .with_fault(2, FaultModel::new(FaultKind::Scale { factor: 6.0 }, 1.0));
        assert!(matches!(
            verdict(&scaled),
            DetectVerdict::ProvablyFlagged { .. }
        ));
        // Scale near 1 stays within the bound: contingent.
        let near = base.with_fault(2, FaultModel::new(FaultKind::Scale { factor: 1.1 }, 1.0));
        assert_eq!(verdict(&near), DetectVerdict::Contingent);
    }

    #[test]
    fn attacked_sensors_are_never_certain_violators() {
        // The attacker forges the faulted sensor's transmissions, so the
        // huge bias never reaches the wire.
        let scenario = attacked(
            Scenario::new("d", SuiteSpec::Landshark)
                .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 9.0 }, 1.0)),
            vec![2],
            StrategySpec::PhantomOptimal,
        );
        let report = detect_report(&scenario);
        assert!(report.certain.is_empty());
        assert_eq!(report.verdict, DetectVerdict::Contingent);
    }

    #[test]
    fn grid_pass_relocates_cells_and_emits_the_coverage_matrix() {
        let grid = SweepGrid::new(attacked(
            Scenario::new("d", SuiteSpec::Landshark),
            vec![0],
            StrategySpec::PhantomOptimal,
        ))
        .fusers(vec![FuserSpec::Marzullo, FuserSpec::InverseVariance])
        .detectors(vec![DetectionMode::Off, DetectionMode::Immediate]);
        let findings = analyze_grid_detectability(&grid);
        let verdicts: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "detect-verdict")
            .collect();
        assert_eq!(verdicts.len(), grid.len());
        assert!(verdicts
            .iter()
            .all(|f| matches!(f.location, Location::Cell { .. })));
        let coverage: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "detect-coverage")
            .collect();
        // One attacker × two detector labels.
        assert_eq!(coverage.len(), 2);
        assert!(coverage[0].message.contains("provably invisible"));
    }

    #[test]
    fn vetting_flags_contradicted_verdicts() {
        use arsf_core::sweep::store::Baseline;
        let grid = SweepGrid::new(
            attacked(
                Scenario::new("d", SuiteSpec::Landshark),
                vec![0],
                StrategySpec::PhantomOptimal,
            )
            .with_rounds(20),
        );
        let report = grid.run_serial();
        let mut baseline = Baseline::from_report(&grid, &report);
        let location = Location::Cell { cell: 0 };

        // The honest run matches its invisible verdict.
        assert!(vet_baseline_detectability(&grid, &baseline, &location).is_empty());

        // Corrupt the flagged count: the invisible cell must record 0.
        let slot = baseline.rows[0]
            .metrics
            .iter_mut()
            .find(|(name, _)| name == "flagged_rounds")
            .expect("flagged_rounds column");
        slot.1 = Some(7.0);
        let findings = vet_baseline_detectability(&grid, &baseline, &location);
        let violation = findings
            .iter()
            .find(|f| f.lint == "detect-violation")
            .expect("the corrupted count is flagged");
        assert_eq!(violation.severity, Severity::Error);
        for needle in ["cell 0", "flagged_rounds", "7", "bound 0"] {
            assert!(
                violation.message.contains(needle),
                "missing `{needle}`: {}",
                violation.message
            );
        }
        slot_reset(&mut baseline.rows[0].metrics, "flagged_rounds", Some(0.0));

        // A condemned sensor outside the suspect set under provable
        // false-alarm freedom is a violation too.
        let condemned = baseline.rows[0]
            .labels
            .iter_mut()
            .find(|(name, _)| name == "condemned")
            .expect("condemned column");
        condemned.1 = "1".to_string();
        let findings = vet_baseline_detectability(&grid, &baseline, &location);
        assert!(
            findings
                .iter()
                .any(|f| f.lint == "detect-violation" && f.message.contains("condemned")),
            "{findings:?}"
        );
    }

    #[test]
    fn an_undecodable_condemned_label_names_the_cell_and_entry() {
        let grid = SweepGrid::new(
            attacked(
                Scenario::new("d", SuiteSpec::Landshark),
                vec![0],
                StrategySpec::PhantomOptimal,
            )
            .with_rounds(20),
        );
        let mut baseline = Baseline::from_report(&grid, &grid.run_serial());
        let condemned = baseline.rows[0]
            .labels
            .iter_mut()
            .find(|(name, _)| name == "condemned")
            .expect("condemned column");
        condemned.1 = "0|x".to_string();
        let findings = vet_baseline_detectability(&grid, &baseline, &Location::Cell { cell: 0 });
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "detect-violation");
        assert_eq!(findings[0].severity, Severity::Error);
        assert_eq!(
            findings[0].message,
            "cell 0 `condemned`: bad condemned entry `x`"
        );
    }

    fn slot_reset(metrics: &mut [(String, Option<f64>)], name: &str, value: Option<f64>) {
        if let Some(slot) = metrics.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        }
    }

    #[test]
    fn flagged_cells_must_record_every_fused_round() {
        use arsf_core::sweep::store::Baseline;
        let grid = SweepGrid::new(
            Scenario::new("d", SuiteSpec::Landshark)
                .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 4.0 }, 1.0))
                .with_rounds(30),
        );
        let report = grid.run_serial();
        let mut baseline = Baseline::from_report(&grid, &report);
        let location = Location::Cell { cell: 0 };
        let findings = vet_baseline_detectability(&grid, &baseline, &location);
        assert!(
            findings.is_empty(),
            "the real run satisfies its provably-flagged verdict: {findings:?}\nrow: {:?} {:?}",
            baseline.rows[0].labels,
            baseline.rows[0].metrics,
        );
        // Understate the flagged count: below the static lower bound.
        slot_reset(&mut baseline.rows[0].metrics, "flagged_rounds", Some(5.0));
        let findings = vet_baseline_detectability(&grid, &baseline, &location);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("below the static lower bound")),
            "{findings:?}"
        );
        // Overstate it past the fused-round count: also a violation.
        slot_reset(&mut baseline.rows[0].metrics, "flagged_rounds", Some(500.0));
        let findings = vet_baseline_detectability(&grid, &baseline, &location);
        assert!(
            findings.iter().any(|f| f.message.contains("exceeds")),
            "{findings:?}"
        );
    }

    #[test]
    fn vacuous_detection_grids_are_detected() {
        let empty = Baseline {
            address: String::new(),
            definition: String::new(),
            rows: Vec::new(),
        };
        // Every corruptible cell invisible (detector off): one grid-level
        // `detect-vacuous` finding.
        let vacuous = SweepGrid::new(attacked(
            Scenario::new("d", SuiteSpec::Landshark).with_detector(DetectionMode::Off),
            vec![0],
            StrategySpec::PhantomOptimal,
        ));
        let findings = veto(&vacuous, &empty);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "detect-vacuous");
        assert_eq!(
            findings[0].location,
            Location::Grid {
                name: "d".to_string()
            }
        );
        assert!(findings[0].message.contains("all 1 corruptible cell(s)"));
        // An honest grid has nothing to detect: not "vacuous", just
        // honest.
        let honest = SweepGrid::new(Scenario::new("d", SuiteSpec::Landshark));
        assert!(veto(&honest, &empty).is_empty());
        // A contingent cell (inverse-variance) keeps the grid
        // non-vacuous.
        let mixed = SweepGrid::new(attacked(
            Scenario::new("d", SuiteSpec::Landshark),
            vec![0],
            StrategySpec::PhantomOptimal,
        ))
        .fusers(vec![FuserSpec::Marzullo, FuserSpec::InverseVariance]);
        assert!(veto(&mixed, &empty).is_empty());
        // The veto id never surfaces in the grid pass.
        assert!(!analyze_grid_detectability(&vacuous)
            .iter()
            .any(|f| f.lint == "detect-vacuous"));
    }
}
