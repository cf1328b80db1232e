//! The structural checks: scenario checks over one [`Scenario`] (a
//! registry preset or a materialised grid cell), grid checks over
//! axis-level structure, and baseline checks over one parsed baseline
//! file. Each is a plain function emitting its [`rules`](crate::rules)
//! in table order.

use std::collections::HashMap;
use std::path::Path;

use arsf_core::scenario::{faults_label, Scenario};
use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::{derive_seed, Axis, SweepGrid};
use arsf_core::DetectionMode;

use crate::model::Model;
use crate::rules::{
    ATTACKER_BUDGET, BASELINE_ADDRESS, BASELINE_FILENAME, COMBINED_BUDGET, DETECTOR_WINDOW,
    DUPLICATE_AXIS_VALUE, EMPTY_RUN, ENVELOPE_ORDER, FAULT_BUDGET, FUSION_SOUNDNESS,
    SCENARIO_VALIDATE, SEED_COLLISION,
};
use crate::{Finding, Location};

/// Runs every scenario check over one scenario, each finding located at
/// `location` (the preset, or the grid cell the scenario is).
pub(crate) fn check_scenario(scenario: &Scenario, location: &Location, out: &mut Vec<Finding>) {
    let f = scenario.f;
    if let Err(err) = scenario.validate() {
        out.push(SCENARIO_VALIDATE.finding(location.clone(), err.to_string()));
    }

    let n = scenario.suite.len();
    if n <= 2 * f {
        out.push(FUSION_SOUNDNESS.finding(
            location.clone(),
            format!(
                "suite `{}` has n = {n} sensors with f = {f}: Marzullo/Brooks-Iyengar \
                 containment needs n > 2f",
                scenario.suite.label(),
            ),
        ));
    }

    let model = Model::of(scenario);
    let (faulted, attacked) = (&model.faulted, &model.attacked);
    if attacked.len() > f {
        out.push(ATTACKER_BUDGET.finding(
            location.clone(),
            format!(
                "attacker `{}` compromises {} distinct sensors but the fault assumption \
                 is f = {f}: the fused interval is not guaranteed to contain the truth",
                scenario.attacker.label(),
                attacked.len(),
            ),
        ));
    }
    if faulted.len() > f {
        out.push(FAULT_BUDGET.finding(
            location.clone(),
            format!(
                "fault set `{}` touches {} distinct sensors with f = {f}: the run is a \
                 deliberate over-budget stress, not a theorem-covered configuration",
                faults_label(&scenario.faults),
                faulted.len(),
            ),
        ));
    }
    // Only when neither budget alone is exceeded, which the two rules
    // above already report.
    if faulted.len() <= f && attacked.len() <= f {
        let (combined, qualifier) = if model.random {
            (faulted.len() + 1, "up to ")
        } else {
            (faulted.union(attacked).count(), "")
        };
        if combined > f {
            out.push(COMBINED_BUDGET.finding(
                location.clone(),
                format!(
                    "faults and attacker together can corrupt {qualifier}{combined} distinct \
                     sensors in a round with f = {f}: rows measure behaviour beyond the \
                     corruption budget",
                ),
            ));
        }
    }

    check_detector_window(scenario, location, out);

    if let Some(spec) = &scenario.closed_loop {
        let finite = spec.delta_up.is_finite() && spec.delta_down.is_finite();
        if finite && spec.delta_up > spec.delta_down {
            out.push(ENVELOPE_ORDER.finding(
                location.clone(),
                format!(
                    "envelope half-widths \u{3b4}1 = {} > \u{3b4}2 = {}: the case study's \
                     safety argument assumes \u{3b4}1 <= \u{3b4}2",
                    spec.delta_up, spec.delta_down
                ),
            ));
        }
    }

    if scenario.rounds == 0 {
        out.push(EMPTY_RUN.finding(
            location.clone(),
            "the scenario runs 0 rounds: every metric will be vacuous",
        ));
    }
}

/// `detector-window`: a windowed detector that can never fill its
/// window, has no sensor to track, or can never condemn.
fn check_detector_window(scenario: &Scenario, location: &Location, out: &mut Vec<Finding>) {
    let DetectionMode::Windowed { window, tolerance } = scenario.detector else {
        return;
    };
    if window == 0 {
        // `scenario-validate` rejects it; the unfillable / uncondemnable
        // diagnoses below would only restate that.
        return;
    }
    if scenario.suite.is_empty() {
        out.push(DETECTOR_WINDOW.finding(
            location.clone(),
            "windowed detector over an empty suite: there is no sensor to track, so it can \
             never flag or condemn",
        ));
    }
    if window as u64 > scenario.rounds {
        out.push(DETECTOR_WINDOW.finding(
            location.clone(),
            format!(
                "windowed detector window {window} exceeds the {}-round run: the window \
                 never fills",
                scenario.rounds
            ),
        ));
    }
    if tolerance >= window {
        out.push(DETECTOR_WINDOW.finding(
            location.clone(),
            format!(
                "windowed detector tolerance {tolerance} >= window {window}: a window holds \
                 at most {window} violations, so the detector can never condemn"
            ),
        ));
    }
}

/// Runs the grid checks: duplicated axis values, then seed collisions.
pub(crate) fn check_grid(grid: &SweepGrid, out: &mut Vec<Finding>) {
    for (axis, labels) in Axis::ALL.into_iter().zip(grid.axis_labels()) {
        check_axis(axis, &labels, out);
    }

    let seeds = grid.seed_axis();
    let seed_value = |cell: usize| seeds[grid.coords(cell)[Axis::Seeds as usize]];
    let cells = grid.len();
    let mut first_cell: HashMap<u64, usize> = HashMap::with_capacity(cells);
    for cell in 0..cells {
        let base = seed_value(cell);
        let derived = derive_seed(base, cell as u64);
        if let Some(&earlier) = first_cell.get(&derived) {
            out.push(SEED_COLLISION.finding(
                Location::Cell { cell },
                format!(
                    "derived seed {derived:#018x} collides with cell {earlier} (seed axis \
                     values {} and {base}): the two cells sample identical measurement \
                     streams",
                    seed_value(earlier)
                ),
            ));
        } else {
            first_cell.insert(derived, cell);
        }
    }
}

/// `duplicate-axis-value` over one axis's labels.
fn check_axis(axis: Axis, labels: &[String], out: &mut Vec<Finding>) {
    let mut positions: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, label) in labels.iter().enumerate() {
        positions.entry(label).or_default().push(i);
    }
    let mut duplicated: Vec<(&str, Vec<usize>)> = positions
        .into_iter()
        .filter(|(_, indices)| indices.len() > 1)
        .collect();
    duplicated.sort_by_key(|(_, indices)| indices[0]);
    for (label, indices) in duplicated {
        let note = if axis == Axis::Seeds {
            " (derived per-cell seeds still differ, but the replicate is unintended unless \
             the values were meant to vary)"
        } else {
            ""
        };
        let axis = axis.name();
        let message = format!(
            "value `{label}` appears {} times on the {axis} axis: duplicate cells multiply \
             the grid without adding coverage{note}",
            indices.len()
        );
        out.push(DUPLICATE_AXIS_VALUE.finding(Location::Axis { axis, indices }, message));
    }
}

/// Runs the baseline checks over one parsed baseline file: its stored
/// address against its definition, then its file stem against its
/// address.
pub(crate) fn check_baseline(path: &Path, baseline: &Baseline, out: &mut Vec<Finding>) {
    let location = || Location::File {
        path: path.to_path_buf(),
    };
    if let Err(err) = baseline.verify_address() {
        out.push(BASELINE_ADDRESS.finding(location(), err.to_string()));
    }
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    if stem != baseline.address {
        out.push(BASELINE_FILENAME.finding(
            location(),
            format!(
                "file stem `{stem}` does not match the stored address {}: the check harness \
                 looks baselines up by address and will never read this file",
                baseline.address
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use arsf_core::scenario::{
        AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
    };
    use arsf_core::sweep::{derive_seed, SweepGrid};
    use arsf_core::DetectionMode;
    use arsf_sensor::{FaultKind, FaultModel};

    use crate::{analyze_grid, analyze_scenario, Location, Severity};

    fn ids(findings: &[crate::Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn a_default_scenario_is_clean() {
        let findings = analyze_scenario(&Scenario::new("clean", SuiteSpec::Landshark));
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn fusion_soundness_flags_n_3_f_2_as_error() {
        let scenario = Scenario::new("unsound", SuiteSpec::Widths(vec![1.0, 2.0, 3.0])).with_f(2);
        let findings = analyze_scenario(&scenario);
        assert_eq!(ids(&findings), vec!["fusion-soundness"]);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("n = 3"));
        assert!(findings[0].message.contains("f = 2"));
    }

    #[test]
    fn attacker_budget_counts_distinct_sensors() {
        let over = Scenario::new("over", SuiteSpec::Landshark).with_attacker(AttackerSpec::Fixed {
            sensors: vec![0, 2],
            strategy: StrategySpec::PhantomOptimal,
        });
        assert!(ids(&analyze_scenario(&over)).contains(&"attacker-budget"));

        // The same sensor listed twice is one compromised sensor.
        let duplicated =
            Scenario::new("dup", SuiteSpec::Landshark).with_attacker(AttackerSpec::Fixed {
                sensors: vec![0, 0],
                strategy: StrategySpec::PhantomOptimal,
            });
        assert!(!ids(&analyze_scenario(&duplicated)).contains(&"attacker-budget"));
    }

    #[test]
    fn fault_budget_warns_and_combined_budget_is_informational() {
        let faulty = Scenario::new("faulty", SuiteSpec::Landshark)
            .with_fault(0, FaultModel::new(FaultKind::Silent, 1.0))
            .with_fault(1, FaultModel::new(FaultKind::Silent, 1.0));
        let findings = analyze_scenario(&faulty);
        let budget = findings.iter().find(|f| f.lint == "fault-budget");
        assert_eq!(budget.map(|f| f.severity), Some(Severity::Warn));

        // Table II's model: one fault plus a random-each-round attacker is
        // within each individual budget but jointly exceeds f = 1 — an
        // Info note, so preset linting stays clean.
        let table2 = Scenario::new("t2", SuiteSpec::Landshark)
            .with_fault(2, FaultModel::new(FaultKind::Silent, 1.0))
            .with_attacker(AttackerSpec::RandomEachRound);
        let findings = analyze_scenario(&table2);
        assert_eq!(ids(&findings), vec!["combined-budget"]);
        assert_eq!(findings[0].severity, Severity::Info);
        assert!(findings[0].message.contains("up to 2"));
    }

    #[test]
    fn detector_window_flags_unfillable_and_uncondemnable_windows() {
        let long_window = Scenario::new("w", SuiteSpec::Landshark)
            .with_detector(DetectionMode::Windowed {
                window: 200,
                tolerance: 3,
            })
            .with_rounds(50);
        let findings = analyze_scenario(&long_window);
        assert_eq!(ids(&findings), vec!["detector-window"]);
        assert!(findings[0].message.contains("never fills"));

        let dead =
            Scenario::new("d", SuiteSpec::Landshark).with_detector(DetectionMode::Windowed {
                window: 5,
                tolerance: 5,
            });
        let findings = analyze_scenario(&dead);
        assert_eq!(ids(&findings), vec!["detector-window"]);
        assert!(findings[0].message.contains("never condemn"));
    }

    #[test]
    fn detector_window_flags_degenerate_configurations() {
        // window = 0: `Scenario::validate` rejects it, so exactly the
        // error-tier finding (the redundant unfillable/uncondemnable
        // restatements are suppressed).
        let empty_window =
            Scenario::new("z", SuiteSpec::Landshark).with_detector(DetectionMode::Windowed {
                window: 0,
                tolerance: 0,
            });
        let findings = analyze_scenario(&empty_window);
        assert_eq!(ids(&findings), vec!["scenario-validate"]);
        assert!(findings[0].message.contains("detector window"));

        // An empty suite builds but tracks nothing: the windowed detector
        // is inert. (The empty suite itself also trips the structural
        // suite lints, so just look for our message.)
        let no_sensors =
            Scenario::new("n", SuiteSpec::Widths(vec![])).with_detector(DetectionMode::Windowed {
                window: 4,
                tolerance: 1,
            });
        let findings = analyze_scenario(&no_sensors);
        assert!(
            findings
                .iter()
                .any(|f| f.lint == "detector-window" && f.message.contains("no sensor to track")),
            "{findings:?}"
        );
    }

    #[test]
    fn envelope_order_and_empty_run_warn() {
        let inverted = Scenario::new("inv", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(30.0).with_deltas(1.0, 0.25));
        assert!(ids(&analyze_scenario(&inverted)).contains(&"envelope-order"));

        let ok = Scenario::new("ok", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(30.0).with_deltas(0.25, 1.0));
        assert!(analyze_scenario(&ok).is_empty());

        let empty = Scenario::new("empty", SuiteSpec::Landshark).with_rounds(0);
        assert!(ids(&analyze_scenario(&empty)).contains(&"empty-run"));
    }

    #[test]
    fn invalid_envelope_is_a_validate_error_not_an_order_warning() {
        let bad = Scenario::new("nan", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(f64::NAN));
        let findings = analyze_scenario(&bad);
        assert_eq!(ids(&findings), vec!["scenario-validate"]);
        assert_eq!(findings[0].severity, Severity::Error);
    }

    #[test]
    fn duplicate_axis_value_points_at_the_offending_indices() {
        let grid = SweepGrid::new(Scenario::new("dup", SuiteSpec::Landshark)).fusers([
            FuserSpec::Marzullo,
            FuserSpec::BrooksIyengar,
            FuserSpec::Marzullo,
        ]);
        let findings = analyze_grid(&grid);
        let dup: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "duplicate-axis-value")
            .collect();
        assert_eq!(dup.len(), 1);
        assert_eq!(
            dup[0].location,
            Location::Axis {
                axis: "fusers",
                indices: vec![0, 2],
            }
        );
        assert!(dup[0].message.contains("`marzullo` appears 2 times"));
    }

    #[test]
    fn seed_collision_is_detected_via_the_splitmix_derivation() {
        // derive_seed(b, c) = sm(b ^ sm(c)); cells 0 and 1 decode seed-axis
        // values a and b, so choosing b = a ^ sm(0) ^ sm(1) makes both
        // cells derive the same seed.
        fn sm(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let a = 2014_u64;
        let b = a ^ sm(0) ^ sm(1);
        assert_eq!(derive_seed(a, 0), derive_seed(b, 1), "construction broken");

        let grid = SweepGrid::new(Scenario::new("collide", SuiteSpec::Landshark)).seeds([a, b]);
        let findings = analyze_grid(&grid);
        let collision: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "seed-collision")
            .collect();
        assert_eq!(collision.len(), 1);
        assert_eq!(collision[0].location, Location::Cell { cell: 1 });
        assert!(collision[0].message.contains("collides with cell 0"));

        // Distinct default-style seeds do not collide.
        let clean = SweepGrid::new(Scenario::new("ok", SuiteSpec::Landshark)).seeds([1, 2, 3]);
        assert!(analyze_grid(&clean).is_empty());
    }
}
