//! Property test bridging the static detectability layer to the dynamic
//! engines: any grid the linter passes without error findings, when
//! actually swept, never contradicts its cells'
//! [`DetectReport`](arsf_analyze::DetectReport)s — a provably invisible
//! cell records zero flagged rounds and an empty condemned set, a
//! provably flagged cell flags every fused round (and condemns its
//! certain violators once the detector has seen its latency's worth of
//! rounds), and under provable false-alarm freedom only the report's
//! suspects are ever condemned.
//!
//! The pools cross the stealth-clamped attackers, a probability-1
//! overwhelming fault (the provably-flagged witness), sub-certain
//! faults, silence, every fuser family and all four stock detector
//! configurations, so each arm of the verdict derivation is exercised
//! against real simulated rounds.

use arsf_analyze::{analyze_grid, detect_report, DetectVerdict, Severity};
use arsf_core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec, TruthSpec,
};
use arsf_core::sweep::SweepGrid;
use arsf_core::DetectionMode;
use arsf_sensor::{FaultKind, FaultModel};
use proptest::prelude::*;

fn suite_pool(i: usize) -> SuiteSpec {
    match i % 3 {
        0 => SuiteSpec::Landshark,
        1 => SuiteSpec::Widths(vec![5.0, 11.0, 17.0]),
        _ => SuiteSpec::Widths(vec![4.0, 8.0, 12.0, 16.0, 20.0]),
    }
}

fn fuser_pool(i: usize) -> FuserSpec {
    match i % 6 {
        0 => FuserSpec::Marzullo,
        1 => FuserSpec::BrooksIyengar,
        2 => FuserSpec::Intersection,
        3 => FuserSpec::Hull,
        4 => FuserSpec::InverseVariance,
        _ => FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        },
    }
}

fn attacker_pool(i: usize) -> AttackerSpec {
    let fixed = |sensors: Vec<usize>, strategy| AttackerSpec::Fixed { sensors, strategy };
    match i % 6 {
        0 => AttackerSpec::None,
        1 => fixed(vec![0], StrategySpec::PhantomOptimal),
        2 => fixed(vec![2], StrategySpec::GreedyLow),
        3 => fixed(vec![0, 1], StrategySpec::GreedyHigh),
        4 => fixed(vec![1], StrategySpec::Truthful),
        _ => AttackerSpec::RandomEachRound,
    }
}

fn fault_set_pool(i: usize) -> Vec<(usize, FaultModel)> {
    match i % 5 {
        0 => vec![],
        // Probability-1 overwhelming bias: the certain-violator witness.
        1 => vec![(2, FaultModel::new(FaultKind::Bias { offset: 50.0 }, 1.0))],
        // Sub-certain firing: contingent even when the magnitude is huge.
        2 => vec![(0, FaultModel::new(FaultKind::Bias { offset: 50.0 }, 0.25))],
        3 => vec![(1, FaultModel::new(FaultKind::Silent, 1.0))],
        // Certain firing but small magnitude: contingent the other way.
        _ => vec![(2, FaultModel::new(FaultKind::Scale { factor: 1.1 }, 1.0))],
    }
}

fn detector_pool(i: usize) -> DetectionMode {
    match i % 4 {
        0 => DetectionMode::Off,
        1 => DetectionMode::Immediate,
        2 => DetectionMode::Windowed {
            window: 10,
            tolerance: 2,
        },
        _ => DetectionMode::Windowed {
            window: 5,
            tolerance: 0,
        },
    }
}

/// Guards the bridge property against vacuity: the exhaustive walk of
/// the small pool cross-product must yield lint-clean cells of all three
/// verdict classes — otherwise the property below would quietly be
/// checking an empty arm.
#[test]
fn the_pools_exercise_every_verdict_class() {
    let mut invisible = 0usize;
    let mut flagged = 0usize;
    let mut contingent = 0usize;
    for fuser in 0..6 {
        for attacker in 0..6 {
            for faults in 0..5 {
                for detector in 0..4 {
                    let base = Scenario::new("prop-coverage", SuiteSpec::Landshark)
                        .with_rounds(1)
                        .with_detector(detector_pool(detector));
                    let grid = SweepGrid::new(base)
                        .fusers(vec![fuser_pool(fuser)])
                        .attackers(vec![attacker_pool(attacker)])
                        .fault_sets(vec![fault_set_pool(faults)]);
                    if analyze_grid(&grid)
                        .iter()
                        .any(|f| f.severity == Severity::Error)
                    {
                        continue;
                    }
                    for cell in 0..grid.len() {
                        match detect_report(&grid.scenario(cell)).verdict {
                            DetectVerdict::ProvablyInvisible { .. } => invisible += 1,
                            DetectVerdict::ProvablyFlagged { .. } => flagged += 1,
                            DetectVerdict::Contingent => contingent += 1,
                        }
                    }
                }
            }
        }
    }
    assert!(invisible >= 50, "only {invisible} provably invisible cells");
    assert!(flagged >= 5, "only {flagged} provably flagged cells");
    assert!(contingent >= 50, "only {contingent} contingent cells");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lint_clean_grids_never_contradict_their_detect_verdicts(
        suite in 0usize..3,
        fuser_a in 0usize..6,
        fuser_b in 0usize..6,
        attacker in 0usize..6,
        faults in 0usize..5,
        detector_a in 0usize..4,
        detector_b in 0usize..4,
        ramp in 0usize..2,
        closed_loop in 0usize..2,
        seed in 0u64..1000,
    ) {
        // Closed-loop execution physically requires the LandShark suite.
        let closed_loop = closed_loop == 1;
        let suite = if closed_loop { SuiteSpec::Landshark } else { suite_pool(suite) };
        let truth = if ramp == 1 {
            TruthSpec::Ramp { start: 10.0, rate_per_round: 0.3 }
        } else {
            TruthSpec::Constant(10.0)
        };
        let mut base = Scenario::new("prop-detect", suite)
            .with_truth(truth)
            .with_rounds(12)
            .with_seed(seed);
        if closed_loop {
            base = base.with_closed_loop(ClosedLoopSpec::new(10.0));
        }
        let grid = SweepGrid::new(base)
            .fusers(vec![fuser_pool(fuser_a), fuser_pool(fuser_b)])
            .attackers(vec![AttackerSpec::None, attacker_pool(attacker)])
            .fault_sets(vec![fault_set_pool(faults)])
            .detectors(vec![detector_pool(detector_a), detector_pool(detector_b)]);

        if analyze_grid(&grid).iter().any(|f| f.severity == Severity::Error) {
            // The structural linter rejected the grid; cells may not run.
            return Ok(());
        }

        let report = grid.run_serial();
        for row in report.rows() {
            let detect = detect_report(&grid.scenario(row.cell));
            let summary = &row.summary;
            let fused = summary.rounds - summary.fusion_failures;

            // Universally sound, whatever the verdict: detection only
            // assesses rounds whose fusion succeeded.
            prop_assert!(
                summary.flagged_rounds <= fused,
                "cell {}: {} flagged rounds out of only {fused} fused",
                row.cell, summary.flagged_rounds
            );

            match detect.verdict {
                DetectVerdict::ProvablyInvisible { reason } => {
                    prop_assert_eq!(
                        summary.flagged_rounds, 0,
                        "cell {}: flagged despite provable invisibility ({:?}, {:?})",
                        row.cell, reason, &detect
                    );
                    prop_assert!(
                        summary.condemned.is_empty(),
                        "cell {}: condemned {:?} despite provable invisibility ({:?})",
                        row.cell, &summary.condemned, reason
                    );
                }
                DetectVerdict::ProvablyFlagged { within } => {
                    prop_assert_eq!(
                        summary.flagged_rounds, fused,
                        "cell {}: only {} of {fused} fused rounds flagged despite certain \
                         violators {:?}",
                        row.cell, summary.flagged_rounds, &detect.certain
                    );
                    if detect.detector.condemns() && fused >= within as u64 {
                        for sensor in &detect.certain {
                            prop_assert!(
                                summary.condemned.contains(sensor),
                                "cell {}: certain violator {sensor} not condemned after \
                                 {fused} fused rounds (latency {within}): {:?}",
                                row.cell, &summary.condemned
                            );
                        }
                    }
                }
                DetectVerdict::Contingent => {}
            }

            if let Some(suspects) = &detect.suspects {
                for sensor in &summary.condemned {
                    prop_assert!(
                        suspects.contains(sensor),
                        "cell {}: sensor {sensor} condemned despite provable false-alarm \
                         freedom (suspects {:?})",
                        row.cell, suspects
                    );
                }
            }
        }
    }
}
