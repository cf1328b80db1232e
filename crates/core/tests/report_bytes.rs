//! Pins the exact bytes of the three sweep-report renderings — the CSV,
//! the JSON report and the baseline JSON — against committed fixtures.
//!
//! The fixture report mixes open-loop cells (with and without a fault
//! set, immediate and windowed detection) with closed-loop cells, one of
//! them a platoon, so every column shape appears: quoted names, empty
//! and pipe-joined `condemned`, null and present supervisor columns, and
//! per-vehicle lists. The scenario names contain `,` and `"` to exercise
//! CSV quoting and JSON escaping. The fixtures were rendered once by the
//! hand-written writers the column table replaced; they are never
//! regenerated, so any byte the table changes fails here.

use arsf_core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
};
use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::{StreamingSweeper, SweepGrid, SweepReport};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};

const CSV: &str = include_str!("fixtures/report_bytes.csv");
const JSON: &str = include_str!("fixtures/report_bytes.json");
const BASELINE: &str = include_str!("fixtures/report_bytes.baseline.json");

/// The open-loop grid whose address the fixture baseline carries.
fn open_grid() -> SweepGrid {
    let base = Scenario::new("fixture \"open\", v1", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(20);
    SweepGrid::new(base)
        .fault_sets([
            vec![],
            vec![
                (2, FaultModel::new(FaultKind::Bias { offset: 5.0 }, 1.0)),
                (3, FaultModel::new(FaultKind::StuckAt { value: -4.0 }, 0.5)),
            ],
        ])
        .fusers([FuserSpec::Marzullo, FuserSpec::Hull])
        .detectors([
            DetectionMode::Immediate,
            DetectionMode::Windowed {
                window: 5,
                tolerance: 2,
            },
        ])
        .seeds([7])
}

/// The grid's cells, then an open-loop cell that condemns two sensors,
/// a closed-loop single vehicle and a closed-loop platoon, run as one
/// report.
fn fixture_report() -> SweepReport {
    let grid = open_grid();
    let mut scenarios: Vec<Scenario> = grid.cells().map(|cell| cell.scenario).collect();
    scenarios.push(
        Scenario::new(
            "fixture \"two faults\", v1",
            SuiteSpec::Widths(vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]),
        )
        .with_f(2)
        .with_fault(1, FaultModel::new(FaultKind::Bias { offset: 6.0 }, 1.0))
        .with_fault(4, FaultModel::new(FaultKind::Bias { offset: -9.0 }, 0.8))
        .with_detector(DetectionMode::Windowed {
            window: 4,
            tolerance: 1,
        })
        .with_rounds(25)
        .with_seed(3),
    );
    let closed = |name: &str, spec: ClosedLoopSpec| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_detector(DetectionMode::Windowed {
                window: 5,
                tolerance: 2,
            })
            .with_schedule(SchedulePolicy::Descending)
            .with_rounds(80)
            .with_seed(11)
            .with_closed_loop(spec)
    };
    scenarios.push(closed("fixture \"single\", v1", ClosedLoopSpec::new(10.0)));
    scenarios.push(closed(
        "fixture \"platoon\", v1",
        ClosedLoopSpec::new(10.0).with_platoon(3, 0.01),
    ));
    StreamingSweeper::new(1).run_scenarios(&scenarios)
}

#[test]
fn csv_report_matches_the_pinned_bytes() {
    assert_eq!(fixture_report().to_csv(), CSV);
}

#[test]
fn json_report_matches_the_pinned_bytes() {
    assert_eq!(fixture_report().to_json(), JSON);
}

#[test]
fn baseline_json_matches_the_pinned_bytes() {
    let baseline = Baseline::from_report(&open_grid(), &fixture_report());
    assert_eq!(baseline.to_json(), BASELINE);
}
