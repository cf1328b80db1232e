//! Pins every static pass's output over a crossed grid with one FNV-1a
//! digest, so a refactor of how the analyzer derives a scenario's
//! corruption model (which sensors are faulted, corrupting, silenced or
//! attacked, and how many forge per round) cannot move a verdict
//! unnoticed.
//!
//! Four bases (the open LandShark suite, a five-sensor `f = 2` ramp, a
//! closed-loop two-vehicle platoon and a three-sensor `f = 0` suite) are
//! each crossed with nine fault sets, nine attackers, three schedules,
//! all seven fusers and three detectors: 20,412 cells. The pools carry
//! the index edge cases every consumer filters differently: duplicate
//! and out-of-range attacked indices, an empty fixed set, a truthful
//! attacker, silent and corrupting faults on one sensor, and an
//! out-of-range fault.
//!
//! Per cell the digest takes the rendered scenario findings, the
//! guarantee report and the detect report's verdict, certain violators,
//! suspects and false-alarm freedom. Per grid it takes the rendered
//! structural, guarantee, detectability and dominance findings and the
//! dominance report.

use arsf_analyze::{
    analyze_grid, analyze_grid_detectability, analyze_grid_dominance, analyze_grid_guarantees,
    analyze_scenario, detect_report, dominance_report, guarantee_report, render,
};
use arsf_core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec, TruthSpec,
};
use arsf_core::sweep::store::Fnv64;
use arsf_core::sweep::SweepGrid;
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};

fn bases() -> [Scenario; 4] {
    [
        Scenario::new("landshark", SuiteSpec::Landshark),
        Scenario::new(
            "ramp-5",
            SuiteSpec::Widths(vec![4.0, 8.0, 12.0, 16.0, 20.0]),
        )
        .with_f(2)
        .with_truth(TruthSpec::Ramp {
            start: 5.0,
            rate_per_round: 0.1,
        }),
        Scenario::new("platoon-2", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(2, 0.05)),
        Scenario::new("f0-3", SuiteSpec::Widths(vec![5.0, 11.0, 17.0])).with_f(0),
    ]
}

fn fault_sets() -> Vec<Vec<(usize, FaultModel)>> {
    let fault = |kind, probability| FaultModel::new(kind, probability);
    vec![
        vec![],
        vec![(1, fault(FaultKind::Silent, 0.5))],
        // Certain and overwhelming: the provably-flagged witness.
        vec![(2, fault(FaultKind::Bias { offset: 50.0 }, 1.0))],
        vec![(0, fault(FaultKind::Bias { offset: 50.0 }, 0.25))],
        // Silent and corrupting on one sensor.
        vec![
            (1, fault(FaultKind::Silent, 0.3)),
            (1, fault(FaultKind::StuckAt { value: 90.0 }, 1.0)),
        ],
        vec![(7, fault(FaultKind::Bias { offset: 50.0 }, 1.0))],
        vec![(2, fault(FaultKind::Scale { factor: 1.1 }, 1.0))],
        vec![
            (0, fault(FaultKind::Bias { offset: 3.0 }, 1.0)),
            (2, fault(FaultKind::Scale { factor: 4.0 }, 1.0)),
        ],
        vec![
            (0, fault(FaultKind::Silent, 1.0)),
            (3, fault(FaultKind::Bias { offset: 80.0 }, 1.0)),
        ],
    ]
}

fn attackers() -> Vec<AttackerSpec> {
    let fixed = |sensors: Vec<usize>, strategy| AttackerSpec::Fixed { sensors, strategy };
    vec![
        AttackerSpec::None,
        fixed(vec![1], StrategySpec::Truthful),
        fixed(vec![], StrategySpec::PhantomOptimal),
        fixed(vec![0], StrategySpec::PhantomOptimal),
        fixed(vec![0, 0], StrategySpec::GreedyHigh),
        fixed(vec![2], StrategySpec::GreedyLow),
        fixed(vec![0, 9], StrategySpec::PhantomOptimal),
        fixed(vec![0, 1], StrategySpec::GreedyHigh),
        AttackerSpec::RandomEachRound,
    ]
}

fn grid(base: Scenario) -> SweepGrid {
    SweepGrid::new(base)
        .fault_sets(fault_sets())
        .attackers(attackers())
        .schedules([
            SchedulePolicy::Ascending,
            SchedulePolicy::Descending,
            SchedulePolicy::Random,
        ])
        .fusers([
            FuserSpec::Marzullo,
            FuserSpec::BrooksIyengar,
            FuserSpec::Intersection,
            FuserSpec::Hull,
            FuserSpec::InverseVariance,
            FuserSpec::MidpointMedian,
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
        ])
        .detectors([
            DetectionMode::Off,
            DetectionMode::Immediate,
            DetectionMode::Windowed {
                window: 10,
                tolerance: 2,
            },
        ])
}

#[test]
fn every_static_pass_is_pinned_over_a_crossed_grid() {
    let mut hash = Fnv64::default();
    let mut cells = 0;
    for base in bases() {
        let grid = grid(base);
        for cell in grid.cells() {
            let scenario = &cell.scenario;
            let detect = detect_report(scenario);
            hash.update(render(&analyze_scenario(scenario)).as_bytes());
            hash.update(format!("{:?}", guarantee_report(scenario)).as_bytes());
            hash.update(
                format!(
                    "{:?} {:?} {:?} {}",
                    detect.verdict, detect.certain, detect.suspects, detect.false_alarm_free
                )
                .as_bytes(),
            );
            cells += 1;
        }
        for findings in [
            analyze_grid(&grid),
            analyze_grid_guarantees(&grid),
            analyze_grid_detectability(&grid),
            analyze_grid_dominance(&grid),
        ] {
            hash.update(render(&findings).as_bytes());
        }
        hash.update(format!("{:?}", dominance_report(&grid)).as_bytes());
    }
    assert_eq!(cells, 20_412);
    assert_eq!(hash.finish(), "efe5d199a90bfd00");
}
