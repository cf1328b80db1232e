//! Workspace acceptance test for the closed-loop sweep redesign:
//! `arsf_bench::table2` results are reproduced *through the scenario
//! grid* — Table II's schedule ordering holds (ascending violation-free,
//! random strictly between, descending worst), and the parallel report
//! is byte-identical to the serial one, supervisor columns included.

use arsf::core::sweep::ParallelSweeper;
use arsf::schedule::SchedulePolicy;
use arsf_bench::table2::{run_all, sweep_grid, Table2Config, Table2Row};

fn quick() -> Table2Config {
    Table2Config {
        rounds: 1200,
        replicates: 2,
        ..Table2Config::default()
    }
}

#[test]
fn table2_through_the_grid_reproduces_the_paper_ordering() {
    let rows = run_all(&quick(), &ParallelSweeper::new(1));
    let by_name = |name: &str| -> &Table2Row {
        rows.iter()
            .find(|r| r.schedule == name)
            .expect("schedule present")
    };
    let asc = by_name("ascending");
    let desc = by_name("descending");
    let random = by_name("random");

    assert_eq!(asc.above, 0.0, "paper: 0% above under Ascending");
    assert_eq!(asc.below, 0.0, "paper: 0% below under Ascending");
    assert!(
        desc.above > 0.02 && desc.below > 0.02,
        "descending must violate substantially on both sides: {desc:?}"
    );
    let total = |r: &Table2Row| r.above + r.below;
    assert!(
        total(asc) < total(random) && total(random) < total(desc),
        "random must sit strictly between: asc {} rand {} desc {}",
        total(asc),
        total(random),
        total(desc)
    );
}

#[test]
fn table2_grid_is_byte_identical_serial_vs_parallel() {
    let grid = sweep_grid(&quick());
    assert_eq!(grid.len(), 6, "3 schedules x 2 replicates");
    let serial = grid.run_serial();
    let parallel = ParallelSweeper::new(4).run(&grid);
    assert_eq!(serial, parallel, "4-worker report diverged");
    let csv = serial.to_csv();
    assert_eq!(csv, parallel.to_csv(), "CSV bytes diverged");
    assert_eq!(serial.to_json(), parallel.to_json(), "JSON bytes diverged");

    // The supervisor columns are populated on every closed-loop row and
    // survive emission: an ascending row renders 0 rates, a descending
    // one renders strictly positive ones.
    for row in serial.rows() {
        let sup = row
            .summary
            .supervisor
            .as_ref()
            .expect("closed-loop rows carry supervisor stats");
        assert!(sup.min_gap.is_none(), "single vehicle has no gap");
        match row.schedule.as_str() {
            "ascending" => assert_eq!((sup.above_rate, sup.below_rate), (0.0, 0.0)),
            "descending" => assert!(sup.above_rate > 0.0 && sup.below_rate > 0.0),
            _ => {}
        }
    }
    let header = csv.lines().next().expect("header line");
    for column in [
        "faults",
        "above_rate",
        "below_rate",
        "preemptions",
        "min_gap",
        "vehicle_mean_widths",
        "vehicle_max_widths",
        "vehicle_truth_lost",
    ] {
        assert!(header.contains(column), "CSV header misses {column}");
    }
    assert!(
        serial.to_json().contains("\"above_rate\":0,"),
        "ascending rows emit their zero rate"
    );
}

#[test]
fn table2_cells_rerun_identically_in_isolation() {
    let config = quick();
    let grid = sweep_grid(&config);
    let report = ParallelSweeper::new(2).run(&grid);
    for index in [0, 3, 5] {
        let solo = arsf::core::ScenarioRunner::new(&grid.scenario(index)).run();
        assert_eq!(
            report.rows()[index].summary,
            solo,
            "cell {index} not reproducible in isolation"
        );
    }
}

#[test]
fn closed_loop_platoon_cells_report_gap_statistics() {
    use arsf::core::scenario::{self, Scenario};
    let preset: Scenario = scenario::find("platoon-historical").expect("preset registered");
    let mut preset = preset;
    preset.rounds = 300;
    preset.schedule = SchedulePolicy::Ascending;
    let summary = arsf::core::ScenarioRunner::new(&preset).run();
    let sup = summary.supervisor.expect("closed-loop summary");
    let gap = sup.min_gap.expect("platoon reports its minimum gap");
    assert!(gap > 0.0, "ascending platoon must not collide");
    assert_eq!(
        (sup.above_rate, sup.below_rate),
        (0.0, 0.0),
        "ascending neutralises single random attackers"
    );
    // Every vehicle — not just the leader — carries fusion statistics.
    assert_eq!(summary.vehicles.len(), 3, "one aggregate per vehicle");
    for (i, vehicle) in summary.vehicles.iter().enumerate() {
        assert_eq!(
            vehicle.widths.count() + vehicle.fusion_failures,
            300,
            "vehicle {i} must account for every control period"
        );
    }
    assert_eq!(
        summary.vehicles[0].widths, summary.widths,
        "the leader's aggregate is the summary's headline stats"
    );
}

#[test]
fn previously_panicking_closed_loop_combos_run_through_the_grid() {
    // Regression (ISSUE 4): fault injection and non-phantom strategies
    // used to panic in `Scenario::landshark_config`; a faulted, greedily
    // attacked, Brooks–Iyengar-fused platoon now sweeps like any other
    // cell — and stays byte-identical across thread counts.
    use arsf::core::scenario::{AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec};
    use arsf::core::sweep::SweepGrid;
    use arsf::prelude::SuiteSpec;
    use arsf::sensor::{FaultKind, FaultModel};

    let base = Scenario::new("issue4", SuiteSpec::Landshark)
        .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.25))
        .with_rounds(150)
        .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(2, 0.01));
    let grid = SweepGrid::new(base)
        .attackers([
            AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyHigh,
            },
            AttackerSpec::Fixed {
                sensors: vec![1],
                strategy: StrategySpec::Truthful,
            },
            AttackerSpec::RandomEachRound,
        ])
        .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
        .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending]);
    assert_eq!(grid.len(), 12);
    for cell in grid.cells() {
        cell.scenario.validate().expect("supported combination");
    }
    let serial = grid.run_serial();
    let threaded = ParallelSweeper::new(4).run(&grid);
    assert_eq!(serial, threaded, "4-worker report diverged");
    assert_eq!(serial.to_csv(), threaded.to_csv(), "CSV bytes diverged");
    assert_eq!(serial.to_json(), threaded.to_json(), "JSON bytes diverged");
    for row in serial.rows() {
        assert_eq!(row.summary.rounds, 150);
        assert_eq!(row.summary.vehicles.len(), 2, "per-vehicle columns");
        assert!(row.faults.contains("2:bias(3)@0.25"), "fault axis label");
    }
}
