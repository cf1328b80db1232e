//! Workspace-level acceptance test for the sweep subsystem: a ≥48-cell
//! grid swept in parallel must produce a report byte-identical to the
//! serial run — same rows, same order, same numbers — and every cell
//! must be reproducible in isolation.

use arsf::core::scenario::{AttackerSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec};
use arsf::core::sweep::{StreamingSweeper, SweepGrid};
use arsf::core::{DetectionMode, ScenarioRunner};
use arsf::schedule::SchedulePolicy;

/// 4 fusers × 3 detectors × 2 schedules × 2 seeds = 48 cells.
fn acceptance_grid() -> SweepGrid {
    let base = Scenario::new("acceptance", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(60);
    SweepGrid::new(base)
        .fusers([
            FuserSpec::Marzullo,
            FuserSpec::BrooksIyengar,
            FuserSpec::InverseVariance,
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
                tolerance: 3,
            },
        ])
        .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
        .seeds([2014, 7])
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let grid = acceptance_grid();
    assert!(grid.len() >= 48, "acceptance wants a >=48-cell grid");
    let serial = grid.run_serial();
    assert_eq!(serial.len(), grid.len());
    for threads in [2, 4, 8] {
        let parallel = StreamingSweeper::new(threads).run(&grid);
        assert_eq!(serial, parallel, "{threads}-thread report diverged");
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "{threads}-thread CSV bytes diverged"
        );
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "{threads}-thread JSON bytes diverged"
        );
    }
    // Rows are in grid order: cell column is 0..n.
    for (i, row) in serial.rows().iter().enumerate() {
        assert_eq!(row.cell, i);
    }
}

#[test]
fn any_cell_reruns_identically_in_isolation() {
    let grid = acceptance_grid();
    let report = StreamingSweeper::new(4).run(&grid);
    for index in [0, 13, 29, 47] {
        let solo = ScenarioRunner::new(&grid.scenario(index)).run();
        assert_eq!(
            report.rows()[index].summary,
            solo,
            "cell {index} not reproducible in isolation"
        );
    }
}

#[test]
fn random_schedule_cells_stay_deterministic_across_thread_counts() {
    // The Random schedule consumes the per-cell RNG: determinism must
    // come from the derived seed, not from execution order.
    let grid = SweepGrid::new(
        Scenario::new("rand", SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Random)
            .with_rounds(40),
    )
    .fusers([FuserSpec::Marzullo, FuserSpec::Hull])
    .seeds([1, 2, 3]);
    let a = StreamingSweeper::new(2).run(&grid);
    let b = StreamingSweeper::new(5).run(&grid);
    assert_eq!(a, b);
    assert_eq!(a.to_csv(), grid.run_serial().to_csv());
}
