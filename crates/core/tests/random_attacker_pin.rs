//! Pins an open-loop cell of the Table II attacker: a LandShark suite
//! under the Random schedule, one sensor compromised at random every
//! round, at two seeds.
//!
//! The golden grids and the report fixtures cover this attacker only in
//! closed-loop cells. Here the per-round draw and the Random schedule
//! share one RNG stream inside a bare open-loop runner, so a change to
//! where or how the compromised sensor is drawn moves these bytes. The
//! expected values were rendered once and are never regenerated.

use arsf_core::scenario::{AttackerSpec, Scenario, SuiteSpec};
use arsf_core::sweep::SweepGrid;
use arsf_core::ScenarioRunner;
use arsf_schedule::SchedulePolicy;

fn grid() -> SweepGrid {
    let base = Scenario::new("open random", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::RandomEachRound)
        .with_schedule(SchedulePolicy::Random)
        .with_rounds(60);
    SweepGrid::new(base).seeds([5, 2014])
}

const SUMMARIES: [&str; 2] = [
    "BatchSummary { scenario: \"open random#0\", fuser: \"marzullo\", detector: \"immediate\", \
     rounds: 60, widths: WidthStats { count: 60, sum: 18.66461376057096, \
     min: 0.10126785045701858, max: 1.0 }, truth_lost: 0, fusion_failures: 0, \
     flagged_rounds: 0, condemned: [], supervisor: None, vehicles: [] }",
    "BatchSummary { scenario: \"open random#1\", fuser: \"marzullo\", detector: \"immediate\", \
     rounds: 60, widths: WidthStats { count: 60, sum: 22.726894718306227, \
     min: 0.1999999999999993, max: 1.0 }, truth_lost: 0, fusion_failures: 0, \
     flagged_rounds: 0, condemned: [], supervisor: None, vehicles: [] }",
];

const CSV_BODY: &str = "\
0,open random#0,landshark,none,random-each-round,random,marzullo,immediate,60,4517933670823692284,\
0.311076896009516,0.10126785045701858,1,0,0,0,0,,,,,,,,
1,open random#1,landshark,none,random-each-round,random,marzullo,immediate,60,10033936476924813138,\
0.3787815786384371,0.1999999999999993,1,0,0,0,0,,,,,,,,
";

#[test]
fn open_loop_random_attacker_cells_match_the_pinned_summaries() {
    let grid = grid();
    assert_eq!(grid.len(), SUMMARIES.len());
    for (cell, pinned) in grid.cells().zip(SUMMARIES) {
        let summary = ScenarioRunner::new(&cell.scenario).run();
        assert_eq!(format!("{summary:?}"), pinned, "cell {}", cell.index);
    }
}

#[test]
fn open_loop_random_attacker_cells_match_the_pinned_csv() {
    assert_eq!(grid().run_serial().to_csv_body(), CSV_BODY);
}
