//! The Table II experiment engine: safety-envelope violation rates in the
//! LandShark case study.
//!
//! Setup (paper Section IV-B): desired speed `v = 10` mph,
//! `δ1 = δ2 = 0.5` mph, four speed sensors (two encoders at 0.2 mph, GPS
//! at 1 mph, camera at 2 mph), fusion with `f = 1`, at most one sensor
//! attacked at any time and "any sensor can be attacked" — modelled as a
//! uniformly random compromised sensor each round. For each schedule the
//! engine reports the fraction of rounds whose fusion interval exceeded
//! 10.5 mph (row 1) or dropped below 9.5 mph (row 2).
//!
//! The engine is a thin aggregation over the deterministic sweep grid:
//! [`sweep_grid`] lays the three schedules × `replicates` Monte Carlo
//! seeds out as closed-loop cells, and [`run_all`] executes them on a
//! [`StreamingSweeper`] (byte-identical for any thread count) and pools
//! each schedule's replicate rows into the paper-facing [`Table2Row`]s.
//! Any cell can be re-run in isolation via `sweep_grid(..).scenario(i)`.

use arsf_core::scenario::{AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, SuiteSpec};
use arsf_core::sweep::{StreamingSweeper, SweepGrid, SweepReport};
use arsf_schedule::SchedulePolicy;

/// Configuration for a Table II run: the paper's vehicle (`v = 10` mph,
/// `δ1 = δ2 = 0.5` mph) under a chosen round count, seed, replicate
/// count and fusion defence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Config {
    /// Number of control rounds per schedule cell.
    pub rounds: u64,
    /// RNG seed (each grid cell derives its own stream from it).
    pub seed: u64,
    /// Monte Carlo replicates per schedule (seed-axis length, at least 1).
    pub replicates: usize,
    /// Optional dynamics-aware historical-fusion defence: when set, every
    /// cell fuses with the Historical fuser under this `max_rate` bound
    /// (mph/s) instead of plain Marzullo — the follow-up defence's
    /// Table II.
    pub history: Option<f64>,
}

impl Default for Table2Config {
    /// The paper's parameters with 20 000 rounds, one replicate and
    /// memoryless (paper) fusion.
    fn default() -> Self {
        Self {
            rounds: 20_000,
            seed: 20140324,
            replicates: 1,
            history: None,
        }
    }
}

/// One Table II cell pair: violation rates for a schedule, pooled across
/// the configured replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The schedule's name.
    pub schedule: String,
    /// Fraction of rounds with fusion upper bound `> v + δ1`.
    pub above: f64,
    /// Fraction of rounds with fusion lower bound `< v − δ2`.
    pub below: f64,
}

/// The schedules Table II compares, in the paper's column order.
pub(crate) const SCHEDULES: [SchedulePolicy; 3] = [
    SchedulePolicy::Ascending,
    SchedulePolicy::Descending,
    SchedulePolicy::Random,
];

/// The Table II sweep grid: `schedules × replicates` closed-loop cells
/// (schedule axis slow, seed axis fast — matching the generic grid's
/// decode order).
///
/// # Panics
///
/// Panics if [`Table2Config::replicates`] is 0 (an empty seed axis).
pub fn sweep_grid(config: &Table2Config) -> SweepGrid {
    let mut base = Scenario::new("table2", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::RandomEachRound)
        .with_rounds(config.rounds)
        .with_seed(config.seed)
        .with_closed_loop(ClosedLoopSpec::new(10.0));
    if let Some(max_rate) = config.history {
        base = base.with_fuser(FuserSpec::Historical { max_rate, dt: 0.1 });
    }
    SweepGrid::new(base)
        .schedules(SCHEDULES)
        .seeds((0..config.replicates as u64).map(|i| config.seed.wrapping_add(i)))
}

/// Pools one schedule's replicate rows out of a report into a
/// [`Table2Row`] (all replicates run equal round counts, so the mean of
/// rates is the pooled rate).
fn pool(report: &SweepReport, schedule: &SchedulePolicy) -> Table2Row {
    let name = schedule.name();
    let (mut above, mut below, mut cells) = (0.0, 0.0, 0u32);
    let rows = report.rows().iter().filter(|row| row.schedule == name);
    for sup in rows.filter_map(|row| row.summary.supervisor.as_ref()) {
        above += sup.above_rate;
        below += sup.below_rate;
        cells += 1;
    }
    assert!(cells > 0, "no cells for schedule {name}");
    Table2Row {
        schedule: name.to_string(),
        above: above / f64::from(cells),
        below: below / f64::from(cells),
    }
}

/// Runs the Table II grid on `sweeper` and returns the three schedules'
/// pooled rows in the paper's order (Ascending, Descending, Random).
pub fn run_all(config: &Table2Config, sweeper: &StreamingSweeper) -> Vec<Table2Row> {
    let report = sweeper.run(&sweep_grid(config));
    SCHEDULES.iter().map(|s| pool(&report, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Table2Config {
        Table2Config {
            rounds: 1500,
            ..Table2Config::default()
        }
    }

    #[test]
    fn historical_defence_cuts_descending_violations() {
        let serial = StreamingSweeper::new(1);
        let memoryless = &run_all(&quick(), &serial)[1];
        let defended = &run_all(
            &Table2Config {
                history: Some(3.5),
                ..quick()
            },
            &serial,
        )[1];
        assert!(
            defended.above + defended.below < memoryless.above + memoryless.below,
            "history must clip forged extensions: {defended:?} vs {memoryless:?}"
        );
    }

    #[test]
    fn run_all_returns_three_labelled_rows() {
        let rows = run_all(&quick(), &StreamingSweeper::new(1));
        let names: Vec<&str> = rows.iter().map(|r| r.schedule.as_str()).collect();
        assert_eq!(names, vec!["ascending", "descending", "random"]);
    }

    #[test]
    fn rows_are_byte_identical_across_thread_counts() {
        // Same config ⇒ identical rows whatever the worker count: the
        // grid's per-cell seed derivation owns all randomness.
        let config = Table2Config {
            rounds: 400,
            replicates: 2,
            ..Table2Config::default()
        };
        let serial = run_all(&config, &StreamingSweeper::new(1));
        let parallel = run_all(&config, &StreamingSweeper::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn replicates_widen_the_seed_axis() {
        let grid = sweep_grid(&Table2Config {
            replicates: 4,
            ..Table2Config::default()
        });
        assert_eq!(grid.len(), 12, "3 schedules x 4 replicates");
        // Every cell is reproducible in isolation.
        let cell = grid.scenario(5);
        assert!(cell.closed_loop.is_some());
        assert_eq!(grid.scenario(5), cell);
    }
}
