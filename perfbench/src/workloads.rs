//! The three workloads and the grids each one sweeps, derived from the
//! benchmark seed.
//!
//! Every workload shifts its grids' seed axis by `--seed`: at
//! [`DEFAULT_SEED`] the axis is the committed one, so `open-attacked`
//! (in-process and driven) sweeps exactly the golden `open-loop-48` grid
//! and `closed-loop` checks an extra pass of the golden Table II grid.

use arsf_bench::golden;
use arsf_core::scenario::{FuserSpec, Scenario, SuiteSpec};
use arsf_core::sweep::{SweepGrid, SweepReport};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};

/// The seed at which the seed axes equal the committed golden grids'.
pub const DEFAULT_SEED: u64 = 0;

/// Rounds per cell of `open-honest-wide`.
pub const HONEST_WIDE_ROUNDS: u64 = 3000;

/// Rounds (control periods) per cell of `closed-loop`.
pub const CLOSED_LOOP_ROUNDS: u64 = 3000;

/// Interval widths of the `open-honest-wide` suite.
pub const WIDE_SUITE: [f64; 9] = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The golden `open-loop-48` grid: every round is forged.
    OpenAttacked,
    /// An honest 9-sensor suite with one probabilistic bias fault.
    OpenHonestWide,
    /// Table II's closed-loop grid, single vehicle and 3-vehicle platoon.
    ClosedLoop,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::OpenAttacked,
        Workload::OpenHonestWide,
        Workload::ClosedLoop,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenAttacked => "open-attacked",
            Workload::OpenHonestWide => "open-honest-wide",
            Workload::ClosedLoop => "closed-loop",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A golden seed axis shifted by the benchmark seed.
pub fn shifted(axis: &[u64], seed: u64) -> Vec<u64> {
    axis.iter().map(|s| s.wrapping_add(seed)).collect()
}

/// The grids a workload sweeps in-process, in order.
pub fn grids(workload: Workload, seed: u64) -> Vec<SweepGrid> {
    match workload {
        Workload::OpenAttacked => vec![open_attacked(seed)],
        Workload::OpenHonestWide => vec![open_honest_wide(seed)],
        Workload::ClosedLoop => closed_loop(seed),
    }
}

fn open_attacked(seed: u64) -> SweepGrid {
    let golden = golden::open_loop_48();
    let seeds = shifted(golden.seed_axis(), seed);
    golden.seeds(seeds)
}

fn open_honest_wide(seed: u64) -> SweepGrid {
    let base = Scenario::new("honest-wide", SuiteSpec::Widths(WIDE_SUITE.to_vec()))
        .with_f(2)
        .with_fault(4, FaultModel::new(FaultKind::Bias { offset: 6.0 }, 0.25))
        .with_rounds(HONEST_WIDE_ROUNDS);
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
            DetectionMode::Immediate,
            DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        ])
        .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
        .seeds(shifted(&[2014, 99], seed))
}

fn closed_loop(seed: u64) -> Vec<SweepGrid> {
    let table2 = golden::table2_closed_loop();
    let seeds = shifted(table2.seed_axis(), seed);
    let platoon = table2
        .base()
        .closed_loop
        .expect("the Table II grid is closed-loop")
        .with_platoon(3, 0.01);
    let platoon_base = table2
        .base()
        .clone()
        .named("table2-platoon")
        .with_closed_loop(platoon)
        .with_rounds(CLOSED_LOOP_ROUNDS);
    vec![
        table2
            .clone()
            .rounds([CLOSED_LOOP_ROUNDS])
            .seeds(seeds.clone()),
        SweepGrid::new(platoon_base)
            .schedules(table2.schedule_axis().to_vec())
            .seeds(seeds),
    ]
}

/// The golden Table II grid (200 rounds per cell) with its seed axis
/// shifted: at [`DEFAULT_SEED`] it is the committed grid.
pub fn closed_loop_golden(seed: u64) -> SweepGrid {
    let table2 = golden::table2_closed_loop();
    let seeds = shifted(table2.seed_axis(), seed);
    table2.seeds(seeds)
}

/// The `open-attacked` grid as `sweep_drive` builds it from
/// [`drive_grid_args`]: the golden grid itself at [`DEFAULT_SEED`]
/// (`--golden` names it), otherwise the same axes under the CLI's base
/// name, so the in-process CSV is byte-comparable with the driven one.
pub fn drive_grid(seed: u64) -> SweepGrid {
    let golden = golden::open_loop_48();
    if seed == DEFAULT_SEED {
        return golden;
    }
    SweepGrid::new(golden.base().clone().named("sweep"))
        .fusers(golden.fuser_axis().to_vec())
        .detectors(golden.detector_axis().to_vec())
        .schedules(golden.schedule_axis().to_vec())
        .seeds(shifted(golden.seed_axis(), seed))
}

/// The `sweep_drive` grid flags that build [`drive_grid`].
pub fn drive_grid_args(seed: u64) -> Vec<String> {
    if seed == DEFAULT_SEED {
        return vec!["--golden".into(), "open-loop-48".into()];
    }
    let golden = golden::open_loop_48();
    let seeds: Vec<String> = shifted(golden.seed_axis(), seed)
        .iter()
        .map(u64::to_string)
        .collect();
    [
        "--fusers",
        "marzullo,brooks-iyengar,inverse-variance,historical",
        "--detectors",
        "off,immediate,windowed:10:3",
        "--schedules",
        "ascending,descending",
        "--seeds",
        &seeds.join(","),
        "--rounds",
        &golden.base().rounds.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Vehicles per cell of a grid: the platoon size closed-loop, else 1.
pub fn vehicles(grid: &SweepGrid) -> u64 {
    grid.base()
        .closed_loop
        .and_then(|spec| spec.platoon)
        .map_or(1, |platoon| platoon.size as u64)
}

/// Fusion rounds a report completed, counting vehicle-rounds for
/// platoons.
pub fn report_rounds(grid: &SweepGrid, report: &SweepReport) -> u64 {
    report.rows().iter().map(|r| r.summary.rounds).sum::<u64>() * vehicles(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsf_core::sweep::store::grid_address;

    #[test]
    fn default_seed_sweeps_the_golden_grids() {
        assert_eq!(
            grids(Workload::OpenAttacked, DEFAULT_SEED)[0],
            golden::open_loop_48()
        );
        assert_eq!(
            closed_loop_golden(DEFAULT_SEED),
            golden::table2_closed_loop()
        );
        assert_eq!(drive_grid(DEFAULT_SEED), golden::open_loop_48());
    }

    #[test]
    fn other_seeds_shift_only_the_seed_axis() {
        let shifted_grid = drive_grid(7);
        assert_eq!(shifted_grid.seed_axis(), &[2021, 106]);
        assert_ne!(
            grid_address(&shifted_grid),
            grid_address(&golden::open_loop_48())
        );
        assert_eq!(shifted_grid.len(), 48);
        assert_eq!(grids(Workload::ClosedLoop, 7)[1].len(), 6);
        assert_eq!(grids(Workload::OpenHonestWide, 7)[0].len(), 32);
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
