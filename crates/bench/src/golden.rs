//! The golden sweep grids behind the committed regression baselines.
//!
//! Two grids cover both execution modes of the engine:
//!
//! * [`open_loop_48`] — the 48-cell grid the `sweep_parallel` criterion
//!   bench uses (4 fusers × 3 detectors × 2 schedules × 2 seeds around a
//!   stealthily-attacked LandShark), at a round count sized for CI.
//! * [`table2_closed_loop`] — Table II's closed-loop grid (3 schedules ×
//!   2 seed replicates of a LandShark driven through its control loop
//!   under the "any sensor can be attacked" model), exercising the
//!   supervisor columns.
//!
//! Their base scenarios are the `baseline-open-loop` and
//! `baseline-table2` registry presets, so the grid definitions are
//! discoverable from the scenario registry. `sweep_diff record` stores
//! their reports under `baselines/<address>.json`; `sweep_diff check`
//! (and CI's `baseline-check` job) re-runs them and fails on any
//! out-of-tolerance cell.

use arsf_core::scenario::{self, FuserSpec, Scenario};
use arsf_core::sweep::SweepGrid;
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;

fn preset(name: &str) -> Scenario {
    scenario::find(name).unwrap_or_else(|| panic!("registry preset `{name}` missing"))
}

/// The open-loop golden grid: 4 fusers × 3 detectors × 2 schedules ×
/// 2 seeds = 48 cells around the `baseline-open-loop` preset.
pub fn open_loop_48() -> SweepGrid {
    SweepGrid::new(preset("baseline-open-loop"))
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
        .seeds([2014, 99])
}

/// The closed-loop golden grid: Table II's 3 schedules × 2 seed
/// replicates around the `baseline-table2` preset (6 cells with
/// supervisor columns).
pub fn table2_closed_loop() -> SweepGrid {
    SweepGrid::new(preset("baseline-table2"))
        .schedules([
            SchedulePolicy::Ascending,
            SchedulePolicy::Descending,
            SchedulePolicy::Random,
        ])
        .seeds([1, 2])
}

/// Every golden grid, `(name, grid)` pairs in reporting order.
pub fn all() -> Vec<(&'static str, SweepGrid)> {
    vec![
        ("open-loop-48", open_loop_48()),
        ("table2-closed-loop", table2_closed_loop()),
    ]
}

/// Looks a golden grid up by name.
///
/// # Errors
///
/// Returns a message listing the golden grids when none has that name.
pub fn find(name: &str) -> Result<SweepGrid, String> {
    let all = all();
    let names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    let unknown = format!(
        "unknown golden grid `{name}` (one of: {})",
        names.join(", ")
    );
    all.into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, grid)| grid)
        .ok_or(unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsf_core::sweep::store::grid_address;

    #[test]
    fn golden_grids_have_the_documented_shapes() {
        assert_eq!(open_loop_48().len(), 48);
        assert_eq!(table2_closed_loop().len(), 6);
        for cell in table2_closed_loop().cells() {
            assert!(cell.scenario.closed_loop.is_some());
        }
        for cell in open_loop_48().cells() {
            assert!(cell.scenario.closed_loop.is_none());
        }
    }

    #[test]
    fn golden_grids_resolve_by_name_with_distinct_addresses() {
        let names: Vec<&str> = all().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["open-loop-48", "table2-closed-loop"]);
        assert!(find("open-loop-48").is_ok());
        let err = find("nope").unwrap_err();
        assert!(err.contains("unknown golden grid `nope`"), "{err}");
        assert_ne!(
            grid_address(&open_loop_48()),
            grid_address(&table2_closed_loop())
        );
    }
}
