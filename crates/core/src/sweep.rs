//! Deterministic scenario-grid sweeps, serial or multi-core.
//!
//! The paper's headline results are cross-products — fusers × detectors
//! × attack strategies × schedules — but running them used to mean
//! hand-listing every combination and executing serially. This module
//! turns the cross-product itself into a first-class value:
//!
//! * [`SweepGrid`] — a builder over experiment *axes* (suites, fault
//!   sets, attackers, schedules, fusers, detectors, rounds, seeds) that
//!   lazily yields the cartesian product of [`Scenario`]s. Each cell's
//!   RNG seed is derived deterministically from the seed-axis value and
//!   the cell index ([`derive_seed`]), so any cell is reproducible in
//!   isolation: `grid.scenario(i)` always denotes the same experiment.
//! * [`StreamingSweeper`] (also named [`ParallelSweeper`]) — the one
//!   sweep engine. It shards cells across scoped
//!   worker threads, each owning one reusable
//!   [`RoundOutcome`] buffer and building its own engines from the
//!   cell's specs (the [`FuserSpec`] / [`DetectionMode`] factories make
//!   per-thread cloning trivial), so no synchronisation happens inside a
//!   cell. Rows come back in **grid order**, streamed to a sink or
//!   collected into a report, byte-identical whatever the thread count;
//!   [`SweepGrid::run_serial`] is its one-thread case.
//! * [`SweepReport`] — the ordered rows with CSV ([`SweepReport::to_csv`])
//!   and JSON ([`SweepReport::to_json`]) emission for downstream tooling.
//!   Both follow one column table, [`row::COLUMNS`], which also drives
//!   the baseline [`store::CellRecord`] and the CSV reader.
//!
//! # Example
//!
//! ```
//! use arsf_core::scenario::{AttackerSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec};
//! use arsf_core::sweep::{StreamingSweeper, SweepGrid};
//! use arsf_core::DetectionMode;
//! use arsf_schedule::SchedulePolicy;
//!
//! let base = Scenario::new("demo", SuiteSpec::Landshark)
//!     .with_attacker(AttackerSpec::Fixed {
//!         sensors: vec![0],
//!         strategy: StrategySpec::PhantomOptimal,
//!     })
//!     .with_rounds(50);
//! let grid = SweepGrid::new(base)
//!     .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
//!     .detectors([DetectionMode::Off, DetectionMode::Immediate])
//!     .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending]);
//! assert_eq!(grid.len(), 8);
//!
//! let sweeper = StreamingSweeper::new(4);
//! let report = sweeper.run(&grid);
//! assert_eq!(report, grid.run_serial());
//! assert!(!report.is_empty());
//! // The same rows, streamed in grid order without building a report.
//! let mut cells = Vec::new();
//! sweeper.stream_range(&grid, 0..grid.len(), |row| cells.push(row.cell));
//! assert_eq!(cells, (0..8).collect::<Vec<_>>());
//! ```

pub mod diff;
pub mod row;
pub mod store;
mod stream;

pub use stream::StreamingSweeper;

/// Another name for the sweep engine, used by callers that collect
/// whole reports (`perfbench/` among them).
pub type ParallelSweeper = StreamingSweeper;

use arsf_schedule::SchedulePolicy;
use arsf_sensor::FaultModel;

use crate::runner::{BatchSummary, ScenarioRunner};
use crate::scenario::{faults_label, AttackerSpec, FuserSpec, Scenario, SuiteSpec};
use crate::{DetectionMode, RoundOutcome};

/// Derives the RNG seed for one grid cell from the seed-axis value and
/// the cell index (splitmix64 finalisation over both).
///
/// The derivation is a pure function, so a cell re-run in isolation —
/// on any machine, any thread count — samples the identical measurement
/// stream as the same cell inside a full sweep.
pub fn derive_seed(base: u64, cell: u64) -> u64 {
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    splitmix64(base ^ splitmix64(cell))
}

/// A cartesian product of experiment axes, lazily materialised as
/// [`Scenario`]s.
///
/// Every axis starts as a singleton holding the base scenario's value;
/// the builder methods replace one axis at a time. Cell `i` is decoded
/// in row-major order with the axes nested (slowest to fastest):
/// suites, fault sets, attackers, schedules, fusers, detectors, rounds,
/// seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    base: Scenario,
    suites: Vec<SuiteSpec>,
    fault_sets: Vec<Vec<(usize, FaultModel)>>,
    attackers: Vec<AttackerSpec>,
    schedules: Vec<SchedulePolicy>,
    fusers: Vec<FuserSpec>,
    detectors: Vec<DetectionMode>,
    rounds: Vec<u64>,
    seeds: Vec<u64>,
}

fn axis<T>(values: impl IntoIterator<Item = T>, name: &str) -> Vec<T> {
    let values: Vec<T> = values.into_iter().collect();
    assert!(!values.is_empty(), "{name} axis must not be empty");
    values
}

impl SweepGrid {
    /// Creates a 1-cell grid around a base scenario; builder methods
    /// widen one axis each.
    pub fn new(base: Scenario) -> Self {
        Self {
            suites: vec![base.suite.clone()],
            fault_sets: vec![base.faults.clone()],
            attackers: vec![base.attacker.clone()],
            schedules: vec![base.schedule.clone()],
            fusers: vec![base.fuser.clone()],
            detectors: vec![base.detector],
            rounds: vec![base.rounds],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Sets the fault-injection axis; each entry is one complete set of
    /// `(sensor, fault)` pairs applied to a cell.
    #[must_use]
    pub fn fault_sets(
        mut self,
        values: impl IntoIterator<Item = Vec<(usize, FaultModel)>>,
    ) -> Self {
        self.fault_sets = axis(values, "fault_sets");
        self
    }

    /// Sets the attacker axis.
    #[must_use]
    pub fn attackers(mut self, values: impl IntoIterator<Item = AttackerSpec>) -> Self {
        self.attackers = axis(values, "attackers");
        self
    }

    /// Sets the schedule axis.
    #[must_use]
    pub fn schedules(mut self, values: impl IntoIterator<Item = SchedulePolicy>) -> Self {
        self.schedules = axis(values, "schedules");
        self
    }

    /// Sets the fusion-algorithm axis.
    #[must_use]
    pub fn fusers(mut self, values: impl IntoIterator<Item = FuserSpec>) -> Self {
        self.fusers = axis(values, "fusers");
        self
    }

    /// Sets the detector axis.
    #[must_use]
    pub fn detectors(mut self, values: impl IntoIterator<Item = DetectionMode>) -> Self {
        self.detectors = axis(values, "detectors");
        self
    }

    /// Sets the rounds-per-run axis.
    #[must_use]
    pub fn rounds(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.rounds = axis(values, "rounds");
        self
    }

    /// Sets the seed axis (each value spawns one replicate of every other
    /// combination; the per-cell seed is [`derive_seed`]d from it).
    #[must_use]
    pub fn seeds(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = axis(values, "seeds");
        self
    }

    /// The base scenario the grid was built around (its `f`, truth
    /// trajectory and closed-loop spec apply to every cell).
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// The sensor-suite axis values.
    pub fn suite_axis(&self) -> &[SuiteSpec] {
        &self.suites
    }

    /// The fault-injection axis values.
    pub fn fault_set_axis(&self) -> &[Vec<(usize, FaultModel)>] {
        &self.fault_sets
    }

    /// The attacker axis values.
    pub fn attacker_axis(&self) -> &[AttackerSpec] {
        &self.attackers
    }

    /// The schedule axis values.
    pub fn schedule_axis(&self) -> &[SchedulePolicy] {
        &self.schedules
    }

    /// The fusion-algorithm axis values.
    pub fn fuser_axis(&self) -> &[FuserSpec] {
        &self.fusers
    }

    /// The detector axis values.
    pub fn detector_axis(&self) -> &[DetectionMode] {
        &self.detectors
    }

    /// The rounds-per-run axis values.
    pub fn rounds_axis(&self) -> &[u64] {
        &self.rounds
    }

    /// The seed axis values (per-cell seeds are [`derive_seed`]d from
    /// them).
    pub fn seed_axis(&self) -> &[u64] {
        &self.seeds
    }

    /// The grid-order cell index of the cell with the given per-axis
    /// coordinates — the inverse of the row-major decoding
    /// [`SweepGrid::scenario`] performs (seeds fastest, suites slowest).
    ///
    /// Static analyses use it to point a finding about an axis *value*
    /// at a concrete representative cell.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for its axis.
    pub fn cell_index(&self, coords: AxisCoords) -> usize {
        let axes = [
            (coords.suite, self.suites.len(), "suite"),
            (coords.fault_set, self.fault_sets.len(), "fault_set"),
            (coords.attacker, self.attackers.len(), "attacker"),
            (coords.schedule, self.schedules.len(), "schedule"),
            (coords.fuser, self.fusers.len(), "fuser"),
            (coords.detector, self.detectors.len(), "detector"),
            (coords.rounds, self.rounds.len(), "rounds"),
            (coords.seed, self.seeds.len(), "seed"),
        ];
        let mut index = 0usize;
        for (coord, len, axis) in axes {
            assert!(coord < len, "{axis} coordinate {coord} out of range");
            index = index * len + coord;
        }
        index
    }

    /// Decodes cell `index` back into per-axis coordinates — the inverse
    /// of [`SweepGrid::cell_index`], and the coordinate view of the
    /// row-major decoding [`SweepGrid::scenario`] performs.
    ///
    /// Static analyses use it to enumerate the cells neighbouring a cell
    /// along exactly one axis — the pairs dominance edges connect.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn coords(&self, index: usize) -> AxisCoords {
        assert!(index < self.len(), "cell {index} out of range");
        let mut rem = index;
        let mut pick = |len: usize| {
            let i = rem % len;
            rem /= len;
            i
        };
        // Fastest-varying axes are decoded first, mirroring `scenario`.
        let seed = pick(self.seeds.len());
        let rounds = pick(self.rounds.len());
        let detector = pick(self.detectors.len());
        let fuser = pick(self.fusers.len());
        let schedule = pick(self.schedules.len());
        let attacker = pick(self.attackers.len());
        let fault_set = pick(self.fault_sets.len());
        let suite = pick(self.suites.len());
        AxisCoords {
            suite,
            fault_set,
            attacker,
            schedule,
            fuser,
            detector,
            rounds,
            seed,
        }
    }

    /// The number of grid cells (the product of all axis lengths).
    ///
    /// # Panics
    ///
    /// Panics if the product overflows `usize`.
    #[allow(clippy::len_without_is_empty)] // axes are never empty: len() >= 1
    pub fn len(&self) -> usize {
        [
            self.suites.len(),
            self.fault_sets.len(),
            self.attackers.len(),
            self.schedules.len(),
            self.fusers.len(),
            self.detectors.len(),
            self.rounds.len(),
            self.seeds.len(),
        ]
        .iter()
        .try_fold(1_usize, |acc, &n| acc.checked_mul(n))
        .unwrap_or_else(|| panic!("grid size overflows usize"))
    }

    /// Materialises the scenario for cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn scenario(&self, index: usize) -> Scenario {
        assert!(index < self.len(), "cell {index} out of range");
        let mut rem = index;
        let mut pick = |len: usize| {
            let i = rem % len;
            rem /= len;
            i
        };
        // Fastest-varying axes are decoded first (row-major, seeds last).
        let seed = self.seeds[pick(self.seeds.len())];
        let rounds = self.rounds[pick(self.rounds.len())];
        let detector = self.detectors[pick(self.detectors.len())];
        let fuser = self.fusers[pick(self.fusers.len())].clone();
        let schedule = self.schedules[pick(self.schedules.len())].clone();
        let attacker = self.attackers[pick(self.attackers.len())].clone();
        let faults = self.fault_sets[pick(self.fault_sets.len())].clone();
        let suite = self.suites[pick(self.suites.len())].clone();
        Scenario {
            name: format!("{}#{}", self.base.name, index),
            suite,
            faults,
            attacker,
            schedule,
            f: self.base.f,
            fuser,
            detector,
            truth: self.base.truth,
            rounds,
            seed: derive_seed(seed, index as u64),
            closed_loop: self.base.closed_loop,
        }
    }

    /// Lazily iterates all cells in grid order.
    pub fn cells(&self) -> Cells<'_> {
        Cells {
            grid: self,
            next: 0,
            len: self.len(),
        }
    }

    /// Runs every cell in grid order on the calling thread (one reused
    /// outcome buffer): the sweep engine with one worker.
    pub fn run_serial(&self) -> SweepReport {
        StreamingSweeper::new(1).run(self)
    }
}

/// Per-axis coordinates of one grid cell (all default to `0`, the first
/// value of each axis) — the argument of [`SweepGrid::cell_index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AxisCoords {
    /// Index into the suite axis.
    pub suite: usize,
    /// Index into the fault-set axis.
    pub fault_set: usize,
    /// Index into the attacker axis.
    pub attacker: usize,
    /// Index into the schedule axis.
    pub schedule: usize,
    /// Index into the fuser axis.
    pub fuser: usize,
    /// Index into the detector axis.
    pub detector: usize,
    /// Index into the rounds axis.
    pub rounds: usize,
    /// Index into the seed axis.
    pub seed: usize,
}

/// One grid cell: its index in grid order and the materialised scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in grid order.
    pub index: usize,
    /// The cell's complete experiment description.
    pub scenario: Scenario,
}

/// Lazy iterator over a grid's cells (see [`SweepGrid::cells`]).
#[derive(Debug, Clone)]
pub struct Cells<'a> {
    grid: &'a SweepGrid,
    next: usize,
    len: usize,
}

impl Iterator for Cells<'_> {
    type Item = SweepCell;

    fn next(&mut self) -> Option<SweepCell> {
        if self.next >= self.len {
            return None;
        }
        let index = self.next;
        self.next += 1;
        Some(SweepCell {
            index,
            scenario: self.grid.scenario(index),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Cells<'_> {}

/// Executes cell `index` into a caller-owned reusable buffer.
fn run_cell(index: usize, scenario: Scenario, buffer: &mut RoundOutcome) -> SweepRow {
    let summary = ScenarioRunner::new(&scenario).run_into(buffer);
    SweepRow {
        cell: index,
        suite: scenario.suite.label(),
        faults: faults_label(&scenario.faults),
        attacker: scenario.attacker.label(),
        schedule: scenario.schedule.name().to_string(),
        rounds: scenario.rounds,
        seed: scenario.seed,
        summary,
    }
}

/// One report row: the cell's axis coordinates plus its aggregated
/// [`BatchSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The cell index in grid order.
    pub cell: usize,
    /// Suite label (see [`SuiteSpec::label`]).
    pub suite: String,
    /// Fault-set label (see [`faults_label`]) — without it two rows of a
    /// `fault_sets(...)` axis would be indistinguishable except by cell
    /// index.
    pub faults: String,
    /// Attacker label (see [`AttackerSpec::label`]).
    pub attacker: String,
    /// Schedule name.
    pub schedule: String,
    /// Rounds executed.
    pub rounds: u64,
    /// The derived per-cell RNG seed actually used.
    pub seed: u64,
    /// The run's aggregated statistics.
    pub summary: BatchSummary,
}

/// An ordered sweep result: rows are always in grid order, whatever
/// thread interleaving produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    rows: Vec<SweepRow>,
}

impl SweepReport {
    /// The rows, in grid order.
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the report as CSV: the header, then one
    /// [`SweepRow::to_csv_line`] per cell. The columns, their null rule
    /// and list encoding are documented on [`COLUMNS`](row::COLUMNS).
    pub fn to_csv(&self) -> String {
        Self::csv_header() + &self.to_csv_body()
    }

    /// [`SweepReport::to_csv`] without the header line — the shape
    /// `--cells` shard outputs use so they concatenate into the full
    /// sweep's CSV without manual header stripping.
    pub fn to_csv_body(&self) -> String {
        self.rows
            .iter()
            .map(|row| row.to_csv_line() + "\n")
            .collect()
    }

    /// Renders the report as a JSON array with one object per row,
    /// keyed by the [`COLUMNS`](row::COLUMNS) names (nulls are `null`,
    /// lists are arrays).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n  " } else { ",\n  " });
            row.write_json(&mut out);
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::row::{csv_field, json_string};
    use super::*;
    use crate::scenario::StrategySpec;
    use arsf_sensor::{FaultKind, FaultModel};
    use std::ops::Range;

    /// The engine-independent reference: each cell of `range` built and
    /// run on its own, its row assembled by hand.
    pub(super) fn oracle(grid: &SweepGrid, range: Range<usize>) -> SweepReport {
        let rows = range
            .map(|cell| {
                let scenario = grid.scenario(cell);
                SweepRow {
                    cell,
                    suite: scenario.suite.label(),
                    faults: faults_label(&scenario.faults),
                    attacker: scenario.attacker.label(),
                    schedule: scenario.schedule.name().to_string(),
                    rounds: scenario.rounds,
                    seed: scenario.seed,
                    summary: ScenarioRunner::new(&scenario).run(),
                }
            })
            .collect();
        SweepReport { rows }
    }

    fn attacked_base(rounds: u64) -> Scenario {
        Scenario::new("grid", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(rounds)
    }

    fn full_grid(rounds: u64) -> SweepGrid {
        // 4 fusers × 3 detectors × 2 schedules × 2 seeds = 48 cells.
        SweepGrid::new(attacked_base(rounds))
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

    #[test]
    fn grid_len_is_the_axis_product() {
        assert_eq!(SweepGrid::new(attacked_base(10)).len(), 1);
        assert_eq!(full_grid(10).len(), 48);
        let cells: Vec<_> = full_grid(10).cells().collect();
        assert_eq!(cells.len(), 48);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.scenario.name, format!("grid#{i}"));
        }
    }

    #[test]
    fn cells_iterator_is_lazy_and_exact() {
        let grid = full_grid(10);
        let mut cells = grid.cells();
        assert_eq!(cells.len(), 48);
        cells.next();
        assert_eq!(cells.len(), 47);
        assert_eq!(cells.size_hint(), (47, Some(47)));
    }

    #[test]
    fn every_axis_combination_appears_exactly_once() {
        let grid = full_grid(10);
        let mut combos: Vec<String> = grid
            .cells()
            .map(|c| {
                format!(
                    "{}|{}|{}|{}",
                    c.scenario.fuser.name(),
                    format_args!("{:?}", c.scenario.detector),
                    c.scenario.schedule.name(),
                    c.scenario.seed
                )
            })
            .collect();
        let before = combos.len();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), before, "duplicate grid cell");
    }

    #[test]
    fn coords_round_trips_through_cell_index() {
        let grid = full_grid(10);
        for index in 0..grid.len() {
            let coords = grid.coords(index);
            assert_eq!(grid.cell_index(coords), index, "cell {index}");
        }
        // Spot-check the decoded coordinates agree with the materialised
        // scenario: cell 1 differs from cell 0 only on the seed axis.
        assert_eq!(grid.coords(0), AxisCoords::default());
        assert_eq!(
            grid.coords(1),
            AxisCoords {
                seed: 1,
                ..AxisCoords::default()
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_rejects_out_of_range_cells() {
        let _ = full_grid(10).coords(48);
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct_per_cell() {
        let grid = full_grid(10);
        let a = grid.scenario(17);
        let b = grid.scenario(17);
        assert_eq!(a, b, "cells are pure functions of the index");
        // Two cells sharing the seed-axis value still get distinct
        // derived seeds (the index feeds the derivation).
        let other = grid.scenario(19);
        assert_ne!(a.seed, other.seed);
        // Seeds are the fastest axis: odd cells draw the second value.
        assert_eq!(derive_seed(99, 17), a.seed);
        assert_eq!(derive_seed(2014, 16), grid.scenario(16).seed);
    }

    #[test]
    fn cell_rerun_in_isolation_matches_the_full_sweep() {
        let grid = full_grid(40);
        let report = grid.run_serial();
        for index in [0, 7, 23, 47] {
            let solo = ScenarioRunner::new(&grid.scenario(index)).run();
            assert_eq!(report.rows()[index].summary, solo, "cell {index}");
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        let grid = full_grid(30);
        let reference = oracle(&grid, 0..grid.len());
        assert_eq!(grid.run_serial(), reference, "serial run diverged");
        for threads in [2, 3, 4, 8] {
            let parallel = StreamingSweeper::new(threads).run(&grid);
            assert_eq!(parallel, reference, "{threads} workers diverged");
            assert_eq!(parallel.to_csv(), reference.to_csv());
            assert_eq!(parallel.to_json(), reference.to_json());
        }
    }

    #[test]
    fn run_scenarios_preserves_list_order() {
        let mut presets = crate::scenario::registry();
        for p in &mut presets {
            p.rounds = 20;
        }
        for threads in [1, 4] {
            let report = StreamingSweeper::new(threads).run_scenarios(&presets);
            assert_eq!(report.len(), presets.len());
            for (row, preset) in report.rows().iter().zip(&presets) {
                assert_eq!(row.summary.scenario, preset.name);
                assert_eq!(row.seed, preset.seed, "explicit scenarios keep their seed");
                assert_eq!(row.summary, ScenarioRunner::new(preset).run());
            }
        }
    }

    #[test]
    fn fault_axis_applies_per_cell() {
        let grid = SweepGrid::new(attacked_base(30))
            .fault_sets([vec![], vec![(2, FaultModel::new(FaultKind::Silent, 1.0))]]);
        assert_eq!(grid.len(), 2);
        let report = grid.run_serial();
        assert_eq!(report.rows()[0].summary.rounds, 30);
        // Both cells fuse every round: a silenced sensor degrades, not
        // fails, and the rows stay in grid order.
        for row in report.rows() {
            assert_eq!(row.summary.fusion_failures, 0);
        }
    }

    #[test]
    fn csv_has_header_and_one_line_per_cell() {
        let grid = SweepGrid::new(attacked_base(20))
            .fusers([FuserSpec::Marzullo, FuserSpec::Hull])
            .fault_sets([
                vec![],
                vec![(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.25))],
            ]);
        let csv = grid.run_serial().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("cell,scenario,suite,faults,attacker,schedule,fuser,detector"));
        assert!(lines[0].ends_with("vehicle_mean_widths,vehicle_max_widths,vehicle_truth_lost"));
        assert!(lines[1].contains("marzullo"));
        assert!(lines[2].contains("hull"));
        assert!(lines[1].contains("landshark"));
        assert!(lines[1].contains("phantom-optimal@0"));
        // Regression: the fault-set coordinate used to be omitted, so the
        // two fault-axis rows of a cell were indistinguishable except by
        // index.
        assert!(lines[1].contains(",none,"), "honest cell labels `none`");
        assert!(
            lines[3].contains(",2:bias(3)@0.25,"),
            "faulty cell carries its fault-set label: {}",
            lines[3]
        );
    }

    #[test]
    fn csv_body_is_the_report_without_the_header() {
        let report = SweepGrid::new(attacked_base(10)).run_serial();
        assert_eq!(
            report.to_csv(),
            format!("{}{}", SweepReport::csv_header(), report.to_csv_body())
        );
        assert!(!report.to_csv_body().contains("cell,scenario"));
    }

    #[test]
    fn csv_quotes_fields_with_separators() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        // A widths suite label contains no comma by construction.
        assert_eq!(SuiteSpec::Widths(vec![5.0, 11.0]).label(), "widths[5|11]");
    }

    #[test]
    fn json_is_escaped_and_structurally_sound() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let report = SweepGrid::new(attacked_base(10)).run_serial();
        let json = report.to_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"cell\":").count(), 1);
        assert!(json.contains("\"fuser\":\"marzullo\""));
        assert!(json.contains("\"truth_lost\":"));
    }

    #[test]
    fn cell_ranges_shard_the_grid_reproducibly() {
        let grid = full_grid(20);
        let full = grid.run_serial();
        let sweeper = StreamingSweeper::new(3);
        let a = sweeper.run_range(&grid, 0..17);
        let b = sweeper.run_range(&grid, 17..48);
        assert_eq!(a.len(), 17);
        assert_eq!(b.len(), 31);
        let mut concatenated = a.rows().to_vec();
        concatenated.extend(b.rows().iter().cloned());
        assert_eq!(
            full.rows(),
            &concatenated[..],
            "concatenated shards must reproduce the full sweep"
        );
        // Rows keep their grid cell indices and derived seeds.
        assert_eq!(b.rows()[0].cell, 17);
        assert_eq!(b.rows()[0].seed, grid.scenario(17).seed);
        // Degenerate shards are empty reports, not errors.
        assert!(sweeper.run_range(&grid, 5..5).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell range 40..49 exceeds the 48-cell grid")]
    fn out_of_bounds_cell_range_panics() {
        let grid = full_grid(5);
        let _ = StreamingSweeper::new(2).run_range(&grid, 40..49);
    }

    #[test]
    fn platoon_rows_emit_per_vehicle_columns() {
        use crate::scenario::ClosedLoopSpec;
        let base = Scenario::new("pv", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_rounds(40)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(2, 0.01));
        let report = SweepGrid::new(base).run_serial();
        let summary = &report.rows()[0].summary;
        assert_eq!(summary.vehicles.len(), 2);
        let csv = report.to_csv();
        let line = csv.lines().nth(1).expect("data line");
        let expected_means = format!(
            "{}|{}",
            summary.vehicles[0].widths.mean(),
            summary.vehicles[1].widths.mean()
        );
        assert!(
            line.ends_with(&format!(
                ",{expected_means},{}|{},{}|{}",
                summary.vehicles[0].widths.max().unwrap(),
                summary.vehicles[1].widths.max().unwrap(),
                summary.vehicles[0].truth_lost,
                summary.vehicles[1].truth_lost
            )),
            "per-vehicle CSV columns malformed: {line}"
        );
        let json = report.to_json();
        assert!(json.contains(&format!(
            "\"vehicle_mean_widths\":[{}]",
            expected_means.replace('|', ",")
        )));
        assert!(json.contains("\"vehicle_truth_lost\":["));
        // Open-loop rows render the columns empty / as empty arrays.
        let open = SweepGrid::new(attacked_base(10)).run_serial();
        assert!(open.to_csv().lines().nth(1).unwrap().ends_with(",,,"));
        assert!(open.to_json().contains("\"vehicle_mean_widths\":[]"));
    }

    #[test]
    fn cell_index_inverts_the_row_major_decoding() {
        let grid = full_grid(10);
        // Walk every cell: re-encode its decoded coordinates.
        for (index, cell) in grid.cells().enumerate() {
            let coords = AxisCoords {
                fuser: grid
                    .fuser_axis()
                    .iter()
                    .position(|f| *f == cell.scenario.fuser)
                    .unwrap(),
                detector: grid
                    .detector_axis()
                    .iter()
                    .position(|d| *d == cell.scenario.detector)
                    .unwrap(),
                schedule: grid
                    .schedule_axis()
                    .iter()
                    .position(|s| *s == cell.scenario.schedule)
                    .unwrap(),
                seed: grid
                    .seed_axis()
                    .iter()
                    .position(|s| derive_seed(*s, index as u64) == cell.scenario.seed)
                    .unwrap(),
                ..AxisCoords::default()
            };
            assert_eq!(grid.cell_index(coords), index);
        }
        assert_eq!(grid.cell_index(AxisCoords::default()), 0);
    }

    #[test]
    #[should_panic(expected = "fuser coordinate 9 out of range")]
    fn out_of_range_axis_coordinate_panics() {
        let grid = full_grid(10);
        let _ = grid.cell_index(AxisCoords {
            fuser: 9,
            ..AxisCoords::default()
        });
    }

    #[test]
    fn axis_accessors_expose_the_builder_state() {
        let grid = full_grid(10);
        assert_eq!(grid.fuser_axis().len(), 4);
        assert_eq!(grid.detector_axis().len(), 3);
        assert_eq!(grid.schedule_axis().len(), 2);
        assert_eq!(grid.seed_axis(), &[2014, 99]);
        assert_eq!(grid.suite_axis(), &[SuiteSpec::Landshark]);
        assert_eq!(grid.fault_set_axis(), &[vec![]]);
        assert_eq!(grid.attacker_axis().len(), 1);
        assert_eq!(grid.rounds_axis(), &[10]);
        assert_eq!(grid.base().name, "grid");
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        // Pinned values: changing the derivation would silently re-run
        // every published experiment differently.
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
        let mut seen: Vec<u64> = (0..128).map(|i| derive_seed(2014, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 128, "derived seeds collide");
    }

    #[test]
    #[should_panic(expected = "fusers axis must not be empty")]
    fn empty_axis_panics() {
        let _ = SweepGrid::new(attacked_base(10)).fusers([]);
    }

    #[test]
    #[should_panic(expected = "a sweep needs at least one worker thread")]
    fn zero_workers_panics() {
        let _ = StreamingSweeper::new(0);
    }

    #[test]
    fn auto_sweeper_has_at_least_one_worker() {
        assert!(StreamingSweeper::auto().threads() >= 1);
    }
}
