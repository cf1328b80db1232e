//! Deterministic scenario-grid sweeps, serial or multi-core.
//!
//! The paper's headline results are cross-products — fusers × detectors
//! × attack strategies × schedules — but running them used to mean
//! hand-listing every combination and executing serially. This module
//! turns the cross-product itself into a first-class value:
//!
//! * [`SweepGrid`] — a builder over experiment *axes* (fault sets,
//!   attackers, schedules, fusers, detectors, rounds, seeds) that
//!   lazily yields the cartesian product of [`Scenario`]s. Each cell's
//!   RNG seed is derived deterministically from the seed-axis value and
//!   the cell index ([`derive_seed`]), so any cell is reproducible in
//!   isolation: `grid.scenario(i)` always denotes the same experiment.
//! * [`StreamingSweeper`] — the one sweep engine. It shards cells across scoped
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

/// Another name for the sweep engine, kept only because the
/// `perfbench/` benchmark still names it.
pub type ParallelSweeper = StreamingSweeper;

use arsf_schedule::SchedulePolicy;
use arsf_sensor::FaultModel;

use crate::runner::{BatchSummary, ScenarioRunner};
use crate::scenario::{faults_label, AttackerSpec, FuserSpec, Scenario};
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

/// One axis of a [`SweepGrid`].
///
/// [`Axis::ALL`] lists the axes in decode order, slowest-varying first;
/// an [`AxisCoords`] array and [`SweepGrid::shape`] are indexed by
/// `axis as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Fault sets: each value is one complete set of `(sensor, fault)`
    /// pairs.
    FaultSets,
    /// Attacker specs.
    Attackers,
    /// Transmission schedules.
    Schedules,
    /// Fusion algorithms.
    Fusers,
    /// Detection modes.
    Detectors,
    /// Rounds per run.
    Rounds,
    /// Seed-axis values (per-cell seeds are [`derive_seed`]d from them).
    Seeds,
}

impl Axis {
    /// Every axis, in decode order (slowest-varying first).
    pub const ALL: [Axis; 7] = [
        Axis::FaultSets,
        Axis::Attackers,
        Axis::Schedules,
        Axis::Fusers,
        Axis::Detectors,
        Axis::Rounds,
        Axis::Seeds,
    ];

    /// The axis name that canonical definitions and findings use, e.g.
    /// `fault_sets`.
    pub fn name(self) -> &'static str {
        match self {
            Axis::FaultSets => "fault_sets",
            Axis::Attackers => "attackers",
            Axis::Schedules => "schedules",
            Axis::Fusers => "fusers",
            Axis::Detectors => "detectors",
            Axis::Rounds => "rounds",
            Axis::Seeds => "seeds",
        }
    }
}

/// Per-axis coordinates of one grid cell, indexed by `axis as usize`
/// (`[0; 7]` is the first value of every axis) — the argument of
/// [`SweepGrid::cell_index`].
pub type AxisCoords = [usize; 7];

/// A cartesian product of experiment axes, lazily materialised as
/// [`Scenario`]s.
///
/// Every axis starts as a singleton holding the base scenario's value;
/// the builder methods replace one axis at a time. Every cell runs the
/// base scenario's sensor suite. Cell `i` is decoded in row-major order
/// with the axes nested in [`Axis::ALL`] order, seeds fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    base: Scenario,
    fault_sets: Vec<Vec<(usize, FaultModel)>>,
    attackers: Vec<AttackerSpec>,
    schedules: Vec<SchedulePolicy>,
    fusers: Vec<FuserSpec>,
    detectors: Vec<DetectionMode>,
    rounds: Vec<u64>,
    seeds: Vec<u64>,
}

fn non_empty<T>(values: impl IntoIterator<Item = T>, axis: Axis) -> Vec<T> {
    let values: Vec<T> = values.into_iter().collect();
    assert!(!values.is_empty(), "{} axis must not be empty", axis.name());
    values
}

impl SweepGrid {
    /// Creates a 1-cell grid around a base scenario; builder methods
    /// widen one axis each.
    pub fn new(base: Scenario) -> Self {
        Self {
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
        self.fault_sets = non_empty(values, Axis::FaultSets);
        self
    }

    /// Sets the attacker axis.
    #[must_use]
    pub fn attackers(mut self, values: impl IntoIterator<Item = AttackerSpec>) -> Self {
        self.attackers = non_empty(values, Axis::Attackers);
        self
    }

    /// Sets the schedule axis.
    #[must_use]
    pub fn schedules(mut self, values: impl IntoIterator<Item = SchedulePolicy>) -> Self {
        self.schedules = non_empty(values, Axis::Schedules);
        self
    }

    /// Sets the fusion-algorithm axis.
    #[must_use]
    pub fn fusers(mut self, values: impl IntoIterator<Item = FuserSpec>) -> Self {
        self.fusers = non_empty(values, Axis::Fusers);
        self
    }

    /// Sets the detector axis.
    #[must_use]
    pub fn detectors(mut self, values: impl IntoIterator<Item = DetectionMode>) -> Self {
        self.detectors = non_empty(values, Axis::Detectors);
        self
    }

    /// Sets the rounds-per-run axis.
    #[must_use]
    pub fn rounds(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.rounds = non_empty(values, Axis::Rounds);
        self
    }

    /// Sets the seed axis (each value spawns one replicate of every other
    /// combination; the per-cell seed is [`derive_seed`]d from it).
    #[must_use]
    pub fn seeds(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = non_empty(values, Axis::Seeds);
        self
    }

    /// The base scenario the grid was built around (its `f`, truth
    /// trajectory and closed-loop spec apply to every cell).
    pub fn base(&self) -> &Scenario {
        &self.base
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

    /// The seed axis values (per-cell seeds are [`derive_seed`]d from
    /// them).
    pub fn seed_axis(&self) -> &[u64] {
        &self.seeds
    }

    /// Every axis's length, in [`Axis::ALL`] order.
    pub fn shape(&self) -> [usize; 7] {
        [
            self.fault_sets.len(),
            self.attackers.len(),
            self.schedules.len(),
            self.fusers.len(),
            self.detectors.len(),
            self.rounds.len(),
            self.seeds.len(),
        ]
    }

    /// Every axis's value labels, in [`Axis::ALL`] order: the text the
    /// canonical definition hashes and duplicate-value findings compare.
    pub fn axis_labels(&self) -> [Vec<String>; 7] {
        fn labels<T>(values: &[T], label: impl Fn(&T) -> String) -> Vec<String> {
            values.iter().map(label).collect()
        }
        [
            labels(&self.fault_sets, |f| faults_label(f)),
            labels(&self.attackers, AttackerSpec::label),
            labels(&self.schedules, |s| s.name().to_string()),
            labels(&self.fusers, store::fuser_label),
            labels(&self.detectors, store::detector_label),
            labels(&self.rounds, u64::to_string),
            labels(&self.seeds, u64::to_string),
        ]
    }

    /// The grid-order cell index of the cell with the given per-axis
    /// coordinates — the inverse of the row-major decoding
    /// [`SweepGrid::scenario`] performs (seeds fastest, fault sets
    /// slowest).
    ///
    /// Static analyses use it to point a finding about an axis *value*
    /// at a concrete representative cell.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for its axis.
    pub fn cell_index(&self, coords: AxisCoords) -> usize {
        let mut index = 0;
        for ((axis, coord), len) in Axis::ALL.into_iter().zip(coords).zip(self.shape()) {
            assert!(
                coord < len,
                "{} coordinate {coord} out of range",
                axis.name()
            );
            index = index * len + coord;
        }
        index
    }

    /// Decodes cell `index` back into per-axis coordinates — the inverse
    /// of [`SweepGrid::cell_index`], and the decoding
    /// [`SweepGrid::scenario`] materialises.
    ///
    /// Static analyses use it to enumerate the cells neighbouring a cell
    /// along exactly one axis — the pairs dominance edges connect.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn coords(&self, index: usize) -> AxisCoords {
        assert!(index < self.len(), "cell {index} out of range");
        let mut coords = [0; 7];
        let mut rem = index;
        // Fastest-varying axes are decoded first.
        for (coord, len) in coords.iter_mut().zip(self.shape()).rev() {
            *coord = rem % len;
            rem /= len;
        }
        coords
    }

    /// The number of grid cells (the product of all axis lengths).
    ///
    /// # Panics
    ///
    /// Panics if the product overflows `usize`.
    #[allow(clippy::len_without_is_empty)] // axes are never empty: len() >= 1
    pub fn len(&self) -> usize {
        self.shape()
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
        let [fault_set, attacker, schedule, fuser, detector, rounds, seed] = self.coords(index);
        Scenario {
            name: format!("{}#{}", self.base.name, index),
            suite: self.base.suite.clone(),
            faults: self.fault_sets[fault_set].clone(),
            attacker: self.attackers[attacker].clone(),
            schedule: self.schedules[schedule].clone(),
            f: self.base.f,
            fuser: self.fusers[fuser].clone(),
            detector: self.detectors[detector],
            truth: self.base.truth,
            rounds: self.rounds[rounds],
            seed: derive_seed(self.seeds[seed], index as u64),
            closed_loop: self.base.closed_loop,
        }
    }

    /// Lazily iterates all cells in grid order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = SweepCell> + '_ {
        (0..self.len()).map(|index| SweepCell {
            index,
            scenario: self.scenario(index),
        })
    }

    /// Runs every cell in grid order on the calling thread (one reused
    /// outcome buffer): the sweep engine with one worker.
    pub fn run_serial(&self) -> SweepReport {
        StreamingSweeper::new(1).run(self)
    }
}

/// One grid cell: its index in grid order and the materialised scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in grid order.
    pub index: usize,
    /// The cell's complete experiment description.
    pub scenario: Scenario,
}

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
    /// Suite label (see [`SuiteSpec::label`](crate::scenario::SuiteSpec::label)).
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
    use crate::scenario::{StrategySpec, SuiteSpec};
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
        assert_eq!(grid.coords(0), [0; 7]);
        assert_eq!(grid.coords(1), [0, 0, 0, 0, 0, 0, 1]);
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
            let coords = [
                0,
                0,
                grid.schedule_axis()
                    .iter()
                    .position(|s| *s == cell.scenario.schedule)
                    .unwrap(),
                grid.fuser_axis()
                    .iter()
                    .position(|f| *f == cell.scenario.fuser)
                    .unwrap(),
                grid.detector_axis()
                    .iter()
                    .position(|d| *d == cell.scenario.detector)
                    .unwrap(),
                0,
                grid.seed_axis()
                    .iter()
                    .position(|s| derive_seed(*s, index as u64) == cell.scenario.seed)
                    .unwrap(),
            ];
            assert_eq!(grid.cell_index(coords), index);
        }
        assert_eq!(grid.cell_index([0; 7]), 0);
    }

    #[test]
    #[should_panic(expected = "fusers coordinate 9 out of range")]
    fn out_of_range_axis_coordinate_panics() {
        let grid = full_grid(10);
        let _ = grid.cell_index([0, 0, 0, 9, 0, 0, 0]);
    }

    #[test]
    fn axis_accessors_expose_the_builder_state() {
        let grid = full_grid(10);
        assert_eq!(grid.fuser_axis().len(), 4);
        assert_eq!(grid.detector_axis().len(), 3);
        assert_eq!(grid.schedule_axis().len(), 2);
        assert_eq!(grid.seed_axis(), &[2014, 99]);
        assert_eq!(grid.shape(), [1, 1, 2, 4, 3, 1, 2]);
        assert_eq!(grid.base().name, "grid");
    }

    #[test]
    fn a_grid_widening_every_axis_decodes_and_hashes_stably() {
        let fault_sets = [
            vec![],
            vec![(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.25))],
        ];
        let attackers = [
            AttackerSpec::None,
            AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            },
        ];
        let schedules = [SchedulePolicy::Ascending, SchedulePolicy::Descending];
        let fusers = [
            FuserSpec::Marzullo,
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
        ];
        let detectors = [
            DetectionMode::Off,
            DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        ];
        let (rounds, seeds) = ([5, 7], [1, 2]);
        let base = Scenario::new("wide", SuiteSpec::Landshark);
        let grid = SweepGrid::new(base.clone())
            .fault_sets(fault_sets.clone())
            .attackers(attackers.clone())
            .schedules(schedules.clone())
            .fusers(fusers.clone())
            .detectors(detectors)
            .rounds(rounds)
            .seeds(seeds);
        assert_eq!(
            store::canonical_definition(&grid),
            "arsf-sweep-grid v1\nf=1\ntruth=constant(10)\nclosed_loop=none\n\
             suites=landshark\nfault_sets=none;2:bias(3)@0.25\n\
             attackers=honest;phantom-optimal@0\nschedules=ascending;descending\n\
             fusers=marzullo;historical(3.5,0.1)\n\
             detectors=off;windowed(10,3)\nrounds=5;7\nseeds=1;2\n"
        );
        assert_eq!(store::grid_address(&grid), "d171bbb7ad9ce203");

        // Nested loops, fault sets outermost and seeds innermost.
        let mut expected = Vec::new();
        for faults in &fault_sets {
            for attacker in &attackers {
                for schedule in &schedules {
                    for fuser in &fusers {
                        for &detector in &detectors {
                            for &rounds in &rounds {
                                for &seed in &seeds {
                                    let index = expected.len();
                                    expected.push(Scenario {
                                        name: format!("wide#{index}"),
                                        faults: faults.clone(),
                                        attacker: attacker.clone(),
                                        schedule: schedule.clone(),
                                        fuser: fuser.clone(),
                                        detector,
                                        rounds,
                                        seed: derive_seed(seed, index as u64),
                                        ..base.clone()
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(grid.len(), 128);
        assert_eq!(expected.len(), 128);
        for (index, scenario) in expected.iter().enumerate() {
            assert_eq!(&grid.scenario(index), scenario, "cell {index}");
        }
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
