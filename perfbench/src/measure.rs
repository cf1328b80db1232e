//! Untraced measurement of the in-process workloads: set-up and
//! alternating 1-thread / 2-thread sweep passes, each pass's rows
//! checked against the first pass's byte for byte.

use std::hint::black_box;
use std::time::Instant;

use arsf_core::sweep::{ParallelSweeper, StreamingSweeper, SweepGrid, SweepReport, SweepRow};
use arsf_core::ScenarioRunner;

use crate::workloads::{self, Workload};

/// Worker threads of the parallel passes: `nproc` of the 2-vCPU machine
/// the bounds were set on.
pub const THREADS: usize = 2;

/// One grid's rows rendered as CSV data lines.
fn csv_lines<'a>(rows: impl Iterator<Item = &'a SweepRow>) -> Vec<String> {
    rows.map(SweepRow::to_csv_line).collect()
}

/// Everything the alternating sweep passes measured.
#[derive(Debug, Clone, Default)]
pub struct Sweeps {
    /// Rounds per second of each 2-thread pass.
    pub rps_2t: Vec<f64>,
    /// Rounds per second of each 1-thread pass.
    pub rps_1t: Vec<f64>,
    /// Per 1-thread pass: the wall of each of its cells, in ms.
    pub cell_ms: Vec<Vec<f64>>,
    /// Per pass pair: Σ 1-thread cell wall ÷ (threads × 2-thread wall).
    pub busy: Vec<f64>,
    /// Cells run.
    pub attempted: u64,
    /// Cells whose row differed from the first pass's.
    pub mismatched: u64,
    /// The first pass's CSV data lines, per grid.
    reference: Vec<Vec<String>>,
    /// The first 2-thread pass's reports, per grid.
    pub reports: Vec<SweepReport>,
}

impl Sweeps {
    fn check(&mut self, passes: Vec<Vec<String>>) {
        if self.reference.is_empty() {
            self.reference = passes;
            return;
        }
        for (reference, lines) in self.reference.iter().zip(&passes) {
            let same = reference.iter().zip(lines).filter(|(a, b)| a == b).count();
            self.mismatched += (reference.len().max(lines.len()) - same) as u64;
        }
    }

    /// One 1-thread pass through `StreamingSweeper`, timing each cell by
    /// the gap between consecutive rows reaching the sink.
    fn pass_1t(&mut self, grids: &[SweepGrid]) -> f64 {
        let sweeper = StreamingSweeper::new(1);
        let mut rows: Vec<Vec<SweepRow>> = Vec::with_capacity(grids.len());
        let mut cell_ns = Vec::new();
        let start = Instant::now();
        let mut last = start;
        for grid in grids {
            let mut grid_rows = Vec::with_capacity(grid.len());
            sweeper.stream_range(grid, 0..grid.len(), |row| {
                let now = Instant::now();
                cell_ns.push((now - last).as_nanos() as f64);
                last = now;
                grid_rows.push(row);
            });
            rows.push(grid_rows);
        }
        let wall = start.elapsed().as_secs_f64();
        let rounds: u64 = grids
            .iter()
            .zip(&rows)
            .map(|(grid, rows)| {
                rows.iter().map(|r| r.summary.rounds).sum::<u64>() * workloads::vehicles(grid)
            })
            .sum();
        self.rps_1t.push(rounds as f64 / wall);
        self.cell_ms
            .push(cell_ns.iter().map(|ns| ns / 1e6).collect());
        self.attempted += cell_ns.len() as u64;
        self.check(rows.iter().map(|r| csv_lines(r.iter())).collect());
        cell_ns.iter().sum::<f64>() / 1e9
    }

    /// One pass through `ParallelSweeper` on [`THREADS`] threads.
    fn pass_2t(&mut self, grids: &[SweepGrid]) -> f64 {
        let sweeper = ParallelSweeper::new(THREADS);
        let start = Instant::now();
        let reports: Vec<_> = grids.iter().map(|grid| sweeper.run(grid)).collect();
        let wall = start.elapsed().as_secs_f64();
        let rounds: u64 = grids
            .iter()
            .zip(&reports)
            .map(|(grid, report)| workloads::report_rounds(grid, report))
            .sum();
        self.rps_2t.push(rounds as f64 / wall);
        self.attempted += reports.iter().map(|r| r.len() as u64).sum::<u64>();
        self.check(reports.iter().map(|r| csv_lines(r.rows().iter())).collect());
        if self.reports.is_empty() {
            self.reports = reports;
        }
        wall
    }

    /// Starts with one untimed warm-up pass, whose rows become the
    /// reference every later pass is checked against.
    pub fn warmed_up(grids: &[SweepGrid]) -> Sweeps {
        let mut sweeps = Sweeps::default();
        sweeps.pass_1t(grids);
        sweeps.rps_1t.clear();
        sweeps.cell_ms.clear();
        sweeps
    }

    /// One 1-thread pass followed by one 2-thread pass.
    pub fn pair(&mut self, grids: &[SweepGrid]) {
        let cells_s = self.pass_1t(grids);
        let wall_2t = self.pass_2t(grids);
        self.busy.push(cells_s / (THREADS as f64 * wall_2t));
    }
}

/// Alternates 1-thread and 2-thread passes over `grids` until
/// `deadline`, after a warm-up pass (at least `min_pairs` pairs).
pub fn sweep_passes(grids: &[SweepGrid], deadline: Instant, min_pairs: usize) -> Sweeps {
    let mut sweeps = Sweeps::warmed_up(grids);
    while sweeps.busy.len() < min_pairs || Instant::now() < deadline {
        sweeps.pair(grids);
    }
    sweeps
}

/// `reps` set-up samples in seconds: each builds the workload's grids
/// and a `ScenarioRunner` (`try_new`) for every cell.
///
/// # Panics
///
/// Panics if a cell fails `Scenario::validate` (workload grids never do).
pub fn setup_samples(workload: Workload, seed: u64, reps: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(reps);
    while samples.len() < reps {
        let t = Instant::now();
        let grids = workloads::grids(workload, seed);
        let runners: Vec<ScenarioRunner> = grids
            .iter()
            .flat_map(|grid| grid.cells())
            .map(|cell| ScenarioRunner::try_new(&cell.scenario).expect("workload cells validate"))
            .collect();
        black_box(&runners);
        samples.push(t.elapsed().as_secs_f64());
        drop(runners);
    }
    samples
}
