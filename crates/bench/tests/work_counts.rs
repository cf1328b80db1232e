//! Exact work counts of the golden grids, perfbench's platoon grid and
//! a small honest 9-sensor grid: the heap allocations (and requested
//! bytes) every cell makes inside its rounds and while its runner is
//! built, pinned per grid.
//!
//! Wall time differs between machines and between runs; these counts do
//! not. The engine is deterministic given its seed, so a layer that
//! does more or less work — one more `Vec` per forge, one fewer buffer
//! per runner — moves a count by an exact amount on any hardware, in
//! debug and release alike. The counts are a contract to lower on
//! purpose, not a ceiling: any change fails the test.
//!
//! Re-pinning after an intentional change: the failure message prints
//! every cell's new counts and the grid's new [`Pinned`] row; paste that
//! row over the old one in [`PINNED`].
//!
//! A counting `#[global_allocator]` tallies the allocations of the
//! calling thread only, so tests running in parallel do not disturb each
//! other, and every cell runs on the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use arsf_bench::golden;
use arsf_core::scenario::{FuserSpec, Scenario, SuiteSpec};
use arsf_core::sweep::SweepGrid;
use arsf_core::{DetectionMode, RoundOutcome, ScenarioRunner};
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn tally(bytes: usize) {
    // `try_with`: const-initialised thread-locals without destructors
    // neither allocate nor recurse; during thread teardown this skips.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches only const-initialised thread-locals.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted; returns its result
/// and the `(allocations, bytes)` it made.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (result, a1 - a0, b1 - b0)
}

/// One cell's (or, summed, one grid's) work. `rounds` counts control
/// periods for a platoon, each stepping every vehicle once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Pinned {
    grid: &'static str,
    rounds: u64,
    round_allocs: u64,
    round_bytes: u64,
    build_allocs: u64,
}

#[rustfmt::skip]
const PINNED: [Pinned; 4] = [
    Pinned { grid: "open-loop-48", rounds: 5760, round_allocs: 246359, round_bytes: 13603990, build_allocs: 468 },
    Pinned { grid: "table2-closed-loop", rounds: 1200, round_allocs: 51200, round_bytes: 2721276, build_allocs: 48 },
    Pinned { grid: "table2-platoon", rounds: 1200, round_allocs: 153238, round_bytes: 8142446, build_allocs: 144 },
    Pinned { grid: "honest-wide", rounds: 1600, round_allocs: 76, round_bytes: 2382, build_allocs: 132 },
];

/// A 16-cell grid shaped like perfbench's `open-honest-wide`: the same
/// honest 9-sensor `Widths` suite, `f = 2` and bias fault on sensor 4,
/// under its four fusers, two detectors and two schedules, at one seed
/// and 100 rounds a cell. A runner build that does per-sensor work
/// (a name, a copy of the widths) moves `build_allocs` by a multiple of
/// nine.
fn honest_wide() -> SweepGrid {
    let base = Scenario::new(
        "honest-wide",
        SuiteSpec::Widths(vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]),
    )
    .with_f(2)
    .with_fault(4, FaultModel::new(FaultKind::Bias { offset: 6.0 }, 0.25))
    .with_rounds(100);
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
        .seeds([2014])
}

/// perfbench's `closed-loop` platoon grid: the Table II base driven as a
/// 3-vehicle platoon over Table II's schedule and seed axes, at the
/// preset's round count.
fn table2_platoon() -> SweepGrid {
    let table2 = golden::table2_closed_loop();
    let base = table2.base();
    let platoon = base
        .closed_loop
        .expect("the Table II grid is closed-loop")
        .with_platoon(3, 0.01);
    SweepGrid::new(
        base.clone()
            .named("table2-platoon")
            .with_closed_loop(platoon),
    )
    .schedules(table2.schedule_axis().to_vec())
    .seeds(table2.seed_axis().to_vec())
}

/// Every cell's counts, run in grid order on this thread: the runner
/// build, then its configured rounds. One outcome buffer serves every
/// cell, as in a sweep worker, so only the first cell's rounds size it.
fn measure(grid: &SweepGrid) -> Vec<Pinned> {
    let mut out = RoundOutcome::default();
    (0..grid.len())
        .map(|index| {
            let scenario = grid.scenario(index);
            let (runner, build_allocs, _) = count(|| ScenarioRunner::try_new(&scenario));
            let mut runner = runner.expect("golden cells validate");
            let (summary, round_allocs, round_bytes) = count(|| runner.run_into(&mut out));
            Pinned {
                rounds: summary.rounds,
                round_allocs,
                round_bytes,
                build_allocs,
                ..Pinned::default()
            }
        })
        .collect()
}

fn check(pinned: &Pinned, grid: &SweepGrid) {
    let cells = measure(grid);
    let total = cells.iter().fold(
        Pinned {
            grid: pinned.grid,
            ..Pinned::default()
        },
        |sum, cell| Pinned {
            rounds: sum.rounds + cell.rounds,
            round_allocs: sum.round_allocs + cell.round_allocs,
            round_bytes: sum.round_bytes + cell.round_bytes,
            build_allocs: sum.build_allocs + cell.build_allocs,
            ..sum
        },
    );
    if total != *pinned {
        let mut report = format!("{} work counts moved; per cell:\n", pinned.grid);
        for (index, cell) in cells.iter().enumerate() {
            let _ = writeln!(
                report,
                "  cell {index:>2}: rounds {}, round allocs {}, round bytes {}, build allocs {}",
                cell.rounds, cell.round_allocs, cell.round_bytes, cell.build_allocs
            );
        }
        panic!("{report}re-pin if intended:\n    {total:?},");
    }
}

#[test]
fn open_loop_48_work_counts_are_pinned() {
    check(&PINNED[0], &golden::open_loop_48());
}

#[test]
fn table2_closed_loop_work_counts_are_pinned() {
    check(&PINNED[1], &golden::table2_closed_loop());
}

#[test]
fn table2_platoon_work_counts_are_pinned() {
    check(&PINNED[2], &table2_platoon());
}

#[test]
fn honest_wide_work_counts_are_pinned() {
    check(&PINNED[3], &honest_wide());
}
