//! The sweep engine: one gated, order-preserving worker loop behind
//! every way of running cells.
//!
//! [`StreamingSweeper`] runs a contiguous range of cells — grid cells,
//! or an explicit scenario list — and hands each [`SweepRow`] to a sink
//! in cell order the moment the in-order prefix is complete. Every
//! entry point is a sink over that one loop: [`StreamingSweeper::run`],
//! [`StreamingSweeper::run_range`] and [`StreamingSweeper::run_scenarios`]
//! collect the rows into a [`SweepReport`],
//! [`StreamingSweeper::try_stream_range`] hands them to a fallible sink
//! (such as a CSV writer), and [`SweepGrid::run_serial`] is the
//! one-thread case. Per-cell seeds come from the cell source, so the rows are
//! byte-identical whatever the thread count or window.
//!
//! Ordering with bounded memory: workers claim cell indices from a
//! shared counter, but a permit gate caps how many cells may be
//! claimed-and-unemitted at once (the *window*). Finished rows land in
//! a reorder buffer keyed by cell index; the consumer emits the
//! contiguous prefix and releases one permit per emitted row. A slow
//! cell therefore stalls claims after at most `window` rows pile up
//! behind it — the buffer never grows past the window, whatever the
//! thread interleaving. The collecting entry points keep every row
//! anyway, so they open the window to the whole range and claiming is
//! never throttled.
//!
//! A panicking cell never hangs the sweep: its worker closes the gate
//! on the way out, so peers parked on a full window wake and exit, and
//! the panic is re-raised on the calling thread.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Range;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use super::{run_cell, SweepGrid, SweepReport, SweepRow};
use crate::scenario::Scenario;
use crate::RoundOutcome;

/// Counting-semaphore gate over claimable cells. `close` wakes every
/// blocked worker so an early sink error, a panic or the consumer's
/// exit never leaves a thread parked forever.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    available: usize,
    closed: bool,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                available: permits,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// The state, even after a panic elsewhere: every update below
    /// leaves it valid, and `close` must work while a worker unwinds.
    fn state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a permit is available; `false` means the gate was
    /// closed and the caller should stop claiming work.
    fn acquire(&self) -> bool {
        let mut state = self.state();
        while state.available == 0 && !state.closed {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return false;
        }
        state.available -= 1;
        true
    }

    fn release(&self) {
        self.state().available += 1;
        self.cv.notify_one();
    }

    fn close(&self) {
        self.state().closed = true;
        self.cv.notify_all();
    }
}

/// Closes the gate when dropped, on every exit path — unwinding from a
/// panicking cell or sink included.
struct CloseOnDrop<'a>(&'a Gate);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The sweep executor: runs cells across scoped worker threads and
/// delivers rows in cell order, holding at most a bounded window of
/// finished rows in memory.
///
/// Workers pull cell indices from a shared counter (dynamic load
/// balancing — expensive cells do not stall a static shard), build
/// their own engines from the cell's declarative specs and reuse one
/// [`RoundOutcome`] buffer each, so no synchronisation happens inside a
/// cell. Rows carry their cell index, so every entry point's output is
/// byte-identical to [`SweepGrid::run_serial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingSweeper {
    threads: usize,
    window: usize,
}

impl StreamingSweeper {
    /// A sweeper with `threads` workers and a default reorder window of
    /// `threads * 8` cells.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one worker thread");
        StreamingSweeper {
            threads,
            window: threads * 8,
        }
    }

    /// A sweeper sized to the machine's available parallelism (1 when
    /// that cannot be determined).
    pub fn auto() -> Self {
        Self::new(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Overrides the reorder window of the streaming entry points: the
    /// maximum number of cells that may be claimed but not yet emitted.
    /// A window of 1 degenerates to strictly serial claiming; larger
    /// windows let fast cells run ahead of a slow one. Values below 1
    /// are clamped to 1. The collecting entry points ignore it: they
    /// hold every row anyway.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Streams a contiguous cell range through `sink` in grid order.
    ///
    /// # Panics
    ///
    /// Panics if `range.end` exceeds the grid length.
    pub fn stream_range(
        &self,
        grid: &SweepGrid,
        range: Range<usize>,
        mut sink: impl FnMut(SweepRow),
    ) {
        self.try_stream_range(grid, range, |row| {
            sink(row);
            Ok::<(), Infallible>(())
        })
        .unwrap_or_else(|never| match never {});
    }

    /// Streams a contiguous cell range through a fallible `sink` in grid
    /// order. An `Err` stops claiming new cells promptly (in-flight
    /// cells finish and are discarded) and is returned to the caller.
    ///
    /// # Panics
    ///
    /// Panics if `range.end` exceeds the grid length, or re-raises the
    /// panic of a cell.
    pub fn try_stream_range<E>(
        &self,
        grid: &SweepGrid,
        range: Range<usize>,
        sink: impl FnMut(SweepRow) -> Result<(), E>,
    ) -> Result<(), E> {
        check_range(grid, &range);
        self.sweep(range, self.window, &|i| grid.scenario(i), sink)
    }

    /// Runs every grid cell; rows come back in grid order.
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        self.run_range(grid, 0..grid.len())
    }

    /// Runs a contiguous **cell range** of a grid — the shard one process
    /// takes when a sweep is split across machines. Rows keep their
    /// *grid* cell indices and derived seeds, so concatenating the
    /// reports of `0..k` and `k..len` reproduces `run` byte-for-byte and
    /// any shard is reproducible in isolation.
    ///
    /// # Panics
    ///
    /// Panics if `range.end` exceeds the grid length.
    pub fn run_range(&self, grid: &SweepGrid, range: Range<usize>) -> SweepReport {
        check_range(grid, &range);
        self.collect(range, &|i| grid.scenario(i))
    }

    /// Runs an explicit scenario list (cell `i` = `scenarios[i]`, used
    /// verbatim — no per-cell seed derivation); rows come back in list
    /// order. This is the entry point for non-cartesian sweeps such as
    /// the preset registry.
    pub fn run_scenarios(&self, scenarios: &[Scenario]) -> SweepReport {
        self.collect(0..scenarios.len(), &|i| scenarios[i].clone())
    }

    /// Collects `range` into a report, with the window open to the whole
    /// range: every row is kept anyway, so claiming is never throttled.
    fn collect(
        &self,
        range: Range<usize>,
        cell_at: &(dyn Fn(usize) -> Scenario + Sync),
    ) -> SweepReport {
        let mut rows = Vec::with_capacity(range.len());
        let window = range.len();
        self.sweep(range, window, cell_at, |row| {
            rows.push(row);
            Ok::<(), Infallible>(())
        })
        .unwrap_or_else(|never| match never {});
        SweepReport { rows }
    }

    /// The worker loop: runs cells `range` of `cell_at` and feeds their
    /// rows to `sink` in cell order, with at most `window` cells claimed
    /// but not yet emitted.
    fn sweep<E>(
        &self,
        range: Range<usize>,
        window: usize,
        cell_at: &(dyn Fn(usize) -> Scenario + Sync),
        mut sink: impl FnMut(SweepRow) -> Result<(), E>,
    ) -> Result<(), E> {
        let workers = self.threads.min(range.len());
        if workers <= 1 {
            // Serial: cells already finish in order, on this thread.
            let mut buffer = RoundOutcome::default();
            for index in range {
                sink(run_cell(index, cell_at(index), &mut buffer))?;
            }
            return Ok(());
        }

        let start = range.start;
        let n = range.len();
        let gate = Gate::new(window);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<SweepRow>();

        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let (gate, next) = (&gate, &next);
                    scope.spawn(move || {
                        // However this worker leaves — out of cells or
                        // unwinding from one — peers parked on a full
                        // window must wake and drop their senders, or
                        // the consumer's `recv` never returns.
                        let _close = CloseOnDrop(gate);
                        let mut buffer = RoundOutcome::default();
                        while gate.acquire() {
                            let offset = next.fetch_add(1, Ordering::Relaxed);
                            if offset >= n {
                                break;
                            }
                            let index = start + offset;
                            let row = run_cell(index, cell_at(index), &mut buffer);
                            // `rx` lives outside the scope, which joins
                            // every worker before it returns.
                            tx.send(row).unwrap_or_else(|_| {
                                unreachable!("the receiver outlives every worker")
                            });
                        }
                    })
                })
                .collect();
            // Only workers hold senders now, so `rx` disconnects once
            // they all finish.
            drop(tx);

            let mut consume = || -> Result<(), E> {
                let mut pending: BTreeMap<usize, SweepRow> = BTreeMap::new();
                let mut emit_next = 0usize;
                while emit_next < n {
                    // Workers gone with rows outstanding: one panicked,
                    // and joining below re-raises it.
                    let Ok(row) = rx.recv() else {
                        break;
                    };
                    pending.insert(row.cell - start, row);
                    while let Some(row) = pending.remove(&emit_next) {
                        emit_next += 1;
                        gate.release();
                        sink(row)?;
                    }
                }
                Ok(())
            };
            let result = {
                // Completion, sink error and sink panic alike unpark any
                // still-blocked workers so they can be joined.
                let _close = CloseOnDrop(&gate);
                consume()
            };
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panic::resume_unwind(payload);
                }
            }
            result
        })
    }
}

/// The one range check every grid entry point shares.
fn check_range(grid: &SweepGrid, range: &Range<usize>) {
    assert!(
        range.end <= grid.len(),
        "cell range {}..{} exceeds the {}-cell grid",
        range.start,
        range.end,
        grid.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AttackerSpec, FuserSpec, StrategySpec, SuiteSpec};
    use crate::sweep::tests::oracle;
    use crate::DetectionMode;
    use arsf_schedule::SchedulePolicy;
    use arsf_sensor::{FaultKind, FaultModel};
    use std::time::Duration;

    fn base() -> Scenario {
        Scenario::new("stream", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(40)
    }

    fn grid() -> SweepGrid {
        // 2 fusers × 2 detectors × 2 schedules × 2 seeds = 16 cells.
        SweepGrid::new(base())
            .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
            .detectors([DetectionMode::Off, DetectionMode::Immediate])
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([2014, 99])
    }

    #[test]
    fn streamed_rows_match_the_oracle_for_all_shapes() {
        let grid = grid();
        let reference = oracle(&grid, 0..grid.len());
        for threads in [1, 2, 3, 8] {
            assert_eq!(StreamingSweeper::new(threads).run(&grid), reference);
            for window in [1, 2, 8] {
                let mut rows = Vec::new();
                StreamingSweeper::new(threads)
                    .with_window(window)
                    .stream_range(&grid, 0..grid.len(), |row| rows.push(row));
                assert_eq!(
                    SweepReport { rows }.to_csv(),
                    reference.to_csv(),
                    "threads={threads} window={window}"
                );
            }
        }
    }

    #[test]
    fn rows_arrive_in_grid_order() {
        let grid = grid();
        let mut seen = Vec::new();
        StreamingSweeper::new(4)
            .with_window(2)
            .stream_range(&grid, 0..grid.len(), |row| seen.push(row.cell));
        let expected: Vec<usize> = (0..grid.len()).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn shard_ranges_concatenate_into_the_full_report() {
        let grid = grid();
        let full = oracle(&grid, 0..grid.len()).to_csv_body();
        let sweeper = StreamingSweeper::new(3);
        let mut joined = String::new();
        let n = grid.len();
        for range in [0..5, 5..6, 6..6, 6..n] {
            joined.push_str(&sweeper.run_range(&grid, range).to_csv_body());
        }
        assert_eq!(joined, full);
    }

    #[test]
    fn sink_error_stops_the_stream_without_deadlock() {
        let grid = grid();
        let mut delivered = 0usize;
        let result: Result<(), &str> =
            StreamingSweeper::new(4)
                .with_window(1)
                .try_stream_range(&grid, 0..grid.len(), |row| {
                    if row.cell >= 3 {
                        return Err("sink full");
                    }
                    delivered += 1;
                    Ok(())
                });
        assert_eq!(result, Err("sink full"));
        assert_eq!(delivered, 3, "exactly the pre-error prefix was delivered");
    }

    /// Runs `sweep` on a helper thread and returns its panic message. A
    /// sweep still running after 20 s is a hang and fails the test.
    fn panic_without_hanging(sweep: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let payload = panic::catch_unwind(panic::AssertUnwindSafe(sweep))
                .expect_err("the sweep must panic");
            let _ = tx.send(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default(),
            );
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("the sweep hung instead of re-raising the panic")
    }

    #[test]
    fn a_panicking_cell_is_re_raised_with_a_full_window() {
        // Cell 1 faults a sensor the suite does not have: building its
        // runner panics inside a worker while a peer waits for a permit.
        let bad = vec![(9, FaultModel::new(FaultKind::Silent, 1.0))];
        let grid = SweepGrid::new(base()).fault_sets([vec![], bad, vec![], vec![]]);
        let sweeper = StreamingSweeper::new(2).with_window(1);
        let collected = grid.clone();
        let message = panic_without_hanging(move || {
            sweeper.run(&collected);
        });
        assert!(message.contains("invalid scenario `stream#1`"), "{message}");
        let message = panic_without_hanging(move || {
            let _ = sweeper.try_stream_range(&grid, 0..grid.len(), |_| Ok::<(), ()>(()));
        });
        assert!(message.contains("invalid scenario `stream#1`"), "{message}");
    }

    #[test]
    fn a_panicking_sink_is_re_raised_with_a_full_window() {
        let grid = grid();
        let message = panic_without_hanging(move || {
            StreamingSweeper::new(2)
                .with_window(1)
                .stream_range(&grid, 0..grid.len(), |row| {
                    assert!(row.cell < 2, "the sink gives up at cell {}", row.cell)
                });
        });
        assert!(message.contains("the sink gives up at cell 2"), "{message}");
    }
}
