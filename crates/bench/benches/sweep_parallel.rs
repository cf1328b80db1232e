//! Criterion bench: parallel scenario-grid sweep throughput — the same
//! 48-cell grid (4 fusers × 3 detectors × 2 schedules × 2 seeds, 300
//! attacked LandShark rounds per cell) executed serially and sharded
//! across 2/4/8 scoped worker threads. Grid order makes the parallel
//! report byte-identical to the serial one, so the speedup is pure
//! wall-clock: ≥3× is expected from 4 workers upward on 4+ cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use arsf_core::scenario::{AttackerSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec};
use arsf_core::sweep::{StreamingSweeper, SweepGrid};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;

const ROUNDS_PER_CELL: u64 = 300;

fn grid() -> SweepGrid {
    let base = Scenario::new("bench-sweep", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(ROUNDS_PER_CELL);
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
        .seeds([2014, 99])
}

fn bench_sweep_parallel(c: &mut Criterion) {
    let grid = grid();
    assert_eq!(grid.len(), 48);
    let mut group = c.benchmark_group("sweep_parallel");
    group.throughput(Throughput::Elements(grid.len() as u64));
    group.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(&grid).run_serial())
    });
    for threads in [2_usize, 4, 8] {
        let sweeper = StreamingSweeper::new(threads);
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &sweeper,
            |b, sweeper| b.iter(|| sweeper.run(std::hint::black_box(&grid))),
        );
    }
    group.finish();
}

/// Shared bench configuration: short measurement windows keep the whole
/// workspace bench run in the minutes range while remaining stable.
fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_sweep_parallel
}
criterion_main!(benches);
