//! Criterion bench: the Table I engine cost per setup and the schedule
//! policies themselves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use arsf_bench::table1::{evaluate_setup, Table1Setup};
use arsf_schedule::SchedulePolicy;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_policies");
    let widths: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut rng = StdRng::seed_from_u64(1);
    for policy in [
        SchedulePolicy::Ascending,
        SchedulePolicy::Descending,
        SchedulePolicy::Random,
    ] {
        group.bench_with_input(
            BenchmarkId::new("order_64_sensors", policy.name()),
            &policy,
            |b, p| b.iter(|| p.order(std::hint::black_box(&widths), 3, &mut rng)),
        );
    }
    group.finish();
}

fn bench_table1_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_engine");
    group.sample_size(10);
    for (label, setup, step) in [
        ("n3_coarse", Table1Setup::new([5.0, 11.0, 17.0], 1), 4.0),
        ("n3_mid", Table1Setup::new([5.0, 11.0, 17.0], 1), 2.0),
        (
            "n4_coarse",
            Table1Setup::new([5.0, 8.0, 17.0, 20.0], 1),
            4.0,
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("evaluate_setup", label), &setup, |b, s| {
            b.iter(|| evaluate_setup(std::hint::black_box(s), step))
        });
    }
    group.finish();
}

/// Shared bench configuration: short measurement windows keep the whole
/// workspace bench run in the minutes range while remaining stable.
fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_policies, bench_table1_engine
}
criterion_main!(benches);
