//! Criterion bench: broadcast-bus round throughput vs node count, with
//! and without an eavesdropping attacker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use arsf_attack::strategies::PhantomOptimal;
use arsf_attack::AttackerConfig;
use arsf_core::transport::run_bus_round;
use arsf_core::{FusionPipeline, PipelineConfig};
use arsf_interval::Interval;
use arsf_schedule::{SchedulePolicy, TransmissionOrder};

fn readings(n: usize) -> (Vec<Interval<f64>>, Vec<f64>) {
    let readings: Vec<Interval<f64>> = (0..n)
        .map(|i| {
            let radius = 0.1 + 0.1 * i as f64;
            Interval::centered(10.0 + 0.01 * i as f64, radius).expect("finite")
        })
        .collect();
    let widths: Vec<f64> = readings.iter().map(|r| r.width()).collect();
    (readings, widths)
}

fn bench_bus_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("bus_round");
    for &n in &[4usize, 8, 16, 32] {
        let (r, w) = readings(n);
        let order = TransmissionOrder::identity(n);
        let mut pipeline = FusionPipeline::builder(arsf_sensor::suite::from_widths(&w))
            .config(PipelineConfig::new(n / 3, SchedulePolicy::Ascending))
            .build();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("honest", n), &n, |b, _| {
            b.iter(|| run_bus_round(&mut pipeline, std::hint::black_box(&r), &order))
        });
        group.bench_with_input(BenchmarkId::new("attacked", n), &n, |b, _| {
            b.iter(|| {
                // A fresh strategy per round, as a one-shot bus round has.
                pipeline.set_attacker(Some((
                    AttackerConfig::new([0], n / 3),
                    Box::new(PhantomOptimal::new()),
                )));
                run_bus_round(&mut pipeline, std::hint::black_box(&r), &order)
            })
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
    targets = bench_bus_round
}
criterion_main!(benches);
