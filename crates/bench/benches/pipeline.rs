//! Criterion bench: end-to-end fusion-pipeline round latency (sample →
//! schedule → attack → fuse → detect) on the LandShark suite, and honest
//! 9-sensor rounds driven through `ScenarioRunner`, the copy of the
//! round loop that sweeps run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use arsf_attack::strategies::PhantomOptimal;
use arsf_attack::AttackerConfig;
use arsf_core::scenario::{FuserSpec, Scenario, SuiteSpec};
use arsf_core::{FusionPipeline, PipelineConfig, RoundOutcome, ScenarioRunner};
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};

/// Rounds per `run_into` call of the honest wide-suite bench.
const WIDE_ROUNDS: u64 = 256;

fn bench_pipeline_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_round");
    for policy in [SchedulePolicy::Ascending, SchedulePolicy::Descending] {
        group.bench_with_input(
            BenchmarkId::new("honest", policy.name()),
            &policy,
            |b, p| {
                let mut pipeline = FusionPipeline::builder(arsf_sensor::suite::landshark())
                    .config(PipelineConfig::new(1, p.clone()))
                    .build();
                let mut rng = StdRng::seed_from_u64(9);
                b.iter(|| pipeline.run_round(std::hint::black_box(10.0), &mut rng))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("attacked_encoder", policy.name()),
            &policy,
            |b, p| {
                let mut pipeline = FusionPipeline::builder(arsf_sensor::suite::landshark())
                    .config(PipelineConfig::new(1, p.clone()))
                    .attacker(AttackerConfig::new([0], 1), Box::new(PhantomOptimal::new()))
                    .build();
                let mut rng = StdRng::seed_from_u64(9);
                b.iter(|| pipeline.run_round(std::hint::black_box(10.0), &mut rng))
            },
        );
    }
    group.finish();
}

/// An honest 9-sensor round (widths 1.0 to 5.0 in steps of 0.5, `f = 2`,
/// sensor 4 biased by +6 a quarter of the time) through
/// `ScenarioRunner::run_into`: no forge runs, so sampling, scheduling,
/// fusion and detection carry the time.
fn bench_honest_wide_runner(c: &mut Criterion) {
    let widths: Vec<f64> = (0..9).map(|i| 1.0 + 0.5 * f64::from(i)).collect();
    let mut group = c.benchmark_group("honest_wide_runner");
    group.throughput(Throughput::Elements(WIDE_ROUNDS));
    for fuser in [FuserSpec::Marzullo, FuserSpec::InverseVariance] {
        let scenario = Scenario::new("honest-wide", SuiteSpec::Widths(widths.clone()))
            .with_f(2)
            .with_fault(4, FaultModel::new(FaultKind::Bias { offset: 6.0 }, 0.25))
            .with_fuser(fuser.clone())
            .with_rounds(WIDE_ROUNDS);
        group.bench_with_input(
            BenchmarkId::new("run_into_256", fuser.name()),
            &scenario,
            |b, s| {
                let mut runner = ScenarioRunner::new(s);
                let mut out = RoundOutcome::default();
                b.iter(|| runner.run_into(&mut out))
            },
        );
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
    targets = bench_pipeline_round, bench_honest_wide_runner
}
criterion_main!(benches);
