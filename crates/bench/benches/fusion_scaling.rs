//! Criterion bench: Marzullo fusion vs the naive O(n²) reference across
//! sensor counts, plus Brooks–Iyengar for comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arsf_fusion::{brooks_iyengar, marzullo, naive};
use arsf_interval::Interval;

fn random_intervals(n: usize, seed: u64) -> Vec<Interval<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let centre: f64 = rng.gen_range(-10.0..10.0);
            let radius: f64 = rng.gen_range(0.5..15.0);
            Interval::centered(centre, radius).expect("finite")
        })
        .collect()
}

fn bench_fusion_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion_scaling");
    // 9 is the honest-wide suite; 32 and 33 straddle the cut between
    // `k_covered_span`'s counting kernel and its sort sweep.
    for &n in &[4usize, 9, 16, 32, 33, 64, 256, 1024, 4096] {
        let intervals = random_intervals(n, 42);
        let f = n / 3;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("marzullo_sweep", n), &intervals, |b, s| {
            b.iter(|| marzullo::fuse(std::hint::black_box(s), f))
        });
        if n <= 256 {
            group.bench_with_input(
                BenchmarkId::new("naive_reference", n),
                &intervals,
                |b, s| b.iter(|| naive::fuse(std::hint::black_box(s), f)),
            );
        }
        group.bench_with_input(BenchmarkId::new("brooks_iyengar", n), &intervals, |b, s| {
            b.iter(|| brooks_iyengar::fuse(std::hint::black_box(s), f))
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
    targets = bench_fusion_scaling
}
criterion_main!(benches);
