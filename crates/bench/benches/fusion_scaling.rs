//! Criterion bench: Marzullo fusion vs the naive O(n²) reference across
//! sensor counts, plus Brooks–Iyengar for comparison.
//!
//! Each iteration fuses the next of [`INPUTS`] distinct random inputs of
//! its size: with one repeated input the branch predictor learns the
//! sort sweep's comparisons, which flatters it against the branch-free
//! sorting network.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arsf_fusion::{brooks_iyengar, marzullo, naive};
use arsf_interval::Interval;

/// Distinct inputs cycled through per size.
const INPUTS: usize = 1024;

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

/// The next of `inputs` on each call, round and round.
fn cycle<'a>(inputs: &'a [Vec<Interval<f64>>]) -> impl FnMut() -> &'a [Interval<f64>] {
    let mut next = 0;
    move || {
        next = (next + 1) % inputs.len();
        std::hint::black_box(&inputs[next])
    }
}

fn bench_fusion_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion_scaling");
    // 3 and 4 are what the phantom forge fuses, 9 is the honest-wide
    // suite; 16 to 33 bracket the cut between `k_covered_span`'s sorting
    // network and its sort sweep.
    for &n in &[3usize, 4, 9, 16, 20, 24, 32, 33, 64, 256, 1024, 4096] {
        let inputs: Vec<Vec<Interval<f64>>> = (0..INPUTS as u64)
            .map(|seed| random_intervals(n, seed))
            .collect();
        let f = n / 3;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("marzullo_sweep", n), |b| {
            let mut input = cycle(&inputs);
            b.iter(|| marzullo::fuse(input(), f))
        });
        if n <= 256 {
            group.bench_function(BenchmarkId::new("naive_reference", n), |b| {
                let mut input = cycle(&inputs);
                b.iter(|| naive::fuse(input(), f))
            });
        }
        group.bench_function(BenchmarkId::new("brooks_iyengar", n), |b| {
            let mut input = cycle(&inputs);
            b.iter(|| brooks_iyengar::fuse(input(), f))
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
