//! Injected-slowdown self-test: a fixed delay of 25% of the attack
//! layer's measured self time, added inside the forge decorator, must
//! show up in the trace as attack time (and nowhere else), and must
//! lower 1-thread throughput by more than the bound `BENCHMARK.json`
//! fixes for `rounds_per_s_1t`.
//!
//! Timing-based: run it in release mode,
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::{Duration, Instant};

use arsf_core::scenario::Scenario;
use arsf_perfbench::layered::{run_open_cell, Allocs, Injection};
use arsf_perfbench::stats::median;
use arsf_perfbench::trace::{self, Layer, Recorder};
use arsf_perfbench::workloads::{grids, Workload, DEFAULT_SEED};

/// The `rounds_per_s_1t` bound from the benchmark definition.
fn rounds_per_s_1t_bound() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let entry = text
        .split("\"name\": \"rounds_per_s_1t\"")
        .nth(1)
        .expect("rounds_per_s_1t is an end-to-end metric");
    let bound = entry
        .split("\"bound\":")
        .nth(1)
        .expect("the metric has a bound");
    bound
        .trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()
        .and_then(|token| token.parse().ok())
        .expect("a numeric bound")
}

/// Runs one cell traced and returns its recording.
fn traced(scenario: &Scenario, inject: Option<Injection>) -> Recorder {
    trace::install();
    run_open_cell(scenario, inject, &mut Allocs::default());
    trace::take()
}

/// Mean nanoseconds per call of a layer; for the round, its self time.
fn mean_ns(recorder: &Recorder, layer: Layer) -> f64 {
    let totals = recorder.total(layer);
    let ns = if layer == Layer::Round {
        recorder.round_self_ns
    } else {
        totals.ns
    };
    ns as f64 / totals.calls.max(1) as f64
}

#[test]
fn an_injected_forge_delay_is_attributed_to_attack_and_drops_rounds_per_s_1t() {
    let cells: Vec<Scenario> = grids(Workload::OpenAttacked, DEFAULT_SEED)
        .iter()
        .flat_map(|grid| grid.cells().map(|cell| cell.scenario))
        .collect();

    // Per cell, back to back so a noisy neighbour affects every run of
    // the cell alike: measure the attack layer's self time (a forge span
    // has no children), inject 25% of it, and compare the traced layer
    // times and the untraced throughput with and without the delay.
    let layers = [Layer::Forge, Layer::Fuse, Layer::Assess, Layer::Round];
    let mut added: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let (mut plain_s, mut slowed_s) = (0.0, 0.0);
    for _ in 0..3 {
        for cell in &cells {
            let plain = traced(cell, None);
            let delay_ns = 0.25 * mean_ns(&plain, Layer::Forge);
            let inject = Some(Injection {
                layer: Layer::Forge,
                delay: Duration::from_nanos(delay_ns as u64),
            });
            let slowed = traced(cell, inject);
            for (k, &layer) in layers.iter().enumerate() {
                added[k].push((mean_ns(&slowed, layer) - mean_ns(&plain, layer)) / delay_ns);
            }
            let t = Instant::now();
            run_open_cell(cell, None, &mut Allocs::default());
            plain_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            run_open_cell(cell, inject, &mut Allocs::default());
            slowed_s += t.elapsed().as_secs_f64();
        }
    }

    // Attribution, in units of the injected delay.
    let added: Vec<f64> = added.iter().map(|d| median(d)).collect();
    assert!(
        added[0] > 0.8,
        "attack must absorb the delay, got {:.2} of it",
        added[0]
    );
    for (k, layer) in layers.iter().enumerate().skip(1) {
        assert!(
            added[k].abs() < 0.5,
            "{} moved by {:.2} of the forge delay",
            layer.name(),
            added[k]
        );
    }

    let drop = 1.0 - plain_s / slowed_s;
    let bound = rounds_per_s_1t_bound();
    eprintln!(
        "added per call, in delays: forge {:.2}, fuse {:.2}, assess {:.2}, round self \
         {:.2}; 1-thread rounds/s dropped {drop:.3} (bound {bound})",
        added[0], added[1], added[2], added[3]
    );
    assert!(
        drop > bound,
        "a 25% attack slowdown must lower rounds_per_s_1t by more than its bound {bound}, \
         dropped {drop:.3}"
    );
}
