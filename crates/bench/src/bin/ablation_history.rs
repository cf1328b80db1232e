//! Ablation: dynamics-aware **historical fusion** as a defence.
//!
//! The DATE'14 paper fuses each round independently; its authors'
//! follow-up direction carries the previous round's interval forward
//! through a bounded-dynamics model. This ablation measures how much of
//! the Descending-schedule attack the history clips, for several rate
//! bounds (smaller bound = stronger clipping, but must stay above the
//! vehicle's true rate to remain sound).
//!
//! Run with: `cargo run --release -p arsf-bench --bin ablation_history`

use arsf_bench::cli::{Args, Cli};
use arsf_bench::TextTable;
use arsf_core::scenario::AttackerSpec;
use arsf_fusion::historical::DynamicsBound;
use arsf_schedule::SchedulePolicy;
use arsf_sim::landshark::{LandShark, LandSharkConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn violation_rates(bound: Option<DynamicsBound>, rounds: u64) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xAB1A);
    let mut config = LandSharkConfig::new(10.0, SchedulePolicy::Descending)
        .with_attacker(AttackerSpec::RandomEachRound);
    if let Some(b) = bound {
        config = config.with_history(b);
    }
    let mut shark = LandShark::new(config);
    let mut width_sum = 0.0;
    let mut width_count = 0u64;
    for _ in 0..rounds {
        if let Some(fused) = shark.step(&mut rng).fusion {
            width_sum += fused.width();
            width_count += 1;
        }
    }
    (
        shark.supervisor().upper_rate(),
        shark.supervisor().lower_rate(),
        width_sum / width_count as f64,
    )
}

fn main() {
    Args::from_env(&Cli::new("ablation_history", &[]), "");
    let rounds = 10_000;
    println!("Ablation: historical fusion vs the Descending-schedule attack");
    println!("(one random compromised sensor per round, {rounds} rounds each)\n");

    let mut table = TextTable::new(vec![
        "configuration".into(),
        "above 10.5".into(),
        "below 9.5".into(),
        "mean width".into(),
    ]);
    let (above0, below0, width0) = violation_rates(None, rounds);
    table.row(vec![
        "memoryless (paper)".into(),
        format!("{:.2}%", above0 * 100.0),
        format!("{:.2}%", below0 * 100.0),
        format!("{width0:.3}"),
    ]);
    let mut improved = true;
    for rate in [6.0, 3.5] {
        let (above, below, width) = violation_rates(Some(DynamicsBound::new(rate)), rounds);
        improved &= above + below < above0 + below0;
        table.row(vec![
            format!("history, rate <= {rate} mph/s"),
            format!("{:.2}%", above * 100.0),
            format!("{:.2}%", below * 100.0),
            format!("{width:.3}"),
        ]);
    }
    println!("{}", table.render());
    assert!(improved, "history must reduce total violations");
    println!("History clips forged extensions: the supervisor sees tighter");
    println!("intervals and the violation rates drop, most with the tightest");
    println!("sound rate bound. (The bound must exceed the vehicle's true");
    println!("acceleration, here <= 3.2 mph/s, or correct rounds would");
    println!("conflict with history.)");
}
