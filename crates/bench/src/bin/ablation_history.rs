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
use arsf_core::scenario::{AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, SuiteSpec};
use arsf_core::ScenarioRunner;
use arsf_schedule::SchedulePolicy;

/// Above-envelope rate, below-envelope rate and mean fused width of one
/// closed-loop run, fusing with history under `max_rate` when given.
fn violation_rates(max_rate: Option<f64>, rounds: u64) -> (f64, f64, f64) {
    let mut scenario = Scenario::new("ablation-history", SuiteSpec::Landshark)
        .with_schedule(SchedulePolicy::Descending)
        .with_attacker(AttackerSpec::RandomEachRound)
        .with_closed_loop(ClosedLoopSpec::new(10.0))
        .with_rounds(rounds)
        .with_seed(0xAB1A);
    if let Some(max_rate) = max_rate {
        scenario = scenario.with_fuser(FuserSpec::Historical { max_rate, dt: 0.1 });
    }
    let summary = ScenarioRunner::new(&scenario).run();
    let supervisor = summary
        .supervisor
        .expect("closed-loop runs report a supervisor");
    (
        supervisor.above_rate,
        supervisor.below_rate,
        summary.widths.mean(),
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
        let (above, below, width) = violation_rates(Some(rate), rounds);
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
