//! Ablation: **random faults in addition to attacks** (the paper's
//! Section V extension) and the windowed detector of footnote 1.
//!
//! Sweeps the transient-fault probability of the GPS against the
//! windowed detector's tolerance while a stealthy attacker holds an
//! encoder, reporting when the faulty sensor is condemned, how often the
//! overlap check fires, and whether the truth ever silently escapes the
//! fusion interval.
//!
//! Run with: `cargo run --release -p arsf-bench --bin ablation_faults`

use arsf_bench::cli::{Args, Cli};
use arsf_bench::TextTable;
use arsf_schedule::SchedulePolicy;
use arsf_sim::faults::{run, FaultAttackConfig};

fn main() {
    Args::from_env(&Cli::new("ablation_faults", &[]), "");
    let rounds = 5_000;
    println!("Ablation: transient GPS faults + stealthy encoder attacker");
    println!("(LandShark suite, f = 1, window = 20 rounds, {rounds} rounds each)\n");

    let mut table = TextTable::new(vec![
        "fault prob".into(),
        "tolerance".into(),
        "flags".into(),
        "condemned at".into(),
        "false cond.".into(),
        "truth lost".into(),
        "fusion fail".into(),
    ]);

    for &fault_probability in &[0.05, 0.15, 0.3, 0.6] {
        for &tolerance in &[2usize, 6] {
            let report = run(&FaultAttackConfig {
                rounds,
                fault_probability,
                tolerance,
                schedule: SchedulePolicy::Descending,
                ..FaultAttackConfig::default()
            });
            table.row(vec![
                format!("{:.0}%", fault_probability * 100.0),
                format!("{tolerance} / 20"),
                format!("{}", report.transient_flags),
                report
                    .faulty_condemned_at
                    .map_or("never".into(), |r| format!("round {r}")),
                format!("{}", report.false_condemnations),
                format!("{}", report.truth_lost),
                format!("{}", report.fusion_failures),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Reading the table:");
    println!("* a tolerant window (6/20) lets low-rate transients live while");
    println!("  still condemning persistent misbehaviour — footnote 1's goal;");
    println!("* a strict window (2/20) condemns earlier but would also evict");
    println!("  sensors whose transient rate is survivable;");
    println!("* the stealthy attacker is never condemned (false cond. = 0) —");
    println!("  detection pressure lands on the *faulty* sensor only;");
    println!("* silent truth loss stays rare even when fault + attack exceed");
    println!("  f = 1, because the attacker must anchor to plausible evidence.");
}
