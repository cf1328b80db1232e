//! Reproduces **Table II**: case-study results for each of the three
//! schedules — the percentage of rounds in which the fusion interval's
//! upper bound exceeded 10.5 mph or its lower bound dropped below
//! 9.5 mph, for a LandShark holding 10 mph with one uniformly-random
//! sensor compromised per round.
//!
//! Since the closed-loop sweep redesign the run goes through the
//! deterministic scenario grid (3 schedules × `--replicates` Monte Carlo
//! seeds), sharded across `--threads` workers with the report
//! byte-identical to a serial run.
//!
//! Run with: `cargo run --release -p arsf-bench --bin repro_table2`
//!
//! `--help` lists the flags; `--history <max_rate>` runs the
//! historical-fusion defence in place of the paper's memoryless Marzullo.

use std::num::{NonZeroU64, NonZeroUsize};

use arsf_bench::cli::{sweeper_from, Args, Cli, Flag, THREADS};
use arsf_bench::table2::{run_all, Table2Config};
use arsf_bench::TextTable;

#[rustfmt::skip]
const REPRO_TABLE2: Cli = Cli::new("repro_table2", &[&[
    Flag::value("--rounds", "n", "rounds per schedule (default 20000)"),
    Flag::value("--seed", "s", "the Monte Carlo seed"),
    Flag::value("--replicates", "k", "Monte Carlo seed replicates per schedule (default 1)"),
    THREADS,
    Flag::value("--history", "max_rate", "defend with historical fusion at this rate bound (mph/s)"),
]]);

fn main() {
    let args = Args::from_env(&REPRO_TABLE2, "");
    let sweeper = args.ok(sweeper_from(&args));
    let defaults = Table2Config::default();
    let config = Table2Config {
        rounds: args
            .ok(args.get("--rounds"))
            .map_or(defaults.rounds, NonZeroU64::get),
        seed: args.ok(args.get("--seed")).unwrap_or(defaults.seed),
        replicates: args
            .ok(args.get("--replicates"))
            .map_or(defaults.replicates, NonZeroUsize::get),
        // One positive rate bound in mph/s (scenario_sweep's --history
        // takes a comma list, which this rejects).
        history: args.ok(args.get("--history")),
    };

    println!("Table II: case study results for each of the three schedules");
    if let Some(rate) = config.history {
        println!("(historical-fusion defence, |dv/dt| <= {rate} mph/s)");
    }
    println!(
        "(v = 10 mph, envelope [9.5, 10.5] mph, {} rounds per schedule,",
        config.rounds
    );
    println!(
        "one uniformly-random compromised sensor per round; {} replicate(s)",
        config.replicates
    );
    println!(
        "swept through the scenario grid on {} worker thread(s))\n",
        sweeper.threads()
    );

    let rows = run_all(&config, &sweeper);

    // Paper's reported values.
    let paper = [(0.0, 0.0), (17.42, 17.65), (5.72, 5.97)];

    let mut table = TextTable::new(vec![
        "".into(),
        "ascending".into(),
        "descending".into(),
        "random".into(),
        "paper (A/D/R)".into(),
    ]);
    table.row(vec![
        "more than 10.5 mph".into(),
        format!("{:.2}%", rows[0].above * 100.0),
        format!("{:.2}%", rows[1].above * 100.0),
        format!("{:.2}%", rows[2].above * 100.0),
        format!("{}% / {}% / {}%", paper[0].0, paper[1].0, paper[2].0),
    ]);
    table.row(vec![
        "less than 9.5 mph".into(),
        format!("{:.2}%", rows[0].below * 100.0),
        format!("{:.2}%", rows[1].below * 100.0),
        format!("{:.2}%", rows[2].below * 100.0),
        format!("{}% / {}% / {}%", paper[0].1, paper[1].1, paper[2].1),
    ]);
    println!("{}", table.render());

    // Shape checks from the paper.
    assert_eq!(rows[0].above, 0.0, "ascending must show 0% above");
    assert_eq!(rows[0].below, 0.0, "ascending must show 0% below");
    let total = |i: usize| rows[i].above + rows[i].below;
    assert!(total(2) > 0.0, "random must violate sometimes");
    assert!(
        total(1) > total(2),
        "descending must violate more than random"
    );
    println!("Shape check (paper): Ascending 0%, Random in between, Descending worst.");
}
