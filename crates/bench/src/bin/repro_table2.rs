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
//! Options: `--rounds <n>` (default 20000), `--seed <s>`,
//! `--replicates <k>` (default 1), `--threads <t>` (default: available
//! parallelism), `--history <max_rate>` (run the dynamics-aware
//! historical-fusion defence at this rate bound instead of the paper's
//! memoryless Marzullo).

use arsf_bench::cli::sweeper_from_args;
use arsf_bench::{arg_value, TextTable};
use arsf_sim::table2::{run_all, Table2Config};

fn main() {
    let sweeper = sweeper_from_args().unwrap_or_else(|e| {
        eprintln!("repro_table2: {e}");
        std::process::exit(2);
    });
    let mut config = Table2Config {
        threads: sweeper.threads(),
        ..Table2Config::default()
    };
    if let Some(rounds) = arg_value("--rounds").and_then(|s| s.parse().ok()) {
        config.rounds = rounds;
    }
    if let Some(seed) = arg_value("--seed").and_then(|s| s.parse().ok()) {
        config.seed = seed;
    }
    if let Some(replicates) = arg_value("--replicates").and_then(|s| s.parse().ok()) {
        config.replicates = replicates;
    }
    if let Some(spec) = arg_value("--history") {
        // Unlike the other numeric flags, a swallowed parse error here
        // would silently run the *undefended* table (and scenario_sweep's
        // --history takes a comma list, an easy syntax to carry over) —
        // so an invalid value fails loudly.
        match spec
            .parse::<f64>()
            .ok()
            .filter(|r| r.is_finite() && *r > 0.0)
        {
            Some(rate) => config.history = Some(rate),
            None => {
                eprintln!(
                    "repro_table2: --history wants one positive rate bound in mph/s, got `{spec}`"
                );
                std::process::exit(2);
            }
        }
    }

    println!("Table II: case study results for each of the three schedules");
    if let Some(rate) = config.history {
        println!("(historical-fusion defence, |dv/dt| <= {rate} mph/s)");
    }
    println!(
        "(v = {} mph, envelope [{}, {}] mph, {} rounds per schedule,",
        config.target,
        config.target - config.delta_down,
        config.target + config.delta_up,
        config.rounds
    );
    println!(
        "one uniformly-random compromised sensor per round; {} replicate(s)",
        config.replicates.max(1)
    );
    println!(
        "swept through the scenario grid on {} worker thread(s))\n",
        config.threads.max(1)
    );

    let rows = run_all(&config);

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
