//! Regression-baseline tool for sweep reports: record the golden grids'
//! reports content-addressed under a baseline directory, re-run and
//! check them cell by cell, or diff two stored baseline files.
//!
//! Run with: `cargo run --release -p arsf-bench --bin sweep_diff -- <cmd>`
//!
//! [`USAGE`] (printed by `--help` and on a usage error) lists the
//! subcommands and the exit codes CI keys off, so drift (1) and
//! breakage (2) stay distinguishable. `record` overwrites only the
//! grid's own `<dir>/<content-address>.json`; re-record after an
//! *intentional* algorithm change. It goes through
//! `arsf_bench::baseline_ops::record_allowing`, the recording path every
//! binary shares (`table2-closed-loop` needs `--allow detect-vacuous`,
//! since its stealthy attacker provably never trips Marzullo's overlap
//! check). `check` goes through `baseline_ops::check_with`: address
//! verification first, then every drifted cell's grid index, column,
//! baseline value and new value.
//!
//! An unknown, repeated or malformed flag exits 2, and so does a flag
//! its subcommand would ignore ([`APPLIES_TO`]). `--tol` entries may
//! name a column family without its index (`vehicle_mean_widths=1e-9`);
//! columns without one use the near-exact default (abs/rel `1e-12`,
//! absorbing last-ulp libm variation across platforms while failing
//! any real drift). Reports are byte-identical at any `--threads`.

use std::process::exit;

use arsf_bench::cli::{allowed, diff_config, sweeper_from, Args, Cli, Flag, THREADS};
use arsf_bench::{baseline_ops, golden};
use arsf_core::sweep::diff::diff;
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline};
use arsf_core::sweep::{StreamingSweeper, SweepGrid};

#[rustfmt::skip]
const SWEEP_DIFF: Cli = Cli { positionals: 3, ..Cli::new("sweep_diff", &[&[
    Flag::value("--grid", "name", "restrict record/check to one golden grid"),
    Flag::value("--dir", "path", "the baseline directory (default baselines)"),
    THREADS,
    Flag::value("--tol", "col=abs[:rel],...", "per-column tolerances over the near-exact default"),
    Flag::value("--allow", "id,...", "record despite these veto ids"),
]]) };

/// The subcommands each flag applies to; any other use exits 2 rather
/// than being silently ignored.
const APPLIES_TO: [(&str, &[&str]); 5] = [
    ("--grid", &["record", "check"]),
    ("--dir", &["record", "check"]),
    ("--threads", &["record", "check"]),
    ("--tol", &["check", "diff"]),
    ("--allow", &["record"]),
];

fn grids(args: &Args) -> Vec<(&str, SweepGrid)> {
    match args.value("--grid") {
        Some(name) => vec![(name, args.ok(golden::find(name)))],
        None => golden::all(),
    }
}

fn run_baseline(grid: &SweepGrid, sweeper: &StreamingSweeper) -> Baseline {
    Baseline::from_report(grid, &sweeper.run(grid))
}

fn record(args: &Args, dir: &str) {
    let sweeper = args.ok(sweeper_from(args));
    let allowed = args.ok(allowed(args));
    for (name, grid) in grids(args) {
        let current = run_baseline(&grid, &sweeper);
        match baseline_ops::record_allowing(&grid, &current, dir, &allowed) {
            Ok(path) => println!(
                "recorded {name}: {} cells -> {}",
                current.rows.len(),
                path.display()
            ),
            Err(e) => args.fail(format!("{name}: {e}")),
        }
    }
}

fn check(args: &Args, dir: &str) {
    let sweeper = args.ok(sweeper_from(args));
    let config = args.ok(diff_config(args));
    // A missing baseline is breakage (exit 2), not drift (exit 1): CI
    // must not mistake "nothing to compare against" for "the numbers
    // moved". Every grid is still reported before exiting.
    let mut broken = false;
    let mut drifted = false;
    for (name, grid) in grids(args) {
        let path = baseline_path(dir, &grid_address(&grid));
        if !path.exists() {
            eprintln!(
                "{name}: no baseline at {} — run `sweep_diff record` first",
                path.display()
            );
            broken = true;
            continue;
        }
        let current = run_baseline(&grid, &sweeper);
        match baseline_ops::check_with(&grid, &current, dir, &config) {
            Ok((rendered, drift)) => {
                print!("{name}: {rendered}");
                drifted |= drift;
            }
            Err(e) => args.fail(format!("{name}: {e}")),
        }
    }
    if broken {
        exit(2);
    }
    exit(i32::from(drifted));
}

fn diff_files(args: &Args, a: &str, b: &str) {
    let config = args.ok(diff_config(args));
    let load = |path: &str| {
        Baseline::load(path).unwrap_or_else(|e| args.fail(format!("loading {path}: {e}")))
    };
    let result = diff(&load(a), &load(b), &config);
    print!("{}", result.render());
    exit(i32::from(!result.is_empty()));
}

const USAGE: &str = "\
usage: sweep_diff <record|check|diff a.json b.json> [flags]

  record   run the golden grid(s), write <dir>/<content-address>.json
           (refuses grids with error-severity arsf-analyze findings and
            grids a verifier vetoes, unless --allow names the veto id:
            guarantee-unbounded, detect-vacuous or order-violation;
            table2-closed-loop needs --allow detect-vacuous)
  check    re-run the golden grid(s), diff against stored baselines
  diff     compare two baseline files directly

exit codes:
  0  clean  - every compared cell within tolerance
  1  drift  - at least one cell out of tolerance
  2  broken - usage error, refused recording, missing/unreadable/
              address-corrupted baseline, or I/O failure
";

fn main() {
    let args = Args::from_env(&SWEEP_DIFF, USAGE);
    let dir = args.value("--dir").unwrap_or("baselines");
    let subcommand = args.positionals().first().copied().unwrap_or_default();
    let known = matches!(subcommand, "record" | "check" | "diff");
    for (flag, subcommands) in APPLIES_TO {
        if known && args.has(flag) && !subcommands.contains(&subcommand) {
            let names = subcommands.join("` and `");
            args.fail(format!("{flag} applies to `sweep_diff {names}` only"));
        }
    }
    match args.positionals()[..] {
        ["record"] => record(&args, dir),
        ["check"] => check(&args, dir),
        ["diff", a, b] => diff_files(&args, a, b),
        ["diff", ..] => args.fail("diff wants two baseline files: sweep_diff diff a.json b.json"),
        _ => {
            eprint!("{USAGE}");
            exit(2);
        }
    }
}
