//! Regression-baseline tool for sweep reports: record the golden grids'
//! reports content-addressed under a baseline directory, re-run and
//! check them cell by cell, or diff two stored baseline files.
//!
//! Run with: `cargo run --release -p arsf-bench --bin sweep_diff -- <cmd>`
//!
//! Subcommands:
//! * `record` — run the golden grid(s) and write
//!   `<dir>/<content-address>.json` for each (overwrites the grid's own
//!   file only; other addresses are untouched). Re-record after an
//!   *intentional* algorithm change. Goes through
//!   `arsf_bench::baseline_ops::record`, the one recording path every
//!   binary shares: it refuses a grid with error-severity lint findings,
//!   and any grid a static verifier's veto objects to unless its finding
//!   id is passed to `--allow` (`table2-closed-loop` needs `--allow
//!   detect-vacuous`, since its stealthy attacker provably never trips
//!   Marzullo's overlap check).
//! * `check` — run the golden grid(s) and diff each against its stored
//!   baseline through `arsf_bench::baseline_ops::check` (address
//!   verification first), printing every drifted cell's grid index,
//!   column, baseline value and new value.
//! * `diff <a.json> <b.json>` — compare two baseline files directly.
//!
//! Exit codes (CI keys off them, so drift and breakage stay
//! distinguishable):
//! * `0` — clean: every compared cell within tolerance
//! * `1` — drift: at least one cell out of tolerance
//! * `2` — broken: usage error, a refused recording, an unreadable,
//!   missing or address-corrupted baseline, or I/O failure
//!
//! Options:
//! * `--grid name` — restrict record/check to one golden grid
//!   (`open-loop-48`, `table2-closed-loop`; default: all)
//! * `--dir path` — the baseline directory (default `baselines`)
//! * `--threads k` — worker threads (default: available parallelism;
//!   the report is byte-identical at any thread count)
//! * `--tol col=abs[:rel],…` — per-column tolerances (column families
//!   may be named without an index, e.g. `vehicle_mean_widths=1e-9`).
//!   Columns without an entry use the near-exact default
//!   (abs/rel `1e-12`, absorbing last-ulp libm variation across
//!   platforms while failing any real drift)
//! * `--allow id[,id…]` — record anyway despite these veto ids
//!   (`guarantee-unbounded`, `detect-vacuous`, `order-violation`)

use std::process::exit;

use arsf_bench::cli::sweeper_from_args;
use arsf_bench::{arg_value, baseline_ops, golden, has_flag};
use arsf_core::sweep::diff::diff;
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline};
use arsf_core::sweep::{ParallelSweeper, SweepGrid};

fn fail(message: &str) -> ! {
    eprintln!("sweep_diff: {message}");
    exit(2);
}

fn sweeper() -> ParallelSweeper {
    sweeper_from_args().unwrap_or_else(|e| fail(&e))
}

fn grids() -> Vec<(&'static str, SweepGrid)> {
    let all = golden::all();
    let Some(name) = arg_value("--grid") else {
        return all;
    };
    let known: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    if !known.contains(&name.as_str()) {
        fail(&format!(
            "unknown golden grid `{name}` (known: {})",
            known.join(", ")
        ));
    }
    all.into_iter().filter(|(n, _)| *n == name).collect()
}

fn run_baseline(grid: &SweepGrid, sweeper: &ParallelSweeper) -> Baseline {
    Baseline::from_report(grid, &sweeper.run(grid))
}

fn record(dir: &str) {
    let sweeper = sweeper();
    for (name, grid) in grids() {
        let current = run_baseline(&grid, &sweeper);
        match baseline_ops::record(&grid, &current, dir) {
            Ok(path) => println!(
                "recorded {name}: {} cells -> {}",
                current.rows.len(),
                path.display()
            ),
            Err(e) => fail(&format!("{name}: {e}")),
        }
    }
}

fn check(dir: &str) {
    let sweeper = sweeper();
    // A missing baseline is breakage (exit 2), not drift (exit 1): CI
    // must not mistake "nothing to compare against" for "the numbers
    // moved". Every grid is still reported before exiting.
    let mut broken = false;
    let mut drifted = false;
    for (name, grid) in grids() {
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
        match baseline_ops::check(&grid, &current, dir) {
            Ok((rendered, drift)) => {
                print!("{name}: {rendered}");
                drifted |= drift;
            }
            Err(e) => fail(&format!("{name}: {e}")),
        }
    }
    if broken {
        exit(2);
    }
    exit(i32::from(drifted));
}

fn diff_files(a: &str, b: &str) {
    let config = baseline_ops::diff_config().unwrap_or_else(|e| fail(&e));
    let load =
        |path: &str| Baseline::load(path).unwrap_or_else(|e| fail(&format!("loading {path}: {e}")));
    let result = diff(&load(a), &load(b), &config);
    print!("{}", result.render());
    exit(i32::from(!result.is_empty()));
}

const USAGE: &str = "\
usage: sweep_diff <record|check|diff a.json b.json>
                  [--grid name] [--dir path] [--threads k]
                  [--tol col=abs[:rel],...] [--allow id[,id...]]

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
    if has_flag("--help") || has_flag("-h") {
        print!("{USAGE}");
        exit(0);
    }
    let dir = arg_value("--dir").unwrap_or_else(|| "baselines".to_string());
    // Every flag takes a value, so the positionals are the arguments
    // that are neither a flag nor a flag's value.
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            args.next();
        } else {
            positional.push(arg);
        }
    }
    match positional.first().map(String::as_str) {
        Some("record") => record(&dir),
        Some("check") => check(&dir),
        Some("diff") => match (positional.get(1), positional.get(2)) {
            (Some(a), Some(b)) => diff_files(a, b),
            _ => fail("diff wants two baseline files: sweep_diff diff a.json b.json"),
        },
        _ => {
            eprint!("{USAGE}");
            exit(2);
        }
    }
}
