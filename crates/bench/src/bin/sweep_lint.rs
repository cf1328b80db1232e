//! Static lint runner over the experiment-definition layers: registry
//! presets, command-line sweep grids, and the committed golden
//! baselines — the CLI face of `arsf-analyze`.
//!
//! Run with: `cargo run --release -p arsf-bench --bin sweep_lint -- <cmd>`
//!
//! Subcommands:
//! * `presets` — lint every scenario in the registry. Clean on the
//!   committed registry; a preset that violates `n > 2f`, exceeds the
//!   corruption budget, or fails `Scenario::validate` fails the run.
//! * `grid` — lint the sweep grid described by the same flags
//!   `scenario_sweep` takes (`--fusers`, `--detectors`, `--schedules`,
//!   `--seeds`, `--history`, `--suite`, `--fault`, `--strategy`,
//!   `--honest`, `--f`, `--rounds`, and the closed-loop family
//!   `--closed-loop`/`--target`/`--deltas`/`--platoon`). The grid is
//!   built by the exact construction `scenario_sweep` runs, so a clean
//!   lint here means the sweep is statically sound.
//! * `baselines` — lint the baseline directory against the golden
//!   grids: recomputed content addresses, filename/address agreement,
//!   orphaned files, missing recordings; with `--tol col=abs[:rel],…`
//!   also flags tolerance entries that match no column in any stored
//!   baseline.
//! * one subcommand per `arsf_analyze::VERIFIERS` entry — `guarantees`
//!   (worst-case fusion width bounds and truth containment),
//!   `detectability` (provably invisible / provably flagged /
//!   contingent verdicts) and `dominance` (provable cross-cell
//!   orderings, Table II's schedule chain among them). Each derives its
//!   facts for every golden-grid cell without simulating a round, then
//!   vets the stored baseline against them: a recorded cell that
//!   contradicts one is a `guarantee-violation`, `detect-violation` or
//!   `order-violation` error.
//! * `all` — run every pass above (except `grid`, which needs flags) in
//!   one invocation: per-pass section headers in text mode, a `pass`
//!   field in `--json`, and the max exit code across passes.
//!
//! Options:
//! * `--json` — emit findings as a JSON array instead of text; every
//!   object carries `"schema": 1` and its `"pass"` name
//! * `--dir path` — the baseline directory (every subcommand but
//!   `presets` and `grid`; default `baselines`)
//! * `--tol col=abs[:rel],…` — check-harness tolerances to vet
//!   (`baselines` subcommand only)
//!
//! Exit codes: `0` clean (info findings allowed), `1` warnings, `2`
//! errors. Every record path (`sweep_diff record`, `scenario_sweep` and
//! `sweep_drive --baseline record`) enforces the error tier
//! automatically before freezing a baseline.

use std::path::Path;
use std::process::exit;

use arsf_analyze::{
    analyze_baseline_dir, analyze_grid, analyze_scenario, exit_code, render, render_json_passes,
    render_passes, tolerance_findings, Finding, Location, Severity, Verifier, VERIFIERS,
};
use arsf_bench::cli::grid_from_args;
use arsf_bench::{arg_value, baseline_ops, golden, has_flag};
use arsf_core::scenario::registry;
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline};

/// The usage text; the verifier subcommands come from [`VERIFIERS`].
fn usage() -> String {
    let names: Vec<&str> = VERIFIERS.iter().map(|v| v.name).collect();
    let mut out = format!(
        "usage: sweep_lint <presets|grid|baselines|{}|all>\n                  [--json]\n\n",
        names.join("|")
    );
    out.push_str(
        "  presets     lint every registry preset
  grid        lint the sweep grid described by scenario_sweep's flags
              (--fusers, --detectors, --schedules, --seeds, --history,
               --suite, --fault, --strategy, --honest, --f, --rounds,
               --closed-loop, --target, --deltas, --platoon)
  baselines   lint the baseline directory against the golden grids
              [--dir path] [--tol col=abs[:rel],...]
",
    );
    for verifier in &VERIFIERS {
        // Names too long for the column get a line of their own.
        let name = match verifier.name.len() {
            0..=11 => format!("{:<12}", verifier.name),
            _ => format!("{}\n{:14}", verifier.name, ""),
        };
        out.push_str(&format!(
            "  {name}derive the golden grids' static {} (no
              simulation) and vet the stored baselines against them
              [--dir path]
",
            verifier.noun
        ));
    }
    out.push_str(&format!(
        "  all         presets + baselines + {}
              in one pass, with per-pass headers (text) or a \"pass\"
              field (--json) and the max exit code [--dir path]

exit codes:
  0  clean    - no findings above info severity
  1  warnings - degenerate but runnable definitions
  2  errors   - unsound or rejected definitions (record refuses these)
",
        names.join(" + ")
    ));
    out
}

fn fail(message: &str) -> ! {
    eprintln!("sweep_lint: {message}");
    exit(2);
}

/// Prints one pass's findings (text or `--json`; JSON objects carry
/// `"schema": 1` and the pass name) and exits with the lint convention:
/// 2 on errors, 1 on warnings, 0 otherwise.
fn emit(pass: &str, findings: Vec<Finding>) -> ! {
    let code = exit_code(&findings);
    if has_flag("--json") {
        print!("{}", render_json_passes(&[(pass, findings)]));
    } else {
        print!("{}", render(&findings));
    }
    exit(code);
}

fn presets() -> Vec<Finding> {
    let mut findings = Vec::new();
    for preset in registry() {
        findings.extend(analyze_scenario(&preset));
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

fn grid() -> Vec<Finding> {
    let grid = grid_from_args().unwrap_or_else(|e| fail(&e));
    analyze_grid(&grid)
}

fn baselines() -> Vec<Finding> {
    let dir = arg_value("--dir").unwrap_or_else(|| "baselines".to_string());
    let known: Vec<(String, String)> = golden::all()
        .iter()
        .map(|(name, grid)| (name.to_string(), grid_address(grid)))
        .collect();
    let mut findings = analyze_baseline_dir(Path::new(&dir), &known);
    if arg_value("--tol").is_some() {
        let config = baseline_ops::diff_config().unwrap_or_else(|e| fail(&e));
        // Vet the tolerances against every stored golden baseline at
        // once: one check-harness configuration applies to all grids, so
        // a family only present closed-loop is alive, not dead.
        let stored: Vec<Baseline> = known
            .iter()
            .filter_map(|(_, address)| Baseline::load(baseline_path(&dir, address)).ok())
            .collect();
        let refs: Vec<&Baseline> = stored.iter().collect();
        findings.extend(tolerance_findings(&config, &refs));
        findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    }
    findings
}

/// One verifier over the golden grids: its static pass over each grid
/// (messages prefixed with the grid name), then its vet of the grid's
/// stored baseline, warning when there is nothing to vet.
fn golden_pass(verifier: &Verifier) -> Vec<Finding> {
    let dir = arg_value("--dir").unwrap_or_else(|| "baselines".to_string());
    let mut findings = Vec::new();
    for (name, grid) in golden::all() {
        // Static pass: no simulation rounds. The cell(-pair) location is
        // kept; the message is prefixed with the grid so two grids'
        // indices stay distinguishable.
        for mut finding in (verifier.analyze_grid)(&grid) {
            finding.message = format!("golden grid `{name}`: {}", finding.message);
            findings.push(finding);
        }
        // Vetting pass: every stored record must respect the statics.
        let address = grid_address(&grid);
        let path = baseline_path(&dir, &address);
        match Baseline::load(&path) {
            Ok(baseline) => {
                findings.extend((verifier.vet)(&grid, &baseline, &Location::File { path }))
            }
            Err(_) => findings.push(Finding {
                lint: "baseline-missing",
                severity: Severity::Warn,
                location: Location::Grid {
                    name: name.to_string(),
                },
                message: format!(
                    "no stored baseline {address}.json in {dir} to vet against the static \
                     {}",
                    verifier.noun
                ),
            }),
        }
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

fn all() -> ! {
    let mut passes = vec![("presets", presets()), ("baselines", baselines())];
    passes.extend(VERIFIERS.iter().map(|v| (v.name, golden_pass(v))));
    // Max-of exit codes == the lint convention over the merged set.
    let code = passes
        .iter()
        .map(|(_, findings)| exit_code(findings))
        .max()
        .unwrap_or(0);
    if has_flag("--json") {
        print!("{}", render_json_passes(&passes));
    } else {
        print!("{}", render_passes(&passes));
    }
    exit(code);
}

fn main() {
    if has_flag("--help") || has_flag("-h") {
        print!("{}", usage());
        exit(0);
    }
    let subcommand = std::env::args().nth(1).unwrap_or_default();
    match subcommand.as_str() {
        "presets" => emit("presets", presets()),
        "grid" => emit("grid", grid()),
        "baselines" => emit("baselines", baselines()),
        "all" => all(),
        name => match VERIFIERS.iter().find(|v| v.name == name) {
            Some(verifier) => emit(verifier.name, golden_pass(verifier)),
            None => {
                eprint!("{}", usage());
                exit(2);
            }
        },
    }
}
