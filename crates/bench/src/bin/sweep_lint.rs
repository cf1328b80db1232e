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
//! * `grid` — lint the sweep grid described by the grid flags
//!   `scenario_sweep` takes (`arsf_bench::cli::GRID_FLAGS`). The grid
//!   is built by the exact construction `scenario_sweep` runs, so a
//!   clean lint here means the sweep is statically sound.
//! * `baselines` — lint the baseline directory against the golden
//!   grids: recomputed content addresses, filename/address agreement,
//!   rows that are not the golden grid's cells, orphaned files, missing
//!   recordings; with `--tol col=abs[:rel],…` also flags tolerance
//!   entries that match no column in any stored baseline.
//! * one subcommand per `arsf_analyze::VERIFIERS` entry (`guarantees`,
//!   `detectability`, `dominance`): derive that verifier's facts for
//!   every golden-grid cell without simulating a round, then vet the
//!   stored baseline against them; a contradicting recorded cell is a
//!   `guarantee-violation`, `detect-violation` or `order-violation`.
//! * `all` — run every pass above (except `grid`, which needs flags) in
//!   one invocation: per-pass section headers in text mode, a `pass`
//!   field in `--json`, and the max exit code across passes.
//!
//! `--help` lists the flags. `--dir` is read by every subcommand but
//! `presets` and `grid` (which ignore it), `--tol` only by `baselines`
//! and `all`, and the grid flags only by `grid`; any other use, and an
//! unknown, repeated or malformed flag, exits 2.
//!
//! Exit codes: `0` clean (info findings allowed), `1` warnings, `2`
//! errors. Every record path (`sweep_diff record`, `scenario_sweep` and
//! `sweep_drive --baseline record`) enforces the error tier
//! automatically before freezing a baseline.

use std::path::Path;
use std::process::exit;

use arsf_analyze::rules::BASELINE_MISSING;
use arsf_analyze::{
    analyze_baseline_dir, analyze_grid, analyze_scenario, exit_code, render, render_json_passes,
    render_passes, tolerance_findings, Finding, Location, Verifier, VERIFIERS,
};
use arsf_bench::cli::{diff_config, grid_from, Args, Cli, Flag, GRID_FLAGS};
use arsf_bench::golden;
use arsf_core::scenario::registry;
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline};

#[rustfmt::skip]
const SWEEP_LINT: Cli = Cli { positionals: 1, ..Cli::new("sweep_lint", &[&[
    Flag::switch("--json", "emit a JSON array; every object carries \"schema\": 1 and its pass"),
    Flag::value("--dir", "path", "the baseline directory (default baselines)"),
    Flag::value("--tol", "col=abs[:rel],...", "check-harness tolerances to vet (baselines, all)"),
], GRID_FLAGS]) };

/// The usage text; the verifier subcommands come from [`VERIFIERS`].
fn usage() -> String {
    let names: Vec<&str> = VERIFIERS.iter().map(|v| v.name).collect();
    let mut out = format!(
        "usage: sweep_lint <presets|grid|baselines|{}|all> [flags]\n\n",
        names.join("|")
    );
    out.push_str(
        "  presets     lint every registry preset
  grid        lint the sweep grid scenario_sweep's grid flags describe
  baselines   lint the baseline directory against the golden grids
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
",
            verifier.noun
        ));
    }
    out.push_str(&format!(
        "  all         presets + baselines + {}
              in one pass, with per-pass headers (text) or a \"pass\"
              field (--json) and the max exit code

exit codes:
  0  clean    - no findings above info severity
  1  warnings - degenerate but runnable definitions
  2  errors   - unsound or rejected definitions (record refuses these)
",
        names.join(" + ")
    ));
    out
}

/// Prints one pass's findings (text or `--json`; JSON objects carry
/// `"schema": 1` and the pass name) and exits with the lint convention:
/// 2 on errors, 1 on warnings, 0 otherwise.
fn emit(args: &Args, pass: &str, findings: Vec<Finding>) -> ! {
    let code = exit_code(&findings);
    if args.has("--json") {
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

fn baselines(args: &Args) -> Vec<Finding> {
    let dir = args.value("--dir").unwrap_or("baselines");
    let grids = golden::all();
    let mut findings = analyze_baseline_dir(Path::new(dir), &grids);
    if args.has("--tol") {
        let config = args.ok(diff_config(args));
        // Vet the tolerances against every stored golden baseline at
        // once: one check-harness configuration applies to all grids, so
        // a family only present closed-loop is alive, not dead.
        let stored: Vec<Baseline> = grids
            .iter()
            .filter_map(|(_, grid)| Baseline::load_for_grid(dir, grid).ok())
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
fn golden_pass(args: &Args, verifier: &Verifier) -> Vec<Finding> {
    let dir = args.value("--dir").unwrap_or("baselines");
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
        let path = baseline_path(dir, &address);
        match Baseline::load(&path) {
            Ok(baseline) => {
                findings.extend((verifier.vet)(&grid, &baseline, &Location::File { path }))
            }
            Err(_) => findings.push(BASELINE_MISSING.finding(
                Location::Grid {
                    name: name.to_string(),
                },
                format!(
                    "no stored baseline {address}.json in {dir} to vet against the static {}",
                    verifier.noun
                ),
            )),
        }
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

fn all(args: &Args) -> ! {
    let mut passes = vec![("presets", presets()), ("baselines", baselines(args))];
    passes.extend(VERIFIERS.iter().map(|v| (v.name, golden_pass(args, v))));
    // Max-of exit codes == the lint convention over the merged set.
    let code = passes
        .iter()
        .map(|(_, findings)| exit_code(findings))
        .max()
        .unwrap_or(0);
    if args.has("--json") {
        print!("{}", render_json_passes(&passes));
    } else {
        print!("{}", render_passes(&passes));
    }
    exit(code);
}

fn main() {
    let usage = usage();
    let args = Args::from_env(&SWEEP_LINT, &usage);
    let subcommand = args.positionals().first().copied().unwrap_or_default();
    if subcommand != "grid" {
        if let Some(flag) = GRID_FLAGS.iter().find(|flag| args.has(flag.name)) {
            args.fail(format!("{} applies to `sweep_lint grid` only", flag.name));
        }
    }
    if args.has("--tol") && !matches!(subcommand, "baselines" | "all") {
        args.fail("--tol applies to `sweep_lint baselines` and `all` only");
    }
    match subcommand {
        "presets" => emit(&args, "presets", presets()),
        "grid" => emit(&args, "grid", analyze_grid(&args.ok(grid_from(&args)))),
        "baselines" => emit(&args, "baselines", baselines(&args)),
        "all" => all(&args),
        name => match VERIFIERS.iter().find(|v| v.name == name) {
            Some(verifier) => emit(&args, verifier.name, golden_pass(&args, verifier)),
            None => {
                eprint!("{usage}");
                exit(2);
            }
        },
    }
}
