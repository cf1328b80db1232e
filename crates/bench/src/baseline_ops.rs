//! The one `record`/`check` path behind every baseline-writing binary.
//!
//! `sweep_diff record|check`, `scenario_sweep --baseline` and
//! `sweep_drive --baseline` all run a grid, build a [`Baseline`] from
//! its rows and hand it here, so every recording applies the identical
//! vetoes and every check the identical address verification and
//! tolerances.

use std::path::PathBuf;

use arsf_analyze::{analyze_grid, Finding, Severity, VERIFIERS};
use arsf_core::sweep::diff::{diff, DiffConfig};
use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::SweepGrid;

use crate::cli::{parse_allow, parse_tolerances};

/// Records `current` under `dir`, unless a veto refuses it:
///
/// 1. error-severity grid lint findings (never overridable);
/// 2. each [`VERIFIERS`] entry's `veto` in turn — cells with no static
///    width bound (`guarantee-unbounded`), a grid whose every corruptible
///    cell is provably invisible to its detector (`detect-vacuous`), and
///    recorded cell pairs inverting a provable ordering
///    (`order-violation`). `--allow id[,id…]` overrides the named ids.
///
/// The overrides are read from the process arguments, so every binary
/// exposes `--allow` with identical semantics. Vetoing findings are
/// printed to stderr before the error is returned.
///
/// # Errors
///
/// Returns the refusal (or an unknown `--allow` id, or an I/O failure)
/// message for the caller's `fail`-style diagnostic.
pub fn record(grid: &SweepGrid, current: &Baseline, dir: &str) -> Result<PathBuf, String> {
    let allowed = match crate::arg_value("--allow") {
        Some(spec) => parse_allow(&spec)?,
        None => Vec::new(),
    };
    // Refuse to freeze a statically unsound grid: an error-severity
    // finding means the rows are meaningless (soundness violated) or
    // the engines got lucky.
    let errors: Vec<Finding> = analyze_grid(grid)
        .into_iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    if !errors.is_empty() {
        return refuse(
            &errors,
            "refusing to record a baseline for a grid with error-severity lint findings".into(),
        );
    }
    for verifier in &VERIFIERS {
        let vetoed: Vec<Finding> = (verifier.veto)(grid, current)
            .into_iter()
            .filter(|f| !allowed.contains(&f.lint))
            .collect();
        if !vetoed.is_empty() {
            return refuse(
                &vetoed,
                format!(
                    "refusing to record a baseline: the {} veto raised {} finding(s) \
                     (pass --allow {} to record anyway)",
                    verifier.name,
                    vetoed.len(),
                    verifier.veto_id
                ),
            );
        }
    }
    current
        .save(dir)
        .map_err(|e| format!("recording baseline: {e}"))
}

/// Prints the refusing findings to stderr and returns the refusal.
fn refuse<T>(findings: &[Finding], why: String) -> Result<T, String> {
    for finding in findings {
        eprintln!("{}", finding.render());
    }
    Err(why)
}

/// The near-exact diff configuration plus any `--tol col=abs[:rel],…`
/// entries from the process arguments.
///
/// # Errors
///
/// Returns a message naming a malformed tolerance entry.
pub fn diff_config() -> Result<DiffConfig, String> {
    let mut config = DiffConfig::near_exact();
    if let Some(spec) = crate::arg_value("--tol") {
        for (column, tolerance) in parse_tolerances(&spec).map_err(|e| format!("--tol: {e}"))? {
            config = config.with_column(column, tolerance);
        }
    }
    Ok(config)
}

/// Diffs `current` against the baseline stored for `grid` under `dir`,
/// after verifying the stored file's content address, under
/// [`diff_config`]. Returns the rendered drift report and whether any
/// cell drifted.
///
/// # Errors
///
/// Returns a message when the stored baseline cannot be loaded, fails
/// address verification, or the tolerance spec is malformed.
pub fn check(grid: &SweepGrid, current: &Baseline, dir: &str) -> Result<(String, bool), String> {
    let stored =
        Baseline::load_for_grid(dir, grid).map_err(|e| format!("loading baseline: {e}"))?;
    // The content-addressing invariant must hold before the numbers
    // mean anything: a file whose stored address disagrees with its
    // embedded definition was hand-edited or corrupted.
    stored
        .verify_address()
        .map_err(|e| format!("stored baseline failed address verification: {e}"))?;
    let result = diff(&stored, current, &diff_config()?);
    Ok((result.render(), !result.is_empty()))
}
