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

/// Records `current` under `dir` with no veto overridden; see
/// [`record_allowing`].
///
/// # Errors
///
/// Returns the refusal or I/O failure message.
pub fn record(grid: &SweepGrid, current: &Baseline, dir: &str) -> Result<PathBuf, String> {
    record_allowing(grid, current, dir, &[])
}

/// Records `current` under `dir`, unless a veto refuses it:
///
/// 1. rows that are not exactly `grid`'s cells, `0..grid.len()` in grid
///    order ([`Baseline::verify_cells`]; never overridable);
/// 2. error-severity grid lint findings (never overridable);
/// 3. each [`VERIFIERS`] entry's `veto` in turn — cells with no static
///    width bound (`guarantee-unbounded`), a grid whose every corruptible
///    cell is provably invisible to its detector (`detect-vacuous`), and
///    recorded cell pairs inverting a provable ordering
///    (`order-violation`). The veto ids in `allowed` (a binary's
///    `--allow`, see [`crate::cli::allowed`]) are overridden.
///
/// Vetoing findings are printed to stderr before the error is returned.
///
/// # Errors
///
/// Returns the refusal or I/O failure message for the caller's
/// diagnostic.
pub fn record_allowing(
    grid: &SweepGrid,
    current: &Baseline,
    dir: &str,
    allowed: &[&str],
) -> Result<PathBuf, String> {
    // The file is stored under the grid's address, so it must hold the
    // grid's cells and nothing else.
    current.verify_cells(grid).map_err(|e| {
        format!("refusing to record a baseline whose rows are not the grid's cells: {e}")
    })?;
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

/// Diffs `current` against the baseline stored for `grid` under `dir`
/// with the near-exact default tolerances; see [`check_with`].
///
/// # Errors
///
/// Returns a message when the stored baseline cannot be loaded or fails
/// address verification.
pub fn check(grid: &SweepGrid, current: &Baseline, dir: &str) -> Result<(String, bool), String> {
    check_with(grid, current, dir, &DiffConfig::near_exact())
}

/// Diffs `current` against the baseline stored for `grid` under `dir`,
/// after verifying the stored file's content address, under `config`
/// (a binary's `--tol`, see [`crate::cli::diff_config`]). Returns the
/// rendered drift report and whether any cell drifted.
///
/// # Errors
///
/// Returns a message when the stored baseline cannot be loaded or fails
/// address verification.
pub fn check_with(
    grid: &SweepGrid,
    current: &Baseline,
    dir: &str,
    config: &DiffConfig,
) -> Result<(String, bool), String> {
    let stored =
        Baseline::load_for_grid(dir, grid).map_err(|e| format!("loading baseline: {e}"))?;
    // The content-addressing invariant must hold before the numbers
    // mean anything: a file whose stored address disagrees with its
    // embedded definition was hand-edited or corrupted.
    stored
        .verify_address()
        .map_err(|e| format!("stored baseline failed address verification: {e}"))?;
    let result = diff(&stored, current, config);
    Ok((result.render(), !result.is_empty()))
}
