//! Error-path coverage for the shared CLI parsing layer
//! (`arsf_bench::cli`) and the binaries built on it: a malformed flag
//! must produce a diagnostic naming the bad token and exit code 2 —
//! never a panic, never a silent default.

use std::process::Command;

use arsf_bench::cli::{parse_cells, parse_fault, parse_strategy, parse_tolerances};

/// Runs a compiled binary and returns `(exit code, stderr)`.
fn run(exe: &str, args: &[&str]) -> (i32, String) {
    let output = Command::new(exe).args(args).output().expect("binary runs");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn run_scenario_sweep(args: &[&str]) -> (i32, String) {
    run(env!("CARGO_BIN_EXE_scenario_sweep"), args)
}

fn run_sweep_lint(args: &[&str]) -> (i32, String) {
    run(env!("CARGO_BIN_EXE_sweep_lint"), args)
}

fn run_sweep_drive(args: &[&str]) -> (i32, String) {
    run(env!("CARGO_BIN_EXE_sweep_drive"), args)
}

#[test]
fn parse_cells_rejects_reversed_and_empty_ranges() {
    assert_eq!(parse_cells("5..2").unwrap_err(), "cell range 5..2 is empty");
    assert_eq!(parse_cells("7..7").unwrap_err(), "cell range 7..7 is empty");
    assert!(parse_cells("3").unwrap_err().contains("a..b"));
    assert!(parse_cells("a..4")
        .unwrap_err()
        .contains("bad cell index `a`"));
}

#[test]
fn parse_fault_names_the_malformed_component() {
    // Missing the probability (and the param): too few components.
    assert!(parse_fault("0:bias")
        .unwrap_err()
        .contains("sensor:kind[:param]:probability"));
    // A bias fault without its offset parameter: the third token is the
    // probability, so the param slot is missing.
    assert!(parse_fault("0:bias:0.5")
        .unwrap_err()
        .contains("sensor:kind[:param]:probability"));
    assert!(parse_fault("x:bias:3:0.5")
        .unwrap_err()
        .contains("bad sensor index `x`"));
    assert!(parse_fault("0:bias:3:1.5")
        .unwrap_err()
        .contains("bad probability `1.5`"));
    assert!(parse_fault("0:gremlin:3:0.5")
        .unwrap_err()
        .contains("unknown fault kind `gremlin`"));
}

#[test]
fn parse_tolerances_names_the_malformed_entry() {
    assert!(parse_tolerances("mean_width=abc")
        .unwrap_err()
        .contains("bad tolerance `abc`"));
    assert!(parse_tolerances("mean_width")
        .unwrap_err()
        .contains("column=abs[:rel]"));
    assert!(parse_tolerances("=1e-9")
        .unwrap_err()
        .contains("empty column name"));
    assert!(parse_tolerances("mean_width=-1.0")
        .unwrap_err()
        .contains("bad tolerance `-1.0`"));
}

#[test]
fn parse_strategy_rejects_unknown_names() {
    assert_eq!(
        parse_strategy("nope").unwrap_err(),
        "unknown strategy `nope`"
    );
}

#[test]
fn scenario_sweep_rejects_a_reversed_cell_range() {
    let (code, stderr) = run_scenario_sweep(&["--fusers", "marzullo", "--cells", "5..2"]);
    assert_eq!(code, 2, "a reversed range is a usage error: {stderr}");
    assert!(
        stderr.contains("cell range 5..2 is empty"),
        "the diagnostic names the range: {stderr}"
    );
}

#[test]
fn scenario_sweep_rejects_an_empty_cell_range() {
    let (code, stderr) = run_scenario_sweep(&["--fusers", "marzullo", "--cells", "7..7"]);
    assert_eq!(code, 2, "an empty range is a usage error: {stderr}");
    assert!(stderr.contains("is empty"), "{stderr}");
}

#[test]
fn scenario_sweep_rejects_a_malformed_fault_spec() {
    let (code, stderr) = run_scenario_sweep(&["--fusers", "marzullo", "--fault", "0:bias"]);
    assert_eq!(code, 2, "a malformed fault is a usage error: {stderr}");
    assert!(
        stderr.contains("sensor:kind[:param]:probability"),
        "the diagnostic shows the expected shape: {stderr}"
    );
}

#[test]
fn scenario_sweep_rejects_an_unknown_strategy() {
    let (code, stderr) = run_scenario_sweep(&["--fusers", "marzullo", "--strategy", "nope"]);
    assert_eq!(code, 2, "an unknown strategy is a usage error: {stderr}");
    assert!(
        stderr.contains("unknown strategy `nope`"),
        "the diagnostic names the strategy: {stderr}"
    );
}

#[test]
fn preset_mode_rejects_a_malformed_round_count() {
    let (code, stderr) = run_scenario_sweep(&["--rounds", "abc"]);
    assert_eq!(
        code, 2,
        "a malformed round count is a usage error: {stderr}"
    );
    assert!(
        stderr.contains("--rounds wants a non-negative integer, got `abc`"),
        "the diagnostic names the value: {stderr}"
    );
}

#[test]
fn repro_table2_rejects_a_malformed_thread_count() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_repro_table2"), &["--threads", "abc"]);
    assert_eq!(
        code, 2,
        "a malformed thread count is a usage error: {stderr}"
    );
    assert!(
        stderr.contains("repro_table2: --threads wants a positive integer, got `abc`"),
        "the diagnostic names the value: {stderr}"
    );
}

#[test]
fn scenario_sweep_rejects_stream_combined_with_report_flags() {
    let (code, stderr) = run_scenario_sweep(&["--fusers", "marzullo", "--stream", "--csv", "-"]);
    assert_eq!(code, 2, "--stream owns stdout: {stderr}");
    assert!(
        stderr.contains("--stream emits protocol frames; drop --csv"),
        "the diagnostic names the clashing flag: {stderr}"
    );
}

#[test]
fn scenario_sweep_rejects_stream_without_grid_mode() {
    let (code, stderr) = run_scenario_sweep(&["--stream"]);
    assert_eq!(code, 2, "--stream needs a grid: {stderr}");
    assert!(stderr.contains("--stream needs grid mode"), "{stderr}");
}

#[test]
fn golden_grids_reject_extra_shaping_flags() {
    let (code, stderr) = run_scenario_sweep(&["--golden", "open-loop-48", "--fusers", "marzullo"]);
    assert_eq!(code, 2, "--golden is a complete definition: {stderr}");
    assert!(
        stderr.contains("--golden names a committed grid; drop --fusers"),
        "the diagnostic names the extra flag: {stderr}"
    );
}

#[test]
fn unknown_golden_names_list_the_known_grids() {
    let (code, stderr) = run_scenario_sweep(&["--golden", "nope"]);
    assert_eq!(code, 2, "an unknown golden name is a usage error: {stderr}");
    assert!(
        stderr.contains("unknown golden grid `nope`")
            && stderr.contains("open-loop-48")
            && stderr.contains("table2-closed-loop"),
        "the diagnostic lists the candidates: {stderr}"
    );
}

#[test]
fn sweep_drive_requires_grid_mode() {
    let (code, stderr) = run_sweep_drive(&[]);
    assert_eq!(code, 2, "no grid flags is a usage error: {stderr}");
    assert!(stderr.contains("needs grid mode"), "{stderr}");
}

#[test]
fn sweep_drive_rejects_zero_workers() {
    let (code, stderr) = run_sweep_drive(&["--fusers", "marzullo", "--workers", "0"]);
    assert_eq!(code, 2, "zero workers is a usage error: {stderr}");
    assert!(
        stderr.contains("--workers wants a positive integer"),
        "{stderr}"
    );
}

#[test]
fn sweep_drive_rejects_shard_plans_that_do_not_partition_the_grid() {
    // marzullo × seeds 1,2 = 2 cells.
    let grid = ["--fusers", "marzullo", "--seeds", "1,2"];
    let cases = [
        ("0..1", "covers 0..1"),         // misses the tail
        ("1..2", "not contiguous"),      // misses the head
        ("0..1,0..2", "not contiguous"), // overlap
        ("0..3", "exceeds"),             // past the end
        ("1..0", "reversed"),            // backwards range
        ("0..x", "bad cell index"),      // malformed endpoint
    ];
    for (spec, diagnostic) in cases {
        let mut args = grid.to_vec();
        args.extend(["--shards", spec]);
        let (code, stderr) = run_sweep_drive(&args);
        assert_eq!(code, 2, "shards `{spec}` is a usage error: {stderr}");
        assert!(
            stderr.contains(diagnostic),
            "shards `{spec}` names the defect `{diagnostic}`: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn sweep_drive_rejects_a_malformed_fault_worker_spec() {
    for (spec, diagnostic) in [
        ("1", "expected worker:rows[:attempts]"),
        ("x:1", "bad worker index `x`"),
        ("1:y", "bad row count `y`"),
        ("1:1:9", "bad attempt count `9`"),
    ] {
        let (code, stderr) = run_sweep_drive(&["--fusers", "marzullo", "--fault-worker", spec]);
        assert_eq!(code, 2, "--fault-worker {spec} is a usage error: {stderr}");
        assert!(
            stderr.contains(diagnostic),
            "`{spec}` → `{diagnostic}`: {stderr}"
        );
    }
}

#[test]
fn sweep_drive_rejects_an_unknown_baseline_mode() {
    let (code, stderr) = run_sweep_drive(&["--fusers", "marzullo", "--baseline", "freeze"]);
    assert_eq!(
        code, 2,
        "an unknown baseline mode is a usage error: {stderr}"
    );
    assert!(
        stderr.contains("--baseline wants `record` or `check`"),
        "{stderr}"
    );
}

/// Records `table2-closed-loop` through `sweep_diff` into a scratch
/// directory with extra arguments; returns `(exit code, stderr, wrote)`.
fn record_table2(extra: &[&str]) -> (i32, String, bool) {
    let dir = std::env::temp_dir().join(format!(
        "arsf-cli-allow-{}-{}",
        std::process::id(),
        extra.join("_")
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut args = vec![
        "record",
        "--grid",
        "table2-closed-loop",
        "--dir",
        dir.to_str().expect("utf-8 path"),
    ];
    args.extend_from_slice(extra);
    let (code, stderr) = run(env!("CARGO_BIN_EXE_sweep_diff"), &args);
    let wrote = std::fs::read_dir(&dir).expect("scratch dir").count() > 0;
    std::fs::remove_dir_all(&dir).ok();
    (code, stderr, wrote)
}

#[test]
fn unknown_allow_ids_list_the_accepted_ones() {
    let (code, stderr, wrote) = record_table2(&["--allow", "bogus"]);
    assert_eq!(code, 2, "an unknown veto id is a usage error: {stderr}");
    assert!(
        stderr.contains("unknown veto id `bogus`")
            && stderr.contains("guarantee-unbounded, detect-vacuous, order-violation"),
        "the diagnostic lists the accepted ids: {stderr}"
    );
    assert!(!wrote);
}

#[test]
fn the_old_allow_flag_spellings_are_gone() {
    // `--allow-invisible` no longer overrides anything: the veto it used
    // to silence refuses the recording.
    let (code, stderr, wrote) = record_table2(&["--allow-invisible"]);
    assert_eq!(code, 2, "the old spelling is no override: {stderr}");
    assert!(stderr.contains("error[detect-vacuous]"), "{stderr}");
    assert!(!wrote);
}

#[test]
fn sweep_lint_rejects_a_malformed_tolerance() {
    let (code, stderr) = run_sweep_lint(&["baselines", "--tol", "mean_width=abc"]);
    assert_eq!(code, 2, "a malformed tolerance is a usage error: {stderr}");
    assert!(
        stderr.contains("bad tolerance `abc`"),
        "the diagnostic names the token: {stderr}"
    );
}

#[test]
fn sweep_lint_grid_propagates_cli_errors() {
    let (code, stderr) = run_sweep_lint(&["grid", "--strategy", "nope"]);
    assert_eq!(code, 2, "grid mode shares the CLI parser: {stderr}");
    assert!(stderr.contains("unknown strategy `nope`"), "{stderr}");
}

#[test]
fn sweep_lint_without_a_subcommand_prints_usage() {
    let (code, stderr) = run_sweep_lint(&[]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("usage: sweep_lint"),
        "the usage text is shown: {stderr}"
    );
    assert!(
        stderr.contains("dominance") && stderr.contains("all"),
        "the usage lists the new subcommands: {stderr}"
    );
}
