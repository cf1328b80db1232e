//! Error-path coverage for the shared CLI parsing layer
//! (`arsf_bench::cli`) and the binaries built on it: a malformed flag
//! must produce a diagnostic naming the bad token and exit code 2 —
//! never a panic, never a silent default.

use std::process::{Command, Output};

use arsf_bench::cli::{parse_cells, parse_fault, parse_strategy, parse_tolerances};

/// Runs a compiled binary and returns `(exit code, stderr)`.
fn run(exe: &str, args: &[&str]) -> (i32, String) {
    let output = output(exe, args);
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn output(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
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
    // `--allow-invisible` no longer overrides anything: it is an unknown
    // flag, rejected before a grid runs.
    let (code, stderr, wrote) = record_table2(&["--allow-invisible"]);
    assert_eq!(code, 2, "the old spelling is no override: {stderr}");
    assert!(
        stderr.contains("sweep_diff: unknown flag `--allow-invisible`"),
        "{stderr}"
    );
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

/// A fresh directory holding a 200000-deep `[` file named as the
/// `open-loop-48` golden grid's baseline; returns `(dir, file)`.
fn hostile_baseline(tag: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("arsf-cli-deep-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let grid = arsf_bench::golden::find("open-loop-48").expect("golden grid");
    let path = arsf_core::sweep::store::baseline_path(
        dir.to_str().expect("utf-8 path"),
        &arsf_core::sweep::store::grid_address(&grid),
    );
    std::fs::write(&path, "[".repeat(200_000)).expect("hostile file");
    (dir, path.to_str().expect("utf-8 path").to_string())
}

#[test]
fn a_deeply_nested_baseline_exits_2_from_sweep_diff() {
    let (dir, file) = hostile_baseline("diff");
    let sweep_diff = env!("CARGO_BIN_EXE_sweep_diff");
    let diffed = run(sweep_diff, &["diff", &file, &file]);
    let dir_arg = dir.to_str().expect("utf-8 path");
    let checked = run(
        sweep_diff,
        &[
            "check",
            "--grid",
            "open-loop-48",
            "--dir",
            dir_arg,
            "--threads",
            "1",
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
    for (code, stderr) in [diffed, checked] {
        assert_eq!(code, 2, "a hostile baseline is broken input: {stderr}");
        assert!(stderr.contains("nesting deeper than 64 levels"), "{stderr}");
    }
}

#[test]
fn a_deeply_nested_baseline_is_a_named_sweep_lint_finding() {
    let (dir, _) = hostile_baseline("lint");
    let linted = output(
        env!("CARGO_BIN_EXE_sweep_lint"),
        &["baselines", "--dir", dir.to_str().expect("utf-8 path")],
    );
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&linted.stdout);
    // Exit 2 is the lint convention for an error finding, not an abort.
    assert_eq!(linted.status.code(), Some(2), "{stdout}");
    assert!(
        stdout.contains("error[baseline-parse]")
            && stdout.contains("nesting deeper than 64 levels"),
        "{stdout}"
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

/// One row per binary: its name, executable, the arguments that must
/// precede a flag (a subcommand), a misspelt flag, the hint it must
/// earn (if any), and one of its value flags (if any).
struct Bin {
    name: &'static str,
    exe: &'static str,
    prefix: &'static [&'static str],
    typo: &'static str,
    hint: Option<&'static str>,
    value_flag: Option<&'static str>,
}

const BINS: [Bin; 13] = [
    Bin {
        name: "scenario_sweep",
        exe: env!("CARGO_BIN_EXE_scenario_sweep"),
        prefix: &[],
        typo: "--fuserz",
        hint: Some("--fusers"),
        value_flag: Some("--rounds"),
    },
    Bin {
        name: "sweep_drive",
        exe: env!("CARGO_BIN_EXE_sweep_drive"),
        prefix: &[],
        typo: "--workerz",
        hint: Some("--workers"),
        value_flag: Some("--workers"),
    },
    Bin {
        name: "sweep_lint",
        exe: env!("CARGO_BIN_EXE_sweep_lint"),
        prefix: &["all"],
        typo: "--jsno",
        hint: Some("--json"),
        value_flag: Some("--dir"),
    },
    Bin {
        name: "sweep_diff",
        exe: env!("CARGO_BIN_EXE_sweep_diff"),
        prefix: &["check"],
        typo: "--grdi",
        hint: Some("--grid"),
        value_flag: Some("--grid"),
    },
    Bin {
        name: "repro_table1",
        exe: env!("CARGO_BIN_EXE_repro_table1"),
        prefix: &[],
        typo: "--mc-round",
        hint: Some("--mc-rounds"),
        value_flag: Some("--step"),
    },
    Bin {
        name: "repro_table2",
        exe: env!("CARGO_BIN_EXE_repro_table2"),
        prefix: &[],
        typo: "--threds",
        hint: Some("--threads"),
        value_flag: Some("--seed"),
    },
    Bin {
        name: "repro_fig4",
        exe: env!("CARGO_BIN_EXE_repro_fig4"),
        prefix: &[],
        typo: "--stpe",
        hint: Some("--step"),
        value_flag: Some("--step"),
    },
    Bin {
        name: "repro_fig1",
        exe: env!("CARGO_BIN_EXE_repro_fig1"),
        prefix: &[],
        typo: "--bogus",
        hint: None,
        value_flag: None,
    },
    Bin {
        name: "repro_fig2",
        exe: env!("CARGO_BIN_EXE_repro_fig2"),
        prefix: &[],
        typo: "--bogus",
        hint: None,
        value_flag: None,
    },
    Bin {
        name: "repro_fig3",
        exe: env!("CARGO_BIN_EXE_repro_fig3"),
        prefix: &[],
        typo: "--bogus",
        hint: None,
        value_flag: None,
    },
    Bin {
        name: "repro_fig5",
        exe: env!("CARGO_BIN_EXE_repro_fig5"),
        prefix: &[],
        typo: "--bogus",
        hint: None,
        value_flag: None,
    },
    Bin {
        name: "ablation_faults",
        exe: env!("CARGO_BIN_EXE_ablation_faults"),
        prefix: &[],
        typo: "--bogus",
        hint: None,
        value_flag: None,
    },
    Bin {
        name: "ablation_history",
        exe: env!("CARGO_BIN_EXE_ablation_history"),
        prefix: &[],
        typo: "--bogus",
        hint: None,
        value_flag: None,
    },
];

fn bin(name: &str) -> &'static Bin {
    BINS.iter()
        .find(|b| b.name == name)
        .expect("a listed binary")
}

/// Runs `bin` with its prefix, then `args`; expects exit 2 and a
/// `<bin>: <diagnostic>` line.
fn expect_usage_error(bin: &Bin, args: &[&str], diagnostic: &str) {
    let mut argv = bin.prefix.to_vec();
    argv.extend_from_slice(args);
    let (code, stderr) = run(bin.exe, &argv);
    assert_eq!(code, 2, "{} {argv:?} is a usage error: {stderr}", bin.name);
    let expected = format!("{}: {diagnostic}", bin.name);
    assert!(
        stderr.contains(&expected),
        "want `{expected}`, got: {stderr}"
    );
}

#[test]
fn every_binary_rejects_unknown_missing_and_repeated_flags() {
    for bin in &BINS {
        let unknown = match bin.hint {
            Some(hint) => format!("unknown flag `{}` (did you mean `{hint}`?)", bin.typo),
            None => format!("unknown flag `{}`", bin.typo),
        };
        expect_usage_error(bin, &[bin.typo], &unknown);
        // `sweep_diff diff a b` takes positionals past its subcommand.
        if bin.name != "sweep_diff" {
            expect_usage_error(bin, &["stray"], "unexpected argument `stray`");
        }
        if let Some(flag) = bin.value_flag {
            expect_usage_error(bin, &[flag], &format!("{flag} wants a value"));
            expect_usage_error(bin, &[flag, "1", flag, "1"], &format!("{flag} given twice"));
        }
    }
}

#[test]
fn every_binary_prints_its_flags_for_help() {
    for bin in &BINS {
        for help in ["--help", "-h"] {
            let out = output(bin.exe, &[help]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{} {help}: {stdout}", bin.name);
            assert!(stdout.contains("flags:\n"), "{} {help}: {stdout}", bin.name);
            if let Some(flag) = bin.value_flag {
                assert!(stdout.contains(flag), "{} {help}: {stdout}", bin.name);
            }
        }
    }
    // A binary's own usage text comes first.
    let out = output(env!("CARGO_BIN_EXE_sweep_lint"), &["--help"]);
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: sweep_lint"));
}

#[test]
fn degenerate_numbers_exit_2_instead_of_panicking_or_defaulting() {
    let table1 = bin("repro_table1");
    let table2 = bin("repro_table2");
    let fig4 = bin("repro_fig4");
    let positive = "wants a positive finite number";
    let integer = "wants a non-negative integer";
    let count = "wants a positive integer";
    for (bin, args, diagnostic) in [
        (
            fig4,
            &["--step", "0"][..],
            format!("--step {positive}, got `0`"),
        ),
        (
            fig4,
            &["--step", "-1"],
            format!("--step {positive}, got `-1`"),
        ),
        (
            fig4,
            &["--step", "inf"],
            format!("--step {positive}, got `inf`"),
        ),
        (
            table1,
            &["--step", "0"],
            format!("--step {positive}, got `0`"),
        ),
        (
            table1,
            &["--step", "nan"],
            format!("--step {positive}, got `nan`"),
        ),
        // --quick sets defaults only: an explicit --step is still read.
        (
            table1,
            &["--quick", "--step", "0"],
            format!("--step {positive}, got `0`"),
        ),
        // A step too fine to enumerate is refused before any work.
        (
            table1,
            &["--step", "1e-300"],
            "--step 1e-300 may enumerate up to inf leaves, over the leaf budget".to_string(),
        ),
        (
            table1,
            &["--step", "0.01"],
            "--step 0.01 may enumerate up to 2.3e29 leaves, over the leaf budget".to_string(),
        ),
        (
            table1,
            &["--mc-rounds", "abc"],
            format!("--mc-rounds {count}, got `abc`"),
        ),
        (
            table1,
            &["--mc-rounds", "0"],
            format!("--mc-rounds {count}, got `0`"),
        ),
        (
            table2,
            &["--seed", "abc"],
            format!("--seed {integer}, got `abc`"),
        ),
        (
            table2,
            &["--replicates", "x"],
            format!("--replicates {count}, got `x`"),
        ),
        (
            table2,
            &["--replicates", "0"],
            format!("--replicates {count}, got `0`"),
        ),
        (
            table2,
            &["--rounds", "abc"],
            format!("--rounds {count}, got `abc`"),
        ),
        (
            table2,
            &["--rounds", "0"],
            format!("--rounds {count}, got `0`"),
        ),
        (
            table2,
            &["--history", "2.5,3.5"],
            format!("--history {positive}, got `2.5,3.5`"),
        ),
    ] {
        expect_usage_error(bin, args, &diagnostic);
    }
}

#[test]
fn scenario_sweep_rejects_a_repeated_round_count_before_reading_it() {
    expect_usage_error(
        bin("scenario_sweep"),
        &["--rounds", "5", "--rounds", "abc", "--honest"],
        "--rounds given twice",
    );
    expect_usage_error(
        bin("scenario_sweep"),
        &["--attacked", "0,1"],
        "unknown flag `--attacked`",
    );
    expect_usage_error(
        bin("scenario_sweep"),
        &["--golden", "--honest"],
        "--golden wants a value <name>, got `--honest`",
    );
}

#[test]
fn flags_that_would_do_nothing_are_rejected() {
    let drive = bin("sweep_drive");
    expect_usage_error(
        drive,
        &["--golden", "open-loop-48", "--cells", "0..4"],
        "--cells is a worker flag; use --shards",
    );
    expect_usage_error(
        drive,
        &["--fusers", "marzullo", "--threads", "2"],
        "--threads is a worker flag; use --worker-threads",
    );
    let lint = bin("sweep_lint").exe;
    for subcommand in ["presets", "baselines", "all", "guarantees"] {
        let (code, stderr) = run(lint, &[subcommand, "--fusers", "hull"]);
        assert_eq!(code, 2, "{subcommand}: {stderr}");
        assert!(
            stderr.contains("sweep_lint: --fusers applies to `sweep_lint grid` only"),
            "{subcommand}: {stderr}"
        );
    }
    let (code, stderr) = run(lint, &["presets", "--tol", "mean_width=1"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--tol applies to"), "{stderr}");

    // Each subcommand of `sweep_diff` rejects the flags it would ignore,
    // before running a grid or reading a file.
    let diff = Bin {
        prefix: &[],
        ..*bin("sweep_diff")
    };
    let record = &["record", "--grid", "table2-closed-loop", "--dir", "unused"];
    let files = &["diff", "a.json", "b.json"];
    for (args, extra, diagnostic) in [
        (
            &record[..],
            &["--tol", "mean_width=1"][..],
            "--tol applies to `sweep_diff check` and `diff` only",
        ),
        (
            &["check"],
            &["--allow", "detect-vacuous"],
            "--allow applies to `sweep_diff record` only",
        ),
        (
            files,
            &["--grid", "open-loop-48"],
            "--grid applies to `sweep_diff record` and `check` only",
        ),
        (
            files,
            &["--dir", "baselines"],
            "--dir applies to `sweep_diff record` and `check` only",
        ),
        (
            files,
            &["--threads", "3"],
            "--threads applies to `sweep_diff record` and `check` only",
        ),
        (
            files,
            &["--allow", "detect-vacuous"],
            "--allow applies to `sweep_diff record` only",
        ),
    ] {
        expect_usage_error(&diff, &[args, extra].concat(), diagnostic);
    }
}
