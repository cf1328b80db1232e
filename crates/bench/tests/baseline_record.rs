//! End-to-end coverage of the one record/check path
//! (`arsf_bench::baseline_ops`) through every binary that reaches it:
//! `sweep_diff record|check`, `scenario_sweep --baseline` and
//! `sweep_drive --baseline`.
//!
//! The `table2-closed-loop` golden grid is the canonical vetoed grid:
//! its stealth-clamped attacker provably never trips Marzullo's overlap
//! check, so the detectability verifier's veto refuses to freeze its
//! vacuous detection columns unless `--allow detect-vacuous` is passed.
//! With the override, each record path must write a file that diffs
//! clean against the committed baseline.
//!
//! Recording also refuses a baseline whose rows are not its grid's
//! cells, whatever the veto overrides.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use arsf_bench::baseline_ops;
use arsf_core::scenario::{AttackerSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec};
use arsf_core::sweep::store::{grid_address, Baseline};
use arsf_core::sweep::SweepGrid;
use arsf_core::DetectionMode;
use arsf_sensor::{FaultKind, FaultModel};

/// The committed `table2-closed-loop` baseline's file name.
const TABLE2: &str = "3d08bd0680471f85.json";

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run(exe: &str, args: &[&str]) -> Run {
    let output = Command::new(exe).args(args).output().expect("binary runs");
    Run {
        code: output.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

/// The committed baseline directory at the workspace root.
fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
}

/// A fresh, empty scratch directory unique to this process and call.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "arsf-baseline-record-{}-{unique}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// The three binaries that record a baseline.
const RECORD_PATHS: [&str; 3] = [
    "sweep_diff record",
    "scenario_sweep --baseline record",
    "sweep_drive --baseline record",
];

/// Records `table2-closed-loop` into `dir` through one of the
/// [`RECORD_PATHS`], with extra arguments appended.
fn record(path: &str, dir: &Path, extra: &[&str]) -> Run {
    let dir = path_str(dir);
    let grid = "table2-closed-loop";
    let (exe, mut args) = match path {
        "sweep_diff record" => (
            env!("CARGO_BIN_EXE_sweep_diff"),
            vec!["record", "--grid", grid, "--dir", dir],
        ),
        "scenario_sweep --baseline record" => (
            env!("CARGO_BIN_EXE_scenario_sweep"),
            vec!["--golden", grid, "--threads", "1"],
        ),
        _ => (
            env!("CARGO_BIN_EXE_sweep_drive"),
            vec![
                "--golden",
                grid,
                "--workers",
                "2",
                "--worker-exe",
                env!("CARGO_BIN_EXE_scenario_sweep"),
            ],
        ),
    };
    if path != "sweep_diff record" {
        args.extend(["--baseline", "record", "--baseline-dir", dir]);
    }
    args.extend_from_slice(extra);
    run(exe, &args)
}

#[test]
fn every_record_path_vetoes_vacuous_detection_without_allow() {
    // Allowing a different veto id does not override this one.
    for extra in [&[][..], &["--allow", "order-violation"][..]] {
        for path in RECORD_PATHS {
            let dir = scratch_dir("veto");
            let run = record(path, &dir, extra);
            let wrote = dir.join(TABLE2).exists();
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(run.code, 2, "{path} {extra:?} must refuse: {}", run.stderr);
            assert!(
                run.stderr.contains("error[detect-vacuous]")
                    && run.stderr.contains("--allow detect-vacuous"),
                "{path} {extra:?} prints the vetoing finding and its override: {}",
                run.stderr
            );
            assert!(!wrote, "{path} {extra:?} wrote a vetoed baseline");
        }
    }
}

#[test]
fn every_record_path_records_with_allow_and_matches_the_committed_baseline() {
    let committed = baselines_dir().join(TABLE2);
    for path in RECORD_PATHS {
        let dir = scratch_dir("allow");
        let run = record(path, &dir, &["--allow", "detect-vacuous"]);
        assert_eq!(
            run.code, 0,
            "{path} records with the override: {}",
            run.stderr
        );
        let recorded = dir.join(TABLE2);
        let diff = run_sweep_diff(&["diff", path_str(&committed), path_str(&recorded)]);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            diff.code, 0,
            "{path}: the recording diffs clean against the committed baseline: {}{}",
            diff.stdout, diff.stderr
        );
    }
}

fn run_sweep_diff(args: &[&str]) -> Run {
    run(env!("CARGO_BIN_EXE_sweep_diff"), args)
}

#[test]
fn sweep_diff_check_verifies_the_stored_address() {
    // Re-tag a copy of the committed baseline: the numbers still match a
    // fresh run, but the stored address no longer matches its embedded
    // definition, so the check is broken (2), not clean or drifted.
    let dir = scratch_dir("address");
    let text = std::fs::read_to_string(baselines_dir().join(TABLE2)).expect("committed baseline");
    let retagged = text.replace(
        "\"address\": \"3d08bd0680471f85\"",
        "\"address\": \"00000000deadbeef\"",
    );
    assert_ne!(text, retagged, "the stored address line exists");
    std::fs::write(dir.join(TABLE2), retagged).expect("retagged copy writes");

    let run = run_sweep_diff(&[
        "check",
        "--grid",
        "table2-closed-loop",
        "--dir",
        path_str(&dir),
        "--threads",
        "1",
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(run.code, 2, "{}{}", run.stdout, run.stderr);
    assert!(
        run.stderr.contains("failed address verification"),
        "{}",
        run.stderr
    );
}

#[test]
fn sweep_diff_check_reports_every_missing_baseline() {
    let dir = scratch_dir("missing");
    let run = run_sweep_diff(&["check", "--dir", path_str(&dir), "--threads", "1"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        run.code, 2,
        "a missing baseline is breakage: {}",
        run.stderr
    );
    for grid in ["open-loop-48", "table2-closed-loop"] {
        assert!(
            run.stderr.contains(&format!("{grid}: no baseline at"))
                && run.stderr.contains("run `sweep_diff record` first"),
            "{grid} is reported with the record hint: {}",
            run.stderr
        );
    }
}

/// The open-loop grid of `crates/core/tests/report_bytes.rs`, whose
/// address that test's pinned baseline carries.
fn report_bytes_grid() -> SweepGrid {
    let base = Scenario::new("fixture \"open\", v1", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(20);
    SweepGrid::new(base)
        .fault_sets([
            vec![],
            vec![
                (2, FaultModel::new(FaultKind::Bias { offset: 5.0 }, 1.0)),
                (3, FaultModel::new(FaultKind::StuckAt { value: -4.0 }, 0.5)),
            ],
        ])
        .fusers([FuserSpec::Marzullo, FuserSpec::Hull])
        .detectors([
            DetectionMode::Immediate,
            DetectionMode::Windowed {
                window: 5,
                tolerance: 2,
            },
        ])
        .seeds([7])
}

#[test]
fn record_refuses_rows_that_are_not_the_grids_cells() {
    // The pinned report baseline holds the 8 cells of its grid plus three
    // scenarios outside it, under the 8-cell grid's address.
    let pinned = include_str!("../../core/tests/fixtures/report_bytes.baseline.json");
    let baseline = Baseline::from_json(pinned).expect("the pinned baseline parses");
    let grid = report_bytes_grid();
    assert_eq!(baseline.address, grid_address(&grid));
    assert_eq!((baseline.rows.len(), grid.len()), (11, 8));

    let dir = scratch_dir("cells");
    let refused = baseline_ops::record(&grid, &baseline, path_str(&dir));
    let recorded = std::fs::read_dir(&dir).expect("scratch dir").count();
    std::fs::remove_dir_all(&dir).ok();
    let err = refused.expect_err("a baseline of other cells is refused");
    assert!(err.contains("11 row(s) for a grid of 8 cell(s)"), "{err}");
    assert_eq!(recorded, 0, "nothing is written");
}
