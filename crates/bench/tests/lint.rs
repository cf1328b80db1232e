//! Integration coverage for the static-analysis surface the `sweep_lint`
//! binary exposes: the golden grids and the committed baseline directory
//! must lint clean, a hand-corrupted baseline must be flagged with a
//! file-level location, and the acceptance grids (a 3-sensor suite under
//! `f = 2`, a duplicated fuser axis value) must produce the documented
//! severities and exit codes.
//!
//! The guarantee layer is covered end to end as well: every golden-grid
//! cell derives a static width bound without simulating, the committed
//! baselines vet clean against those bounds, and a hand-corrupted cell
//! (width past its Theorem-2 bound, or truth loss where containment is
//! provable) is flagged with its cell index, column, bound and observed
//! value at the error tier.
//!
//! The detectability layer mirrors that coverage: every golden-grid cell
//! derives a static detection verdict without simulating, the committed
//! baselines' `flagged_rounds`/condemnation columns vet clean against
//! the verdicts, a hand-corrupted flagged count is flagged at the error
//! tier, and the `sweep_lint` binary's `--json` mode carries the same
//! findings as the text mode for every subcommand.
//!
//! The dominance layer closes the loop: the pass derives a nonempty set
//! of provable cross-cell orderings for both golden grids (Table II's
//! schedule chain among them) without simulating, the committed
//! baselines respect every edge, and a hand-perturbed pair of cells that
//! stays inside its per-cell tolerances — invisible to the guarantee and
//! detectability passes — is still caught as an `order-violation` when
//! it inverts a provable edge.

use std::path::{Path, PathBuf};
use std::process::Command;

use arsf_analyze::{
    analyze_baseline_dir, analyze_baseline_file, analyze_grid, analyze_grid_detectability,
    analyze_grid_guarantees, exit_code, vet_baseline_detectability, vet_baseline_dominance,
    vet_baseline_guarantees, Location, Severity,
};
use arsf_bench::golden;
use arsf_core::scenario::{FuserSpec, Scenario, SuiteSpec};
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline};
use arsf_core::sweep::SweepGrid;

/// The committed baseline directory at the workspace root.
fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
}

#[test]
fn golden_grids_are_lint_clean() {
    for (name, grid) in golden::all() {
        let findings = analyze_grid(&grid);
        assert!(
            findings.is_empty(),
            "golden grid {name} has findings: {findings:?}"
        );
    }
}

#[test]
fn committed_baseline_directory_is_lint_clean() {
    let findings = analyze_baseline_dir(&baselines_dir(), &golden::all());
    assert!(findings.is_empty(), "baseline findings: {findings:?}");
}

#[test]
fn a_golden_baseline_missing_a_row_is_flagged() {
    // Drop one row of the committed open-loop baseline and store it under
    // its own (unchanged) address: the address still verifies, but the
    // rows are no longer the golden grid's cells.
    let grid = golden::find("open-loop-48").expect("the open-loop golden grid exists");
    let mut baseline =
        Baseline::load_for_grid(baselines_dir(), &grid).expect("committed baseline loads");
    baseline.rows.remove(5);
    let dir = std::env::temp_dir().join(format!("arsf-lint-cells-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = baseline.save(&dir).expect("baseline saves");
    let findings = analyze_baseline_dir(&dir, &golden::all());
    std::fs::remove_dir_all(&dir).ok();

    let cells: Vec<_> = findings
        .iter()
        .filter(|f| f.lint == "baseline-cells")
        .collect();
    assert_eq!(cells.len(), 1, "{findings:?}");
    assert_eq!(cells[0].severity, Severity::Error);
    assert_eq!(cells[0].location, Location::File { path });
    assert!(
        cells[0]
            .message
            .contains("golden grid `open-loop-48`: 47 row(s) for a grid of 48 cell(s)"),
        "{}",
        cells[0].message
    );
    assert_eq!(exit_code(&findings), 2);
}

#[test]
fn golden_grids_derive_static_guarantees_for_every_cell() {
    // The acceptance property: the full golden grids get a width bound
    // for every single cell purely statically — no simulation — and
    // nothing worse than an info note.
    for (name, grid) in golden::all() {
        let findings = analyze_grid_guarantees(&grid);
        assert_eq!(
            findings.len(),
            grid.len(),
            "golden grid {name}: expected one guarantee note per cell, got {findings:?}"
        );
        for finding in &findings {
            assert_eq!(
                (finding.lint, finding.severity),
                ("guarantee-width", Severity::Info),
                "golden grid {name}: {finding:?}"
            );
        }
    }
}

#[test]
fn committed_baselines_respect_their_static_bounds() {
    for (name, grid) in golden::all() {
        let path = baseline_path(baselines_dir(), &grid_address(&grid));
        let baseline = Baseline::load(&path).expect("committed baseline loads");
        let findings = vet_baseline_guarantees(&grid, &baseline, &Location::File { path });
        assert!(
            findings.is_empty(),
            "golden grid {name}: committed baseline violates its static bounds: {findings:?}"
        );
    }
}

#[test]
fn corrupted_cell_width_is_flagged_against_its_theorem_bound() {
    // Hand-corrupt one stored cell's max width past its static
    // Theorem-2 bound; the vetting pass must name the cell, the column,
    // the bound, and the observed value — and fail with exit code 2.
    let grid = golden::find("open-loop-48").expect("the open-loop golden grid exists");
    let path = baseline_path(baselines_dir(), &grid_address(&grid));
    let mut baseline = Baseline::load(&path).expect("committed baseline loads");
    let slot = baseline.rows[0]
        .metrics
        .iter_mut()
        .find(|(name, _)| name == "max_width")
        .expect("cell 0 records a max_width column");
    slot.1 = Some(99.0);

    let findings = vet_baseline_guarantees(&grid, &baseline, &Location::File { path });
    let violation = findings
        .iter()
        .find(|f| f.lint == "guarantee-violation")
        .expect("the corrupted width is flagged");
    assert_eq!(violation.severity, Severity::Error);
    for needle in ["cell 0", "max_width", "99", "2"] {
        assert!(
            violation.message.contains(needle),
            "the finding should mention `{needle}`: {}",
            violation.message
        );
    }
    assert_eq!(exit_code(&findings), 2);
}

#[test]
fn corrupted_truth_loss_is_flagged_when_containment_is_provable() {
    // Cell 0 of the open-loop grid fuses with Marzullo under an attack
    // within budget: containment is provable, so a nonzero stored
    // truth-loss count is a guarantee violation too.
    let grid = golden::find("open-loop-48").expect("the open-loop golden grid exists");
    let path = baseline_path(baselines_dir(), &grid_address(&grid));
    let mut baseline = Baseline::load(&path).expect("committed baseline loads");
    let slot = baseline.rows[0]
        .metrics
        .iter_mut()
        .find(|(name, _)| name == "truth_lost")
        .expect("cell 0 records a truth_lost column");
    slot.1 = Some(3.0);

    let findings = vet_baseline_guarantees(&grid, &baseline, &Location::File { path });
    let violation = findings
        .iter()
        .find(|f| f.lint == "guarantee-violation")
        .expect("the corrupted truth-loss count is flagged");
    assert_eq!(violation.severity, Severity::Error);
    assert!(
        violation.message.contains("truth_lost"),
        "the finding names the column: {}",
        violation.message
    );
    assert_eq!(exit_code(&findings), 2);
}

#[test]
fn golden_grids_derive_detect_verdicts_for_every_cell() {
    // The detection-side acceptance property: every golden-grid cell
    // gets a static detectability verdict — no simulation — and nothing
    // worse than an info note (the golden grids use Marzullo-family
    // fusers, so the geometry-vacuity warning never fires).
    for (name, grid) in golden::all() {
        let findings = analyze_grid_detectability(&grid);
        let verdicts: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "detect-verdict")
            .collect();
        assert_eq!(
            verdicts.len(),
            grid.len(),
            "golden grid {name}: expected one verdict per cell, got {findings:?}"
        );
        for finding in &findings {
            assert_eq!(
                finding.severity,
                Severity::Info,
                "golden grid {name}: {finding:?}"
            );
        }
        assert!(
            findings.iter().any(|f| f.lint == "detect-coverage"),
            "golden grid {name}: the attacker × detector coverage matrix is emitted"
        );
    }
}

#[test]
fn committed_baselines_respect_their_detect_verdicts() {
    for (name, grid) in golden::all() {
        let path = baseline_path(baselines_dir(), &grid_address(&grid));
        let baseline = Baseline::load(&path).expect("committed baseline loads");
        let findings = vet_baseline_detectability(&grid, &baseline, &Location::File { path });
        assert!(
            findings.is_empty(),
            "golden grid {name}: committed baseline contradicts its detect verdicts: \
             {findings:?}"
        );
    }
}

#[test]
fn corrupted_flagged_count_is_caught_against_its_verdict() {
    // Cell 0 of the open-loop grid is a stealth-clamped phantom attack
    // under Marzullo with detection off in cell 0 — every cell of the
    // grid has a verdict, and the committed flagged_rounds is 0 wherever
    // invisibility is provable. Hand-corrupt cell 0's flagged count: the
    // vetting pass must name the cell, the column, the static bound and
    // the observed value at the error tier.
    let grid = golden::find("open-loop-48").expect("the open-loop golden grid exists");
    let path = baseline_path(baselines_dir(), &grid_address(&grid));
    let mut baseline = Baseline::load(&path).expect("committed baseline loads");
    let slot = baseline.rows[0]
        .metrics
        .iter_mut()
        .find(|(name, _)| name == "flagged_rounds")
        .expect("cell 0 records a flagged_rounds column");
    slot.1 = Some(7.0);

    let findings = vet_baseline_detectability(&grid, &baseline, &Location::File { path });
    let violation = findings
        .iter()
        .find(|f| f.lint == "detect-violation")
        .expect("the corrupted flagged count is flagged");
    assert_eq!(violation.severity, Severity::Error);
    for needle in ["cell 0", "flagged_rounds", "7", "bound 0"] {
        assert!(
            violation.message.contains(needle),
            "the finding should mention `{needle}`: {}",
            violation.message
        );
    }
    assert_eq!(exit_code(&findings), 2);
}

/// Runs the compiled `sweep_lint` binary from the workspace root (the
/// committed baselines live there) and returns `(exit code, stdout)`.
fn run_sweep_lint(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_sweep_lint"))
        .args(args)
        .args(["--dir", baselines_dir().to_str().expect("utf-8 path")])
        .output()
        .expect("sweep_lint runs");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn sweep_lint_emits_json_for_every_subcommand() {
    // `--json` parity: every subcommand emits a JSON array with the same
    // findings the text renderer shows, and the exit code is unaffected
    // by the output format.
    for subcommand in [
        vec!["presets"],
        vec!["grid", "--fusers", "marzullo,hull"],
        vec!["baselines"],
        vec!["guarantees"],
        vec!["detectability"],
        vec!["dominance"],
        vec!["all"],
    ] {
        let (text_code, text) = run_sweep_lint(&subcommand);
        let mut json_args = subcommand.clone();
        json_args.push("--json");
        let (json_code, json) = run_sweep_lint(&json_args);
        assert_eq!(
            text_code, json_code,
            "{subcommand:?}: --json must not change the exit code"
        );
        let trimmed = json.trim();
        assert!(
            trimmed.starts_with('[') && trimmed.ends_with(']'),
            "{subcommand:?}: --json emits a JSON array, got: {trimmed:.80}"
        );
        assert!(
            !json.contains("error(s),"),
            "{subcommand:?}: the text summary tail must not leak into JSON"
        );
        // The text mode renders one `severity[lint] …` line per finding
        // plus a bracket-free summary tail; the JSON mode renders one
        // object per finding. The counts must agree.
        let text_findings = text.lines().filter(|l| l.contains('[')).count();
        let json_findings = json.matches("\"lint\":").count();
        assert_eq!(
            json_findings, text_findings,
            "{subcommand:?}: JSON and text must carry the same findings\ntext:\n{text}\njson:\n{json}"
        );
        assert!(
            subcommand[0] != "detectability" || json.contains("detect-verdict"),
            "detectability --json carries the per-cell verdicts"
        );
        // Every JSON object carries the stable schema version and its
        // pass name — the machine-readable contract downstream tooling
        // keys off.
        assert_eq!(
            json.matches("\"schema\": 1").count(),
            json_findings,
            "{subcommand:?}: every JSON finding carries `\"schema\": 1`"
        );
        assert_eq!(
            json.matches("\"pass\":").count(),
            json_findings,
            "{subcommand:?}: every JSON finding carries its pass name"
        );
        if subcommand[0] == "all" {
            for pass in [
                "presets",
                "baselines",
                "guarantees",
                "detectability",
                "dominance",
            ] {
                assert!(
                    text.contains(&format!("== {pass} ==")),
                    "`all` text mode has a `{pass}` section header:\n{text}"
                );
            }
            assert!(
                json.contains("\"pass\": \"dominance\""),
                "`all` --json tags the dominance findings"
            );
        }
    }
}

#[test]
fn sweep_lint_dominance_is_clean_on_the_committed_tree() {
    // The acceptance property: the dominance pass derives a nonempty
    // edge set for both golden grids with zero simulation, and the
    // committed baselines respect every provable edge (exit 0).
    let (code, out) = run_sweep_lint(&["dominance"]);
    assert_eq!(code, 0, "committed baselines vet clean: {out}");
    for grid in ["open-loop-48", "table2-closed-loop"] {
        assert!(
            out.lines()
                .any(|l| l.contains("order-edge") && l.contains(grid)),
            "golden grid {grid} derives at least one provable edge:\n{out}"
        );
    }
    // Table II's schedule chain on the closed-loop grid: ascending below
    // random below descending, per seed.
    assert!(
        out.contains("cells 4 ⪯ 2") && out.contains("cells 0 ⪯ 4"),
        "the asc ⪯ random ⪯ desc chain is derived:\n{out}"
    );
}

#[test]
fn committed_baselines_respect_the_dominance_lattice() {
    for (name, grid) in golden::all() {
        let path = baseline_path(baselines_dir(), &grid_address(&grid));
        let baseline = Baseline::load(&path).expect("committed baseline loads");
        let findings = vet_baseline_dominance(&grid, &baseline, &Location::File { path });
        assert!(
            findings.is_empty(),
            "golden grid {name}: committed baseline inverts a provable ordering: {findings:?}"
        );
    }
}

#[test]
fn perturbed_preemption_count_inverts_the_schedule_chain() {
    // Hand-perturb the closed-loop baseline: give the ascending-schedule
    // cell 0 more preemptions (80) than the recorded descending cell 2
    // (71) and random cell 4 (26). Both perturbed values stay plausible
    // in isolation — the guarantee and detectability passes cannot see
    // them — but they invert two provable schedule-ordering edges, and
    // the dominance vet must name both cell pairs, the column, and the
    // proving rule at the error tier.
    let grid = golden::find("table2-closed-loop").expect("the closed-loop golden grid exists");
    let path = baseline_path(baselines_dir(), &grid_address(&grid));
    let mut baseline = Baseline::load(&path).expect("committed baseline loads");
    let slot = baseline.rows[0]
        .metrics
        .iter_mut()
        .find(|(name, _)| name == "preemptions")
        .expect("cell 0 records a preemptions column");
    slot.1 = Some(80.0);

    let guarantee_view =
        vet_baseline_guarantees(&grid, &baseline, &Location::File { path: path.clone() });
    let detect_view =
        vet_baseline_detectability(&grid, &baseline, &Location::File { path: path.clone() });
    assert!(
        guarantee_view.is_empty() && detect_view.is_empty(),
        "the perturbation is invisible to the per-cell passes"
    );

    let findings = vet_baseline_dominance(&grid, &baseline, &Location::File { path });
    assert!(
        findings
            .iter()
            .all(|f| f.lint == "order-violation" && f.severity == Severity::Error),
        "only order violations are raised: {findings:?}"
    );
    assert_eq!(exit_code(&findings), 2);
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    let joined = rendered.join("\n");
    for needle in [
        "cells 0 ⪯ 2",
        "cells 0 ⪯ 4",
        "`preemptions`",
        "80",
        "schedule ordering",
        "`schedules`-axis",
    ] {
        assert!(
            joined.contains(needle),
            "the violations should mention `{needle}`:\n{joined}"
        );
    }
}

#[test]
fn sweep_lint_detectability_is_clean_on_the_committed_tree() {
    let (code, out) = run_sweep_lint(&["detectability"]);
    assert_eq!(code, 0, "committed baselines vet clean: {out}");
    // 48 + 6 golden cells, one verdict each.
    assert_eq!(out.matches("detect-verdict").count(), 54);
}

#[test]
fn corrupted_baseline_is_flagged_with_its_path() {
    // Copy a committed baseline, flip one definition line, and keep the
    // recorded address: the recomputed content address no longer matches.
    let source = baselines_dir().join("3923b1688ebe2b0c.json");
    let text = std::fs::read_to_string(&source).expect("committed baseline reads");
    let corrupted = text.replace("rounds=120", "rounds=121");
    assert_ne!(text, corrupted, "the definition line to corrupt exists");

    let dir = std::env::temp_dir().join(format!("arsf-lint-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("3923b1688ebe2b0c.json");
    std::fs::write(&path, corrupted).expect("corrupted baseline writes");

    let findings = analyze_baseline_file(&path);
    std::fs::remove_dir_all(&dir).ok();

    let address = findings
        .iter()
        .find(|f| f.lint == "baseline-address")
        .expect("the address mismatch is flagged");
    assert_eq!(address.severity, Severity::Error);
    assert!(
        address.render().contains("3923b1688ebe2b0c.json"),
        "the finding names the file: {}",
        address.render()
    );
    assert_eq!(exit_code(&findings), 2);
}

#[test]
fn unreadable_golden_baseline_is_an_io_error_not_a_missing_one() {
    // A directory where `open-loop-48`'s baseline file belongs exists but
    // cannot be read; `table2-closed-loop` has no file at all.
    let dir = std::env::temp_dir().join(format!("arsf-lint-unreadable-{}", std::process::id()));
    let address = grid_address(&golden::open_loop_48());
    std::fs::create_dir_all(baseline_path(&dir, &address)).expect("directory in its place");

    let output = Command::new(env!("CARGO_BIN_EXE_sweep_lint"))
        .args(["guarantees", "--dir", dir.to_str().expect("utf-8 path")])
        .output()
        .expect("sweep_lint runs");
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);

    assert_eq!(output.status.code(), Some(2), "{stdout}");
    let io = stdout
        .lines()
        .find(|line| line.starts_with("error[baseline-io]"))
        .unwrap_or_else(|| panic!("the unreadable file is an I/O error: {stdout}"));
    assert!(io.contains(&format!("{address}.json")), "{io}");
    let missing: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("warning[baseline-missing]"))
        .collect();
    assert_eq!(missing.len(), 1, "{stdout}");
    assert!(
        missing[0].contains("`table2-closed-loop`"),
        "{}",
        missing[0]
    );
}

#[test]
fn undersized_suite_for_f_is_an_error() {
    // The acceptance grid: n = 3 sensors with f = 2 violates n > 2f.
    let base = Scenario::new("lint", SuiteSpec::Widths(vec![5.0, 11.0, 17.0])).with_f(2);
    let findings = analyze_grid(&SweepGrid::new(base));
    let soundness = findings
        .iter()
        .find(|f| f.lint == "fusion-soundness")
        .expect("the soundness violation is flagged");
    assert_eq!(soundness.severity, Severity::Error);
    assert!(
        soundness.render().contains("cell"),
        "the finding carries a cell location: {}",
        soundness.render()
    );
    assert_eq!(exit_code(&findings), 2);
}

#[test]
fn duplicated_fuser_axis_value_is_a_warning() {
    let grid = SweepGrid::new(Scenario::new("lint", SuiteSpec::Landshark)).fusers(vec![
        FuserSpec::Marzullo,
        FuserSpec::BrooksIyengar,
        FuserSpec::Marzullo,
    ]);
    let findings = analyze_grid(&grid);
    let duplicate = findings
        .iter()
        .find(|f| f.lint == "duplicate-axis-value")
        .expect("the duplicated value is flagged");
    assert_eq!(duplicate.severity, Severity::Warn);
    assert!(
        duplicate.render().contains("fusers axis [0, 2]"),
        "the finding names the duplicated positions: {}",
        duplicate.render()
    );
    assert_eq!(exit_code(&findings), 1);
}
