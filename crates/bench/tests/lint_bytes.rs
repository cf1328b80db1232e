//! Pins the bytes `sweep_lint` prints: the stdout and exit code of a
//! fixed set of runs, compared with committed fixtures under
//! `tests/fixtures/lint_bytes/`. Each fixture is `# exit <code>` followed
//! by the run's stdout, exactly.
//!
//! The runs cover every finding id the passes and their drivers emit on
//! these inputs: the presets, the committed baselines and every verifier
//! (`all`, text and `--json`), a grid that is unsound, duplicated and
//! unfillable (`grid`), and a baseline directory holding a truncated
//! golden baseline, a non-baseline `notes.json` and a valid baseline
//! saved under a stem that is not its address (`baselines`, and `all`
//! over the same directory). The directory is passed relatively, so the
//! file locations in the output do not depend on where the repository
//! lives.
//!
//! The fixtures are never regenerated to make this test pass: a diff
//! here means a finding's id, severity, location, message or order
//! changed. Every pinned finding must also carry an id from
//! `arsf_analyze::RULES`, with that rule's severity.

use std::path::{Path, PathBuf};
use std::process::Command;

use arsf_analyze::RULES;

/// The workspace root, where the committed `baselines/` directory lives.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The fixture directory of this test.
fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint_bytes")
}

/// The baseline directory the `baselines` runs read, relative to the
/// package directory they run in.
const FIXTURE_DIR: &str = "tests/fixtures/lint_bytes/baselines";

/// `(fixture name, run in the workspace root?, arguments)`; runs not in
/// the workspace root run in the package directory.
const RUNS: &[(&str, bool, &[&str])] = &[
    ("all", true, &["all"]),
    ("all_json", true, &["all", "--json"]),
    ("presets_json", true, &["presets", "--json"]),
    (
        "grid",
        true,
        &[
            "grid",
            "--suite",
            "widths:1,2,3",
            "--f",
            "2",
            "--seeds",
            "1,1",
            "--detectors",
            "immediate,windowed:500:3",
            "--rounds",
            "100",
        ],
    ),
    (
        "baselines",
        false,
        &["baselines", "--dir", FIXTURE_DIR, "--tol", "nosuchcol=1"],
    ),
    (
        "all_fixture_dir",
        false,
        &["all", "--dir", FIXTURE_DIR, "--tol", "nosuchcol=1"],
    ),
];

/// Runs `sweep_lint` and renders the run the way the fixtures hold it.
fn run(in_root: bool, args: &[&str]) -> String {
    let cwd = if in_root {
        workspace_root()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    let output = Command::new(env!("CARGO_BIN_EXE_sweep_lint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("sweep_lint runs");
    format!(
        "# exit {}\n{}",
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout)
    )
}

/// The committed fixture of one run.
fn fixture(name: &str) -> String {
    let path = fixtures().join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn sweep_lint_output_matches_the_committed_fixtures() {
    for &(name, in_root, args) in RUNS {
        let expected = fixture(name);
        let actual = run(in_root, args);
        if actual != expected {
            let first = expected
                .lines()
                .zip(actual.lines())
                .position(|(e, a)| e != a)
                .unwrap_or(expected.lines().count().min(actual.lines().count()));
            panic!(
                "sweep_lint {args:?} differs from fixture `{name}.txt` at line {}:\n\
                 expected: {:?}\n  actual: {:?}",
                first + 1,
                expected.lines().nth(first),
                actual.lines().nth(first),
            );
        }
    }
}

#[test]
fn the_fixture_runs_cover_every_driver_emitted_id() {
    let all: String = RUNS.iter().map(|(name, _, _)| fixture(name)).collect();
    for id in [
        "baseline-parse",
        "baseline-filename",
        "baseline-orphan",
        "baseline-missing",
        "baseline-skipped",
        "tolerance-dead",
        "fusion-soundness",
        "duplicate-axis-value",
        "detector-window",
    ] {
        assert!(all.contains(&format!("[{id}]")), "no `{id}` finding pinned");
    }
}

/// Every `(id, severity label)` pair a fixture's findings carry, from
/// the text lines (`severity[id] …`) and the JSON objects alike.
fn pinned_findings(fixture: &str) -> Vec<(String, String)> {
    let mut found = Vec::new();
    for line in fixture.lines() {
        if let Some((severity, rest)) = line.split_once('[') {
            if let Some((id, _)) = rest.split_once("] ") {
                if ["error", "warning", "info"].contains(&severity) {
                    found.push((id.to_string(), severity.to_string()));
                }
            }
        }
        if let Some((_, rest)) = line.split_once("\"lint\": \"") {
            let (id, rest) = rest.split_once('"').expect("closed lint string");
            let (_, rest) = rest
                .split_once("\"severity\": \"")
                .expect("a severity follows the lint");
            let (severity, _) = rest.split_once('"').expect("closed severity string");
            found.push((id.to_string(), severity.to_string()));
        }
    }
    found
}

#[test]
fn every_pinned_finding_carries_a_rule_id_with_its_severity() {
    let mut checked = 0;
    for (name, _, _) in RUNS {
        for (id, severity) in pinned_findings(&fixture(name)) {
            let rule = RULES
                .iter()
                .find(|rule| rule.id == id)
                .unwrap_or_else(|| panic!("fixture `{name}`: `{id}` is not in RULES"));
            assert_eq!(
                rule.severity.label(),
                severity,
                "fixture `{name}`: `{id}` carries the wrong severity"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 500,
        "only {checked} findings parsed from the fixtures"
    );
}
