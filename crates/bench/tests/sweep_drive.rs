//! End-to-end coverage of the distributed sweep path: a `sweep_drive`
//! coordinator fanning a grid out across `scenario_sweep --stream`
//! workers must produce a merged report byte-identical to the
//! single-process `ParallelSweeper`, for the committed golden grids,
//! for randomly-shaped grids under adversarial shard plans (empty and
//! single-cell ranges included), and across the crash-retry path.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use arsf_bench::golden;
use arsf_core::scenario::{AttackerSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec};
use arsf_core::sweep::{ParallelSweeper, StreamingSweeper, SweepGrid, SweepReport};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use proptest::prelude::*;

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn drive(args: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_sweep_drive"))
        .args(args)
        .args(["--worker-exe", env!("CARGO_BIN_EXE_scenario_sweep")])
        .output()
        .expect("sweep_drive runs");
    Run {
        code: output.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

/// A unique scratch path for one driven run's merged CSV.
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "arsf-sweep-drive-{}-{unique}-{name}.csv",
        std::process::id()
    ))
}

/// The workspace-root baseline directory (integration tests run with
/// the crate directory, not the workspace root, as CWD).
fn baseline_dir() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines")
        .to_string_lossy()
        .into_owned()
}

/// Builds the same open-loop grid `grid_from_args` builds for the
/// matching `--fusers/--detectors/--schedules/--seeds/--rounds` flags,
/// so in-process reference reports and subprocess runs agree.
fn grid_for(
    fusers: &[FuserSpec],
    detectors: &[DetectionMode],
    schedules: &[SchedulePolicy],
    seeds: &[u64],
    rounds: u64,
) -> SweepGrid {
    let base = Scenario::new("sweep", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(rounds);
    SweepGrid::new(base)
        .fusers(fusers.iter().cloned())
        .detectors(detectors.iter().copied())
        .schedules(schedules.iter().cloned())
        .seeds(seeds.iter().copied())
}

#[test]
fn driven_golden_grids_match_the_library_and_the_committed_baselines() {
    for (name, grid) in golden::all() {
        let expected = ParallelSweeper::new(2).run(&grid).to_csv();
        let csv = scratch(name);
        let run = drive(&[
            "--golden",
            name,
            "--workers",
            "3",
            "--json-progress",
            "--csv",
            csv.to_str().unwrap(),
            "--baseline",
            "check",
            "--baseline-dir",
            &baseline_dir(),
        ]);
        assert_eq!(
            run.code, 0,
            "golden `{name}` drives cleanly: {}",
            run.stderr
        );
        let merged = std::fs::read_to_string(&csv).expect("merged CSV written");
        std::fs::remove_file(&csv).ok();
        assert_eq!(
            merged, expected,
            "golden `{name}`: driven report is byte-identical to the library's"
        );
        assert!(
            run.stdout.contains("no drift"),
            "golden `{name}` verifies against its committed baseline: {}",
            run.stdout
        );
        let progress: Vec<&str> = run
            .stderr
            .lines()
            .filter(|l| l.starts_with("{\"schema\":1,"))
            .collect();
        assert_eq!(
            progress.len(),
            3,
            "one JSON progress line per shard: {}",
            run.stderr
        );
        for line in progress {
            for field in [
                "\"worker\":",
                "\"cells\":",
                "\"rows\":",
                "\"attempt\":",
                "\"elapsed_s\":",
                "\"rows_per_s\":",
            ] {
                assert!(line.contains(field), "{field} present in {line}");
            }
        }
    }
}

#[test]
fn empty_and_single_cell_shards_merge_cleanly() {
    let grid = grid_for(
        &[FuserSpec::Marzullo, FuserSpec::BrooksIyengar],
        &[DetectionMode::Off],
        &[SchedulePolicy::Ascending],
        &[1, 2],
        20,
    );
    let expected = ParallelSweeper::new(2).run(&grid).to_csv();
    let csv = scratch("adversarial-shards");
    let csv_str = csv.to_str().unwrap().to_string();
    let run = drive(&[
        "--fusers",
        "marzullo,brooks-iyengar",
        "--detectors",
        "off",
        "--schedules",
        "ascending",
        "--seeds",
        "1,2",
        "--rounds",
        "20",
        "--shards",
        "0..0,0..1,1..1,1..4,4..4",
        "--csv",
        &csv_str,
    ]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    let merged = std::fs::read_to_string(&csv).expect("merged CSV written");
    std::fs::remove_file(&csv).ok();
    assert_eq!(merged, expected);
    // Empty shards report zero rows without spawning a worker.
    assert!(
        run.stderr.contains("cells 0..0: 0 rows"),
        "empty shard progress line: {}",
        run.stderr
    );
}

#[test]
fn a_crashed_worker_is_retried_once_and_the_report_is_unchanged() {
    let grid = grid_for(
        &[FuserSpec::Marzullo],
        &[DetectionMode::Off],
        &[SchedulePolicy::Ascending],
        &[1, 2, 3, 4],
        20,
    );
    let expected = ParallelSweeper::new(2).run(&grid).to_csv();
    let csv = scratch("retry");
    let csv_str = csv.to_str().unwrap().to_string();
    let run = drive(&[
        "--fusers",
        "marzullo",
        "--detectors",
        "off",
        "--schedules",
        "ascending",
        "--seeds",
        "1,2,3,4",
        "--rounds",
        "20",
        "--workers",
        "2",
        "--fault-worker",
        "1:1",
        "--csv",
        &csv_str,
    ]);
    assert_eq!(run.code, 0, "the retry recovers the shard: {}", run.stderr);
    let merged = std::fs::read_to_string(&csv).expect("merged CSV written");
    std::fs::remove_file(&csv).ok();
    assert_eq!(merged, expected, "retried shard merges byte-identically");
    assert!(
        run.stderr.contains("retrying once"),
        "the crash is reported: {}",
        run.stderr
    );
    assert!(
        run.stderr.contains("attempt 2"),
        "the shard completes on attempt 2: {}",
        run.stderr
    );
}

#[test]
fn a_worker_crashing_twice_fails_with_a_named_diagnostic() {
    let run = drive(&[
        "--fusers",
        "marzullo",
        "--seeds",
        "1,2,3,4",
        "--rounds",
        "10",
        "--workers",
        "2",
        "--fault-worker",
        "1:1:2",
    ]);
    assert_eq!(run.code, 2, "a twice-crashed shard fails the run");
    assert!(
        run.stderr.contains("failed twice"),
        "the diagnostic names the exhausted retry: {}",
        run.stderr
    );
    assert!(
        !run.stderr.contains("panicked"),
        "failures are diagnostics, never panics: {}",
        run.stderr
    );
}

#[test]
fn text_and_json_progress_agree_on_shard_outcomes() {
    let flags = [
        "--fusers",
        "marzullo,brooks-iyengar",
        "--seeds",
        "1,2",
        "--rounds",
        "10",
        "--workers",
        "3",
    ];
    let text = drive(&flags);
    let mut json_flags = flags.to_vec();
    json_flags.push("--json-progress");
    let json = drive(&json_flags);
    assert_eq!(text.code, 0, "{}", text.stderr);
    assert_eq!(json.code, 0, "{}", json.stderr);

    // Text mode: one `worker W cells a..b: N rows …` line per shard.
    let text_shards: Vec<(String, String, String)> = text
        .stderr
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("sweep_drive: worker ")?;
            let (worker, rest) = rest.split_once(" cells ")?;
            let (cells, rest) = rest.split_once(": ")?;
            let (rows, _) = rest.split_once(" rows")?;
            Some((worker.to_string(), cells.to_string(), rows.to_string()))
        })
        .collect();
    // JSON mode: the same shard outcomes as schema-1 objects.
    let json_shards: Vec<(String, String, String)> = json
        .stderr
        .lines()
        .filter(|l| l.starts_with("{\"schema\":1,"))
        .map(|l| {
            let field = |key: &str| {
                let start = l.find(key).unwrap_or_else(|| panic!("{key} in {l}")) + key.len();
                l[start..]
                    .chars()
                    .take_while(|c| !",}".contains(*c))
                    .collect::<String>()
                    .trim_matches('"')
                    .to_string()
            };
            (
                field("\"worker\":"),
                field("\"cells\":"),
                field("\"rows\":"),
            )
        })
        .collect();
    assert_eq!(text_shards.len(), 3, "{}", text.stderr);
    assert_eq!(
        text_shards, json_shards,
        "text and JSON progress describe identical shard outcomes"
    );
}

const FUSER_POOL: [(&str, FuserSpec); 3] = [
    ("marzullo", FuserSpec::Marzullo),
    ("brooks-iyengar", FuserSpec::BrooksIyengar),
    (
        "historical:2.5:0.1",
        FuserSpec::Historical {
            max_rate: 2.5,
            dt: 0.1,
        },
    ),
];

const DETECTOR_POOL: [(&str, DetectionMode); 3] = [
    ("off", DetectionMode::Off),
    ("immediate", DetectionMode::Immediate),
    (
        "windowed:10:3",
        DetectionMode::Windowed {
            window: 10,
            tolerance: 3,
        },
    ),
];

const SCHEDULE_POOL: [(&str, SchedulePolicy); 2] = [
    ("ascending", SchedulePolicy::Ascending),
    ("descending", SchedulePolicy::Descending),
];

/// Renders sorted cut points into an explicit `--shards` plan (repeated
/// cuts make empty shards; adjacent cuts make single-cell shards).
fn shard_spec(len: usize, cuts: &[usize]) -> String {
    let mut bounds = vec![0];
    bounds.extend(cuts.iter().map(|c| c % (len + 1)));
    bounds.push(len);
    bounds.sort_unstable();
    bounds
        .windows(2)
        .map(|w| format!("{}..{}", w[0], w[1]))
        .collect::<Vec<_>>()
        .join(",")
}

/// Keeps the first occurrence of each pool index so axis values stay
/// distinct, mirroring how a human would write the flag.
fn pick(indices: &[usize], pool_len: usize) -> Vec<usize> {
    let mut seen = Vec::new();
    for &i in indices {
        let i = i % pool_len;
        if !seen.contains(&i) {
            seen.push(i);
        }
    }
    seen
}

fn join_names<T>(indices: &[usize], pool: &[(&str, T)]) -> String {
    indices
        .iter()
        .map(|&i| pool[i].0)
        .collect::<Vec<_>>()
        .join(",")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// A random grid streamed in-process and driven across worker
    /// processes under an adversarial shard plan must both be
    /// byte-identical to `ParallelSweeper`'s report.
    #[test]
    fn random_grids_stream_and_drive_byte_identically(
        fusers in prop::collection::vec(0usize..FUSER_POOL.len(), 1..=2),
        detectors in prop::collection::vec(0usize..DETECTOR_POOL.len(), 1..=2),
        schedules in prop::collection::vec(0usize..SCHEDULE_POOL.len(), 1..=2),
        seeds in prop::collection::vec(1u64..1000, 1..=2),
        rounds in 3u64..8,
        threads in 1usize..4,
        window in 1usize..4,
        cuts in prop::collection::vec(0usize..64, 1..=3),
    ) {
        let fusers = pick(&fusers, FUSER_POOL.len());
        let detectors = pick(&detectors, DETECTOR_POOL.len());
        let schedules = pick(&schedules, SCHEDULE_POOL.len());

        let grid = grid_for(
            &fusers.iter().map(|&i| FUSER_POOL[i].1.clone()).collect::<Vec<_>>(),
            &detectors.iter().map(|&i| DETECTOR_POOL[i].1).collect::<Vec<_>>(),
            &schedules.iter().map(|&i| SCHEDULE_POOL[i].1.clone()).collect::<Vec<_>>(),
            &seeds,
            rounds,
        );
        let expected = ParallelSweeper::new(2).run(&grid).to_csv();

        // In-process: the streaming path reorders back to grid order.
        let mut streamed = SweepReport::csv_header();
        StreamingSweeper::new(threads)
            .with_window(window)
            .try_stream_range(&grid, 0..grid.len(), |row| {
                streamed.push_str(&row.to_csv_line());
                streamed.push('\n');
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap_or_else(|never| match never {});
        prop_assert_eq!(
            &streamed, &expected,
            "StreamingSweeper threads={} window={}", threads, window
        );

        // Subprocess: drive the same grid over an adversarial shard plan.
        let fusers_flag = join_names(&fusers, &FUSER_POOL[..]);
        let detectors_flag = join_names(&detectors, &DETECTOR_POOL[..]);
        let schedules_flag = join_names(&schedules, &SCHEDULE_POOL[..]);
        let seeds_flag = seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let rounds_flag = rounds.to_string();
        let shards = shard_spec(grid.len(), &cuts);
        let csv = scratch("prop");
        let csv_str = csv.to_str().unwrap().to_string();
        let run = drive(&[
            "--fusers", &fusers_flag,
            "--detectors", &detectors_flag,
            "--schedules", &schedules_flag,
            "--seeds", &seeds_flag,
            "--rounds", &rounds_flag,
            "--shards", &shards,
            "--csv", &csv_str,
        ]);
        prop_assert_eq!(run.code, 0, "shards `{}`: {}", &shards, &run.stderr);
        let merged = std::fs::read_to_string(&csv).expect("merged CSV written");
        std::fs::remove_file(&csv).ok();
        prop_assert_eq!(&merged, &expected, "driven report under shards `{}`", &shards);
    }
}
