//! In-process checks of the grid-taking flag tables: the command lines
//! the benchmark (`perfbench/`) and the `sweep_drive` coordinator build
//! must parse under `scenario_sweep`'s and `sweep_drive`'s tables, and a
//! grid forwarded from coordinator to worker must keep its content
//! address.

use arsf_bench::cli::{forwarded_grid_args, grid_from, Args, SCENARIO_SWEEP, SWEEP_DRIVE};
use arsf_bench::golden;
use arsf_core::sweep::store::grid_address;
use arsf_core::sweep::SweepGrid;

/// `perfbench/src/workloads.rs::drive_grid_args`, restated: the
/// benchmark crate depends on this one, so it cannot be called here.
fn drive_grid_args(seed: u64) -> Vec<String> {
    if seed == 0 {
        return vec!["--golden".into(), "open-loop-48".into()];
    }
    let golden = golden::open_loop_48();
    let seeds: Vec<String> = golden
        .seed_axis()
        .iter()
        .map(|s| s.wrapping_add(seed).to_string())
        .collect();
    [
        "--fusers",
        "marzullo,brooks-iyengar,inverse-variance,historical",
        "--detectors",
        "off,immediate,windowed:10:3",
        "--schedules",
        "ascending,descending",
        "--seeds",
        &seeds.join(","),
        "--rounds",
        &golden.base().rounds.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// `perfbench/src/workloads.rs::drive_grid`, restated likewise.
fn drive_grid(seed: u64) -> SweepGrid {
    let golden = golden::open_loop_48();
    if seed == 0 {
        return golden;
    }
    let seeds: Vec<u64> = golden
        .seed_axis()
        .iter()
        .map(|s| s.wrapping_add(seed))
        .collect();
    SweepGrid::new(golden.base().clone().named("sweep"))
        .fusers(golden.fuser_axis().to_vec())
        .detectors(golden.detector_axis().to_vec())
        .schedules(golden.schedule_axis().to_vec())
        .seeds(seeds)
}

fn with(mut argv: Vec<String>, extra: &[&str]) -> Vec<String> {
    argv.extend(extra.iter().map(|s| s.to_string()));
    argv
}

#[test]
fn the_benchmark_command_lines_parse_under_the_tables() {
    for seed in [0, 7] {
        let expected = grid_address(&drive_grid(seed));
        // perfbench/src/drive.rs `invoke`: the timed coordinator run.
        let drive = with(
            drive_grid_args(seed),
            &[
                "--workers",
                "2",
                "--csv",
                "out/drive.csv",
                "--json-progress",
                "--baseline",
                "check",
                "--baseline-dir",
                "out/check",
            ],
        );
        let args = Args::parse(&SWEEP_DRIVE, drive).unwrap();
        assert_eq!(grid_address(&grid_from(&args).unwrap()), expected);
        assert_eq!(args.value("--workers"), Some("2"));
        assert_eq!(args.value("--csv"), Some("out/drive.csv"));
        assert_eq!(args.value("--baseline"), Some("check"));
        assert_eq!(args.value("--baseline-dir"), Some("out/check"));
        assert!(args.has("--json-progress"));
        // perfbench/src/drive.rs `stream_bytes_per_row`: one worker.
        let cells = format!("0..{}", drive_grid(seed).len());
        let stream = with(
            drive_grid_args(seed),
            &["--stream", "--threads", "1", "--cells", &cells],
        );
        let args = Args::parse(&SCENARIO_SWEEP, stream).unwrap();
        assert_eq!(grid_address(&grid_from(&args).unwrap()), expected);
        assert!(args.has("--stream"));
    }
}

#[test]
fn the_coordinators_worker_command_line_parses_under_the_worker_table() {
    let drive = Args::parse(
        &SWEEP_DRIVE,
        [
            "--golden",
            "open-loop-48",
            "--workers",
            "3",
            "--worker-threads",
            "2",
        ],
    )
    .unwrap();
    // sweep_drive's `spawn_worker`, including crash injection.
    let worker = with(
        forwarded_grid_args(&drive),
        &[
            "--stream",
            "--threads",
            "2",
            "--cells",
            "16..32",
            "--stream-fail-after",
            "3",
        ],
    );
    let args = Args::parse(&SCENARIO_SWEEP, worker).unwrap();
    assert_eq!(args.value("--cells"), Some("16..32"));
    assert_eq!(args.get::<usize>("--stream-fail-after").unwrap(), Some(3));
    assert_eq!(grid_from(&args).unwrap(), golden::open_loop_48());
}

#[test]
fn forwarding_a_grid_keeps_its_content_address() {
    let cases: &[&[&str]] = &[
        &["--golden", "open-loop-48"],
        &["--golden", "table2-closed-loop", "--workers", "4"],
        &["--honest", "--fusers", "marzullo,hull", "--csv", "-"],
        &[
            "--closed-loop",
            "--schedules",
            "ascending,descending,random",
            "--seeds",
            "1,2",
            "--rounds",
            "200",
        ],
        &[
            "--target",
            "12",
            "--deltas",
            "0.5:0.25",
            "--platoon",
            "3:0.005",
            "--honest",
        ],
        &[
            "--closed-loop",
            "--fault",
            "2:bias:3:0.25",
            "--history",
            "2.5,3.5",
            "--json-progress",
        ],
        &[
            "--suite",
            "widths:1,1,2,2,3,3",
            "--f",
            "2",
            "--fault",
            "3:silent:0.3",
            "--strategy",
            "greedy-high",
            "--detectors",
            "immediate,windowed:5:1",
            "--shards",
            "0..1,1..2",
        ],
    ];
    for argv in cases {
        let coordinator = Args::parse(&SWEEP_DRIVE, argv.iter().copied()).unwrap();
        let direct = grid_from(&coordinator).unwrap();
        let forwarded = forwarded_grid_args(&coordinator);
        let worker = Args::parse(&SCENARIO_SWEEP, forwarded.clone()).unwrap();
        assert_eq!(
            grid_address(&grid_from(&worker).unwrap()),
            grid_address(&direct),
            "{argv:?} forwarded as {forwarded:?}"
        );
        assert_eq!(forwarded_grid_args(&worker), forwarded, "{argv:?}");
    }
}
