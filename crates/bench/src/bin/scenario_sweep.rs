//! Scenario sweeps through the grid engine: either every named registry
//! preset, or an ad-hoc cartesian grid described on the command line —
//! sharded across worker threads either way, with the row order (and the
//! emitted bytes) identical to a serial run.
//!
//! Run with: `cargo run --release -p arsf-bench --bin scenario_sweep`
//!
//! Preset mode (default): sweeps the whole named-scenario registry.
//!
//! Grid mode (any grid flag but `--rounds`, or `--cells`): builds the
//! `SweepGrid` that `arsf_bench::cli::grid_from` makes of the grid flags
//! — by default a LandShark base scenario with a stealthy attacker on
//! sensor 0 — and sweeps the cartesian product of its axes.
//!
//! `--help` lists every flag (the table is `arsf_bench::cli::SCENARIO_SWEEP`);
//! an unknown, repeated or malformed flag exits 2. `--cells` shards keep
//! their grid indices and derived seeds, so shard reports (with
//! `--no-header` on all but the first) concatenate into the full one.
//! `--stream` writes the framed worker protocol of `arsf_bench::drive`
//! as cells finish, in constant memory. `--baseline` goes through
//! `arsf_bench::baseline_ops`, the record/check path every binary
//! shares; `sweep_lint grid` with the same flags shows what `record`
//! would refuse.

use std::io::Write;
use std::process::exit;

use arsf_bench::cli::{
    allowed, diff_config, grid_mode_requested, parse_cells, runnable_grid, sweeper_from, Args,
    SCENARIO_SWEEP,
};
use arsf_bench::drive::Frame;
use arsf_bench::{baseline_ops, TextTable};
use arsf_core::scenario::registry;
use arsf_core::sweep::store::{grid_address, Baseline, Fnv64};
use arsf_core::sweep::{StreamingSweeper, SweepGrid, SweepReport};

/// The [`runnable_grid`] `args` describe and the `--cells` range of it
/// to run (the whole grid without the flag).
fn grid_and_cells(args: &Args) -> (SweepGrid, std::ops::Range<usize>) {
    let grid = args.ok(runnable_grid(args));
    let cells = args
        .ok(args.parse_with("--cells", parse_cells))
        .unwrap_or(0..grid.len());
    if cells.end > grid.len() {
        args.fail(format!(
            "--cells {}..{} exceeds the {}-cell grid",
            cells.start,
            cells.end,
            grid.len()
        ));
    }
    (grid, cells)
}

/// `--stream`: emit the framed worker protocol instead of a report.
/// Row frames stream as cells finish (stdout is line-buffered), so a
/// `sweep_drive` coordinator sees live progress and the shard runs in
/// constant memory whatever its size.
fn stream_mode(args: &Args, sweeper: StreamingSweeper) -> ! {
    if !grid_mode_requested(args) {
        args.fail("--stream needs grid mode (pass at least one axis flag or --golden)");
    }
    for flag in ["--csv", "--json", "--baseline"] {
        if args.has(flag) {
            args.fail(format!("--stream emits protocol frames; drop {flag}"));
        }
    }
    let (grid, cells) = grid_and_cells(args);
    let fail_after = args.ok(args.get::<usize>("--stream-fail-after"));

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let header = Frame::Header {
        grid: grid_address(&grid),
        cells: cells.clone(),
    };
    if writeln!(out, "{}", header.render()).is_err() {
        exit(1); // Coordinator hung up; nothing useful left to do.
    }
    let mut hash = Fnv64::default();
    let mut emitted = 0usize;
    let result = sweeper.try_stream_range(&grid, cells, |row| {
        let csv = row.to_csv_line();
        hash.update(csv.as_bytes());
        hash.update(b"\n");
        let frame = Frame::Row {
            index: row.cell,
            seed: row.seed,
            csv,
        };
        writeln!(out, "{}", frame.render())?;
        emitted += 1;
        if fail_after == Some(emitted) {
            let _ = out.flush();
            exit(7);
        }
        Ok::<(), std::io::Error>(())
    });
    if result.is_err() {
        exit(1); // Broken pipe mid-stream: the coordinator already knows.
    }
    let end = Frame::End {
        rows: emitted,
        checksum: hash.finish(),
    };
    if writeln!(out, "{}", end.render()).is_err() {
        exit(1);
    }
    exit(0);
}

fn main() {
    let args = Args::from_env(&SCENARIO_SWEEP, "");
    let sweeper = args.ok(sweeper_from(&args));

    if args.has("--stream") {
        stream_mode(&args, sweeper);
    }

    // A --cells range of the default grid is grid mode too.
    let grid_mode = grid_mode_requested(&args) || args.has("--cells");

    let baseline_mode = args.value("--baseline");
    if let Some(mode) = baseline_mode {
        if !grid_mode {
            args.fail("--baseline needs grid mode (pass at least one axis flag)");
        }
        if args.has("--cells") {
            args.fail("--baseline compares whole grids; drop --cells");
        }
        if !matches!(mode, "record" | "check") {
            args.fail("--baseline wants `record` or `check`");
        }
    }

    // One shared construction with `sweep_lint grid` (see
    // `arsf_bench::cli::grid_from`), so what the linter analyzes is
    // exactly what this binary runs.
    let grid = grid_mode.then(|| grid_and_cells(&args));
    let report = if let Some((grid, cells)) = &grid {
        let shape = match args.has("--cells") {
            true => format!("cells {}..{} of {}", cells.start, cells.end, grid.len()),
            false => format!("{} cells", grid.len()),
        };
        println!(
            "Grid sweep: {shape} on {} worker thread(s)\n",
            sweeper.threads()
        );
        sweeper.run_range(grid, cells.clone())
    } else {
        let mut presets = registry();
        if let Some(rounds) = args.ok(args.get::<u64>("--rounds")) {
            for preset in &mut presets {
                preset.rounds = rounds;
            }
        }
        println!(
            "Scenario sweep: {} registry presets on {} worker thread(s)\n",
            presets.len(),
            sweeper.threads()
        );
        sweeper.run_scenarios(&presets)
    };

    print_table(&report);
    if args.has("--no-header") {
        emit(&args, &report, "--csv", SweepReport::to_csv_body);
    } else {
        emit(&args, &report, "--csv", SweepReport::to_csv);
    }
    emit(&args, &report, "--json", SweepReport::to_json);

    if let (Some(mode), Some((grid, _))) = (baseline_mode, &grid) {
        let dir = args.value("--baseline-dir").unwrap_or("baselines");
        let current = Baseline::from_report(grid, &report);
        if mode == "record" {
            let allowed = args.ok(allowed(&args));
            let path = args.ok(baseline_ops::record_allowing(grid, &current, dir, &allowed));
            println!("recorded baseline {}", path.display());
        } else {
            let config = args.ok(diff_config(&args));
            let (rendered, drifted) =
                args.ok(baseline_ops::check_with(grid, &current, dir, &config));
            print!("{rendered}");
            if drifted {
                exit(1);
            }
        }
    }

    if !grid_mode {
        println!("Marzullo/Brooks–Iyengar keep the truth under attack (fa <= f);");
        println!("the inverse-variance baseline does not; historical fusion");
        println!("tightens the descending-schedule attack; the windowed detector");
        println!("condemns the transiently-faulty GPS without false positives.");
    }
}

fn print_table(report: &SweepReport) {
    let closed_loop = report.rows().iter().any(|r| r.summary.supervisor.is_some());
    let mut header = vec![
        "cell".into(),
        "scenario".into(),
        "fuser".into(),
        "detector".into(),
        "schedule".into(),
        "rounds".into(),
        "mean width".into(),
        "truth lost".into(),
        "fusion fail".into(),
        "flag rounds".into(),
        "condemned".into(),
    ];
    let platoon = report.rows().iter().any(|r| !r.summary.vehicles.is_empty());
    if closed_loop {
        header.extend([
            "above".into(),
            "below".into(),
            "preempts".into(),
            "min gap".into(),
        ]);
    }
    if platoon {
        header.push("veh widths".into());
    }
    let mut table = TextTable::new(header);
    for row in report.rows() {
        let s = &row.summary;
        let mut cells = vec![
            format!("{}", row.cell),
            s.scenario.clone(),
            s.fuser.clone(),
            s.detector.clone(),
            row.schedule.clone(),
            format!("{}", s.rounds),
            format!("{:.3}", s.widths.mean()),
            format!("{}", s.truth_lost),
            format!("{}", s.fusion_failures),
            format!("{}", s.flagged_rounds),
            format!("{:?}", s.condemned),
        ];
        if closed_loop {
            match &s.supervisor {
                Some(sup) => cells.extend([
                    format!("{:.2}%", sup.above_rate * 100.0),
                    format!("{:.2}%", sup.below_rate * 100.0),
                    format!("{}", sup.preemptions),
                    sup.min_gap.map_or(String::new(), |g| format!("{g:.4}")),
                ]),
                None => cells.extend([String::new(), String::new(), String::new(), String::new()]),
            }
        }
        if platoon {
            let means: Vec<String> = s
                .vehicles
                .iter()
                .map(|v| format!("{:.3}", v.widths.mean()))
                .collect();
            cells.push(means.join("|"));
        }
        table.row(cells);
    }
    println!("{}", table.render());
}

/// Writes a rendering of the report to the path given by `flag` (`-`
/// streams to stdout).
fn emit(args: &Args, report: &SweepReport, flag: &str, render: fn(&SweepReport) -> String) {
    if let Some(target) = args.value(flag) {
        let payload = render(report);
        if target == "-" {
            print!("{payload}");
        } else if let Err(err) = std::fs::write(target, &payload) {
            args.fail(format!("cannot write {target}: {err}"));
        } else {
            println!("wrote {target}");
        }
    }
}
