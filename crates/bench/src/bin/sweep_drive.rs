//! Multi-process sweep coordinator: splits a grid into contiguous
//! `--cells` shards, fans them out across child `scenario_sweep
//! --stream` workers, validates and merges the framed row streams back
//! into one grid-ordered report, and retries a crashed worker's shard
//! once.
//!
//! Run with: `cargo run --release -p arsf-bench --bin sweep_drive`
//!
//! The grid is described by exactly the grid flags `scenario_sweep`
//! takes (`arsf_bench::cli::GRID_FLAGS`, `--golden name` included) —
//! the coordinator parses them once, forwards them verbatim to every
//! worker, and the workers' `shard` header frames must echo the grid's
//! content address back, so a coordinator/worker disagreement about
//! the grid is caught before the first row.
//!
//! `--help` lists every flag (the table is `arsf_bench::cli::SWEEP_DRIVE`);
//! an unknown, repeated or malformed flag exits 2, and so do the worker
//! flags `--cells` and `--threads`. The merged `--csv` is byte-identical
//! to a single-process `scenario_sweep --csv` of the grid, and
//! `--baseline` rebuilds the baseline from the merged rows through the
//! same `arsf_bench::baseline_ops` as `scenario_sweep --baseline`.
//!
//! Failure semantics: a crashed worker (nonzero exit or a stream that
//! ends without its `end` frame) is retried once with a fresh child;
//! a second crash fails the run. Deterministic protocol violations —
//! malformed frame, grid-address or range mismatch, out-of-range index,
//! duplicate or out-of-order row, seed mismatch, row-count or checksum
//! mismatch, frames after `end` — are not retried: the coordinator
//! exits 2 immediately with a diagnostic naming the violation. A
//! shard's rows are only merged after its `end` checksum verifies, so
//! no partial shard ever reaches the output.

use std::io::{BufRead, BufReader, Write};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::process::{exit, Child, Command, Stdio};
use std::time::Instant;

use arsf_bench::baseline_ops;
use arsf_bench::cli::{
    allowed, diff_config, forwarded_grid_args, grid_mode_requested, runnable_grid, Args,
    SWEEP_DRIVE,
};
use arsf_bench::drive::{baseline_from_rows, parse_shards, plan_shards, DriveError, ShardStream};
use arsf_core::sweep::store::grid_address;
use arsf_core::sweep::{SweepGrid, SweepReport};

/// Test-only crash injection: worker index, rows before the crash, and
/// how many attempts crash (1 = first only, so the retry recovers).
struct FaultInjection {
    worker: usize,
    after_rows: usize,
    attempts: usize,
}

fn parse_fault_worker(spec: &str) -> Result<FaultInjection, String> {
    let (worker, rows, attempts) = match spec.split(':').collect::<Vec<_>>()[..] {
        [worker, rows] => (worker, rows, "1"),
        [worker, rows, attempts] => (worker, rows, attempts),
        _ => return Err(format!("expected worker:rows[:attempts], got `{spec}`")),
    };
    Ok(FaultInjection {
        worker: worker
            .parse()
            .map_err(|_| format!("bad worker index `{worker}`"))?,
        after_rows: rows
            .parse()
            .map_err(|_| format!("bad row count `{rows}`"))?,
        attempts: attempts
            .parse()
            .ok()
            .filter(|a| (1..=2).contains(a))
            .ok_or_else(|| format!("bad attempt count `{attempts}` (1 or 2)"))?,
    })
}

/// How one shard attempt failed: crashes retry once, protocol
/// violations are deterministic and fail the run immediately.
enum AttemptError {
    Crash(String),
    Protocol(String),
}

/// Spawns one worker process for a shard attempt.
fn spawn_worker(
    exe: &str,
    grid_args: &[String],
    worker_threads: usize,
    cells: &Range<usize>,
    fail_after: Option<usize>,
) -> Result<Child, String> {
    let mut command = Command::new(exe);
    command
        .args(grid_args)
        .arg("--stream")
        .arg("--threads")
        .arg(worker_threads.to_string())
        .arg("--cells")
        .arg(format!("{}..{}", cells.start, cells.end))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(rows) = fail_after {
        command.arg("--stream-fail-after").arg(rows.to_string());
    }
    command
        .spawn()
        .map_err(|e| format!("cannot spawn worker `{exe}`: {e}"))
}

/// Consumes one worker's framed stdout to completion: every frame
/// validated by [`ShardStream`], every row's derived seed cross-checked
/// against the coordinator's grid. Returns the shard's CSV lines in
/// cell order only after the `end` checksum verifies and the child
/// exits cleanly.
fn consume(
    mut child: Child,
    address: &str,
    cells: &Range<usize>,
    grid: &SweepGrid,
) -> Result<Vec<String>, AttemptError> {
    let stdout = child.stdout.take().expect("worker stdout is piped");
    let mut stream = ShardStream::new(address, cells.clone());
    let mut rows = Vec::with_capacity(cells.len());
    let mut protocol_error: Option<DriveError> = None;
    for line in BufReader::new(stdout).lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break, // Pipe died; the exit status decides below.
        };
        match stream.accept(&line) {
            Ok(Some(row)) => {
                let expected = grid.scenario(row.index).seed;
                if row.seed != expected {
                    protocol_error = Some(DriveError::SeedMismatch {
                        index: row.index,
                        expected,
                        got: row.seed,
                    });
                    break;
                }
                rows.push(row.csv);
            }
            Ok(None) => {}
            Err(error) => {
                protocol_error = Some(error);
                break;
            }
        }
    }
    if let Some(error) = protocol_error {
        // A deterministic defect: kill the worker (it may still be
        // streaming) and fail without retrying.
        let _ = child.kill();
        let _ = child.wait();
        return match error {
            DriveError::Truncated { .. } => Err(AttemptError::Crash(error.to_string())),
            other => Err(AttemptError::Protocol(other.to_string())),
        };
    }
    let status = child
        .wait()
        .map_err(|e| AttemptError::Crash(format!("waiting for worker: {e}")))?;
    if let Err(error) = stream.finish() {
        // EOF without the end frame: crash-shaped, whatever the exit
        // status claims.
        let detail = match status.code() {
            Some(code) => format!("{error} (worker exited with code {code})"),
            None => format!("{error} (worker killed by a signal)"),
        };
        return Err(AttemptError::Crash(detail));
    }
    if !status.success() {
        return Err(AttemptError::Crash(format!(
            "worker exited with {status} after a complete stream"
        )));
    }
    Ok(rows)
}

/// One completed-shard progress line on stderr (text or
/// `--json-progress`).
fn progress(
    json: bool,
    worker: usize,
    cells: &Range<usize>,
    rows: usize,
    attempt: usize,
    elapsed_s: f64,
) {
    let rows_per_s = if elapsed_s > 0.0 {
        rows as f64 / elapsed_s
    } else {
        0.0
    };
    if json {
        eprintln!(
            "{{\"schema\":1,\"worker\":{worker},\"cells\":\"{}..{}\",\"rows\":{rows},\
             \"attempt\":{attempt},\"elapsed_s\":{elapsed_s:.3},\"rows_per_s\":{rows_per_s:.1}}}",
            cells.start, cells.end
        );
    } else {
        eprintln!(
            "sweep_drive: worker {worker} cells {}..{}: {rows} rows in {elapsed_s:.2}s \
             ({rows_per_s:.1} rows/s, attempt {attempt})",
            cells.start, cells.end
        );
    }
}

fn main() {
    let args = Args::from_env(&SWEEP_DRIVE, "");
    // The coordinator assigns each worker its range and thread count.
    for (flag, instead) in [("--cells", "--shards"), ("--threads", "--worker-threads")] {
        if args.has(flag) {
            args.fail(format!("{flag} is a worker flag; use {instead}"));
        }
    }
    if !grid_mode_requested(&args) {
        args.fail("needs grid mode: pass at least one axis flag or --golden name");
    }
    let grid = args.ok(runnable_grid(&args));
    let address = grid_address(&grid);

    let shards = match args.value("--shards") {
        Some(spec) => args.ok(parse_shards(spec, grid.len())),
        None => {
            let workers = args.ok(args.get::<NonZeroUsize>("--workers"));
            plan_shards(grid.len(), workers.map_or(2, NonZeroUsize::get))
        }
    };
    let worker_threads = args
        .ok(args.get::<NonZeroUsize>("--worker-threads"))
        .map_or(1, NonZeroUsize::get);
    let worker_exe = args.value("--worker-exe").map_or_else(
        || {
            let mut path = std::env::current_exe()
                .unwrap_or_else(|e| args.fail(format!("cannot locate this executable: {e}")));
            path.set_file_name(format!("scenario_sweep{}", std::env::consts::EXE_SUFFIX));
            path.to_string_lossy().into_owned()
        },
        str::to_string,
    );
    let fault = args.ok(args.parse_with("--fault-worker", parse_fault_worker));
    let baseline_mode = args.value("--baseline");
    if baseline_mode.is_some_and(|mode| !matches!(mode, "record" | "check")) {
        args.fail("--baseline wants `record` or `check`");
    }
    let json_progress = args.has("--json-progress");
    let grid_args = forwarded_grid_args(&args);

    // Injected crash rows for one worker's attempt, per the test flag.
    let inject = |worker: usize, attempt: usize| -> Option<usize> {
        fault
            .as_ref()
            .filter(|f| f.worker == worker && attempt <= f.attempts)
            .map(|f| f.after_rows)
    };

    // Spawn every non-empty shard's worker up front so they run
    // concurrently; streams are consumed (and verified) in shard order,
    // with pipe backpressure pacing the not-yet-consumed workers.
    let mut children: Vec<Option<(Child, Instant)>> = shards
        .iter()
        .enumerate()
        .map(|(worker, cells)| {
            if cells.is_empty() {
                return None;
            }
            let child = args.ok(spawn_worker(
                &worker_exe,
                &grid_args,
                worker_threads,
                cells,
                inject(worker, 1),
            ));
            Some((child, Instant::now()))
        })
        .collect();

    let mut merged: Vec<String> = Vec::with_capacity(grid.len());
    for (worker, cells) in shards.iter().enumerate() {
        if cells.is_empty() {
            progress(json_progress, worker, cells, 0, 1, 0.0);
            continue;
        }
        debug_assert_eq!(merged.len(), cells.start, "shards merge in grid order");
        let (child, started) = children[worker].take().expect("non-empty shard spawned");
        let mut attempt = 1;
        let rows = match consume(child, &address, cells, &grid) {
            Ok(rows) => rows,
            Err(AttemptError::Protocol(message)) => args.fail(format!(
                "worker {worker} (cells {}..{}): {message}",
                cells.start, cells.end
            )),
            Err(AttemptError::Crash(message)) => {
                eprintln!(
                    "sweep_drive: worker {worker} (cells {}..{}) attempt 1 failed: \
                     {message}; retrying once",
                    cells.start, cells.end
                );
                attempt = 2;
                let retry = args.ok(spawn_worker(
                    &worker_exe,
                    &grid_args,
                    worker_threads,
                    cells,
                    inject(worker, 2),
                ));
                match consume(retry, &address, cells, &grid) {
                    Ok(rows) => rows,
                    Err(AttemptError::Protocol(message)) => args.fail(format!(
                        "worker {worker} (cells {}..{}): {message}",
                        cells.start, cells.end
                    )),
                    Err(AttemptError::Crash(message)) => args.fail(format!(
                        "worker {worker} (cells {}..{}) failed twice: {message}",
                        cells.start, cells.end
                    )),
                }
            }
        };
        let elapsed_s = started.elapsed().as_secs_f64();
        progress(json_progress, worker, cells, rows.len(), attempt, elapsed_s);
        merged.extend(rows);
    }
    assert_eq!(merged.len(), grid.len(), "the shard plan covers the grid");
    eprintln!(
        "sweep_drive: merged {} rows from {} shard(s) of grid {address}",
        merged.len(),
        shards.len()
    );

    if let Some(target) = args.value("--csv") {
        let mut payload = String::new();
        if !args.has("--no-header") {
            payload.push_str(SweepReport::csv_header());
        }
        for line in &merged {
            payload.push_str(line);
            payload.push('\n');
        }
        if target == "-" {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            out.write_all(payload.as_bytes())
                .unwrap_or_else(|e| args.fail(format!("writing stdout: {e}")));
        } else if let Err(e) = std::fs::write(target, &payload) {
            args.fail(format!("cannot write {target}: {e}"));
        } else {
            eprintln!("sweep_drive: wrote {target}");
        }
    }

    if let Some(mode) = baseline_mode {
        let dir = args.value("--baseline-dir").unwrap_or("baselines");
        let current = args.ok(baseline_from_rows(&grid, &merged));
        if mode == "record" {
            let allowed = args.ok(allowed(&args));
            let path = args.ok(baseline_ops::record_allowing(
                &grid, &current, dir, &allowed,
            ));
            eprintln!("sweep_drive: recorded baseline {}", path.display());
        } else {
            let config = args.ok(diff_config(&args));
            let (rendered, drifted) =
                args.ok(baseline_ops::check_with(&grid, &current, dir, &config));
            print!("{rendered}");
            if drifted {
                exit(1);
            }
            eprintln!("sweep_drive: baseline check clean for grid {address}");
        }
    }
}
