//! Criterion-history throughput gate: run the 48-cell `sweep_parallel`
//! grid in release mode (repeated passes over a >=1s window, best pass
//! reported), record rounds/s into a JSON artifact, and fail when
//! throughput drops more than `--max-drop` below a committed reference
//! — the ROADMAP's "fail CI on >20% throughput regressions" item,
//! without the noise of a full criterion session.
//!
//! Run with: `cargo run --release -p arsf-bench --bin throughput_gate`
//!
//! `--help` lists the flags. `--reference` **skips gracefully** (exit 0,
//! with a note) when the file does not exist, so the gate is inert
//! until a reference is committed.
//!
//! Record a reference on the machine class CI runs on:
//! `throughput_gate --out baselines/throughput.json`, commit the file,
//! and re-record it whenever the hardware or the engine intentionally
//! changes.

use std::process::exit;
use std::time::Instant;

use arsf_bench::cli::{sweeper_from, Args, Cli, Flag, THREADS};
use arsf_bench::golden;

#[rustfmt::skip]
const THROUGHPUT_GATE: Cli = Cli::new("throughput_gate", &[&[
    THREADS,
    Flag::value("--out", "path", "write the JSON artifact here"),
    Flag::value("--reference", "path", "gate against this artifact (skipped when missing)"),
    Flag::value("--max-drop", "f", "tolerated fractional drop vs the reference (default 0.2)"),
]]);

/// Extracts `"field": <number>` from a flat JSON artifact without a
/// parser dependency.
fn json_number_field(src: &str, field: &str) -> Option<f64> {
    let tail = src.split(&format!("\"{field}\":")).nth(1)?;
    let token: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    token.parse().ok()
}

fn main() {
    let args = Args::from_env(&THROUGHPUT_GATE, "");
    let sweeper = args.ok(sweeper_from(&args));
    let fraction = |s: &str| match s.parse() {
        Ok(drop) if (0.0..1.0).contains(&drop) => Ok(drop),
        _ => Err(format!("wants a fraction in [0, 1), got `{s}`")),
    };
    let max_drop = args
        .ok(args.parse_with("--max-drop", fraction))
        .unwrap_or(0.2);

    let grid = golden::open_loop_48();
    // One untimed warm-up pass touches every engine once; then repeated
    // timed passes fill a >=1s measurement window and the **best** pass
    // is reported — a single ~15ms pass would put scheduler jitter and
    // noisy CI neighbours inside the 20% allowance, while the best of a
    // 1s window measures what the hardware can actually do.
    let _ = sweeper.run(&grid);
    let mut cells = 0;
    let mut rounds: u64 = 0;
    let mut best_seconds = f64::INFINITY;
    let mut passes: u32 = 0;
    let window = Instant::now();
    while passes < 3 || window.elapsed().as_secs_f64() < 1.0 {
        let start = Instant::now();
        let report = sweeper.run(&grid);
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        cells = report.len();
        rounds = report.rows().iter().map(|r| r.summary.rounds).sum();
        best_seconds = best_seconds.min(seconds);
        passes += 1;
    }
    let rounds_per_sec = rounds as f64 / best_seconds;
    println!(
        "open-loop-48: {cells} cells, {rounds} rounds; best of {passes} passes \
         {best_seconds:.4}s on {} thread(s) -> {rounds_per_sec:.0} rounds/s",
        sweeper.threads()
    );

    let artifact = format!(
        "{{\"grid\":\"open-loop-48\",\"cells\":{cells},\"rounds\":{rounds},\
         \"passes\":{passes},\"seconds\":{best_seconds},\
         \"rounds_per_sec\":{rounds_per_sec}}}\n"
    );
    if let Some(path) = args.value("--out") {
        if let Err(e) = std::fs::write(path, &artifact) {
            args.fail(format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }

    if let Some(path) = args.value("--reference") {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!(
                    "no reference at {path} — skipping the gate \
                     (record one with --out and commit it to arm the check)"
                );
                return;
            }
            Err(e) => args.fail(format!("cannot read {path}: {e}")),
        };
        let reference = json_number_field(&src, "rounds_per_sec")
            .filter(|r| r.is_finite() && *r > 0.0)
            .unwrap_or_else(|| args.fail(format!("{path} has no usable rounds_per_sec field")));
        let floor = reference * (1.0 - max_drop);
        if rounds_per_sec < floor {
            eprintln!(
                "THROUGHPUT REGRESSION: {rounds_per_sec:.0} rounds/s is below \
                 {floor:.0} (reference {reference:.0} minus {:.0}% allowance)",
                max_drop * 100.0
            );
            exit(1);
        }
        println!(
            "throughput ok: {rounds_per_sec:.0} rounds/s >= floor {floor:.0} \
             (reference {reference:.0}, {:.0}% allowance)",
            max_drop * 100.0
        );
    }
}
