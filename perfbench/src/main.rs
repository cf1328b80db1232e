//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--bin-dir dir] [--out-dir dir] [--commit id] [--tree digest] [--rustc version]
//! ```
//!
//! Prints a provenance line (`"schema": 1`, seed, commit, `nproc`,
//! `rustc -V`), one text line per metric, and as the last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 1`
//! also writes its spans to `<out-dir>/trace-<workload>-seed<n>.jsonl`.
//! Usually started through `perfbench/run.py`, which builds first.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

use arsf_perfbench::alloc::CountingAlloc;
use arsf_perfbench::drive::DriveEnv;
use arsf_perfbench::run::{self, Outcome, Settings, END_TO_END, PER_LAYER};
use arsf_perfbench::trace::{Layer, Recorder};
use arsf_perfbench::workloads::{Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn usage(message: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {message}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--bin-dir dir] [--out-dir dir] [--commit id] [--tree digest] \
         [--rustc version]",
        names.join("|")
    );
    exit(2);
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
    commit: String,
    tree: String,
    rustc: String,
}

fn parse_args() -> Args {
    let mut values = std::collections::BTreeMap::new();
    let mut args = std::env::args().skip(1);
    const FLAGS: [&str; 9] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--bin-dir",
        "--out-dir",
        "--commit",
        "--tree",
        "--rustc",
    ];
    while let Some(flag) = args.next() {
        if !FLAGS.contains(&flag.as_str()) {
            usage(&format!("unknown argument `{flag}`"));
        }
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        values.insert(flag, value);
    }
    let get = |flag: &str| values.get(flag).cloned();
    let workload = match get("--workload") {
        None => usage("--workload is required"),
        Some(name) => {
            Workload::parse(&name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`")))
        }
    };
    let seed = get("--seed").map_or(DEFAULT_SEED, |s| {
        s.parse()
            .unwrap_or_else(|_| usage("--seed wants a non-negative integer"))
    });
    let seconds = get("--seconds").map_or(10.0, |s| {
        s.parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .unwrap_or_else(|| usage("--seconds wants a positive number"))
    });
    let traced = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace wants 0 or 1"),
    };
    let bin_dir = get("--bin-dir").map_or_else(
        || {
            std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(PathBuf::from))
                .unwrap_or_else(|| usage("cannot locate this executable; pass --bin-dir"))
        },
        PathBuf::from,
    );
    let out_dir = get("--out-dir").map_or_else(|| bin_dir.join("perfbench-out"), PathBuf::from);
    let unknown = || "unknown".to_string();
    Args {
        workload,
        seed,
        seconds,
        traced,
        bin_dir,
        out_dir,
        commit: get("--commit").unwrap_or_else(unknown),
        tree: get("--tree").unwrap_or_else(unknown),
        rustc: get("--rustc").unwrap_or_else(unknown),
    }
}

fn json_string(raw: &str) -> String {
    let mut out = String::from("\"");
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value as JSON: every digit as measured, and 0 for a value
/// that is not finite (which only a failed measurement produces).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"schema\":1,\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\
         \"commit\":{},\"tree\":{},\"nproc\":{nproc},\"rustc\":{}}}",
        json_string(args.workload.name()),
        args.seed,
        u8::from(args.traced),
        args.seconds,
        json_string(&args.commit),
        json_string(&args.tree),
        json_string(&args.rustc),
    )
}

/// Writes the recorder's cell spans as JSON lines under the header.
fn write_trace(args: &Args, header: &str, recorder: &Recorder) -> Result<PathBuf, String> {
    let path = args.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut text = format!("{header}\n");
    for span in &recorder.spans {
        let mut children = Vec::new();
        for layer in Layer::ALL {
            let totals = span.layers[layer as usize];
            if totals.calls > 0 {
                children.push(format!(
                    "{}:{{\"parent\":{},\"calls\":{},\"ns\":{}}}",
                    json_string(layer.name()),
                    json_string(layer.parent()),
                    totals.calls,
                    totals.ns
                ));
            }
        }
        let _ = writeln!(
            text,
            "{{\"schema\":1,\"name\":\"cell\",\"parent\":null,\"grid\":{},\"cell\":{},\
             \"pass\":{},\"start_ns\":{},\"end_ns\":{},\"children\":{{{}}}}}",
            span.grid,
            span.cell,
            span.pass,
            span.start_ns,
            span.end_ns,
            children.join(",")
        );
    }
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn main() {
    let args = parse_args();
    let settings = Settings {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        env: DriveEnv {
            bin_dir: args.bin_dir.clone(),
            out_dir: args.out_dir.clone(),
            seed: args.seed,
        },
    };
    let result = if args.traced {
        run::traced(&settings)
    } else {
        Ok(run::untraced(&settings))
    };
    let outcome: Outcome = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1);
    });

    let header = provenance(&args);
    println!("{header}");
    let names: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        let detail = outcome.details.get(name).map_or("", String::as_str);
        println!("{name:<32} {value:>18.6} {unit:<9} {detail}");
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "fail_ratio = {fail_ratio} ({} failed of {} cells attempted)",
        outcome.failed, outcome.attempted
    );
    const SHOWN: usize = 10;
    for problem in outcome.problems.iter().take(SHOWN) {
        eprintln!("perfbench: verification failed: {problem}");
    }
    if outcome.problems.len() > SHOWN {
        eprintln!(
            "perfbench: … and {} more verification failure(s)",
            outcome.problems.len() - SHOWN
        );
    }
    if let Some(recorder) = &outcome.recorder {
        match write_trace(&args, &header, recorder) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: {e}"),
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
}
