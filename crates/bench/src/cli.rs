//! The bench binaries' command line, decided in one module: the
//! [`Args`] parser and its flag tables, the grid flags every
//! grid-taking binary shares ([`GRID_FLAGS`]), the one construction
//! turning them into a [`SweepGrid`] ([`grid_from`]), and the value
//! parsers for `--axis a,b,c` style values. Each value parser returns
//! either the decoded non-empty axis or a human-readable error naming
//! the offending token — never `Ok(vec![])`, which would trip the
//! grid's non-empty-axis assertion downstream.

mod args;

use args::number;
pub use args::{Args, Cli, Flag, FlagNumber};

use arsf_analyze::VERIFIERS;
use arsf_core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
};
use arsf_core::sweep::diff::{DiffConfig, Tolerance};
use arsf_core::sweep::{ParallelSweeper, SweepGrid};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};
use std::num::NonZeroUsize;
use std::ops::Range;

/// Parses a comma-separated list entry by entry; an empty list is an
/// error naming `axis`.
pub(crate) fn list<T>(
    axis: &str,
    spec: &str,
    entry: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let values = spec
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(entry)
        .collect::<Result<Vec<_>, _>>()?;
    if values.is_empty() {
        return Err(format!("{axis} axis is empty"));
    }
    Ok(values)
}

/// Parses a fuser axis, e.g. `marzullo,hull,historical:3.5:0.1`.
///
/// Recognised names: `marzullo`, `brooks-iyengar`, `intersection`,
/// `hull`, `inverse-variance`, `midpoint-median`, and
/// `historical[:max_rate:dt]` (default `historical:3.5:0.1`).
///
/// # Errors
///
/// Returns a message naming the first unrecognised token.
pub(crate) fn parse_fusers(spec: &str) -> Result<Vec<FuserSpec>, String> {
    list("fusers", spec, |token| match token {
        "marzullo" => Ok(FuserSpec::Marzullo),
        "brooks-iyengar" => Ok(FuserSpec::BrooksIyengar),
        "intersection" => Ok(FuserSpec::Intersection),
        "hull" => Ok(FuserSpec::Hull),
        "inverse-variance" => Ok(FuserSpec::InverseVariance),
        "midpoint-median" => Ok(FuserSpec::MidpointMedian),
        "historical" => Ok(FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        }),
        other => match other.strip_prefix("historical:") {
            Some(params) => {
                let (rate, dt) = params
                    .split_once(':')
                    .ok_or_else(|| format!("expected historical:max_rate:dt, got `{other}`"))?;
                let max_rate: f64 = rate
                    .parse()
                    .map_err(|_| format!("bad max_rate in `{other}`"))?;
                let dt: f64 = dt.parse().map_err(|_| format!("bad dt in `{other}`"))?;
                Ok(FuserSpec::Historical { max_rate, dt })
            }
            None => Err(format!("unknown fuser `{other}`")),
        },
    })
}

/// Parses a detector axis, e.g. `off,immediate,windowed:20:6`.
///
/// # Errors
///
/// Returns a message naming the first unrecognised token.
pub(crate) fn parse_detectors(spec: &str) -> Result<Vec<DetectionMode>, String> {
    list("detectors", spec, |token| match token {
        "off" => Ok(DetectionMode::Off),
        "immediate" => Ok(DetectionMode::Immediate),
        other => match other.strip_prefix("windowed:") {
            Some(params) => {
                let (window, tolerance) = params
                    .split_once(':')
                    .ok_or_else(|| format!("expected windowed:window:tolerance, got `{other}`"))?;
                let in_spec = |e: String| format!("{e} in `{other}`");
                Ok(DetectionMode::Windowed {
                    window: number::<NonZeroUsize>(window).map_err(in_spec)?.get(),
                    tolerance: number(tolerance).map_err(in_spec)?,
                })
            }
            None => Err(format!("unknown detector `{other}`")),
        },
    })
}

/// Parses a schedule axis, e.g. `ascending,descending,random`.
///
/// # Errors
///
/// Returns a message naming the first unrecognised token.
pub(crate) fn parse_schedules(spec: &str) -> Result<Vec<SchedulePolicy>, String> {
    list("schedules", spec, |token| match token {
        "ascending" => Ok(SchedulePolicy::Ascending),
        "descending" => Ok(SchedulePolicy::Descending),
        "random" => Ok(SchedulePolicy::Random),
        other => Err(format!("unknown schedule `{other}`")),
    })
}

/// Parses a number list, e.g. a seed axis `1,2,3` (`u64`) or a
/// `--history` rate axis `2.5,3.5,5` (positive `f64`).
///
/// # Errors
///
/// Returns a message naming the first token out of `T`'s range.
pub(crate) fn parse_numbers<T: FlagNumber>(spec: &str) -> Result<Vec<T>, String> {
    list("number", spec, number)
}

/// The two cell indices of `a..b`, in either order.
pub(crate) fn parse_range(spec: &str) -> Result<(usize, usize), String> {
    let (start, end) = spec
        .split_once("..")
        .ok_or_else(|| format!("expected a half-open range `a..b`, got `{spec}`"))?;
    let index = |t: &str| {
        let t = t.trim();
        t.parse().map_err(|_| format!("bad cell index `{t}`"))
    };
    Ok((index(start)?, index(end)?))
}

/// Parses a half-open cell range `a..b` (grid-order indices, `a < b`),
/// the `--cells` shard one process takes of a larger sweep.
///
/// # Errors
///
/// Returns a message when the separator is missing, an endpoint is not
/// an integer, or the range is empty.
pub fn parse_cells(spec: &str) -> Result<Range<usize>, String> {
    let (start, end) = parse_range(spec)?;
    if start >= end {
        return Err(format!("cell range {start}..{end} is empty"));
    }
    Ok(start..end)
}

/// Parses one fault injection `sensor:kind[:param]:probability`, e.g.
/// `2:bias:3:0.25`, `0:stuck:12:1`, `1:scale:1.5:0.4` or `3:silent:0.5`.
///
/// # Errors
///
/// Returns a message naming the malformed component.
pub fn parse_fault(spec: &str) -> Result<(usize, FaultModel), String> {
    let parts: Vec<&str> = spec.split(':').map(str::trim).collect();
    let bad = || format!("expected sensor:kind[:param]:probability, got `{spec}`");
    if parts.len() < 3 {
        return Err(bad());
    }
    let sensor: usize = parts[0]
        .parse()
        .map_err(|_| format!("bad sensor index `{}`", parts[0]))?;
    let probability: f64 = parts[parts.len() - 1]
        .parse()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| format!("bad probability `{}`", parts[parts.len() - 1]))?;
    let param = |what: &str| -> Result<f64, String> {
        if parts.len() != 4 {
            return Err(bad());
        }
        parts[2]
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite())
            .ok_or_else(|| format!("bad {what} `{}`", parts[2]))
    };
    let kind = match parts[1] {
        "silent" if parts.len() == 3 => FaultKind::Silent,
        "silent" => return Err(bad()),
        "bias" => FaultKind::Bias {
            offset: param("offset")?,
        },
        "stuck" => FaultKind::StuckAt {
            value: param("value")?,
        },
        "scale" => FaultKind::Scale {
            factor: param("factor")?,
        },
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok((sensor, FaultModel::new(kind, probability)))
}

/// Parses a per-column tolerance list for baseline diffing, e.g.
/// `mean_width=1e-9:1e-6,above_rate=0.005` — each entry is
/// `column=abs[:rel]` (`rel` defaults to 0). A column family can be
/// named without its index (`vehicle_mean_widths` covers
/// `vehicle_mean_widths[0]`, `[1]`, …).
///
/// # Errors
///
/// Returns a message naming the malformed entry.
pub fn parse_tolerances(spec: &str) -> Result<Vec<(String, Tolerance)>, String> {
    let parse_component = |token: &str, entry: &str| {
        token
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("bad tolerance `{}` in `{entry}`", token.trim()))
    };
    list("tolerance", spec, |entry| {
        let (column, tols) = entry
            .split_once('=')
            .ok_or_else(|| format!("expected column=abs[:rel], got `{entry}`"))?;
        let column = column.trim();
        if column.is_empty() {
            return Err(format!("empty column name in `{entry}`"));
        }
        let (abs, rel) = tols.split_once(':').unwrap_or((tols, "0"));
        let (abs, rel) = (parse_component(abs, entry)?, parse_component(rel, entry)?);
        Ok((column.to_string(), Tolerance::new(abs, rel)))
    })
}

/// Parses a record-time veto override list, e.g.
/// `detect-vacuous,order-violation`: each entry must be the veto id of
/// one of the [`VERIFIERS`] (`guarantee-unbounded`, `detect-vacuous`,
/// `order-violation`).
///
/// # Errors
///
/// Returns a message naming the unknown id and listing the accepted ones.
pub(crate) fn parse_allow(spec: &str) -> Result<Vec<&'static str>, String> {
    let known: Vec<&'static str> = VERIFIERS.iter().map(|v| v.veto_id).collect();
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|id| {
            known
                .iter()
                .copied()
                .find(|k| *k == id)
                .ok_or_else(|| format!("unknown veto id `{id}` (accepted: {})", known.join(", ")))
        })
        .collect()
}

/// Parses an attack strategy name (`phantom-optimal`, `greedy-high`,
/// `greedy-low`, `truthful`).
///
/// # Errors
///
/// Returns a message naming the unrecognised strategy.
pub fn parse_strategy(spec: &str) -> Result<StrategySpec, String> {
    match spec.trim() {
        "phantom-optimal" => Ok(StrategySpec::PhantomOptimal),
        "greedy-high" => Ok(StrategySpec::GreedyHigh),
        "greedy-low" => Ok(StrategySpec::GreedyLow),
        "truthful" => Ok(StrategySpec::Truthful),
        other => Err(format!("unknown strategy `{other}`")),
    }
}

/// Parses a suite, either `landshark` or `widths:5,11,17`.
///
/// # Errors
///
/// Returns a message when the name is unknown or a width is not a
/// positive number.
pub(crate) fn parse_suite(spec: &str) -> Result<SuiteSpec, String> {
    match spec.trim() {
        "landshark" => Ok(SuiteSpec::Landshark),
        other => match other.strip_prefix("widths:") {
            Some(widths) => list("widths", widths, number).map(SuiteSpec::Widths),
            None => Err(format!("unknown suite `{other}` (landshark | widths:…)")),
        },
    }
}

/// Parses a closed-loop envelope, either one half-width applied to both
/// sides (`0.5`) or `up:down` (`0.5:0.25`).
///
/// # Errors
///
/// Returns a message when a half-width is not a finite non-negative
/// number.
pub(crate) fn parse_deltas(spec: &str) -> Result<(f64, f64), String> {
    let half_width = |token: &str| {
        token
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|d| d.is_finite() && *d >= 0.0)
            .ok_or_else(|| format!("bad envelope half-width `{token}`"))
    };
    let (up, down) = spec.split_once(':').unwrap_or((spec, spec));
    Ok((half_width(up)?, half_width(down)?))
}

/// Parses a platoon spec `size[:gap_miles]` (default gap 0.01 miles),
/// e.g. `3` or `3:0.005`.
///
/// # Errors
///
/// Returns a message when the size is not a positive integer or the gap
/// not a positive number.
pub(crate) fn parse_platoon(spec: &str) -> Result<(usize, f64), String> {
    let (size, gap) = spec.split_once(':').unwrap_or((spec, "0.01"));
    Ok((number::<NonZeroUsize>(size)?.get(), number(gap)?))
}

/// The flags that define a sweep grid, shared by `scenario_sweep`,
/// `sweep_drive` and `sweep_lint grid`: [`grid_from`] builds the grid
/// from them and a `sweep_drive` coordinator forwards them verbatim to
/// its workers ([`forwarded_grid_args`]). The value parsers above say
/// what each accepts.
#[rustfmt::skip]
pub const GRID_FLAGS: &[Flag] = &[
    Flag::value("--golden", "name", "a committed golden grid; excludes every other grid flag"),
    Flag::value("--fusers", "list", "fuser axis, e.g. marzullo,brooks-iyengar,hull,historical:3.5:0.1"),
    Flag::value("--detectors", "list", "detector axis: off, immediate, windowed:window:tolerance"),
    Flag::value("--schedules", "list", "schedule axis: ascending, descending, random"),
    Flag::value("--history", "rates", "append one historical:<rate>:0.1 fuser per rate"),
    Flag::value("--seeds", "list", "seed axis (replicates; per-cell seeds are derived)"),
    Flag::value("--suite", "spec", "sensor suite: landshark (default) or widths:5,11,17"),
    Flag::value("--fault", "sensor:kind[:param]:prob", "one fault (bias, stuck, scale, silent) in every cell"),
    Flag::value("--strategy", "name", "fixed attacker on sensor 0: phantom-optimal, greedy-high, ..."),
    Flag::value("--f", "n", "the fusion fault assumption (default 1)"),
    Flag::value("--rounds", "n", "rounds per cell (per preset, without grid flags)"),
    Flag::switch("--honest", "drop the base scenario's attacker"),
    Flag::switch("--closed-loop", "run every cell in the LandShark control loop (Table II)"),
    Flag::value("--target", "mph", "closed-loop target speed (default 10)"),
    Flag::value("--deltas", "d|up:down", "closed-loop envelope half-widths (default 0.5)"),
    Flag::value("--platoon", "size[:gap]", "closed-loop platoon, gap in miles (default 0.01)"),
];

/// `--threads`, read by [`sweeper_from`].
pub const THREADS: Flag = Flag::value("--threads", "k", "worker threads (default: all cores)");

/// The flags that write a sweep's report — as CSV, or as a baseline
/// recorded or checked through [`crate::baseline_ops`] — shared by
/// `scenario_sweep` and `sweep_drive`.
#[rustfmt::skip]
const REPORT_FLAGS: &[Flag] = &[
    Flag::value("--csv", "path|-", "write the report as CSV (- = stdout)"),
    Flag::switch("--no-header", "omit the CSV header line"),
    Flag::value("--baseline", "record|check", "record the grid's baseline, or diff against it (exit 1 on drift)"),
    Flag::value("--baseline-dir", "path", "the baseline directory (default baselines)"),
    Flag::value("--allow", "id,...", "record despite these veto ids"),
    Flag::value("--tol", "col=abs[:rel],...", "per-column check tolerances"),
];

/// `scenario_sweep`'s command line: the worker a `sweep_drive`
/// coordinator forwards [`GRID_FLAGS`] to.
#[rustfmt::skip]
pub const SCENARIO_SWEEP: Cli = Cli::new("scenario_sweep", &[GRID_FLAGS, REPORT_FLAGS, &[
    Flag::value("--cells", "a..b", "run only this half-open cell range (grid order, grid seeds)"),
    THREADS,
    Flag::value("--json", "path|-", "write the report as JSON (- = stdout)"),
    Flag::switch("--stream", "write sweep_drive's framed worker protocol to stdout"),
    Flag::value("--stream-fail-after", "rows", "test only: exit 7 after this many row frames"),
]]);

/// `sweep_drive`'s command line. `--cells` and `--threads` are declared
/// only so the coordinator can point at `--shards`/`--worker-threads`.
#[rustfmt::skip]
pub const SWEEP_DRIVE: Cli = Cli::new("sweep_drive", &[GRID_FLAGS, REPORT_FLAGS, &[
    Flag::value("--workers", "n", "balanced contiguous shards, one worker each (default 2)"),
    Flag::value("--shards", "a..b,...", "an explicit contiguous shard plan instead of --workers"),
    Flag::value("--worker-exe", "path", "the worker binary (default: the sibling scenario_sweep)"),
    Flag::value("--worker-threads", "k", "threads per worker (default 1)"),
    Flag::switch("--json-progress", "one {\"schema\":1,...} stderr line per finished shard"),
    Flag::value("--fault-worker", "w:k[:attempts]", "test only: crash worker w after k rows, attempts times (default 1)"),
    Flag::value("--cells", "a..b", "rejected: a worker flag (see --shards)"),
    Flag::value("--threads", "k", "rejected: a worker flag (see --worker-threads)"),
]]);

/// Whether `args` select grid mode: any of [`GRID_FLAGS`] but
/// `--rounds`, which also sets the rounds of `scenario_sweep`'s presets.
pub fn grid_mode_requested(args: &Args) -> bool {
    GRID_FLAGS
        .iter()
        .any(|flag| flag.name != "--rounds" && args.has(flag.name))
}

/// Re-serialises the [`GRID_FLAGS`] in `args`, so a coordinator hands
/// its workers exactly the grid it parsed: a worker parsing these
/// arguments builds the identical [`SweepGrid`] through [`grid_from`]
/// (and the protocol's grid-address header catches any disagreement).
pub fn forwarded_grid_args(args: &Args) -> Vec<String> {
    let mut forwarded = Vec::new();
    for flag in GRID_FLAGS.iter().filter(|flag| args.has(flag.name)) {
        forwarded.push(flag.name.to_string());
        forwarded.extend(args.value(flag.name).map(str::to_string));
    }
    forwarded
}

/// The sweeper [`THREADS`] asks for; without the flag, one sized to the
/// machine's available parallelism.
///
/// # Errors
///
/// Returns a message naming the value when it is not a positive
/// integer.
pub fn sweeper_from(args: &Args) -> Result<ParallelSweeper, String> {
    Ok(args
        .get::<NonZeroUsize>(THREADS.name)?
        .map_or_else(ParallelSweeper::auto, |k| ParallelSweeper::new(k.get())))
}

/// The veto ids `--allow` overrides (none without the flag).
///
/// # Errors
///
/// Returns a message naming an unknown id.
pub fn allowed(args: &Args) -> Result<Vec<&'static str>, String> {
    Ok(args.parse_with("--allow", parse_allow)?.unwrap_or_default())
}

/// The near-exact diff configuration plus any `--tol col=abs[:rel],…`
/// entries.
///
/// # Errors
///
/// Returns a message naming a malformed tolerance entry.
pub fn diff_config(args: &Args) -> Result<DiffConfig, String> {
    let tolerances = args.parse_with("--tol", parse_tolerances)?;
    Ok(tolerances
        .into_iter()
        .flatten()
        .fold(DiffConfig::near_exact(), |config, (column, tolerance)| {
            config.with_column(column, tolerance)
        }))
}

/// [`grid_from`] with its base scenario validated (the axes are always
/// valid), so an impossible combination is a CLI error rather than a
/// panic inside a sweep worker.
///
/// # Errors
///
/// Returns the flag-parsing error or the validation failure.
pub fn runnable_grid(args: &Args) -> Result<SweepGrid, String> {
    let grid = grid_from(args)?;
    grid.base()
        .validate()
        .map_err(|e| format!("invalid scenario: {e}"))?;
    Ok(grid)
}

/// Builds the grid-mode [`SweepGrid`] that `args`' [`GRID_FLAGS`]
/// describe — the one construction `scenario_sweep` executes,
/// `sweep_lint grid` statically analyzes and `sweep_drive` distributes,
/// so the binaries can never disagree about what a flag set means.
///
/// `--golden <name>` short-circuits to the named committed golden grid
/// (see [`crate::golden`]) and rejects every other grid flag: the point
/// of naming a golden grid is hitting its exact content address.
///
/// The base scenario defaults to a LandShark with the stealthy fixed
/// attacker on sensor 0 (open-loop) or Table II's random-each-round
/// attacker (closed-loop: `--closed-loop`, or any of `--target`,
/// `--deltas`, `--platoon`); the axis flags widen the grid.
///
/// The grid is deliberately **not** validated: `sweep_lint` reports an
/// invalid base scenario as lint findings, the sweeping binaries go
/// through [`runnable_grid`].
///
/// # Errors
///
/// Returns the first flag-parsing error, naming the offending flag.
pub fn grid_from(args: &Args) -> Result<SweepGrid, String> {
    if let Some(name) = args.value("--golden") {
        let shaping: Vec<&str> = GRID_FLAGS
            .iter()
            .map(|flag| flag.name)
            .filter(|&flag| flag != "--golden" && args.has(flag))
            .collect();
        if !shaping.is_empty() {
            return Err(format!(
                "--golden names a committed grid; drop {}",
                shaping.join(", ")
            ));
        }
        return crate::golden::find(name);
    }
    let target = args.get::<f64>("--target")?;
    let deltas = args.parse_with("--deltas", parse_deltas)?;
    let platoon = args.parse_with("--platoon", parse_platoon)?;
    let closed_loop =
        args.has("--closed-loop") || target.is_some() || deltas.is_some() || platoon.is_some();
    let suite = args
        .parse_with("--suite", parse_suite)?
        .unwrap_or(SuiteSpec::Landshark);
    // Open-loop grids default to the stealthy fixed attacker on the
    // most precise sensor; closed-loop grids default to Table II's
    // "any sensor can be attacked" model.
    let mut base = if closed_loop {
        Scenario::new("sweep", suite).with_attacker(AttackerSpec::RandomEachRound)
    } else {
        Scenario::new("sweep", suite).with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
    };
    if let Some(strategy) = args.parse_with("--strategy", parse_strategy)? {
        base = base.with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy,
        });
    }
    if args.has("--honest") {
        base = base.with_attacker(AttackerSpec::None);
    }
    if let Some((sensor, fault)) = args.parse_with("--fault", parse_fault)? {
        base = base.with_fault(sensor, fault);
    }
    if let Some(f) = args.get::<usize>("--f")? {
        base = base.with_f(f);
    }
    if closed_loop {
        let mut spec = ClosedLoopSpec::new(target.unwrap_or(10.0));
        if let Some((up, down)) = deltas {
            spec = spec.with_deltas(up, down);
        }
        if let Some((size, gap)) = platoon {
            spec = spec.with_platoon(size, gap);
        }
        base = base.with_closed_loop(spec);
    }
    if let Some(rounds) = args.get::<u64>("--rounds")? {
        base = base.with_rounds(rounds);
    }

    let mut grid = SweepGrid::new(base);
    // --fusers and --history feed one axis: explicit fusers first, then
    // one historical entry per swept rate bound.
    let mut fusers = args.parse_with("--fusers", parse_fusers)?;
    if let Some(rates) = args.parse_with("--history", parse_numbers)? {
        let historical = rates
            .into_iter()
            .map(|max_rate| FuserSpec::Historical { max_rate, dt: 0.1 });
        fusers.get_or_insert_with(Vec::new).extend(historical);
    }
    if let Some(fusers) = fusers {
        grid = grid.fusers(fusers);
    }
    if let Some(detectors) = args.parse_with("--detectors", parse_detectors)? {
        grid = grid.detectors(detectors);
    }
    if let Some(schedules) = args.parse_with("--schedules", parse_schedules)? {
        grid = grid.schedules(schedules);
    }
    if let Some(seeds) = args.parse_with("--seeds", parse_numbers)? {
        grid = grid.seeds(seeds);
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuser_axis_round_trips_all_names() {
        let specs = parse_fusers(
            "marzullo,brooks-iyengar,intersection,hull,inverse-variance,midpoint-median,historical",
        )
        .unwrap();
        assert_eq!(specs.len(), 7);
        assert_eq!(specs[0], FuserSpec::Marzullo);
        assert_eq!(
            specs[6],
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1
            }
        );
        assert_eq!(
            parse_fusers("historical:2.5:0.05").unwrap(),
            vec![FuserSpec::Historical {
                max_rate: 2.5,
                dt: 0.05
            }]
        );
        assert!(parse_fusers("kalman").unwrap_err().contains("kalman"));
        assert!(parse_fusers("historical:x:0.1").is_err());
    }

    #[test]
    fn detector_axis_parses_windowed_params() {
        let specs = parse_detectors("off, immediate, windowed:20:6").unwrap();
        assert_eq!(
            specs,
            vec![
                DetectionMode::Off,
                DetectionMode::Immediate,
                DetectionMode::Windowed {
                    window: 20,
                    tolerance: 6
                }
            ]
        );
        assert!(parse_detectors("windowed:0:1").is_err());
        assert!(parse_detectors("windowed:9").is_err());
        assert!(parse_detectors("sliding").is_err());
    }

    #[test]
    fn schedule_and_integer_axes_parse() {
        assert_eq!(
            parse_schedules("ascending,descending,random").unwrap(),
            vec![
                SchedulePolicy::Ascending,
                SchedulePolicy::Descending,
                SchedulePolicy::Random
            ]
        );
        assert!(parse_schedules("rotating").is_err());
        assert_eq!(parse_numbers::<u64>("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(parse_numbers::<u64>("1,x").is_err());
    }

    #[test]
    fn empty_axes_are_errors_not_empty_vectors() {
        // An all-separator spec must surface as a CLI error, not as
        // Ok(vec![]) that would panic the grid's non-empty assertion.
        for spec in ["", ",", " , "] {
            assert!(parse_fusers(spec).unwrap_err().contains("empty"));
            assert!(parse_detectors(spec).unwrap_err().contains("empty"));
            assert!(parse_schedules(spec).unwrap_err().contains("empty"));
            assert!(parse_numbers::<u64>(spec).unwrap_err().contains("empty"));
        }
    }

    #[test]
    fn deltas_parse_single_and_paired_forms() {
        assert_eq!(parse_deltas("0.5").unwrap(), (0.5, 0.5));
        assert_eq!(parse_deltas("1.0:0.25").unwrap(), (1.0, 0.25));
        assert!(parse_deltas("-0.5").is_err());
        assert!(parse_deltas("0.5:x").is_err());
        assert!(parse_deltas("inf").is_err());
    }

    #[test]
    fn platoon_parses_size_and_optional_gap() {
        assert_eq!(parse_platoon("3").unwrap(), (3, 0.01));
        assert_eq!(parse_platoon("5:0.005").unwrap(), (5, 0.005));
        assert!(parse_platoon("0").is_err());
        assert!(parse_platoon("3:0").is_err());
        assert!(parse_platoon("x").is_err());
    }

    #[test]
    fn f64_list_rejects_non_positive_entries() {
        assert_eq!(
            parse_numbers::<f64>("2.5, 3.5,5").unwrap(),
            vec![2.5, 3.5, 5.0]
        );
        assert!(parse_numbers::<f64>("-1").is_err());
        assert!(parse_numbers::<f64>("0").is_err());
        assert!(parse_numbers::<f64>("x").is_err());
        assert!(parse_numbers::<f64>(",").unwrap_err().contains("empty"));
    }

    #[test]
    fn cell_ranges_parse_half_open() {
        assert_eq!(parse_cells("0..12").unwrap(), 0..12);
        assert_eq!(parse_cells(" 4 .. 9 ").unwrap(), 4..9);
        assert!(parse_cells("5..5").unwrap_err().contains("empty"));
        assert!(parse_cells("9..4").is_err());
        assert!(parse_cells("7").is_err());
        assert!(parse_cells("a..b").is_err());
    }

    #[test]
    fn faults_parse_every_kind() {
        let (sensor, fault) = parse_fault("2:bias:3:0.25").unwrap();
        assert_eq!(sensor, 2);
        assert_eq!(fault.kind(), FaultKind::Bias { offset: 3.0 });
        assert_eq!(fault.probability(), 0.25);
        let (_, stuck) = parse_fault("0:stuck:12:1").unwrap();
        assert_eq!(stuck.kind(), FaultKind::StuckAt { value: 12.0 });
        let (_, scale) = parse_fault("1:scale:1.5:0.4").unwrap();
        assert_eq!(scale.kind(), FaultKind::Scale { factor: 1.5 });
        let (sensor, silent) = parse_fault("3:silent:0.5").unwrap();
        assert_eq!(sensor, 3);
        assert_eq!(silent.kind(), FaultKind::Silent);
        assert_eq!(silent.probability(), 0.5);
        assert!(parse_fault("3:silent:0.5:1").is_err());
        assert!(parse_fault("2:bias:0.25").is_err(), "bias needs its offset");
        assert!(parse_fault("2:flicker:1").is_err());
        assert!(parse_fault("2:bias:3:1.5").is_err(), "probability > 1");
        assert!(parse_fault("x:bias:3:0.5").is_err());
    }

    #[test]
    fn tolerances_parse_abs_and_optional_rel() {
        let tols = parse_tolerances("mean_width=1e-9:1e-6, above_rate=0.005").unwrap();
        assert_eq!(tols.len(), 2);
        assert_eq!(tols[0].0, "mean_width");
        assert_eq!(tols[0].1, Tolerance::new(1e-9, 1e-6));
        assert_eq!(tols[1].1, Tolerance::new(0.005, 0.0));
        assert!(parse_tolerances("mean_width").is_err(), "missing `=`");
        assert!(parse_tolerances("=0.1").is_err(), "empty column");
        assert!(parse_tolerances("w=-1").is_err(), "negative tolerance");
        assert!(parse_tolerances("w=x").is_err());
        assert!(parse_tolerances(",").unwrap_err().contains("empty"));
    }

    #[test]
    fn allow_lists_accept_only_veto_ids() {
        assert_eq!(
            parse_allow("detect-vacuous, order-violation").unwrap(),
            vec!["detect-vacuous", "order-violation"]
        );
        assert_eq!(parse_allow("").unwrap(), Vec::<&str>::new());
        let err = parse_allow("guarantee-unbounded,bogus").unwrap_err();
        assert!(err.contains("unknown veto id `bogus`"), "{err}");
        assert!(
            err.contains("guarantee-unbounded, detect-vacuous, order-violation"),
            "{err}"
        );
    }

    #[test]
    fn strategies_parse_all_names() {
        assert_eq!(
            parse_strategy("phantom-optimal").unwrap(),
            StrategySpec::PhantomOptimal
        );
        assert_eq!(
            parse_strategy("greedy-high").unwrap(),
            StrategySpec::GreedyHigh
        );
        assert_eq!(
            parse_strategy("greedy-low").unwrap(),
            StrategySpec::GreedyLow
        );
        assert_eq!(parse_strategy("truthful").unwrap(), StrategySpec::Truthful);
        assert!(parse_strategy("sneaky").unwrap_err().contains("sneaky"));
    }

    #[test]
    fn suite_parses_landshark_and_widths() {
        assert_eq!(parse_suite("landshark").unwrap(), SuiteSpec::Landshark);
        assert_eq!(
            parse_suite("widths:5,11,17").unwrap(),
            SuiteSpec::Widths(vec![5.0, 11.0, 17.0])
        );
        assert!(parse_suite("widths:").is_err());
        assert!(parse_suite("widths:-1").is_err());
        assert!(parse_suite("tank").is_err());
    }
}
