//! Parsers turning `--axis a,b,c` command-line values into sweep axes.
//!
//! Shared by the `scenario_sweep` binary (and usable from any harness):
//! each parser accepts a comma-separated list and returns either the
//! decoded non-empty axis or a human-readable error naming the
//! offending token — never `Ok(vec![])`, which would trip the grid's
//! non-empty-axis assertion downstream.

use arsf_analyze::VERIFIERS;
use arsf_core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
};
use arsf_core::sweep::diff::Tolerance;
use arsf_core::sweep::{ParallelSweeper, SweepGrid};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};
use std::ops::Range;

fn non_empty<T>(axis: &str, values: Vec<T>) -> Result<Vec<T>, String> {
    if values.is_empty() {
        Err(format!("{axis} axis is empty"))
    } else {
        Ok(values)
    }
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
pub fn parse_fusers(spec: &str) -> Result<Vec<FuserSpec>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|token| match token {
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
        .collect::<Result<Vec<_>, String>>()
        .and_then(|v| non_empty("fusers", v))
}

/// Parses a detector axis, e.g. `off,immediate,windowed:20:6`.
///
/// # Errors
///
/// Returns a message naming the first unrecognised token.
pub fn parse_detectors(spec: &str) -> Result<Vec<DetectionMode>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|token| match token {
            "off" => Ok(DetectionMode::Off),
            "immediate" => Ok(DetectionMode::Immediate),
            other => match other.strip_prefix("windowed:") {
                Some(params) => {
                    let (window, tolerance) = params.split_once(':').ok_or_else(|| {
                        format!("expected windowed:window:tolerance, got `{other}`")
                    })?;
                    let window: usize = window
                        .parse()
                        .map_err(|_| format!("bad window in `{other}`"))?;
                    let tolerance: usize = tolerance
                        .parse()
                        .map_err(|_| format!("bad tolerance in `{other}`"))?;
                    if window == 0 {
                        return Err(format!("window must be positive in `{other}`"));
                    }
                    Ok(DetectionMode::Windowed { window, tolerance })
                }
                None => Err(format!("unknown detector `{other}`")),
            },
        })
        .collect::<Result<Vec<_>, String>>()
        .and_then(|v| non_empty("detectors", v))
}

/// Parses a schedule axis, e.g. `ascending,descending,random`.
///
/// # Errors
///
/// Returns a message naming the first unrecognised token.
pub fn parse_schedules(spec: &str) -> Result<Vec<SchedulePolicy>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|token| match token {
            "ascending" => Ok(SchedulePolicy::Ascending),
            "descending" => Ok(SchedulePolicy::Descending),
            "random" => Ok(SchedulePolicy::Random),
            other => Err(format!("unknown schedule `{other}`")),
        })
        .collect::<Result<Vec<_>, String>>()
        .and_then(|v| non_empty("schedules", v))
}

/// Parses an integer list, e.g. a seed axis `1,2,3`.
///
/// # Errors
///
/// Returns a message naming the first non-integer token.
pub fn parse_u64_list(spec: &str) -> Result<Vec<u64>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|token| token.parse().map_err(|_| format!("bad integer `{token}`")))
        .collect::<Result<Vec<_>, String>>()
        .and_then(|v| non_empty("integer", v))
}

/// Parses a positive-float list, e.g. a `--history` rate axis
/// `2.5,3.5,5`.
///
/// # Errors
///
/// Returns a message naming the first token that is not a positive
/// finite number.
pub fn parse_f64_list(spec: &str) -> Result<Vec<f64>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|token| {
            token
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("bad positive number `{token}`"))
        })
        .collect::<Result<Vec<_>, String>>()
        .and_then(|v| non_empty("number", v))
}

/// Parses a half-open cell range `a..b` (grid-order indices, `a < b`),
/// the `--cells` shard one process takes of a larger sweep.
///
/// # Errors
///
/// Returns a message when the separator is missing, an endpoint is not
/// an integer, or the range is empty.
pub fn parse_cells(spec: &str) -> Result<Range<usize>, String> {
    let (start, end) = spec
        .split_once("..")
        .ok_or_else(|| format!("expected a half-open range `a..b`, got `{spec}`"))?;
    let parse_one = |token: &str| {
        token
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad cell index `{}`", token.trim()))
    };
    let (start, end) = (parse_one(start)?, parse_one(end)?);
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
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|entry| {
            let (column, tols) = entry
                .split_once('=')
                .ok_or_else(|| format!("expected column=abs[:rel], got `{entry}`"))?;
            let column = column.trim();
            if column.is_empty() {
                return Err(format!("empty column name in `{entry}`"));
            }
            let (abs, rel) = match tols.split_once(':') {
                Some((abs, rel)) => (parse_component(abs, entry)?, parse_component(rel, entry)?),
                None => (parse_component(tols, entry)?, 0.0),
            };
            Ok((column.to_string(), Tolerance::new(abs, rel)))
        })
        .collect::<Result<Vec<_>, String>>()
        .and_then(|v| non_empty("tolerance", v))
}

/// Parses a record-time veto override list, e.g.
/// `detect-vacuous,order-violation`: each entry must be the veto id of
/// one of the [`VERIFIERS`] (`guarantee-unbounded`, `detect-vacuous`,
/// `order-violation`).
///
/// # Errors
///
/// Returns a message naming the unknown id and listing the accepted ones.
pub fn parse_allow(spec: &str) -> Result<Vec<&'static str>, String> {
    let known: Vec<&'static str> = VERIFIERS.iter().map(|v| v.veto_id).collect();
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|id| {
            known.iter().copied().find(|k| *k == id).ok_or_else(|| {
                format!(
                    "--allow: unknown veto id `{id}` (accepted: {})",
                    known.join(", ")
                )
            })
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
pub fn parse_suite(spec: &str) -> Result<SuiteSpec, String> {
    match spec.trim() {
        "landshark" => Ok(SuiteSpec::Landshark),
        other => match other.strip_prefix("widths:") {
            Some(list) => {
                let widths: Vec<f64> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|t| !t.is_empty())
                    .map(|t| {
                        t.parse::<f64>()
                            .ok()
                            .filter(|w| w.is_finite() && *w > 0.0)
                            .ok_or_else(|| format!("bad width `{t}`"))
                    })
                    .collect::<Result<_, _>>()?;
                if widths.is_empty() {
                    return Err("widths suite needs at least one width".to_string());
                }
                Ok(SuiteSpec::Widths(widths))
            }
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
pub fn parse_deltas(spec: &str) -> Result<(f64, f64), String> {
    let parse_one = |token: &str| {
        token
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|d| d.is_finite() && *d >= 0.0)
            .ok_or_else(|| format!("bad envelope half-width `{token}`"))
    };
    match spec.split_once(':') {
        Some((up, down)) => Ok((parse_one(up)?, parse_one(down)?)),
        None => {
            let both = parse_one(spec)?;
            Ok((both, both))
        }
    }
}

/// Parses a platoon spec `size[:gap_miles]` (default gap 0.01 miles),
/// e.g. `3` or `3:0.005`.
///
/// # Errors
///
/// Returns a message when the size is zero or the gap is not a positive
/// number.
pub fn parse_platoon(spec: &str) -> Result<(usize, f64), String> {
    let (size, gap) = match spec.split_once(':') {
        Some((size, gap)) => (size, Some(gap)),
        None => (spec, None),
    };
    let size: usize = size
        .trim()
        .parse()
        .ok()
        .filter(|s| *s > 0)
        .ok_or_else(|| format!("bad platoon size `{}`", size.trim()))?;
    let gap = match gap {
        None => 0.01,
        Some(token) => token
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|g| g.is_finite() && *g > 0.0)
            .ok_or_else(|| format!("bad platoon gap `{}`", token.trim()))?,
    };
    Ok((size, gap))
}

/// The grid-shaping flags that switch `scenario_sweep` (and feed
/// `sweep_lint grid`) into grid mode, plus the boolean `--honest` and
/// the closed-loop family handled separately.
const AXIS_FLAGS: [&str; 10] = [
    "--fusers",
    "--detectors",
    "--schedules",
    "--history",
    "--seeds",
    "--suite",
    "--fault",
    "--strategy",
    "--cells",
    "--f",
];

/// The value flags that imply closed-loop execution.
const CLOSED_LOOP_FLAGS: [&str; 3] = ["--target", "--deltas", "--platoon"];

/// Whether the process arguments imply closed-loop execution
/// (`--closed-loop` itself, or any flag that only makes sense there).
pub fn closed_loop_requested() -> bool {
    crate::has_flag("--closed-loop")
        || CLOSED_LOOP_FLAGS
            .iter()
            .any(|flag| crate::arg_value(flag).is_some())
}

/// Whether the process arguments select grid mode (any axis flag,
/// `--honest`, `--golden`, or the closed-loop family).
pub fn grid_mode_requested() -> bool {
    AXIS_FLAGS
        .iter()
        .any(|flag| crate::arg_value(flag).is_some())
        || crate::has_flag("--honest")
        || crate::arg_value("--golden").is_some()
        || closed_loop_requested()
}

/// The value flags that shape the grid (base scenario or axes) and must
/// therefore be forwarded verbatim from a `sweep_drive` coordinator to
/// its `scenario_sweep --stream` workers. `--cells` is deliberately
/// absent: the coordinator assigns each worker its own range.
const FORWARDED_VALUE_FLAGS: [&str; 14] = [
    "--golden",
    "--fusers",
    "--detectors",
    "--schedules",
    "--history",
    "--seeds",
    "--suite",
    "--fault",
    "--strategy",
    "--f",
    "--rounds",
    "--target",
    "--deltas",
    "--platoon",
];

/// The boolean flags that shape the grid.
const FORWARDED_BOOL_FLAGS: [&str; 2] = ["--honest", "--closed-loop"];

/// Re-serialises the process's grid-defining flags, so a coordinator
/// can hand its workers exactly the grid it parsed: a worker running
/// `scenario_sweep` with these arguments calls [`grid_from_args`] on
/// the same flag set and reconstructs the identical [`SweepGrid`] (the
/// shared construction makes disagreement impossible; the protocol's
/// grid-address header makes it detectable anyway).
pub fn grid_args_for_forwarding() -> Vec<String> {
    let mut args = Vec::new();
    for flag in FORWARDED_VALUE_FLAGS {
        if let Some(value) = crate::arg_value(flag) {
            args.push(flag.to_string());
            args.push(value);
        }
    }
    for flag in FORWARDED_BOOL_FLAGS {
        if crate::has_flag(flag) {
            args.push(flag.to_string());
        }
    }
    args
}

/// The `--rounds <n>` override, if given: grid mode's base scenario and
/// `scenario_sweep`'s preset mode both read it here.
///
/// # Errors
///
/// Returns a message naming the value when it is not a non-negative
/// integer.
pub fn rounds_from_args() -> Result<Option<u64>, String> {
    crate::arg_value("--rounds")
        .map(|spec| {
            spec.parse()
                .map_err(|_| format!("--rounds wants a non-negative integer, got `{spec}`"))
        })
        .transpose()
}

/// The sweeper `--threads <n>` asks for; without the flag, one sized to
/// the machine's available parallelism.
///
/// # Errors
///
/// Returns a message naming the value when it is not a positive
/// integer.
pub fn sweeper_from_args() -> Result<ParallelSweeper, String> {
    let Some(spec) = crate::arg_value("--threads") else {
        return Ok(ParallelSweeper::auto());
    };
    match spec.parse::<usize>() {
        Ok(threads) if threads > 0 => Ok(ParallelSweeper::new(threads)),
        _ => Err(format!("--threads wants a positive integer, got `{spec}`")),
    }
}

/// Builds the grid-mode [`SweepGrid`] described by the process's
/// command-line flags — the one construction `scenario_sweep` executes,
/// `sweep_lint grid` statically analyzes and `sweep_drive` distributes,
/// so the binaries can never disagree about what a flag set means.
///
/// `--golden <name>` short-circuits to the named committed golden grid
/// (see [`crate::golden`]) and rejects every other grid-shaping flag:
/// the point of naming a golden grid is hitting its exact content
/// address.
///
/// The base scenario defaults to a LandShark with the stealthy fixed
/// attacker on sensor 0 (open-loop) or Table II's random-each-round
/// attacker (closed-loop), then applies `--suite`, `--strategy`,
/// `--honest`, `--fault`, `--f`, the closed-loop family and `--rounds`;
/// the axis flags (`--fusers`, `--history`, `--detectors`,
/// `--schedules`, `--seeds`) widen the grid.
///
/// The grid is deliberately **not** validated: `scenario_sweep` rejects
/// an invalid base scenario as a CLI error, while `sweep_lint` reports
/// lint findings about it instead — so the decision stays with the
/// caller.
///
/// # Errors
///
/// Returns the first flag-parsing error, naming the offending token.
pub fn grid_from_args() -> Result<SweepGrid, String> {
    if let Some(name) = crate::arg_value("--golden") {
        // A golden grid is a complete, committed definition: mixing it
        // with grid-shaping flags would silently produce a grid with a
        // different content address than the name promises.
        let shaping: Vec<&str> = FORWARDED_VALUE_FLAGS
            .iter()
            .filter(|&&flag| flag != "--golden" && crate::arg_value(flag).is_some())
            .chain(
                FORWARDED_BOOL_FLAGS
                    .iter()
                    .filter(|&&flag| crate::has_flag(flag)),
            )
            .copied()
            .collect();
        if !shaping.is_empty() {
            return Err(format!(
                "--golden names a committed grid; drop {}",
                shaping.join(", ")
            ));
        }
        let names: Vec<&str> = crate::golden::all().iter().map(|(n, _)| *n).collect();
        return crate::golden::find(&name).ok_or_else(|| {
            format!(
                "unknown golden grid `{name}` (one of: {})",
                names.join(", ")
            )
        });
    }
    let closed_loop = closed_loop_requested();
    let suite = match crate::arg_value("--suite") {
        Some(spec) => parse_suite(&spec)?,
        None => SuiteSpec::Landshark,
    };
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
    if let Some(spec) = crate::arg_value("--strategy") {
        base = base.with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: parse_strategy(&spec)?,
        });
    }
    if crate::has_flag("--honest") {
        base = base.with_attacker(AttackerSpec::None);
    }
    if let Some(spec) = crate::arg_value("--fault") {
        let (sensor, fault) = parse_fault(&spec)?;
        base = base.with_fault(sensor, fault);
    }
    if let Some(spec) = crate::arg_value("--f") {
        let f: usize = spec
            .parse()
            .map_err(|_| format!("--f wants a non-negative integer, got `{spec}`"))?;
        base = base.with_f(f);
    }
    if closed_loop {
        let target = match crate::arg_value("--target") {
            None => 10.0,
            Some(spec) => spec
                .parse()
                .ok()
                .filter(|t: &f64| t.is_finite() && *t > 0.0)
                .ok_or("--target wants a positive speed in mph")?,
        };
        let mut spec = ClosedLoopSpec::new(target);
        if let Some(deltas) = crate::arg_value("--deltas") {
            let (up, down) = parse_deltas(&deltas)?;
            spec = spec.with_deltas(up, down);
        }
        if let Some(platoon) = crate::arg_value("--platoon") {
            let (size, gap) = parse_platoon(&platoon)?;
            spec = spec.with_platoon(size, gap);
        }
        base = base.with_closed_loop(spec);
    }
    if let Some(rounds) = rounds_from_args()? {
        base = base.with_rounds(rounds);
    }

    let mut grid = SweepGrid::new(base);
    // --fusers and --history feed one axis: explicit fusers first, then
    // one historical entry per swept rate bound.
    let mut fusers = match crate::arg_value("--fusers") {
        Some(spec) => Some(parse_fusers(&spec)?),
        None => None,
    };
    if let Some(spec) = crate::arg_value("--history") {
        let historical = parse_f64_list(&spec)?
            .into_iter()
            .map(|max_rate| FuserSpec::Historical { max_rate, dt: 0.1 });
        fusers.get_or_insert_with(Vec::new).extend(historical);
    }
    if let Some(fusers) = fusers {
        grid = grid.fusers(fusers);
    }
    if let Some(spec) = crate::arg_value("--detectors") {
        grid = grid.detectors(parse_detectors(&spec)?);
    }
    if let Some(spec) = crate::arg_value("--schedules") {
        grid = grid.schedules(parse_schedules(&spec)?);
    }
    if let Some(spec) = crate::arg_value("--seeds") {
        grid = grid.seeds(parse_u64_list(&spec)?);
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
        assert_eq!(parse_u64_list("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(parse_u64_list("1,x").is_err());
    }

    #[test]
    fn empty_axes_are_errors_not_empty_vectors() {
        // An all-separator spec must surface as a CLI error, not as
        // Ok(vec![]) that would panic the grid's non-empty assertion.
        for spec in ["", ",", " , "] {
            assert!(parse_fusers(spec).unwrap_err().contains("empty"));
            assert!(parse_detectors(spec).unwrap_err().contains("empty"));
            assert!(parse_schedules(spec).unwrap_err().contains("empty"));
            assert!(parse_u64_list(spec).unwrap_err().contains("empty"));
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
        assert_eq!(parse_f64_list("2.5, 3.5,5").unwrap(), vec![2.5, 3.5, 5.0]);
        assert!(parse_f64_list("-1").is_err());
        assert!(parse_f64_list("0").is_err());
        assert!(parse_f64_list("x").is_err());
        assert!(parse_f64_list(",").unwrap_err().contains("empty"));
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
