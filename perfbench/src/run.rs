//! One benchmark run: the untraced run measures the end-to-end metrics,
//! the traced run the per-layer ones. Both verify every row they
//! produce.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use arsf_bench::baseline_ops;
use arsf_core::sweep::store::Baseline as StoredBaseline;
use arsf_core::sweep::{ParallelSweeper, StreamingSweeper, SweepGrid, SweepReport};

use crate::alloc;
use crate::drive::{mismatched_rows, DriveEnv, Invocation};
use crate::layered::{self, LayeredPass};
use crate::measure::{self, Sweeps, THREADS};
use crate::stats::{median, quantile, Spread};
use crate::trace::{self, Layer, Recorder};
use crate::verify;
use crate::workloads::{self, Workload, DEFAULT_SEED};

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("rounds_per_s", "rounds/s"),
    ("rounds_per_s_1t", "rounds/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("attack.forge_calls", "count"),
    ("attack.forge_ns_p50", "ns"),
    ("attack.share", "ratio"),
    ("fusion.fuse_calls", "count"),
    ("fusion.fuse_ns_p50", "ns"),
    ("fusion.share", "ratio"),
    ("fusion.failures", "count"),
    ("detect.assess_calls", "count"),
    ("detect.assess_ns_p50", "ns"),
    ("detect.share", "ratio"),
    ("detect.flag_ratio", "ratio"),
    ("sensor.sample_ns", "ns"),
    ("schedule.order_ns", "ns"),
    ("pipeline.round_ns_p50", "ns"),
    ("pipeline.self_ns", "ns"),
    ("pipeline.allocs_per_round", "count"),
    ("pipeline.alloc_bytes_per_round", "B"),
    ("runner.build_us_p50", "us"),
    ("runner.setup_share", "ratio"),
    ("closed_loop.step_ns_p50", "ns"),
    ("closed_loop.preemptions", "count"),
    ("sweep.busy_ratio", "ratio"),
    ("sweep.scaling_eff", "ratio"),
    ("sweep.csv_ns_per_row", "ns"),
    ("drive.wall_s", "s"),
    ("drive.overhead_s", "s"),
    ("drive.shard_s_max", "s"),
    ("drive.retries", "count"),
    ("drive.stream_bytes_per_row", "B"),
    ("store.check_ms", "ms"),
    ("store.record_ms", "ms"),
    ("analyze.vet_ms", "ms"),
    ("analyze.findings", "count"),
    ("trace.overhead", "ratio"),
];

/// Passes repeat identical work, so their spread is the machine's, not
/// the program's: on a shared 2-vCPU virtual machine, other tenants'
/// load was measured to slow the cores by ~45% for stretches lasting
/// from a second to minutes, and a run's median moves with the share of
/// it that happened to be contended. The end-to-end values are the
/// contended end of the per-pass samples instead — the 10th percentile
/// of a rate, the 90th of a time: nearly every run contains contended
/// moments, so this floor repeats from run to run (over ten-seed sets it
/// spread less than the median or the quiet end), and a code change
/// moves it fully because it slows every pass.
const RATE_QUANTILE: f64 = 0.1;
/// See [`RATE_QUANTILE`].
const TIME_QUANTILE: f64 = 0.9;

/// In-process set-ups measured after each pass pair.
const SETUPS_PER_PAIR: usize = 10;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// The measurement window.
    pub seconds: f64,
    /// Driven binaries and scratch space.
    pub env: DriveEnv,
}

impl Settings {
    /// The instant `fraction` of the window after `start`.
    fn at(&self, start: Instant, fraction: f64) -> Instant {
        start + Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// A run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (units come from [`END_TO_END`] /
    /// [`PER_LAYER`]).
    pub values: BTreeMap<&'static str, f64>,
    /// How each end-to-end value was aggregated, for the text report.
    pub details: BTreeMap<&'static str, String>,
    /// Cells attempted (driven cells included).
    pub attempted: u64,
    /// Cells whose rows failed verification, plus nonzero drive exits.
    pub failed: u64,
    /// One line per verification failure.
    pub problems: Vec<String>,
    /// The traced run's spans.
    pub recorder: Option<Recorder>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A rate: the [`RATE_QUANTILE`] of the per-pass samples.
    fn set_rate(&mut self, name: &'static str, samples: &[f64], what: &str) {
        self.set_quantile(name, samples, RATE_QUANTILE, what);
    }

    /// A time: the [`TIME_QUANTILE`] of the per-pass samples.
    fn set_time(&mut self, name: &'static str, samples: &[f64], what: &str) {
        self.set_quantile(name, samples, TIME_QUANTILE, what);
    }

    fn set_quantile(&mut self, name: &'static str, samples: &[f64], q: f64, what: &str) {
        let spread = Spread::of(samples);
        self.set(name, quantile(samples, q));
        let tail = |q: f64| quantile(samples, q);
        self.details.insert(
            name,
            format!(
                "p{:.0} of {} {what}; p5 {:.6} p10 {:.6} q1 {:.6} median {:.6} q3 {:.6} \
                 p90 {:.6} p95 {:.6}",
                q * 100.0,
                spread.count,
                tail(0.05),
                tail(0.1),
                spread.q1,
                spread.median,
                spread.q3,
                tail(0.9),
                tail(0.95)
            ),
        );
    }

    fn fail(&mut self, cells: u64, problem: String) {
        self.failed += cells;
        self.problems.push(problem);
    }

    /// Vets each report and, at the default seed, diffs the golden ones.
    fn verify_reports(&mut self, grids: &[SweepGrid], reports: &[SweepReport], golden: bool) {
        for (grid, report) in grids.iter().zip(reports) {
            let cells = report.len() as u64;
            let errors = verify::vet_errors(grid, report);
            if !errors.is_empty() {
                self.fail(
                    (errors.len() as u64).min(cells),
                    format!("analyzer vets: {}", errors.join("; ")),
                );
            }
            if golden {
                match verify::golden_drift(grid, report) {
                    Ok(drifts) if drifts.is_empty() => {}
                    Ok(drifts) => self.fail(
                        (drifts.len() as u64).min(cells),
                        format!("golden drift: {}", drifts.join("; ")),
                    ),
                    Err(e) => self.fail(cells, e),
                }
            }
        }
    }

    fn sweeps_checked(&mut self, sweeps: &Sweeps) {
        self.attempted += sweeps.attempted;
        if sweeps.mismatched > 0 {
            self.fail(
                sweeps.mismatched,
                format!(
                    "{} row(s) differed across passes or thread counts",
                    sweeps.mismatched
                ),
            );
        }
    }

    /// The golden checks of one workload's in-process reports: vets at
    /// every seed, the committed baselines at the default seed.
    fn verify_workload(
        &mut self,
        settings: &Settings,
        grids: &[SweepGrid],
        reports: &[SweepReport],
    ) {
        let default_seed = settings.seed == DEFAULT_SEED;
        match settings.workload {
            Workload::ClosedLoop => {
                self.verify_reports(grids, reports, false);
                // The timed grids have long cells; the committed Table II
                // grid is checked by one extra pass at its 200 rounds.
                let golden = workloads::closed_loop_golden(settings.seed);
                let report = ParallelSweeper::new(THREADS).run(&golden);
                self.attempted += report.len() as u64;
                self.verify_reports(&[golden], &[report], default_seed);
            }
            Workload::OpenHonestWide => self.verify_reports(grids, reports, false),
            Workload::OpenAttacked => self.verify_reports(grids, reports, default_seed),
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(settings: &Settings) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let grids = workloads::grids(settings.workload, settings.seed);
    // Set-ups are interleaved with the passes, so both sample the same
    // mix of quiet and contended moments on a shared machine.
    let mut sweeps = Sweeps::warmed_up(&grids);
    let mut setup = Vec::new();
    while sweeps.busy.len() < 3 || Instant::now() < settings.at(start, 1.0) {
        sweeps.pair(&grids);
        setup.extend(measure::setup_samples(
            settings.workload,
            settings.seed,
            SETUPS_PER_PAIR,
        ));
    }
    out.sweeps_checked(&sweeps);
    out.verify_workload(settings, &grids, &sweeps.reports);

    out.set_rate("rounds_per_s", &sweeps.rps_2t, "2-thread passes");
    out.set_rate("rounds_per_s_1t", &sweeps.rps_1t, "1-thread passes");
    for (name, q) in [("cell_ms_p50", 0.5), ("cell_ms_p90", 0.9)] {
        let per_pass: Vec<f64> = sweeps
            .cell_ms
            .iter()
            .map(|cells| quantile(cells, q))
            .collect();
        out.set_time(name, &per_pass, "1-thread passes' per-cell quantiles");
    }
    out.set_time("setup_s", &setup, "set-ups");
    out.set("peak_rss_mb", alloc::peak_rss_self_mb());
    out.details
        .insert("peak_rss_mb", "VmHWM of the benchmark process".into());
    out
}

/// Counts one driven invocation: its cells, a nonzero exit and every
/// merged row that differs from the in-process sweep.
fn tally(out: &mut Outcome, inv: &Invocation, expected: &str, cells: u64) {
    out.attempted += cells;
    if !inv.exited_ok {
        out.fail(1, "sweep_drive exited nonzero".into());
    }
    let mismatched = mismatched_rows(&inv.csv, expected);
    if mismatched > 0 {
        out.fail(
            mismatched,
            format!("{mismatched} driven row(s) differ from the in-process sweep"),
        );
    }
}

/// In-process reference of the driven grid, vetted and (at the default
/// seed) diffed against the committed baseline.
fn drive_reference(settings: &Settings, out: &mut Outcome) -> (SweepGrid, SweepReport) {
    let grid = workloads::drive_grid(settings.seed);
    let report = ParallelSweeper::new(THREADS).run(&grid);
    out.attempted += report.len() as u64;
    out.verify_workload(
        settings,
        std::slice::from_ref(&grid),
        std::slice::from_ref(&report),
    );
    (grid, report)
}

/// The traced run: every per-layer metric.
///
/// # Errors
///
/// Returns a message when a driven binary cannot be run.
pub fn traced(settings: &Settings) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut out = Outcome::default();
    let grids = workloads::grids(settings.workload, settings.seed);
    // The driven sweep runs `open-attacked`'s grid, so its traced run
    // also measures the drive and store layers, in the first half.
    let drive = settings.workload == Workload::OpenAttacked;
    let in_process_from = if drive {
        traced_drive(settings, start, &mut out)?;
        0.5
    } else {
        0.0
    };
    let span = 1.0 - in_process_from;
    let phase = |fraction: f64| settings.at(start, in_process_from + span * fraction);

    trace::install();
    let mut passes: Vec<LayeredPass> = Vec::new();
    while passes.is_empty() || Instant::now() < phase(0.5) {
        passes.push(layered::layered_pass(&grids, passes.len()));
    }
    let recorder = trace::take();

    let sweeps = measure::sweep_passes(&grids, phase(0.8), 2);
    out.sweeps_checked(&sweeps);
    if !drive {
        out.verify_workload(settings, &grids, &sweeps.reports);
    }

    let budget = Duration::from_secs_f64(settings.seconds * span * 0.02);
    let first = grids[0].scenario(0);
    out.set("sensor.sample_ns", layered::sample_ns(&first, budget));
    let mut schedules = Vec::new();
    for grid in &grids {
        for policy in grid.schedule_axis() {
            if !schedules.contains(policy) {
                schedules.push(policy.clone());
            }
        }
    }
    let order: Vec<f64> = schedules
        .into_iter()
        .map(|policy| layered::order_ns(&first.clone().with_schedule(policy), budget))
        .collect();
    out.set(
        "schedule.order_ns",
        order.iter().sum::<f64>() / order.len() as f64,
    );

    let mut csv_ns = Vec::new();
    while csv_ns.len() < 5 || Instant::now() < phase(0.9) {
        let t = Instant::now();
        for report in &sweeps.reports {
            std::hint::black_box(report.to_csv());
        }
        let rows: usize = sweeps.reports.iter().map(SweepReport::len).sum();
        csv_ns.push(t.elapsed().as_nanos() as f64 / rows as f64);
    }
    out.set("sweep.csv_ns_per_row", median(&csv_ns));

    let mut vet_ms = Vec::new();
    let mut findings = 0;
    while vet_ms.len() < 3 || Instant::now() < phase(1.0) {
        let mut seconds = 0.0;
        findings = 0;
        for (grid, report) in grids.iter().zip(&sweeps.reports) {
            let (s, n) = verify::timed_analysis(grid, report);
            seconds += s;
            findings += n;
        }
        vet_ms.push(seconds * 1e3);
    }
    out.set("analyze.vet_ms", median(&vet_ms));
    out.set("analyze.findings", findings as f64);

    layer_metrics(&mut out, &recorder, &passes, &sweeps);
    out.recorder = Some(recorder);
    Ok(out)
}

/// Drive and store metrics, measured in the first half of the traced
/// `open-attacked` run.
fn traced_drive(settings: &Settings, start: Instant, out: &mut Outcome) -> Result<(), String> {
    let env = &settings.env;
    std::fs::create_dir_all(env.out_dir.as_path())
        .map_err(|e| format!("creating {}: {e}", env.out_dir.display()))?;
    let (grid, report) = drive_reference(settings, out);
    let (grid, report) = (&grid, &report);
    let cells = grid.len() as u64;
    let expected = report.to_csv();

    // Store first: at other seeds the checks read what it records.
    let current = StoredBaseline::from_report(grid, report);
    let record_dir = env.record_dir().to_string_lossy().into_owned();
    let check_dir = env.check_dir().to_string_lossy().into_owned();
    let (mut record_ms, mut check_ms) = (Vec::new(), Vec::new());
    while check_ms.len() < 3 || Instant::now() < settings.at(start, 0.1) {
        let t = Instant::now();
        if let Err(e) = baseline_ops::record(grid, &current, &record_dir) {
            out.fail(cells, format!("recording the baseline: {e}"));
        }
        record_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        match baseline_ops::check(grid, &current, &check_dir) {
            Ok((_, false)) => {}
            Ok((rendered, true)) => out.fail(cells, format!("baseline drift: {rendered}")),
            Err(e) => out.fail(cells, format!("checking the baseline: {e}")),
        }
        check_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("store.record_ms", median(&record_ms));
    out.set("store.check_ms", median(&check_ms));

    let (mut walls, mut shard_max, mut retries) = (Vec::new(), Vec::new(), 0);
    while walls.len() < 3 || Instant::now() < settings.at(start, 0.38) {
        let inv = env.invoke(THREADS)?;
        tally(out, &inv, &expected, cells);
        walls.push(inv.wall_s);
        shard_max.push(inv.shards.iter().map(|s| s.0).fold(0.0, f64::max));
        retries += inv.shards.iter().filter(|s| s.1 > 1).count();
    }
    let streaming = StreamingSweeper::new(THREADS);
    let mut in_process = Vec::new();
    while in_process.len() < 5 || Instant::now() < settings.at(start, 0.48) {
        let t = Instant::now();
        std::hint::black_box(streaming.run(grid));
        in_process.push(t.elapsed().as_secs_f64());
    }
    out.set("drive.wall_s", median(&walls));
    out.set("drive.overhead_s", median(&walls) - median(&in_process));
    out.set("drive.shard_s_max", median(&shard_max));
    out.set("drive.retries", retries as f64);
    out.set(
        "drive.stream_bytes_per_row",
        env.stream_bytes_per_row(grid.len())?,
    );
    Ok(())
}

/// Folds the recorder, the layered passes and the sweep passes into the
/// per-layer metrics. Counts are per pass over the workload.
fn layer_metrics(out: &mut Outcome, rec: &Recorder, passes: &[LayeredPass], sweeps: &Sweeps) {
    let n = passes.len().max(1) as f64;
    let per_pass = |layer: Layer| rec.total(layer).calls as f64 / n;
    let round_ns = rec.total(Layer::Round).ns as f64;
    let share = |layer: Layer| {
        if round_ns > 0.0 {
            rec.total(layer).ns as f64 / round_ns
        } else {
            0.0
        }
    };
    let p50 = |layer: Layer| rec.histogram(layer).quantile(0.5);
    out.set("attack.forge_calls", per_pass(Layer::Forge));
    out.set("attack.forge_ns_p50", p50(Layer::Forge));
    out.set("attack.share", share(Layer::Forge));
    out.set("fusion.fuse_calls", per_pass(Layer::Fuse));
    out.set("fusion.fuse_ns_p50", p50(Layer::Fuse));
    out.set("fusion.share", share(Layer::Fuse));
    out.set("fusion.failures", rec.fuse_failures as f64 / n);
    out.set("detect.assess_calls", per_pass(Layer::Assess));
    out.set("detect.assess_ns_p50", p50(Layer::Assess));
    out.set("detect.share", share(Layer::Assess));
    let assessed = rec.total(Layer::Assess).calls;
    out.set(
        "detect.flag_ratio",
        if assessed > 0 {
            rec.flagged as f64 / assessed as f64
        } else {
            0.0
        },
    );
    let rounds = rec.total(Layer::Round).calls.max(1) as f64;
    out.set("pipeline.round_ns_p50", p50(Layer::Round));
    out.set("pipeline.self_ns", rec.round_self_ns as f64 / rounds);
    let allocs = passes.iter().fold((0u64, 0u64, 0u64), |acc, p| {
        (
            acc.0 + p.allocs.rounds,
            acc.1 + p.allocs.count,
            acc.2 + p.allocs.bytes,
        )
    });
    let alloc_rounds = allocs.0.max(1) as f64;
    out.set("pipeline.allocs_per_round", allocs.1 as f64 / alloc_rounds);
    out.set(
        "pipeline.alloc_bytes_per_round",
        allocs.2 as f64 / alloc_rounds,
    );

    let build: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.build_ns.iter().map(|&ns| ns as f64))
        .collect();
    let build_total: f64 = build.iter().sum();
    let runner_total: f64 = passes
        .iter()
        .flat_map(|p| p.runner_ns.iter().map(|&ns| ns as f64))
        .sum();
    out.set("runner.build_us_p50", median(&build) / 1e3);
    out.set("runner.setup_share", build_total / runner_total.max(1.0));

    out.set("closed_loop.step_ns_p50", p50(Layer::Step));
    out.set(
        "closed_loop.preemptions",
        passes.iter().map(|p| p.preemptions).sum::<u64>() as f64 / n,
    );

    out.set("sweep.busy_ratio", median(&sweeps.busy));
    out.set(
        "sweep.scaling_eff",
        quantile(&sweeps.rps_2t, RATE_QUANTILE)
            / (THREADS as f64 * quantile(&sweeps.rps_1t, RATE_QUANTILE)),
    );

    let traced_ns: u64 = passes.iter().map(|p| p.traced_ns).sum();
    out.set(
        "trace.overhead",
        1.0 - runner_total / (traced_ns.max(1) as f64),
    );
}
