//! The traced run's cell executors: every layer is reached through its
//! public API from outside the program.
//!
//! * Open-loop cells are rebuilt through `PipelineBuilder` from the
//!   cell's `Scenario` specs with [`Traced`] decorators around the fuser,
//!   attack strategy and detector, then driven by a replay of
//!   `ScenarioRunner`'s round loop, so the result is the runner's
//!   `BatchSummary` exactly.
//! * Closed-loop engines build their pipelines internally, so each
//!   `step_with` call is one span. Their forge/fuse/assess layers are
//!   measured on an open-loop *replica* of the cell: the same suite,
//!   attacker, schedule, fuser, detector and seed at the target speed,
//!   one round per vehicle-round.
//! * `sensor` and `schedule` are timed standalone on the cell's suite.

use std::hint::black_box;
use std::time::{Duration, Instant};

use arsf_attack::AttackerConfig;
use arsf_core::closed_loop::landshark::LandShark;
use arsf_core::closed_loop::platoon::Platoon;
use arsf_core::closed_loop::supervisor::SupervisorAction;
use arsf_core::metrics::WidthStats;
use arsf_core::scenario::{AttackerSpec, Scenario, TruthSpec};
use arsf_core::sweep::SweepGrid;
use arsf_core::{BatchSummary, FusionPipeline, PipelineConfig, RoundOutcome, ScenarioRunner};
use arsf_fusion::Fuser;
use arsf_sensor::SensorSuite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc;
use crate::stats::median;
use crate::trace::{self, Layer, Traced};

/// An open-loop pipeline with every pluggable layer decorated.
type TracedPipeline = FusionPipeline<Traced<Box<dyn Fuser<f64>>>>;

/// A fixed delay injected into one layer's decorator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// The slowed layer (`Forge`, `Fuse` or `Assess`).
    pub layer: Layer,
    /// Busy-wait per call.
    pub delay: Duration,
}

/// The cell's sensor suite with its fault models attached.
fn build_suite(scenario: &Scenario) -> SensorSuite {
    let mut suite = scenario.suite.build();
    for (sensor, fault) in &scenario.faults {
        let faulty = suite.sensors()[*sensor].clone().with_fault(*fault);
        suite.sensors_mut()[*sensor] = faulty;
    }
    suite
}

/// Builds an open-loop cell's pipeline through `PipelineBuilder` with
/// decorated fuser, detector and attack strategy.
fn traced_pipeline(scenario: &Scenario, inject: Option<Injection>) -> TracedPipeline {
    let delay = |layer: Layer| {
        inject
            .filter(|i| i.layer == layer)
            .map_or(Duration::ZERO, |i| i.delay)
    };
    let suite = build_suite(scenario);
    let n = suite.len();
    let config = PipelineConfig::new(scenario.f, scenario.schedule.clone())
        .with_detection(scenario.detector);
    let builder = FusionPipeline::builder(suite)
        .config(config)
        .fuser(Traced::with_delay(
            scenario.fuser.build(scenario.f),
            delay(Layer::Fuse),
        ))
        .detector(Box::new(Traced::with_delay(
            scenario.detector.detector(n),
            delay(Layer::Assess),
        )));
    match scenario.attacker.build(scenario.f) {
        None => builder.build(),
        Some((config, strategy)) => builder
            .attacker(
                config,
                Box::new(Traced::with_delay(strategy, delay(Layer::Forge))),
            )
            .build(),
    }
}

/// Allocations counted inside `run_round_into`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Rounds counted.
    pub rounds: u64,
    /// Allocations (including reallocations) made by them.
    pub count: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

/// Folds one round into a summary exactly as `ScenarioRunner` does.
fn record_round(summary: &mut BatchSummary, out: &RoundOutcome) {
    summary.rounds += 1;
    match &out.fusion {
        Ok(fused) => {
            summary.widths.record(fused.width());
            if !fused.contains(out.truth) {
                summary.truth_lost += 1;
            }
            summary.condemned.clear();
            summary.condemned.extend_from_slice(&out.condemned);
            if !out.flagged.is_empty() {
                summary.flagged_rounds += 1;
            }
        }
        Err(_) => summary.fusion_failures += 1,
    }
}

/// Runs an open-loop cell through its decorated pipeline, replaying
/// `ScenarioRunner`'s round loop; returns the summary the runner
/// reports for the same cell.
///
/// # Panics
///
/// Panics on a closed-loop scenario.
pub fn run_open_cell(
    scenario: &Scenario,
    inject: Option<Injection>,
    allocs: &mut Allocs,
) -> BatchSummary {
    assert!(scenario.closed_loop.is_none(), "open-loop cells only");
    let mut pipeline = traced_pipeline(scenario, inject);
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let mut out = RoundOutcome::default();
    let mut summary = BatchSummary {
        scenario: scenario.name.clone(),
        fuser: pipeline.fuser().name().to_string(),
        detector: pipeline.detector().name().to_string(),
        rounds: 0,
        widths: WidthStats::new(),
        truth_lost: 0,
        fusion_failures: 0,
        flagged_rounds: 0,
        condemned: Vec::new(),
        supervisor: None,
        vehicles: Vec::new(),
    };
    let n = pipeline.suite().len();
    for round in 0..scenario.rounds {
        if scenario.attacker == AttackerSpec::RandomEachRound {
            let sensor = rng.gen_range(0..n);
            pipeline.set_attacker_config(AttackerConfig::new([sensor], scenario.f));
        }
        let truth = scenario.truth.at(round);
        let ((), count, bytes) = alloc::count(|| {
            let start = trace::begin();
            pipeline.run_round_into(truth, &mut rng, &mut out);
            trace::end(Layer::Round, start);
        });
        allocs.rounds += 1;
        allocs.count += count;
        allocs.bytes += bytes;
        record_round(&mut summary, &out);
    }
    summary
}

/// Runs a closed-loop cell through its engine, one span per step
/// (divided by the vehicle count, so single vehicles and platoons share
/// one per-vehicle scale); returns the supervisor preemptions.
///
/// # Panics
///
/// Panics on an open-loop scenario.
pub fn run_closed_cell(scenario: &Scenario) -> u64 {
    let spec = scenario.closed_loop.expect("closed-loop cells only");
    let config = scenario.landshark_config();
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let mut out = RoundOutcome::default();
    let mut preemptions = 0;
    let preempted = |action: SupervisorAction| u64::from(action != SupervisorAction::Nominal);
    match spec.platoon {
        None => {
            let mut shark = LandShark::new(config);
            for _ in 0..scenario.rounds {
                let start = trace::begin();
                let record = shark.step_with(&mut rng, &mut out);
                trace::end(Layer::Step, start);
                preemptions += preempted(record.action);
            }
        }
        Some(platoon) => {
            let mut engine = Platoon::new(platoon.size, platoon.gap_miles, config);
            let size = platoon.size.max(1) as u32;
            for _ in 0..scenario.rounds {
                let start = trace::begin();
                let records = engine.step_with(&mut rng, &mut out);
                if let Some(start) = start {
                    trace::record(Layer::Step, (start.elapsed() / size).as_nanos() as u64);
                }
                preemptions += records.iter().map(|r| preempted(r.action)).sum::<u64>();
            }
        }
    }
    preemptions
}

/// The open-loop replica of a closed-loop cell (see the module docs).
pub fn open_loop_replica(scenario: &Scenario) -> Scenario {
    let spec = scenario.closed_loop.expect("closed-loop cells only");
    let vehicles = spec.platoon.map_or(1, |p| p.size as u64);
    let mut replica = scenario
        .clone()
        .with_truth(TruthSpec::Constant(spec.target_speed))
        .with_rounds(scenario.rounds * vehicles);
    replica.closed_loop = None;
    replica
}

/// What one traced pass over a workload's grids measured besides the
/// spans in the thread's recorder.
#[derive(Debug, Clone, Default)]
pub struct LayeredPass {
    /// Per cell: `ScenarioRunner::try_new`, in nanoseconds.
    pub build_ns: Vec<u64>,
    /// Per cell: `try_new` plus all rounds through the runner.
    pub runner_ns: Vec<u64>,
    /// Σ over cells of the traced execution's wall (decorated build and
    /// rounds open-loop; stepped engine closed-loop).
    pub traced_ns: u64,
    /// Supervisor preemptions over the closed-loop cells.
    pub preemptions: u64,
    /// Allocations inside `run_round_into`.
    pub allocs: Allocs,
}

/// One traced pass: every cell runs once through `ScenarioRunner`
/// (untraced, timing `try_new` and the cell) and once traced.
///
/// # Panics
///
/// Panics if a cell fails `Scenario::validate` (workload grids never do).
pub fn layered_pass(grids: &[SweepGrid], pass: usize) -> LayeredPass {
    let mut out = LayeredPass::default();
    let mut buffer = RoundOutcome::default();
    for (g, grid) in grids.iter().enumerate() {
        for cell in grid.cells() {
            trace::open_cell(g, cell.index, pass);
            let t0 = Instant::now();
            let mut runner =
                ScenarioRunner::try_new(&cell.scenario).expect("workload cells validate");
            let built = t0.elapsed();
            runner.run_into(&mut buffer);
            let cell_wall = t0.elapsed();
            trace::record(Layer::Build, built.as_nanos() as u64);
            out.build_ns.push(built.as_nanos() as u64);
            out.runner_ns.push(cell_wall.as_nanos() as u64);

            let t1 = Instant::now();
            if cell.scenario.closed_loop.is_some() {
                out.preemptions += run_closed_cell(&cell.scenario);
                out.traced_ns += t1.elapsed().as_nanos() as u64;
                let replica = open_loop_replica(&cell.scenario);
                run_open_cell(&replica, None, &mut out.allocs);
            } else {
                run_open_cell(&cell.scenario, None, &mut out.allocs);
                out.traced_ns += t1.elapsed().as_nanos() as u64;
            }
            trace::close_cell();
        }
    }
    out
}

const MICRO_BATCH: u32 = 2000;

/// Median over batches of the per-call nanoseconds of `call`, batching
/// until `budget` is spent (at least five batches).
fn per_call_ns(budget: Duration, mut call: impl FnMut(u32)) -> f64 {
    let start = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for i in 0..MICRO_BATCH {
            call(i);
        }
        batches.push(t.elapsed().as_nanos() as f64 / f64::from(MICRO_BATCH));
    }
    median(&batches)
}

/// The truth a cell samples at: its first-round truth open-loop, the
/// target speed closed-loop.
fn sample_truth(scenario: &Scenario) -> f64 {
    scenario
        .closed_loop
        .map_or(scenario.truth.at(0), |spec| spec.target_speed)
}

/// `sensor.sample_ns`: standalone `SensorSuite::sample_all_into` on the
/// cell's suite.
pub fn sample_ns(scenario: &Scenario, budget: Duration) -> f64 {
    let mut suite = build_suite(scenario);
    let truth = sample_truth(scenario);
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let mut readings = Vec::with_capacity(suite.len());
    per_call_ns(budget, |_| {
        suite.sample_all_into(black_box(truth), &mut rng, &mut readings);
        black_box(&readings);
    })
}

/// `schedule.order_ns`: standalone `SchedulePolicy::order` over the
/// cell's suite widths.
pub fn order_ns(scenario: &Scenario, budget: Duration) -> f64 {
    let widths = build_suite(scenario).widths();
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    per_call_ns(budget, |round| {
        black_box(
            scenario
                .schedule
                .order(black_box(&widths), u64::from(round), &mut rng),
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, grids, Workload};

    #[test]
    fn closed_loop_replica_runs_one_round_per_vehicle_round() {
        let platoon = &grids(Workload::ClosedLoop, 0)[1];
        let cell = platoon.scenario(0);
        let replica = open_loop_replica(&cell);
        assert!(replica.closed_loop.is_none());
        assert_eq!(replica.rounds, cell.rounds * 3);
        assert_eq!(replica.attacker, AttackerSpec::RandomEachRound);
        assert_eq!(replica.seed, cell.seed);
    }

    #[test]
    fn closed_cells_match_the_runner_preemptions() {
        let grid = workloads::closed_loop_golden(0);
        for cell in grid.cells() {
            let summary = ScenarioRunner::new(&cell.scenario).run();
            let preemptions = summary.supervisor.expect("closed-loop").preemptions;
            assert_eq!(
                run_closed_cell(&cell.scenario),
                preemptions,
                "cell {}",
                cell.index
            );
        }
    }
}
