//! The engine's allocation contract: once a first round has sized the
//! buffers, `FusionPipeline::run_round_into` performs no heap allocation
//! with any stock fuser, detector and schedule, honest or under a
//! non-solving attack strategy — and neither does a closed-loop
//! vehicle's control period through `ScenarioRunner::step_into`.
//!
//! A counting `#[global_allocator]` tallies the allocations of the calling
//! thread only, so tests running in parallel do not disturb each other.
//! `PhantomOptimal` is not covered: its exhaustive solver allocates inside
//! `forge`, which the contract leaves to the strategy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arsf_attack::strategies::{GreedyExtreme, Side};
use arsf_attack::{AttackStrategy, AttackerConfig, Truthful};
use arsf_core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
};
use arsf_core::{DetectionMode, FusionPipeline, PipelineConfig, RoundOutcome, ScenarioRunner};
use arsf_fusion::Fuser;
use arsf_schedule::{SchedulePolicy, TransmissionOrder};
use arsf_sensor::{FaultKind, FaultModel, SensorSuite};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn tally() {
    // `try_with`: const-initialised thread-locals without destructors
    // neither allocate nor recurse; during thread teardown this skips.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches only const-initialised thread-locals.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
}

/// A suite with a sensor silenced 30% of the time (so readings shift off
/// their sensor index) and the last sensor biased half the time (so the
/// detectors flag and condemn).
fn faulty(mut suite: SensorSuite) -> SensorSuite {
    let last = suite.len() - 1;
    let sensors = suite.sensors_mut();
    sensors[1] = sensors[1]
        .clone()
        .with_fault(FaultModel::new(FaultKind::Silent, 0.3));
    sensors[last] = sensors[last]
        .clone()
        .with_fault(FaultModel::new(FaultKind::Bias { offset: 50.0 }, 0.5));
    suite
}

fn widths(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.5 * (i / 2) as f64).collect()
}

#[test]
fn run_round_into_does_not_allocate_after_the_first_round() {
    let suites: [(&str, SensorSuite, usize); 3] = [
        ("landshark", arsf_sensor::suite::landshark(), 1),
        ("widths-9", arsf_sensor::suite::from_widths(&widths(9)), 2),
        ("widths-20", arsf_sensor::suite::from_widths(&widths(20)), 9),
    ];
    let fusers = [
        FuserSpec::Marzullo,
        FuserSpec::BrooksIyengar,
        FuserSpec::Intersection,
        FuserSpec::Hull,
        FuserSpec::InverseVariance,
        FuserSpec::MidpointMedian,
        FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        },
    ];
    let detectors = [
        DetectionMode::Off,
        DetectionMode::Immediate,
        DetectionMode::Windowed {
            window: 10,
            tolerance: 3,
        },
    ];
    // The counter itself sees allocations on this thread.
    assert_eq!(
        allocations_of(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(8)))),
        1
    );
    let mut checked = 0;
    for (suite_name, suite, f) in &suites {
        let n = suite.len();
        let rotation: Vec<usize> = (0..n).rev().collect();
        let schedules = [
            SchedulePolicy::Ascending,
            SchedulePolicy::Descending,
            SchedulePolicy::Random,
            SchedulePolicy::Fixed(TransmissionOrder::new(rotation.clone()).unwrap()),
            SchedulePolicy::Rotating(TransmissionOrder::new(rotation).unwrap()),
        ];
        // Two compromised sensors where the budget allows, so the
        // attacker's later-slot bookkeeping is exercised too.
        let compromised: &[usize] = if *f >= 2 { &[0, 2] } else { &[0] };
        for fuser in &fusers {
            for detection in &detectors {
                for schedule in &schedules {
                    for attacker in ["none", "truthful", "greedy-high"] {
                        let strategy: Option<Box<dyn AttackStrategy>> = match attacker {
                            "truthful" => Some(Box::new(Truthful)),
                            "greedy-high" => Some(Box::new(GreedyExtreme::new(Side::High))),
                            _ => None,
                        };
                        let config =
                            PipelineConfig::new(*f, schedule.clone()).with_detection(*detection);
                        let mut builder = FusionPipeline::builder(faulty(suite.clone()))
                            .config(config)
                            .fuser(fuser.build(*f));
                        if let Some(strategy) = strategy {
                            builder = builder.attacker(
                                AttackerConfig::new(compromised.iter().copied(), *f),
                                strategy,
                            );
                        }
                        let mut pipeline = builder.build();
                        let mut rng = StdRng::seed_from_u64(checked);
                        let mut out = RoundOutcome::default();
                        pipeline.run_round_into(10.0, &mut rng, &mut out);
                        let allocations = allocations_of(|| {
                            for round in 0..40 {
                                pipeline.run_round_into(
                                    10.0 + 0.01 * round as f64,
                                    &mut rng,
                                    &mut out,
                                );
                            }
                        });
                        assert_eq!(
                            allocations,
                            0,
                            "{suite_name}, {}, {}, {}, attacker {attacker}",
                            Fuser::name(pipeline.fuser()),
                            pipeline.detector().name(),
                            schedule.name(),
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * 7 * 3 * 5 * 3);
}

#[test]
fn closed_loop_step_into_does_not_allocate_after_the_first_step() {
    let fixed = |strategy| AttackerSpec::Fixed {
        sensors: vec![0],
        strategy,
    };
    let attackers = [
        AttackerSpec::None,
        fixed(StrategySpec::Truthful),
        fixed(StrategySpec::GreedyHigh),
        fixed(StrategySpec::GreedyLow),
    ];
    let detectors = [
        DetectionMode::Immediate,
        DetectionMode::Windowed {
            window: 10,
            tolerance: 3,
        },
    ];
    let mut checked = 0;
    for schedule in [SchedulePolicy::Ascending, SchedulePolicy::Descending] {
        for attacker in &attackers {
            for detection in &detectors {
                let scenario = Scenario::new("shark", SuiteSpec::Landshark)
                    .with_schedule(schedule.clone())
                    .with_attacker(attacker.clone())
                    .with_detector(*detection)
                    .with_closed_loop(ClosedLoopSpec::new(10.0));
                let mut runner = ScenarioRunner::new(&scenario);
                let mut out = RoundOutcome::default();
                runner.step_into(&mut out);
                let allocations = allocations_of(|| {
                    for _ in 0..200 {
                        runner.step_into(&mut out);
                    }
                });
                assert_eq!(
                    allocations,
                    0,
                    "{}, attacker {}, {detection:?}",
                    schedule.name(),
                    attacker.label(),
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 4 * 2);
}
