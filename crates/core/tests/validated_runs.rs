//! Validated means runnable: every scenario [`Scenario::validate`]
//! accepts builds through `ScenarioRunner::try_new` and runs its rounds
//! without a panic, open-loop, closed-loop and as a platoon.
//!
//! Each case draws one scenario from a seeded RNG, so choices that
//! depend on earlier ones (a compromised index within the suite, a fixed
//! order over its sensors) stay in range without rejection sampling.
//! The space covers wide `Widths` suites (0 to 20 sensors), fault sets
//! of every kind, one- and multi-sensor fixed attackers under every
//! strategy, the per-round random attacker, every schedule (fixed and
//! rotating orders of any length), every fuser and every detector. A
//! fifth of the numeric parameters take an edge value (zero, negative,
//! huge or non-finite) that `validate` must either reject or the engines
//! must run. Multi-sensor phantom-optimal attackers forge two sensors of
//! a suite of at most six: the exact solver's lattice grows as
//! `(c · 3^fa)^fa` in the correct endpoints `c`, which is a cost, not a
//! panic.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use arsf_core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec, TruthSpec,
};
use arsf_core::{DetectionMode, RoundOutcome, ScenarioRunner};
use arsf_schedule::{SchedulePolicy, TransmissionOrder};
use arsf_sensor::{FaultKind, FaultModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const STRATEGIES: [StrategySpec; 4] = [
    StrategySpec::PhantomOptimal,
    StrategySpec::GreedyHigh,
    StrategySpec::GreedyLow,
    StrategySpec::Truthful,
];

/// A value from `typical` four times in five, else an edge value.
fn edge(rng: &mut StdRng, typical: Range<f64>) -> f64 {
    const EDGES: [f64; 6] = [0.0, -1.0, 1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    if rng.gen_range(0..5) == 0 {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(typical)
    }
}

/// A permutation of `0..len`.
fn order(rng: &mut StdRng, len: usize) -> TransmissionOrder {
    let mut slots: Vec<usize> = (0..len).collect();
    slots.shuffle(rng);
    TransmissionOrder::new(slots).expect("a permutation")
}

fn fault(rng: &mut StdRng) -> FaultModel {
    let kind = match rng.gen_range(0..4) {
        0 => FaultKind::StuckAt {
            value: edge(rng, -50.0..50.0),
        },
        1 => FaultKind::Bias {
            offset: edge(rng, -20.0..20.0),
        },
        2 => FaultKind::Scale {
            factor: edge(rng, -2.0..3.0),
        },
        _ => FaultKind::Silent,
    };
    FaultModel::new(kind, rng.gen_range(0.0..=1.0))
}

fn attacker(rng: &mut StdRng, n: usize) -> AttackerSpec {
    match rng.gen_range(0..5) {
        0 => AttackerSpec::None,
        1 => AttackerSpec::RandomEachRound,
        _ if n == 0 => AttackerSpec::None,
        _ => {
            let strategy = STRATEGIES[rng.gen_range(0..STRATEGIES.len())];
            let most = match strategy {
                StrategySpec::PhantomOptimal if n > 6 => 1,
                StrategySpec::PhantomOptimal => 2,
                _ => n + 1,
            };
            // Repeats allowed: a spec may name a sensor twice.
            let sensors = (0..rng.gen_range(1..=most))
                .map(|_| rng.gen_range(0..n))
                .collect();
            AttackerSpec::Fixed { sensors, strategy }
        }
    }
}

fn schedule(rng: &mut StdRng, n: usize) -> SchedulePolicy {
    // Fixed and rotating orders are usually over the suite, sometimes
    // one sensor short or long.
    let len = match rng.gen_range(0..6) {
        0 => n.saturating_sub(1),
        1 => n + 1,
        _ => n,
    };
    match rng.gen_range(0..5) {
        0 => SchedulePolicy::Ascending,
        1 => SchedulePolicy::Descending,
        2 => SchedulePolicy::Random,
        3 => SchedulePolicy::Fixed(order(rng, len)),
        _ => SchedulePolicy::Rotating(order(rng, len)),
    }
}

fn fuser(rng: &mut StdRng) -> FuserSpec {
    match rng.gen_range(0..7) {
        0 => FuserSpec::Marzullo,
        1 => FuserSpec::BrooksIyengar,
        2 => FuserSpec::Intersection,
        3 => FuserSpec::Hull,
        4 => FuserSpec::InverseVariance,
        5 => FuserSpec::MidpointMedian,
        _ => FuserSpec::Historical {
            max_rate: edge(rng, 0.0..10.0),
            dt: edge(rng, 0.01..1.0),
        },
    }
}

fn detector(rng: &mut StdRng) -> DetectionMode {
    match rng.gen_range(0..3) {
        0 => DetectionMode::Off,
        1 => DetectionMode::Immediate,
        _ => DetectionMode::Windowed {
            window: rng.gen_range(0..=12),
            tolerance: rng.gen_range(0..=12),
        },
    }
}

/// One scenario of the spec space, drawn from `seed`.
fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mode = rng.gen_range(0..4);
    let suite = if mode == 0 {
        let n = rng.gen_range(0..=20);
        SuiteSpec::Widths((0..n).map(|_| edge(&mut rng, 0.01..10.0)).collect())
    } else {
        SuiteSpec::Landshark
    };
    let n = suite.len();
    let faults = (0..rng.gen_range(0..=3.min(n)))
        .map(|_| (rng.gen_range(0..n), fault(&mut rng)))
        .collect();
    let truth = match rng.gen_range(0..2) {
        0 => TruthSpec::Constant(edge(&mut rng, -20.0..40.0)),
        _ => TruthSpec::Ramp {
            start: edge(&mut rng, -20.0..40.0),
            rate_per_round: edge(&mut rng, -1.0..1.0),
        },
    };
    let mut scenario = Scenario {
        faults,
        attacker: attacker(&mut rng, n),
        schedule: schedule(&mut rng, n),
        f: rng.gen_range(0..=n),
        fuser: fuser(&mut rng),
        detector: detector(&mut rng),
        truth,
        rounds: rng.gen_range(1..=40),
        seed: rng.gen_range(0..u64::MAX),
        ..Scenario::new(format!("spec-{seed}"), suite)
    };
    if mode >= 2 {
        let spec = ClosedLoopSpec::new(edge(&mut rng, 1.0..30.0))
            .with_deltas(edge(&mut rng, 0.0..2.0), edge(&mut rng, 0.0..2.0));
        scenario.closed_loop = Some(if mode == 3 {
            spec.with_platoon(rng.gen_range(0..=4), edge(&mut rng, 0.001..0.1))
        } else {
            spec
        });
    }
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn validated_scenarios_run_without_panicking(seed in 0u64..u64::MAX) {
        let scenario = scenario(seed);
        prop_assume!(scenario.validate().is_ok());
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut runner = ScenarioRunner::try_new(&scenario).expect("validated scenarios build");
            runner.run_into(&mut RoundOutcome::default()).rounds
        }));
        prop_assert!(run.is_ok(), "panicked: {scenario:?}");
        prop_assert_eq!(run.ok(), Some(scenario.rounds));
    }
}
