//! Cross-crate integration for the pluggable-engine redesign:
//!
//! * the generic engine with `MarzulloFuser` + immediate detection
//!   reproduces the seed engine's hardwired round loop outcome-for-outcome
//!   under a fixed RNG seed,
//! * the scenario registry round-trips by name,
//! * every stock fuser and detector combination runs through the single
//!   `ScenarioRunner` entry point (the acceptance sweep).

use arsf::interval::ops::disjoint_indices;
use arsf::prelude::*;
use arsf::sensor::{FaultKind, FaultModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(transmitted, fusion, flagged)` as the seed engine reported them.
type SeedRound = (
    Vec<(usize, Interval<f64>)>,
    Result<Interval<f64>, FusionError>,
    Vec<usize>,
);

/// The seed engine's round, re-implemented literally: sample → schedule
/// → fuse with `marzullo::fuse(_, f.min(n − 1))` → flag intervals
/// disjoint from the fusion interval. The redesigned engine must
/// reproduce it exactly when configured with its defaults.
fn seed_reference_round(
    suite: &mut SensorSuite,
    policy: &SchedulePolicy,
    f: usize,
    truth: f64,
    round: u64,
    rng: &mut StdRng,
) -> SeedRound {
    let widths = suite.widths();
    let order = policy.order(&widths, round, rng);
    let readings = suite.sample_all(truth, rng);
    let mut transmitted = Vec::new();
    for slot in 0..order.len() {
        let sensor = order[slot];
        if let Some(m) = readings.iter().find(|m| m.sensor.index() == sensor) {
            transmitted.push((sensor, m.interval));
        }
    }
    let intervals: Vec<Interval<f64>> = transmitted.iter().map(|(_, iv)| *iv).collect();
    let fusion = arsf::fusion::marzullo::fuse(&intervals, f.min(intervals.len().saturating_sub(1)));
    let mut flagged = Vec::new();
    if let Ok(fused) = &fusion {
        flagged = disjoint_indices(&intervals, fused)
            .iter()
            .map(|&i| transmitted[i].0)
            .collect();
    }
    (transmitted, fusion, flagged)
}

#[test]
fn generic_engine_reproduces_seed_engine_round_for_round() {
    for policy in [
        SchedulePolicy::Ascending,
        SchedulePolicy::Descending,
        SchedulePolicy::Random,
    ] {
        // A suite with a transient bias fault so detection has real work.
        let make_suite = || {
            let mut suite = arsf::sensor::suite::landshark();
            suite.sensors_mut()[2] = suite.sensors()[2]
                .clone()
                .with_fault(FaultModel::new(FaultKind::Bias { offset: 30.0 }, 0.3));
            suite
        };
        let mut engine = FusionPipeline::builder(make_suite())
            .config(PipelineConfig::new(1, policy.clone()))
            .fuser(MarzulloFuser::new(1))
            .detector(Box::new(ImmediateDetector))
            .build();
        let mut reference_suite = make_suite();
        let mut rng_engine = StdRng::seed_from_u64(20140324);
        let mut rng_reference = StdRng::seed_from_u64(20140324);
        for round in 0..200 {
            let out = engine.run_round(10.0, &mut rng_engine);
            let (transmitted, fusion, flagged) = seed_reference_round(
                &mut reference_suite,
                &policy,
                1,
                10.0,
                round,
                &mut rng_reference,
            );
            assert_eq!(
                out.transmitted,
                transmitted,
                "{} round {round}",
                policy.name()
            );
            assert_eq!(out.fusion, fusion, "{} round {round}", policy.name());
            assert_eq!(out.flagged, flagged, "{} round {round}", policy.name());
            assert_eq!(
                out.estimate,
                fusion.as_ref().ok().map(|s| s.midpoint()),
                "{} round {round}",
                policy.name()
            );
        }
    }
}

#[test]
fn default_engine_equals_explicit_marzullo_immediate() {
    // The builder defaults must be *exactly* MarzulloFuser + immediate
    // detection — the seed engine's hardwired choices.
    let mut defaulted = FusionPipeline::builder(arsf::sensor::suite::landshark())
        .config(PipelineConfig::new(1, SchedulePolicy::Random))
        .build();
    let mut explicit = FusionPipeline::builder(arsf::sensor::suite::landshark())
        .config(PipelineConfig::new(1, SchedulePolicy::Random))
        .fuser(MarzulloFuser::new(1))
        .detector(Box::new(ImmediateDetector))
        .build();
    let mut rng_a = StdRng::seed_from_u64(7);
    let mut rng_b = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let a = defaulted.run_round(10.0, &mut rng_a);
        let b = explicit.run_round(10.0, &mut rng_b);
        assert_eq!(a.fusion, b.fusion);
        assert_eq!(a.transmitted, b.transmitted);
        assert_eq!(a.flagged, b.flagged);
    }
}

#[test]
fn scenario_registry_round_trips_by_name() {
    let presets = arsf::core::scenario::registry();
    assert!(presets.len() >= 8, "the registry ships meaningful presets");
    for preset in &presets {
        let found = arsf::core::scenario::find(&preset.name)
            .unwrap_or_else(|| panic!("{} must resolve", preset.name));
        assert_eq!(&found, preset);
        // Every preset materialises and runs.
        let mut shortened = found;
        shortened.rounds = 20;
        let summary = ScenarioRunner::new(&shortened).run();
        assert_eq!(summary.rounds, 20, "{}", preset.name);
    }
    assert!(arsf::core::scenario::find("definitely-not-a-preset").is_none());
}

#[test]
fn every_registry_preset_validates_builds_and_lints_clean() {
    // Registry-wide static soundness: every committed preset passes
    // `Scenario::validate`, constructs its engine (closed-loop config
    // included) via the fallible entry point, and carries no
    // error-severity `arsf-analyze` finding — the same bar the CI
    // `sweep_lint presets` gate enforces.
    for preset in arsf::core::scenario::registry() {
        assert!(
            preset.validate().is_ok(),
            "{}: {:?}",
            preset.name,
            preset.validate()
        );
        assert!(
            ScenarioRunner::try_new(&preset).is_ok(),
            "{} must construct a runner",
            preset.name
        );
        let errors: Vec<_> = arsf::analyze::analyze_scenario(&preset)
            .into_iter()
            .filter(|f| f.severity == arsf::analyze::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", preset.name);
    }
}

#[test]
fn scenario_runs_are_deterministic_given_the_seed() {
    let scenario = Scenario::new("determinism", SuiteSpec::Landshark)
        .with_schedule(SchedulePolicy::Random)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(100);
    let a = ScenarioRunner::new(&scenario).run();
    let b = ScenarioRunner::new(&scenario).run();
    assert_eq!(a, b);
    let c = ScenarioRunner::new(&scenario.clone().with_seed(99)).run();
    assert_ne!(
        a.widths.mean(),
        c.widths.mean(),
        "a different seed must change the sampled stream"
    );
}

#[test]
fn acceptance_sweep_four_fusers_three_detectors_one_entry_point() {
    // The redesign's acceptance criterion: at least 4 fusers (marzullo,
    // brooks-iyengar, historical, inverse-variance) and 3 detectors
    // (off, immediate, windowed) through the same engine entry point,
    // under a live attacker.
    let fusers = [
        FuserSpec::Marzullo,
        FuserSpec::BrooksIyengar,
        FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        },
        FuserSpec::InverseVariance,
    ];
    let detectors = [
        DetectionMode::Off,
        DetectionMode::Immediate,
        DetectionMode::Windowed {
            window: 10,
            tolerance: 3,
        },
    ];
    let mut summaries = Vec::new();
    for fuser in &fusers {
        for detector in &detectors {
            let scenario = Scenario::new(format!("sweep-{}", fuser.name()), SuiteSpec::Landshark)
                .with_schedule(SchedulePolicy::Descending)
                .with_attacker(AttackerSpec::Fixed {
                    sensors: vec![0],
                    strategy: StrategySpec::PhantomOptimal,
                })
                .with_fuser(fuser.clone())
                .with_detector(*detector)
                .with_rounds(300);
            summaries.push(ScenarioRunner::new(&scenario).run());
        }
    }
    assert_eq!(summaries.len(), 12);
    for summary in &summaries {
        assert_eq!(summary.rounds, 300);
        assert_eq!(
            summary.fusion_failures, 0,
            "{} failed rounds",
            summary.fuser
        );
    }
    // The paper's guarantee holds for the interval fusers…
    for name in ["marzullo", "brooks-iyengar", "historical"] {
        for s in summaries.iter().filter(|s| s.fuser == name) {
            assert_eq!(s.truth_lost, 0, "{name} must keep the truth with fa <= f");
        }
    }
    // …and demonstrably fails for the probabilistic baseline, which is
    // the point of carrying it behind the same interface.
    let baseline_lost: u64 = summaries
        .iter()
        .filter(|s| s.fuser == "inverse-variance")
        .map(|s| s.truth_lost)
        .sum();
    assert!(
        baseline_lost > 0,
        "the weighted baseline must lose the truth under attack"
    );
}

#[test]
fn batch_runner_matches_streaming_runner() {
    let scenario = Scenario::new("batch-vs-stream", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::GreedyHigh,
        })
        .with_rounds(64);
    let mut batch_runner = ScenarioRunner::new(&scenario);
    let mut outcomes = Vec::new();
    batch_runner.run_batch(64, &mut outcomes);

    let mut stream_runner = ScenarioRunner::new(&scenario);
    let mut out = RoundOutcome::default();
    for batch_out in &outcomes {
        stream_runner.step_into(&mut out);
        assert_eq!(out.fusion, batch_out.fusion);
        assert_eq!(out.transmitted, batch_out.transmitted);
    }
}
