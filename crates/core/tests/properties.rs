//! End-to-end property tests: the paper's guarantees fuzzed across random
//! sensor suites, schedules, compromised sets and attack strategies.

use arsf_attack::strategies::{GreedyExtreme, PhantomOptimal, Side};
use arsf_attack::{AttackStrategy, AttackerConfig, Truthful};
use arsf_core::{FusionPipeline, PipelineConfig};
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{NoiseModel, SensorSpec, SensorSuite};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random suite: 3..=6 sensors with radii in [0.1, 3.0].
fn suite_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1u32..30, 3..=6)
        .prop_map(|radii| radii.into_iter().map(|r| r as f64 * 0.1).collect())
}

fn build_suite(radii: &[f64]) -> SensorSuite {
    SensorSuite::from_specs(
        radii.iter().map(|&r| SensorSpec::new(r)),
        NoiseModel::Uniform,
    )
}

fn schedule_for(seed: u8) -> SchedulePolicy {
    match seed % 3 {
        0 => SchedulePolicy::Ascending,
        1 => SchedulePolicy::Descending,
        _ => SchedulePolicy::Random,
    }
}

fn strategy_for(seed: u8) -> Box<dyn AttackStrategy> {
    match seed % 3 {
        0 => Box::new(PhantomOptimal::new()),
        1 => Box::new(GreedyExtreme::new(Side::High)),
        _ => Box::new(Truthful),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn honest_rounds_always_keep_truth_and_never_flag(
        radii in suite_strategy(),
        schedule_seed in 0u8..3,
        truth in -50.0f64..50.0,
        rng_seed in 0u64..1000,
    ) {
        let n = radii.len();
        let f = n.div_ceil(2) - 1;
        let mut pipeline = FusionPipeline::builder(build_suite(&radii))
            .config(PipelineConfig::new(f, schedule_for(schedule_seed)))
            .build();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for _ in 0..5 {
            let out = pipeline.run_round(truth, &mut rng);
            let fused = out.fusion.expect("all-correct round fuses");
            prop_assert!(fused.contains(truth));
            prop_assert!(out.flagged.is_empty());
        }
    }

    #[test]
    fn attacked_rounds_keep_truth_when_fa_within_f(
        radii in suite_strategy(),
        schedule_seed in 0u8..3,
        strategy_seed in 0u8..3,
        victim_seed in 0usize..6,
        rng_seed in 0u64..1000,
    ) {
        let n = radii.len();
        let f = n.div_ceil(2) - 1;
        prop_assume!(f >= 1);
        let victim = victim_seed % n;
        let mut pipeline = FusionPipeline::builder(build_suite(&radii))
            .config(PipelineConfig::new(f, schedule_for(schedule_seed)))
            .attacker(
                AttackerConfig::new([victim], f),
                strategy_for(strategy_seed),
            )
            .build();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for _ in 0..5 {
            let out = pipeline.run_round(10.0, &mut rng);
            // The paper's core guarantee: fa <= f keeps the truth in the
            // fusion interval regardless of what the attacker sends.
            let fused = out.fusion.expect("fa <= f always fuses");
            prop_assert!(
                fused.contains(10.0),
                "strategy {strategy_seed} on sensor {victim} pushed the truth out"
            );
        }
    }

    #[test]
    fn forged_widths_always_match_public_widths(
        radii in suite_strategy(),
        schedule_seed in 0u8..3,
        strategy_seed in 0u8..3,
        rng_seed in 0u64..1000,
    ) {
        let n = radii.len();
        let f = n.div_ceil(2) - 1;
        prop_assume!(f >= 1);
        let mut pipeline = FusionPipeline::builder(build_suite(&radii))
            .config(PipelineConfig::new(f, schedule_for(schedule_seed)))
            .attacker(AttackerConfig::new([0], f), strategy_for(strategy_seed))
            .build();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let out = pipeline.run_round(0.0, &mut rng);
        for (sensor, interval) in &out.transmitted {
            prop_assert!(
                (interval.width() - radii[*sensor] * 2.0).abs() < 1e-9,
                "sensor {sensor} transmitted width {} but publishes {}",
                interval.width(),
                radii[*sensor] * 2.0
            );
        }
    }

    #[test]
    fn stealthy_strategies_are_never_flagged(
        radii in suite_strategy(),
        schedule_seed in 0u8..3,
        victim_seed in 0usize..6,
        rng_seed in 0u64..1000,
    ) {
        // PhantomOptimal guarantees stealth by construction; fuzz it.
        let n = radii.len();
        let f = n.div_ceil(2) - 1;
        prop_assume!(f >= 1);
        let victim = victim_seed % n;
        let mut pipeline = FusionPipeline::builder(build_suite(&radii))
            .config(PipelineConfig::new(f, schedule_for(schedule_seed)))
            .attacker(
                AttackerConfig::new([victim], f),
                Box::new(PhantomOptimal::new()),
            )
            .build();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for _ in 0..5 {
            let out = pipeline.run_round(5.0, &mut rng);
            prop_assert!(
                out.flagged.is_empty(),
                "phantom-optimal flagged on {:?} (victim {victim})",
                out.order
            );
        }
    }
}
