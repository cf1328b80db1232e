//! Cross-crate integration: the full fusion pipeline (sensors → schedule
//! → attacker → fusion → detection) through the facade crate's public
//! API.

use arsf::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(424242)
}

#[test]
fn honest_pipeline_tracks_truth_across_schedules() {
    for policy in [
        SchedulePolicy::Ascending,
        SchedulePolicy::Descending,
        SchedulePolicy::Random,
    ] {
        let mut rng = rng();
        let mut pipeline = FusionPipeline::builder(arsf::sensor::suite::landshark())
            .config(PipelineConfig::new(1, policy))
            .build();
        for round in 0..100 {
            let truth = 10.0 + (round as f64 * 0.01);
            let out = pipeline.run_round(truth, &mut rng);
            let fused = out.fusion.expect("all-correct round fuses");
            assert!(fused.contains(truth), "round {round}: {fused} lost {truth}");
            assert!(out.flagged.is_empty());
            assert!((fused.midpoint() - truth).abs() <= fused.width() / 2.0 + 1e-12);
        }
    }
}

#[test]
fn stealthy_attacker_never_detected_and_truth_never_lost() {
    for policy in [
        SchedulePolicy::Ascending,
        SchedulePolicy::Descending,
        SchedulePolicy::Random,
    ] {
        for attacked in 0..4 {
            let mut rng = rng();
            let mut pipeline = FusionPipeline::builder(arsf::sensor::suite::landshark())
                .config(PipelineConfig::new(1, policy.clone()))
                .attacker(
                    AttackerConfig::new([attacked], 1),
                    Box::new(PhantomOptimal::new()),
                )
                .build();
            for _ in 0..60 {
                let out = pipeline.run_round(10.0, &mut rng);
                let fused = out.fusion.expect("fa <= f always fuses");
                // The paper's core guarantee: with fa <= f the fusion
                // interval still contains the true value.
                assert!(fused.contains(10.0));
                // And the stealthy attacker is never flagged.
                assert!(
                    out.flagged.is_empty(),
                    "{} attacking {attacked}: flagged {:?}",
                    policy.name(),
                    out.flagged
                );
            }
        }
    }
}

#[test]
fn attack_widens_fusion_relative_to_truthful_baseline() {
    let mut rng_a = rng();
    let mut rng_b = rng();
    let mut truthful = FusionPipeline::builder(arsf::sensor::suite::landshark())
        .config(PipelineConfig::new(1, SchedulePolicy::Descending))
        .attacker(AttackerConfig::new([0], 1), Box::new(Truthful))
        .build();
    let mut attacked = FusionPipeline::builder(arsf::sensor::suite::landshark())
        .config(PipelineConfig::new(1, SchedulePolicy::Descending))
        .attacker(AttackerConfig::new([0], 1), Box::new(PhantomOptimal::new()))
        .build();
    let rounds = 200;
    let mut truthful_sum = 0.0;
    let mut attacked_sum = 0.0;
    for _ in 0..rounds {
        truthful_sum += truthful.run_round(10.0, &mut rng_a).width().unwrap();
        attacked_sum += attacked.run_round(10.0, &mut rng_b).width().unwrap();
    }
    assert!(
        attacked_sum > truthful_sum * 1.2,
        "attack must widen fusion: {attacked_sum} vs {truthful_sum}"
    );
}

#[test]
fn schedule_defence_ordering_holds_in_expectation() {
    // Ascending <= Random <= Descending in mean width under an attacker
    // on the most precise sensor.
    let mut widths = Vec::new();
    for policy in [
        SchedulePolicy::Ascending,
        SchedulePolicy::Random,
        SchedulePolicy::Descending,
    ] {
        let mut rng = rng();
        let mut pipeline = FusionPipeline::builder(arsf::sensor::suite::landshark())
            .config(PipelineConfig::new(1, policy))
            .attacker(AttackerConfig::new([0], 1), Box::new(PhantomOptimal::new()))
            .build();
        let mut total = 0.0;
        let rounds = 400;
        for _ in 0..rounds {
            total += pipeline.run_round(10.0, &mut rng).width().unwrap();
        }
        widths.push(total / rounds as f64);
    }
    assert!(
        widths[0] <= widths[1] + 0.02 && widths[1] <= widths[2] + 0.02,
        "expected ascending <= random <= descending, got {widths:?}"
    );
}

#[test]
fn detection_flags_unstealthy_faults_but_never_correct_sensors() {
    use arsf::sensor::{FaultKind, FaultModel};
    let mut rng = rng();
    let mut suite = arsf::sensor::suite::landshark();
    suite.sensors_mut()[2] = suite.sensors()[2]
        .clone()
        .with_fault(FaultModel::new(FaultKind::StuckAt { value: 42.0 }, 1.0));
    let mut pipeline = FusionPipeline::builder(suite)
        .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
        .build();
    for _ in 0..30 {
        let out = pipeline.run_round(10.0, &mut rng);
        assert_eq!(out.flagged, vec![2], "only the stuck sensor is flagged");
    }
}
