//! Cross-crate integration: a short Table II case-study run (the full
//! 20k-round version is the `repro_table2` release binary).

use arsf::core::closed_loop::landshark::{LandShark, LandSharkConfig};
use arsf::core::closed_loop::platoon::Platoon;
use arsf::core::scenario::AttackerSpec;
use arsf::core::sweep::StreamingSweeper;
use arsf::schedule::SchedulePolicy;
use arsf_bench::table2::{run_all, Table2Config};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn descending_rates_are_roughly_symmetric() {
    // The paper reports 17.42% above vs 17.65% below: the attacker has no
    // systematic preference for a side.
    let rows = run_all(
        &Table2Config {
            rounds: 4000,
            ..Table2Config::default()
        },
        &StreamingSweeper::new(1),
    );
    let desc = &rows[1];
    let ratio = desc.above / desc.below;
    assert!(
        (0.5..2.0).contains(&ratio),
        "above {} vs below {} too asymmetric",
        desc.above,
        desc.below
    );
}

#[test]
fn platoon_under_attack_never_collides_with_ascending() {
    let mut rng = StdRng::seed_from_u64(1);
    let config = LandSharkConfig::new(10.0, SchedulePolicy::Ascending)
        .with_attacker(AttackerSpec::RandomEachRound);
    let mut platoon = Platoon::new(3, 0.005, config);
    for _ in 0..400 {
        platoon.step(&mut rng);
    }
    assert!(!platoon.collided());
}

#[test]
fn single_vehicle_holds_speed_under_any_schedule() {
    for policy in [
        SchedulePolicy::Ascending,
        SchedulePolicy::Descending,
        SchedulePolicy::Random,
    ] {
        let mut rng = StdRng::seed_from_u64(2);
        let config =
            LandSharkConfig::new(10.0, policy.clone()).with_attacker(AttackerSpec::RandomEachRound);
        let mut shark = LandShark::new(config);
        for _ in 0..500 {
            shark.step(&mut rng);
        }
        assert!(
            (shark.speed() - 10.0).abs() < 1.0,
            "{}: speed {} drifted",
            policy.name(),
            shark.speed()
        );
    }
}
