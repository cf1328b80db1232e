//! Cross-crate integration: fusion rounds over the CAN-like broadcast
//! bus, checking transport faithfulness and the attacker's
//! information model, and that the bus and the direct pipeline forge the
//! same intervals for every strategy and schedule.

use arsf::bus::Payload;
use arsf::core::transport::run_bus_round;
use arsf::fusion::marzullo;
use arsf::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn iv(lo: f64, hi: f64) -> Interval<f64> {
    Interval::new(lo, hi).unwrap()
}

fn landshark_readings() -> (Vec<Interval<f64>>, Vec<f64>) {
    (
        vec![
            iv(9.93, 10.13),
            iv(9.88, 10.08),
            iv(9.7, 10.7),
            iv(9.1, 11.1),
        ],
        vec![0.2, 0.2, 1.0, 2.0],
    )
}

#[test]
fn bus_round_equals_direct_fusion_for_any_order() {
    let (readings, widths) = landshark_readings();
    for order in [
        TransmissionOrder::identity(4),
        TransmissionOrder::new(vec![3, 2, 1, 0]).unwrap(),
        TransmissionOrder::new(vec![2, 0, 3, 1]).unwrap(),
    ] {
        let round = run_bus_round(&readings, &widths, &order, 1, None);
        assert_eq!(round.fusion, marzullo::fuse(&readings, 1));
        assert_eq!(round.transmitted.len(), 4);
        // Slot order on the wire matches the schedule.
        let sensors: Vec<usize> = round.transmitted.iter().map(|(s, _)| *s).collect();
        assert_eq!(sensors, order.as_slice().to_vec());
    }
}

#[test]
fn frames_carry_monotone_ticks_and_a_fusion_broadcast() {
    let (readings, widths) = landshark_readings();
    let order = TransmissionOrder::identity(4);
    let round = run_bus_round(&readings, &widths, &order, 1, None);
    for pair in round.frames.windows(2) {
        assert!(pair[0].tick < pair[1].tick, "bus time must advance");
    }
    let fusions = round
        .frames
        .iter()
        .filter(|f| matches!(f.payload, Payload::Fusion { .. }))
        .count();
    assert_eq!(fusions, 1, "the controller broadcasts its result once");
}

#[test]
fn attacker_on_bus_profits_from_later_slots() {
    let (readings, widths) = landshark_readings();
    let mut widths_by_slot_position = Vec::new();
    for order in [
        TransmissionOrder::new(vec![0, 1, 2, 3]).unwrap(), // attacked first
        TransmissionOrder::new(vec![1, 2, 0, 3]).unwrap(), // attacked third
        TransmissionOrder::new(vec![3, 2, 1, 0]).unwrap(), // attacked last
    ] {
        let attacker = Some((
            AttackerConfig::new([0], 1),
            Box::new(PhantomOptimal::new()) as Box<dyn AttackStrategy>,
        ));
        let round = run_bus_round(&readings, &widths, &order, 1, attacker);
        assert!(round.flagged.is_empty());
        widths_by_slot_position.push(round.fusion.unwrap().width());
    }
    assert!(
        widths_by_slot_position[0] <= widths_by_slot_position[2] + 1e-9,
        "an attacker transmitting first cannot beat one transmitting last: {widths_by_slot_position:?}"
    );
}

#[test]
fn multi_sensor_attacker_coordinates_across_slots() {
    // Five sensors, two compromised, f = 2: the shared-brain attacker
    // must keep both forged intervals stealthy.
    let readings = vec![
        iv(9.9, 10.1),
        iv(9.85, 10.25),
        iv(9.5, 10.5),
        iv(9.0, 11.0),
        iv(8.5, 11.5),
    ];
    let widths = vec![0.2, 0.4, 1.0, 2.0, 3.0];
    for order in [
        TransmissionOrder::new(vec![4, 3, 2, 0, 1]).unwrap(),
        TransmissionOrder::new(vec![0, 1, 2, 3, 4]).unwrap(),
        TransmissionOrder::new(vec![2, 0, 4, 1, 3]).unwrap(),
    ] {
        let attacker = Some((
            AttackerConfig::new([0, 1], 2),
            Box::new(PhantomOptimal::new()) as Box<dyn AttackStrategy>,
        ));
        let round = run_bus_round(&readings, &widths, &order, 2, attacker);
        let fused = round.fusion.unwrap();
        assert!(fused.contains(10.0), "fa <= f keeps the truth");
        assert!(
            round.flagged.is_empty(),
            "order {order}: flagged {:?}",
            round.flagged
        );
    }
}

/// One attack strategy of the differential test, built fresh for each
/// engine so both start from the same strategy state.
fn strategy(kind: usize) -> Box<dyn AttackStrategy> {
    match kind {
        0 => Box::new(PhantomOptimal::new()),
        1 => Box::new(GreedyExtreme::new(Side::High)),
        2 => Box::new(GreedyExtreme::new(Side::Low)),
        _ => Box::new(Truthful),
    }
}

/// `(suite, f)`: LandShark under `f = 1`, or a 5-sensor suite under
/// `f = 2`.
fn differential_suite(five: bool) -> (SensorSuite, usize) {
    if five {
        (
            arsf::sensor::suite::from_widths(&[0.2, 0.4, 1.0, 2.0, 3.0]),
            2,
        )
    } else {
        (arsf::sensor::suite::landshark(), 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The bus is an independent model of what the attacker has seen: a
    /// round replayed over it from the pipeline's sampled readings must
    /// put exactly the pipeline's forged intervals on the wire.
    #[test]
    fn bus_and_pipeline_forge_the_same_intervals(
        (five, first, second, two) in (0usize..2, 0usize..5, 0usize..5, 0usize..2),
        (kind, schedule, rotate) in (0usize..4, 0usize..3, 0usize..5),
        (seed, truth) in (0u64..1_000_000, 5.0..15.0),
    ) {
        let (suite, f) = differential_suite(five == 1);
        let n = suite.len();
        let first = first % n;
        let mut compromised = vec![first];
        if two == 1 {
            compromised.push((first + 1 + second % (n - 1)) % n);
        }
        let schedule = match schedule {
            0 => SchedulePolicy::Ascending,
            1 => SchedulePolicy::Descending,
            _ => {
                let order: Vec<usize> = (0..n).map(|slot| (slot * 3 + rotate) % n).collect();
                SchedulePolicy::Fixed(TransmissionOrder::new(order).unwrap())
            }
        };
        let attacker = AttackerConfig::new(compromised, f);
        let mut pipeline = FusionPipeline::builder(suite.clone())
            .config(PipelineConfig::new(f, schedule.clone()))
            .attacker(attacker.clone(), strategy(kind))
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut replay = rng.clone();
        let out = pipeline.run_round(truth, &mut rng);

        // Replay the round's draws: the slot order, then every reading.
        let widths = suite.widths();
        let order = schedule.order(&widths, 0, &mut replay);
        let readings: Vec<Interval<f64>> = suite
            .clone()
            .sample_all(truth, &mut replay)
            .iter()
            .map(|m| m.interval)
            .collect();
        prop_assert_eq!(&order, &out.order);
        prop_assert_eq!(readings.len(), n);

        let bus = run_bus_round(&readings, &widths, &order, f, Some((attacker, strategy(kind))));
        prop_assert_eq!(bus.transmitted, out.transmitted);
    }
}
