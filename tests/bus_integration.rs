//! Cross-crate integration: fusion rounds over the CAN-like broadcast
//! bus, checking transport faithfulness and the attacker's
//! information model, and that a bus round and the direct pipeline play
//! the same round for every strategy, schedule, fuser and detector.

use arsf::bus::Payload;
use arsf::core::transport::{run_bus_round, BusRound};
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

/// One bus round of a fresh Marzullo pipeline over a `from_widths` suite.
fn bus_round(
    readings: &[Interval<f64>],
    widths: &[f64],
    order: &TransmissionOrder,
    f: usize,
    attacked: &[usize],
) -> BusRound {
    let mut pipeline = FusionPipeline::builder(arsf::sensor::suite::from_widths(widths))
        .config(PipelineConfig::new(f, SchedulePolicy::Fixed(order.clone())))
        .build();
    if !attacked.is_empty() {
        pipeline.set_attacker(Some((
            AttackerConfig::new(attacked.iter().copied(), f),
            Box::new(PhantomOptimal::new()),
        )));
    }
    run_bus_round(&mut pipeline, readings, order)
}

#[test]
fn bus_round_equals_direct_fusion_for_any_order() {
    let (readings, widths) = landshark_readings();
    for order in [
        TransmissionOrder::identity(4),
        TransmissionOrder::new(vec![3, 2, 1, 0]).unwrap(),
        TransmissionOrder::new(vec![2, 0, 3, 1]).unwrap(),
    ] {
        let round = bus_round(&readings, &widths, &order, 1, &[]);
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
    let round = bus_round(&readings, &widths, &order, 1, &[]);
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
        let round = bus_round(&readings, &widths, &order, 1, &[0]);
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
    // Five sensors, two compromised, f = 2: the attacker's taps share one
    // strategy and must keep both forged intervals stealthy.
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
        let round = bus_round(&readings, &widths, &order, 2, &[0, 1]);
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

/// Every stock fuser, at the suite's `f` where it takes one.
const FUSERS: [FuserSpec; 7] = [
    FuserSpec::Marzullo,
    FuserSpec::BrooksIyengar,
    FuserSpec::Intersection,
    FuserSpec::Hull,
    FuserSpec::InverseVariance,
    FuserSpec::MidpointMedian,
    FuserSpec::Historical {
        max_rate: 1.0,
        dt: 0.1,
    },
];

/// Every detection mode; the window condemns on a second violation.
const DETECTIONS: [DetectionMode; 3] = [
    DetectionMode::Off,
    DetectionMode::Immediate,
    DetectionMode::Windowed {
        window: 3,
        tolerance: 1,
    },
];

/// Rounds each differential case plays, so stateful fusers, detectors and
/// strategies carry state from one round into the next.
const ROUNDS: u64 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The bus is an independent model of what the attacker has seen: a
    /// round replayed over it from the pipeline's sampled readings must
    /// put exactly the pipeline's intervals on the wire, and its
    /// controller must fuse and flag exactly as the pipeline does. Each
    /// case draws one of the 21 fuser × detection pairs; the seeded cases
    /// draw every pair 31 to 59 times.
    #[test]
    fn bus_and_pipeline_forge_the_same_intervals(
        (five, first, second, two) in (0usize..2, 0usize..5, 0usize..5, 0usize..2),
        (kind, schedule, rotate) in (0usize..4, 0usize..3, 0usize..5),
        (seed, truth, pair) in (0u64..1_000_000, 5.0..15.0, 0usize..21),
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
        let widths = suite.widths();
        let (fuser, detection) = (&FUSERS[pair / 3], DETECTIONS[pair % 3]);
        let build = || {
            FusionPipeline::builder(suite.clone())
                .config(PipelineConfig::new(f, schedule.clone()).with_detection(detection))
                .fuser(fuser.build(f))
                .attacker(attacker.clone(), strategy(kind))
                .build()
        };
        let (mut pipeline, mut bus_pipeline) = (build(), build());
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..ROUNDS {
            // Replay the round's draws: the slot order (drawn once for
            // these round-invariant schedules), then every reading.
            let mut replay = rng.clone();
            let out = pipeline.run_round(truth, &mut rng);
            if round == 0 {
                prop_assert_eq!(&schedule.order(&widths, 0, &mut replay), &out.order);
            }
            let readings: Vec<Interval<f64>> = suite
                .clone()
                .sample_all(truth, &mut replay)
                .iter()
                .map(|m| m.interval)
                .collect();
            prop_assert_eq!(readings.len(), n);

            let bus = run_bus_round(&mut bus_pipeline, &readings, &out.order);
            let case = format!("{} / {detection:?}, round {round}", fuser.name());
            prop_assert_eq!(
                (&case, &bus.transmitted, bus.fusion, &bus.flagged),
                (&case, &out.transmitted, out.fusion, &out.flagged)
            );

            // The controller's tail: one alert per flagged sensor in
            // slot order (alert frames outrank the fusion frame in
            // arbitration), then the fusion frame; nothing when fusion
            // fails.
            let tail: Vec<Payload> = bus.frames[n..].iter().map(|fr| fr.payload.clone()).collect();
            let mut expected: Vec<Payload> = out
                .flagged
                .iter()
                .map(|&sensor| Payload::Alert { sensor })
                .collect();
            expected.extend(out.fusion.iter().map(|&interval| Payload::Fusion { interval }));
            prop_assert_eq!((&case, tail), (&case, expected));
            let slot_of = |s: usize| out.order.slot_of(s);
            prop_assert!(
                out.flagged.windows(2).all(|w| slot_of(w[0]) < slot_of(w[1])),
                "{case}: flags {:?} out of slot order",
                out.flagged
            );
        }
        prop_assert_eq!(bus_pipeline.rounds(), ROUNDS);
    }
}
