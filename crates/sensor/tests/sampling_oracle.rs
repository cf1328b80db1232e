//! `SensorSuite::sample_all_into` against its oracle: one
//! `Sensor::try_sample` call per sensor, in id order, keeping the
//! readings that are not dropped.
//!
//! The suite's sampling loop is tuned for speed, so it must stay the
//! same computation: the same readings bit for bit (a silenced sensor or
//! an overflowing reading left out at the same place) and the same
//! random draws, which is what keeps seeded runs and the golden
//! baselines reproducible.

use arsf_sensor::{
    FaultKind, FaultModel, Measurement, NoiseModel, Sensor, SensorSpec, SensorSuite,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One sensor's draw: noise model index and parameter, radius, fault
/// kind index and parameter, firing-probability index.
type SensorDraw = (usize, f64, f64, (usize, f64), usize);

fn noise(index: usize, param: f64) -> NoiseModel {
    match index {
        0 => NoiseModel::None,
        1 => NoiseModel::Uniform,
        2 => NoiseModel::Triangular,
        3 => NoiseModel::ClippedGaussian {
            sigma_fraction: 2.0 * param,
        },
        _ => NoiseModel::ConstantBias {
            fraction: 1.5 * param,
        },
    }
}

/// `None` for a fault-free sensor; index 5 is a `Scale` fault whose
/// reading overflows `f64` at any truth the test draws.
fn fault_kind(index: usize, param: f64) -> Option<FaultKind> {
    match index {
        0 => None,
        1 => Some(FaultKind::StuckAt { value: param }),
        2 => Some(FaultKind::Bias { offset: param }),
        3 => Some(FaultKind::Scale {
            factor: param / 10.0,
        }),
        4 => Some(FaultKind::Silent),
        _ => Some(FaultKind::Scale { factor: f64::MAX }),
    }
}

fn probability(index: usize, param: f64) -> f64 {
    match index {
        0 => 0.0,
        1 => 1.0,
        _ => param.abs() / 50.0,
    }
}

fn suite(draws: &[SensorDraw]) -> SensorSuite {
    draws
        .iter()
        .enumerate()
        .map(
            |(i, &(noise_index, noise_param, radius, (kind, param), p))| {
                // A quarter of the radii are exactly zero.
                let radius = if radius < 0.75 { 0.0 } else { radius - 0.75 };
                let sensor = Sensor::new(
                    i,
                    SensorSpec::new(format!("s{i}"), radius),
                    noise(noise_index, noise_param),
                );
                match fault_kind(kind, param) {
                    Some(kind) => sensor.with_fault(FaultModel::new(kind, probability(p, param))),
                    None => sensor,
                }
            },
        )
        .collect()
}

fn sensor_draw() -> impl Strategy<Value = SensorDraw> {
    (
        0_usize..5,
        -1.0_f64..1.0,
        0.0_f64..3.0,
        (0_usize..6, -50.0_f64..50.0),
        0_usize..3,
    )
}

/// Bit-level identity of a reading: id, value and both endpoints.
fn bits(m: &Measurement) -> (usize, u64, u64, u64) {
    (
        m.sensor.index(),
        m.value.to_bits(),
        m.interval.lo().to_bits(),
        m.interval.hi().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn sample_all_into_equals_one_try_sample_per_sensor(
        draws in prop::collection::vec(sensor_draw(), 1..=12),
        seed in 0_u64..u64::MAX,
        truth in 2.0_f64..1000.0,
        negative in 0_u8..2,
    ) {
        let truth = if negative == 1 { -truth } else { truth };
        let mut fast = suite(&draws);
        let mut oracle = fast.clone();
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = fast_rng.clone();
        // A reused buffer that starts dirty: the suite clears it.
        let mut readings = vec![Sensor::new(99, SensorSpec::new("stale", 1.0), NoiseModel::None)
            .sample(0.0, &mut StdRng::seed_from_u64(0))];
        for round in 0..3 {
            fast.sample_all_into(truth, &mut fast_rng, &mut readings);
            let expected: Vec<Measurement> = oracle
                .sensors_mut()
                .iter_mut()
                .filter_map(|s| s.try_sample(truth, &mut oracle_rng))
                .collect();
            prop_assert_eq!(
                readings.iter().map(bits).collect::<Vec<_>>(),
                expected.iter().map(bits).collect::<Vec<_>>(),
                "round {}", round
            );
        }
        prop_assert_eq!(fast_rng.next_u64(), oracle_rng.next_u64());
    }
}
