//! Sensor suites: collections of sensors measuring one variable.

use rand::Rng;

use crate::{Measurement, NoiseModel, Sensor, SensorSpec};

/// Conversion factor from metres/second to miles/hour.
pub const MPH_PER_MPS: f64 = 2.236_936_292_054_402;

/// An ordered collection of sensors measuring the same physical variable.
///
/// The order is the sensor's identity order (index = [`crate::SensorId`]); the
/// *transmission* order is a separate concern handled by the schedule
/// crate.
///
/// # Example
///
/// ```
/// use arsf_sensor::SensorSuite;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut suite = arsf_sensor::suite::landshark();
/// assert_eq!(suite.len(), 4);
/// assert!(!suite.is_empty());
/// let mut rng = StdRng::seed_from_u64(11);
/// let readings = suite.sample_all(10.0, &mut rng);
/// assert_eq!(readings.len(), 4);
/// assert!(readings.iter().all(|m| m.interval.contains(10.0)));
/// # let _: &SensorSuite = &suite;
/// ```
#[derive(Debug, Clone, Default)]
pub struct SensorSuite {
    sensors: Vec<Sensor>,
}

impl SensorSuite {
    /// Builds a suite from specs, assigning dense ids in order and the
    /// given noise model to every sensor.
    pub fn from_specs(specs: impl IntoIterator<Item = SensorSpec>, noise: NoiseModel) -> Self {
        let sensors = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Sensor::new(i, spec, noise))
            .collect();
        Self { sensors }
    }

    /// The number of sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// Immutable access to the sensors in id order.
    pub fn sensors(&self) -> &[Sensor] {
        &self.sensors
    }

    /// Mutable access to the sensors (e.g. to attach fault models).
    pub fn sensors_mut(&mut self) -> &mut [Sensor] {
        &mut self.sensors
    }

    /// The interval widths of all sensors in id order — the only
    /// information available a priori to schedule designers (paper,
    /// Section IV).
    pub fn widths(&self) -> Vec<f64> {
        self.sensors
            .iter()
            .map(|s| s.spec().interval_width())
            .collect()
    }

    /// Samples every sensor at the given ground truth, skipping sensors
    /// silenced by a firing [`crate::FaultKind::Silent`] fault.
    pub fn sample_all<R: Rng + ?Sized>(&mut self, truth: f64, rng: &mut R) -> Vec<Measurement> {
        let mut out = Vec::with_capacity(self.sensors.len());
        self.sample_all_into(truth, rng, &mut out);
        out
    }

    /// [`SensorSuite::sample_all`] writing into a caller-owned buffer, so
    /// a round engine can sample every control period without
    /// reallocating. The buffer is cleared first.
    #[inline]
    pub fn sample_all_into<R: Rng + ?Sized>(
        &mut self,
        truth: f64,
        rng: &mut R,
        out: &mut Vec<Measurement>,
    ) {
        out.clear();
        out.reserve(self.sensors.len());
        // The body runs once per sensor every round: a plain loop, with
        // `#[inline]` down the call chain, lets each sample inline into
        // the round instead of returning its `Option` through memory.
        for sensor in &mut self.sensors {
            if let Some(m) = sensor.try_sample(truth, rng) {
                out.push(m);
            }
        }
    }
}

impl FromIterator<Sensor> for SensorSuite {
    fn from_iter<I: IntoIterator<Item = Sensor>>(iter: I) -> Self {
        Self {
            sensors: iter.into_iter().collect(),
        }
    }
}

impl Extend<Sensor> for SensorSuite {
    fn extend<I: IntoIterator<Item = Sensor>>(&mut self, iter: I) {
        self.sensors.extend(iter);
    }
}

/// The LandShark speed-sensing suite from the paper's case study:
///
/// | sensor     | interval width (mph) | source                        |
/// |------------|----------------------|-------------------------------|
/// | encoder-l  | 0.2                  | manufacturer spec (192 c/rev) |
/// | encoder-r  | 0.2                  | manufacturer spec             |
/// | GPS        | 1.0                  | determined empirically        |
/// | camera     | 2.0                  | determined empirically        |
///
/// Sensors use [`NoiseModel::Uniform`]; ids are assigned in the order
/// above (most precise first, matching the table).
pub fn landshark() -> SensorSuite {
    SensorSuite::from_specs(
        [
            SensorSpec::new("encoder-left", 0.095).with_jitter(0.005),
            SensorSpec::new("encoder-right", 0.095).with_jitter(0.005),
            SensorSpec::new("gps", 0.45).with_jitter(0.05),
            SensorSpec::new("camera", 0.9).with_jitter(0.1),
        ],
        NoiseModel::Uniform,
    )
}

/// A uniform-noise suite with the given interval *widths* (half of each
/// width becomes the precision), used by the Table I experiments where
/// setups are described by width multisets such as `L = {5, 11, 17}`.
pub fn from_widths(widths: &[f64]) -> SensorSuite {
    SensorSuite::from_specs(
        widths
            .iter()
            .enumerate()
            .map(|(i, &w)| SensorSpec::new(format!("s{i}"), w * 0.5)),
        NoiseModel::Uniform,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn landshark_matches_case_study_widths() {
        let suite = landshark();
        let widths = suite.widths();
        assert_eq!(widths.len(), 4);
        assert!((widths[0] - 0.2).abs() < 1e-12);
        assert!((widths[1] - 0.2).abs() < 1e-12);
        assert!((widths[2] - 1.0).abs() < 1e-12);
        assert!((widths[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_widths_builds_matching_specs() {
        let suite = from_widths(&[5.0, 11.0, 17.0]);
        assert_eq!(suite.widths(), vec![5.0, 11.0, 17.0]);
        assert_eq!(suite.sensors()[1].spec().to_string(), "s1 (±5.5)");
    }

    #[test]
    fn sample_all_returns_one_reading_per_healthy_sensor() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut suite = landshark();
        let readings = suite.sample_all(10.0, &mut rng);
        assert_eq!(readings.len(), 4);
        for (i, m) in readings.iter().enumerate() {
            assert_eq!(m.sensor.index(), i);
            assert!(m.interval.contains(10.0));
        }
    }

    #[test]
    fn silent_faults_shrink_the_reading_set() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut suite = landshark();
        suite.sensors_mut()[0] = suite.sensors()[0]
            .clone()
            .with_fault(FaultModel::new(FaultKind::Silent, 1.0));
        let readings = suite.sample_all(10.0, &mut rng);
        assert_eq!(readings.len(), 3);
        assert!(readings.iter().all(|m| m.sensor.index() != 0));
    }

    #[test]
    fn collect_and_extend() {
        let sensors = vec![
            Sensor::new(0, SensorSpec::new("a", 1.0), NoiseModel::None),
            Sensor::new(1, SensorSpec::new("b", 2.0), NoiseModel::None),
        ];
        let mut suite: SensorSuite = sensors.into_iter().collect();
        assert_eq!(suite.len(), 2);
        suite.extend([Sensor::new(2, SensorSpec::new("c", 3.0), NoiseModel::None)]);
        assert_eq!(suite.len(), 3);
        assert!(!suite.is_empty());
    }

    #[test]
    fn empty_suite() {
        let mut suite = SensorSuite::default();
        assert!(suite.is_empty());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(suite.sample_all(1.0, &mut rng).is_empty());
    }
}
