//! Samplable sensors.

use core::fmt;

use arsf_interval::Interval;
use rand::Rng;

use crate::{FaultModel, Measurement, NoiseModel, SensorSpec};

/// A small integer identity for a sensor within one system.
///
/// # Example
///
/// ```
/// use arsf_sensor::SensorId;
///
/// let id = SensorId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "s3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorId(usize);

impl SensorId {
    /// Creates an id from a dense index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The dense index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<usize> for SensorId {
    fn from(index: usize) -> Self {
        Self(index)
    }
}

/// A samplable abstract sensor: spec + noise model + optional fault model.
///
/// Calling [`Sensor::sample`] with the current ground truth produces a
/// [`Measurement`]: the noisy value and the interval of radius
/// [`SensorSpec::radius`] centred on it. Without an (injected) fault the
/// measurement is always *correct* — the interval contains the truth —
/// because every [`NoiseModel`] is bounded by the radius.
///
/// # Example
///
/// ```
/// use arsf_sensor::{FaultKind, FaultModel, NoiseModel, Sensor, SensorSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let mut sensor = Sensor::new(0, SensorSpec::new(0.5), NoiseModel::Uniform)
///     .with_fault(FaultModel::new(FaultKind::Bias { offset: 50.0 }, 1.0));
/// let m = sensor.sample(10.0, &mut rng);
/// assert!(!m.interval.contains(10.0), "a firing bias fault breaks correctness");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sensor {
    id: SensorId,
    spec: SensorSpec,
    noise: NoiseModel,
    fault: Option<FaultModel>,
}

impl Sensor {
    /// Creates a sensor with the given id, spec and noise model and no
    /// fault injection.
    pub fn new(id: impl Into<SensorId>, spec: SensorSpec, noise: NoiseModel) -> Self {
        Self {
            id: id.into(),
            spec,
            noise,
            fault: None,
        }
    }

    /// Attaches a fault model (builder style).
    #[must_use]
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The static specification.
    pub(crate) fn spec(&self) -> &SensorSpec {
        &self.spec
    }

    /// Samples the sensor at the given ground truth: the measurement
    /// (possibly corrupted by a firing fault) and its abstract interval.
    ///
    /// # Panics
    ///
    /// Panics when [`Sensor::try_sample`] would return `None`.
    #[allow(
        clippy::expect_used,
        reason = "the documented panic; `try_sample` is the fallible form"
    )]
    pub fn sample<R: Rng + ?Sized>(&mut self, truth: f64, rng: &mut R) -> Measurement {
        self.try_sample(truth, rng)
            .expect("a sensor without a Silent fault and with a finite reading produces one")
    }

    /// Samples the sensor, returning `None` when a firing
    /// [`crate::FaultKind::Silent`] fault drops the reading, or when the
    /// reading's interval is not representable (a truth or fault value
    /// whose arithmetic overflows `f64`).
    #[inline]
    pub fn try_sample<R: Rng + ?Sized>(&mut self, truth: f64, rng: &mut R) -> Option<Measurement> {
        let radius = self.spec.radius();
        let honest = truth + self.noise.sample_offset(radius, rng);
        let value = match self.fault {
            Some(fault) if fault.fires(rng) => fault.kind().corrupt(honest)?,
            _ => honest,
        };
        let interval = Interval::centered(value, radius).ok()?;
        Some(Measurement::new(self.id, value, interval))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn honest_sensor_is_always_correct() {
        let mut rng = rng();
        let mut s = Sensor::new(0, SensorSpec::new(0.5), NoiseModel::Uniform);
        for _ in 0..500 {
            let m = s.sample(10.0, &mut rng);
            assert!(m.interval.contains(10.0));
            assert_eq!(m.interval.width(), 1.0);
            assert_eq!(m.interval.midpoint(), m.value);
        }
    }

    #[test]
    fn an_overflowing_reading_is_dropped() {
        let fault = FaultModel::new(FaultKind::Scale { factor: 1e300 }, 1.0);
        let mut s = Sensor::new(0, SensorSpec::new(0.5), NoiseModel::Uniform).with_fault(fault);
        assert!(s.try_sample(1e10, &mut rng()).is_none());
        assert!(s.try_sample(10.0, &mut rng()).is_some());
    }

    #[test]
    fn zero_radius_sensor_reports_exactly() {
        let mut rng = rng();
        let mut s = Sensor::new(1, SensorSpec::new(0.0), NoiseModel::Uniform);
        let m = s.sample(3.25, &mut rng);
        assert_eq!(m.value, 3.25);
        assert_eq!(m.interval.width(), 0.0);
    }

    #[test]
    fn firing_bias_fault_breaks_correctness() {
        let mut rng = rng();
        let mut s = Sensor::new(2, SensorSpec::new(0.5), NoiseModel::None)
            .with_fault(FaultModel::new(FaultKind::Bias { offset: 10.0 }, 1.0));
        let m = s.sample(0.0, &mut rng);
        assert_eq!(m.value, 10.0);
        assert!(!m.interval.contains(0.0));
    }

    #[test]
    fn silent_fault_drops_reading() {
        let mut rng = rng();
        let mut s = Sensor::new(3, SensorSpec::new(1.0), NoiseModel::None)
            .with_fault(FaultModel::new(FaultKind::Silent, 1.0));
        assert!(s.try_sample(5.0, &mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "Silent fault")]
    fn sample_panics_on_silenced_sensor() {
        let mut rng = rng();
        let mut s = Sensor::new(3, SensorSpec::new(1.0), NoiseModel::None)
            .with_fault(FaultModel::new(FaultKind::Silent, 1.0));
        let _ = s.sample(5.0, &mut rng);
    }

    #[test]
    fn non_firing_fault_keeps_sensor_correct() {
        let mut rng = rng();
        let mut s = Sensor::new(4, SensorSpec::new(0.1), NoiseModel::Uniform)
            .with_fault(FaultModel::new(FaultKind::StuckAt { value: 0.0 }, 0.0));
        for _ in 0..100 {
            assert!(s.sample(10.0, &mut rng).interval.contains(10.0));
        }
    }

    #[test]
    fn sensor_id_display_and_conversions() {
        let id: SensorId = 7_usize.into();
        assert_eq!(id.to_string(), "s7");
        assert_eq!(id.index(), 7);
    }
}
