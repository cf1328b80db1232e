//! Sensor measurements: value plus abstract interval.

use arsf_interval::Interval;

use crate::SensorId;

/// One sensor reading: the raw measured value and the abstract interval
/// constructed around it from the sensor's specification.
///
/// # Example
///
/// ```
/// use arsf_interval::Interval;
/// use arsf_sensor::{Measurement, SensorId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = Measurement::new(SensorId::new(2), 10.1, Interval::centered(10.1, 0.5)?);
/// assert!(m.interval.contains(10.0));
/// assert!(!m.interval.contains(11.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Which sensor produced this reading.
    pub sensor: SensorId,
    /// The raw measured value (the interval's centre).
    pub value: f64,
    /// The abstract interval guaranteed to contain the truth when the
    /// sensor is correct.
    pub interval: Interval<f64>,
}

impl Measurement {
    /// Creates a measurement.
    pub fn new(sensor: SensorId, value: f64, interval: Interval<f64>) -> Self {
        Self {
            sensor,
            value,
            interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let iv = Interval::new(1.0, 3.0).unwrap();
        let m = Measurement::new(SensorId::new(9), 2.0, iv);
        assert_eq!(m.sensor, SensorId::new(9));
        assert_eq!(m.value, 2.0);
        assert_eq!(m.interval, iv);
    }
}
