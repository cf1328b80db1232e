//! Static sensor specifications.

/// The static description of one sensor: the manufacturer's precision
/// guarantee `δ` and an extra jitter allowance.
///
/// The paper constructs each abstract interval with radius `δ` around the
/// raw measurement, "further increased if the worst-case guarantees for
/// sampling jitter (and implementation limitations) are considered" — the
/// jitter term models that increase. The interval width is therefore
/// `2 × (precision + jitter)` and is fixed per sensor, which is exactly the
/// property the paper's schedule analysis relies on (widths are the only
/// a-priori information).
///
/// A spec carries no name: a sensor's identity is its index in the suite
/// ([`SensorId`](crate::SensorId)), and the case study's sensor roles are
/// documented on [`suite::landshark`](crate::suite::landshark).
///
/// # Example
///
/// ```
/// use arsf_sensor::SensorSpec;
///
/// let spec = SensorSpec::new(0.08).with_jitter(0.02);
/// assert_eq!(spec.radius(), 0.1);
/// assert_eq!(spec.interval_width(), 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSpec {
    precision: f64,
    jitter: f64,
}

impl SensorSpec {
    /// Creates a spec with the given precision `δ` (half-width of the
    /// guaranteed error band) and zero jitter.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is negative or not finite — specs are static
    /// configuration, so a bad value is a programming error.
    pub const fn new(precision: f64) -> Self {
        assert!(
            precision.is_finite() && precision >= 0.0,
            "precision must be finite and non-negative"
        );
        Self {
            precision,
            jitter: 0.0,
        }
    }

    /// Adds a jitter allowance (extra radius) to the spec.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative or not finite.
    #[must_use]
    pub const fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(
            jitter.is_finite() && jitter >= 0.0,
            "jitter must be finite and non-negative"
        );
        self.jitter = jitter;
        self
    }

    /// The interval radius: `precision + jitter`.
    pub fn radius(&self) -> f64 {
        self.precision + self.jitter
    }

    /// The interval width: `2 × radius`.
    pub fn interval_width(&self) -> f64 {
        2.0 * self.radius()
    }
}

/// Derives a wheel-encoder interval width from first principles, following
/// the case study: "an encoder with 192 cycles per revolution, a measuring
/// error of 0.5% and sampling jitter error of 0.05%; the final interval
/// length was computed to be 0.2 mph" at the 10 mph operating point.
///
/// The width combines the relative error terms (proportional to speed)
/// with the quantisation step of counting whole encoder cycles during one
/// sampling period:
///
/// `width = 2 · v · (measuring_error + jitter_error) + circumference / (cycles · period)`
///
/// With the case-study calibration (192 cycles/rev, 0.5% measuring error,
/// 0.05% jitter, 0.8 m circumference, 100 ms period) this evaluates to
/// ≈ 0.2 mph at v = 10 mph, matching the paper.
///
/// Speeds are in mph; the circumference term is converted from m/s
/// (1 m/s = 2.23694 mph).
///
/// # Example
///
/// ```
/// use arsf_sensor::suite::MPH_PER_MPS;
/// let width = arsf_sensor::encoder_interval_width(10.0, 192, 0.005, 0.0005, 0.8, 0.1);
/// assert!((width - 0.2).abs() < 0.01);
/// # let _ = MPH_PER_MPS;
/// ```
pub fn encoder_interval_width(
    speed_mph: f64,
    cycles_per_rev: u32,
    measuring_error: f64,
    jitter_error: f64,
    wheel_circumference_m: f64,
    sample_period_s: f64,
) -> f64 {
    let relative = 2.0 * speed_mph * (measuring_error + jitter_error);
    let quantisation_mps = wheel_circumference_m / (f64::from(cycles_per_rev) * sample_period_s);
    relative + quantisation_mps * crate::suite::MPH_PER_MPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_combines_precision_and_jitter() {
        let spec = SensorSpec::new(0.4).with_jitter(0.1);
        assert_eq!(spec.radius(), 0.5);
        assert_eq!(spec.interval_width(), 1.0);
    }

    #[test]
    #[should_panic(expected = "precision must be finite")]
    fn negative_precision_panics() {
        let _ = SensorSpec::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "jitter must be finite")]
    fn negative_jitter_panics() {
        let _ = SensorSpec::new(1.0).with_jitter(-0.5);
    }

    #[test]
    fn zero_jitter_default() {
        assert_eq!(SensorSpec::new(0.25).radius(), 0.25);
    }

    /// The case-study encoder calibration at `speed_mph`.
    fn encoder_width_at(speed_mph: f64) -> f64 {
        encoder_interval_width(speed_mph, 192, 0.005, 0.0005, 0.8, 0.1)
    }

    #[test]
    fn encoder_width_matches_paper_at_ten_mph() {
        let width = encoder_width_at(10.0);
        assert!(
            (width - 0.2).abs() < 0.01,
            "expected ~0.2 mph at 10 mph, got {width}"
        );
    }

    #[test]
    fn encoder_width_grows_with_speed() {
        assert!(encoder_width_at(20.0) > encoder_width_at(10.0));
    }

    #[test]
    fn encoder_width_shrinks_with_resolution() {
        let coarse = encoder_interval_width(10.0, 96, 0.005, 0.0005, 0.8, 0.1);
        let fine = encoder_interval_width(10.0, 384, 0.005, 0.0005, 0.8, 0.1);
        assert!(fine < coarse);
    }
}
