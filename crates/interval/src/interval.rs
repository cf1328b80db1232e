//! The closed-interval type.

use core::fmt;

use crate::{IntervalError, Scalar};

/// A non-empty closed interval `[lo, hi]` over a [`Scalar`] coordinate type.
///
/// `Interval` is the *abstract sensor* representation from Marzullo's
/// fault-tolerant sensor model: a correct sensor's interval is guaranteed to
/// contain the true value of the measured variable, and the width of the
/// interval encodes the sensor's precision (wider ⇒ less precise).
///
/// Invariants enforced at construction:
///
/// * both endpoints are finite ([`Scalar::is_finite_scalar`]),
/// * `lo <= hi` (degenerate point intervals are allowed, empty ones are not).
///
/// Because the invariant is established by [`Interval::new`], all other
/// operations are total and panic-free.
///
/// # Example
///
/// ```
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), arsf_interval::IntervalError> {
/// let gps = Interval::centered(10.2, 0.5)?; // 10.2 mph ± 0.5 mph
/// let camera = Interval::centered(9.8, 1.0)?;
/// let agreed = gps.intersection(&camera).expect("both contain the truth");
/// assert_eq!(agreed, Interval::new(9.7, 10.7)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Interval<T> {
    lo: T,
    hi: T,
}

impl<T: Scalar> Interval<T> {
    /// Creates the closed interval `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::NonFinite`] if either endpoint is NaN or
    /// infinite, and [`IntervalError::Inverted`] if `lo > hi`.
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_interval::Interval;
    ///
    /// # fn main() -> Result<(), arsf_interval::IntervalError> {
    /// let s = Interval::new(-1.0, 4.0)?;
    /// assert_eq!(s.width(), 5.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(lo: T, hi: T) -> Result<Self, IntervalError> {
        if !lo.is_finite_scalar() || !hi.is_finite_scalar() {
            return Err(IntervalError::NonFinite);
        }
        if lo > hi {
            return Err(IntervalError::Inverted);
        }
        Ok(Self { lo, hi })
    }

    /// Creates the degenerate interval `[point, point]`.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::NonFinite`] if `point` is NaN or infinite.
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_interval::Interval;
    ///
    /// let p = Interval::degenerate(3.0).unwrap();
    /// assert_eq!(p.width(), 0.0);
    /// assert!(p.contains(3.0));
    /// ```
    pub fn degenerate(point: T) -> Result<Self, IntervalError> {
        Self::new(point, point)
    }

    /// Creates the interval `[center - radius, center + radius]`.
    ///
    /// This is how the paper constructs an abstract-sensor interval from a
    /// raw measurement and the manufacturer's precision guarantee `δ`
    /// (radius), giving a width of `2δ`.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::NegativeWidth`] if `radius < 0`, or
    /// [`IntervalError::NonFinite`] if the computed endpoints are not finite.
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_interval::Interval;
    ///
    /// # fn main() -> Result<(), arsf_interval::IntervalError> {
    /// let encoder = Interval::centered(10.0, 0.1)?;
    /// assert_eq!(encoder.lo(), 9.9);
    /// assert_eq!(encoder.hi(), 10.1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn centered(center: T, radius: T) -> Result<Self, IntervalError> {
        if radius < T::ZERO {
            return Err(IntervalError::NegativeWidth);
        }
        Self::new(center - radius, center + radius)
    }

    /// The lower endpoint.
    pub fn lo(&self) -> T {
        self.lo
    }

    /// The upper endpoint.
    pub fn hi(&self) -> T {
        self.hi
    }

    /// The width `hi - lo` (the paper's `|s|`). Zero for degenerate
    /// intervals.
    pub fn width(&self) -> T {
        self.hi - self.lo
    }

    /// The midpoint of the interval, the natural point estimate of a fused
    /// interval.
    ///
    /// For integer scalars the midpoint rounds towards negative infinity.
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_interval::Interval;
    ///
    /// let s = Interval::new(2.0, 5.0).unwrap();
    /// assert_eq!(s.midpoint(), 3.5);
    /// ```
    pub fn midpoint(&self) -> T {
        self.lo + self.width().half()
    }

    /// Returns `true` if `point` lies inside the closed interval.
    pub fn contains(&self, point: T) -> bool {
        self.lo <= point && point <= self.hi
    }

    /// Returns `true` if `other` is entirely contained in `self`.
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_interval::Interval;
    ///
    /// let outer = Interval::new(0, 10).unwrap();
    /// let inner = Interval::new(2, 5).unwrap();
    /// assert!(outer.contains_interval(&inner));
    /// assert!(!inner.contains_interval(&outer));
    /// ```
    pub fn contains_interval(&self, other: &Self) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Returns `true` if the two closed intervals share at least one point.
    ///
    /// Touching endpoints count as intersecting — this matters for the
    /// attack model, where an attacker grazing the fusion interval at a
    /// single point still evades the overlap detector.
    pub fn intersects(&self, other: &Self) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The intersection of two intervals, or `None` when they are disjoint.
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_interval::Interval;
    ///
    /// let a = Interval::new(0.0, 2.0).unwrap();
    /// let b = Interval::new(1.0, 3.0).unwrap();
    /// assert_eq!(a.intersection(&b), Some(Interval::new(1.0, 2.0).unwrap()));
    /// let c = Interval::new(5.0, 6.0).unwrap();
    /// assert_eq!(a.intersection(&c), None);
    /// ```
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        if !self.intersects(other) {
            return None;
        }
        Some(Self {
            lo: self.lo.max_scalar(other.lo),
            hi: self.hi.min_scalar(other.hi),
        })
    }

    /// The convex hull (smallest interval containing both inputs).
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_interval::Interval;
    ///
    /// let a = Interval::new(0.0, 1.0).unwrap();
    /// let b = Interval::new(4.0, 5.0).unwrap();
    /// assert_eq!(a.hull(&b), Interval::new(0.0, 5.0).unwrap());
    /// ```
    pub fn hull(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min_scalar(other.lo),
            hi: self.hi.max_scalar(other.hi),
        }
    }

    /// Lossy conversion of the endpoints to `f64`, used for rendering and
    /// statistics.
    pub fn to_f64_interval(&self) -> Interval<f64> {
        Interval {
            lo: self.lo.to_f64(),
            hi: self.hi.to_f64(),
        }
    }
}

impl<T: Scalar + fmt::Display> fmt::Display for Interval<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn new_validates_ordering() {
        assert!(Interval::new(1.0, 0.0).is_err());
        assert!(Interval::new(0.0, 0.0).is_ok());
        assert!(Interval::new(0.0, 1.0).is_ok());
    }

    #[test]
    fn new_validates_finiteness() {
        assert_eq!(
            Interval::new(f64::NAN, 1.0).unwrap_err(),
            IntervalError::NonFinite
        );
        assert_eq!(
            Interval::new(0.0, f64::INFINITY).unwrap_err(),
            IntervalError::NonFinite
        );
    }

    #[test]
    fn centered_rejects_negative_radius() {
        assert_eq!(
            Interval::centered(0.0, -1.0).unwrap_err(),
            IntervalError::NegativeWidth
        );
    }

    #[test]
    fn centered_has_expected_width() {
        let s = Interval::centered(10.0, 0.5).unwrap();
        assert_eq!(s.width(), 1.0);
        assert_eq!(s.midpoint(), 10.0);
    }

    #[test]
    fn contains_is_closed() {
        let s = iv(1.0, 2.0);
        assert!(s.contains(1.0));
        assert!(s.contains(2.0));
        assert!(s.contains(1.5));
        assert!(!s.contains(0.999));
        assert!(!s.contains(2.001));
    }

    #[test]
    fn intersects_counts_touching_endpoints() {
        assert!(iv(0.0, 1.0).intersects(&iv(1.0, 2.0)));
        assert!(!iv(0.0, 1.0).intersects(&iv(1.0001, 2.0)));
        // Symmetric.
        assert!(iv(1.0, 2.0).intersects(&iv(0.0, 1.0)));
    }

    #[test]
    fn intersection_of_touching_intervals_is_degenerate() {
        let p = iv(0.0, 1.0).intersection(&iv(1.0, 2.0)).unwrap();
        assert_eq!(p.width(), 0.0);
        assert_eq!(p.lo(), 1.0);
    }

    #[test]
    fn intersection_of_nested_intervals_is_inner() {
        let outer = iv(0.0, 10.0);
        let inner = iv(3.0, 4.0);
        assert_eq!(outer.intersection(&inner), Some(inner));
        assert_eq!(inner.intersection(&outer), Some(inner));
    }

    #[test]
    fn hull_spans_gaps() {
        assert_eq!(iv(0.0, 1.0).hull(&iv(3.0, 4.0)), iv(0.0, 4.0));
        assert_eq!(iv(3.0, 4.0).hull(&iv(0.0, 1.0)), iv(0.0, 4.0));
    }

    #[test]
    fn integer_intervals_work() {
        let s = Interval::new(-3_i64, 5).unwrap();
        assert_eq!(s.width(), 8);
        assert_eq!(s.midpoint(), 1);
        assert!(s.contains(5));
        assert!(!s.contains(6));
    }

    #[test]
    fn integer_midpoint_rounds_down() {
        let s = Interval::new(0_i64, 3).unwrap();
        assert_eq!(s.midpoint(), 1);
        let neg = Interval::new(-3_i64, 0).unwrap();
        assert_eq!(neg.midpoint(), -2);
    }

    #[test]
    fn display_formats_as_pair() {
        assert_eq!(iv(1.0, 2.5).to_string(), "[1, 2.5]");
        assert_eq!(Interval::new(1_i64, 2).unwrap().to_string(), "[1, 2]");
    }

    #[test]
    fn to_f64_interval_preserves_endpoints() {
        let s = Interval::new(-2_i64, 7).unwrap().to_f64_interval();
        assert_eq!(s.lo(), -2.0);
        assert_eq!(s.hi(), 7.0);
    }

    #[test]
    fn interval_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Interval<f64>>();
        assert_send_sync::<Interval<i64>>();
    }
}
