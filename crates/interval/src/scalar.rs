//! The coordinate types intervals are defined over.

use core::fmt::Debug;
use core::ops::{Add, Sub};

/// A coordinate type usable as an interval endpoint.
///
/// The trait is deliberately small: intervals only ever need ordering,
/// addition/subtraction (widths, translations), halving (midpoints) and a
/// lossy view as `f64` for rendering and statistics. It is implemented for
/// `f64` and `i64`; sensor-facing code uses `f64`, while the
/// exhaustive-enumeration experiment engines use integer grids for exact
/// arithmetic.
///
/// This trait is not sealed — downstream code may implement it for a custom
/// fixed-point type — but implementations must uphold the documented
/// contract of each method (in particular, [`Scalar::is_finite_scalar`] must
/// reject values that break ordering, such as floating-point NaN).
///
/// # Example
///
/// ```
/// use arsf_interval::Scalar;
///
/// assert_eq!(7_i64.half(), 3);
/// assert_eq!(7.0_f64.half(), 3.5);
/// assert!(f64::NAN.is_finite_scalar() == false);
/// ```
pub trait Scalar:
    Copy + PartialOrd + PartialEq + Debug + Add<Output = Self> + Sub<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;

    /// Returns `true` when the value participates in a total order with all
    /// other finite values (floating-point NaN and infinities return
    /// `false`; all integer values return `true`).
    fn is_finite_scalar(&self) -> bool;

    /// Half of the value, rounding towards negative infinity for integers.
    fn half(self) -> Self;

    /// Lossy conversion used only for rendering and summary statistics.
    fn to_f64(self) -> f64;

    /// The smaller of `self` and `other`.
    ///
    /// Unlike [`Ord::min`] this is available for float scalars; both
    /// arguments must be finite (checked by callers at interval-construction
    /// time).
    fn min_scalar(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }

    /// The larger of `self` and `other`.
    fn max_scalar(self, other: Self) -> Self {
        if other > self {
            other
        } else {
            self
        }
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;

    fn is_finite_scalar(&self) -> bool {
        self.is_finite()
    }

    fn half(self) -> Self {
        self * 0.5
    }

    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for i64 {
    const ZERO: Self = 0;

    fn is_finite_scalar(&self) -> bool {
        true
    }

    fn half(self) -> Self {
        self.div_euclid(2)
    }

    fn to_f64(self) -> f64 {
        self as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_reject_non_finite() {
        assert!(1.0_f64.is_finite_scalar());
        assert!(!f64::NAN.is_finite_scalar());
        assert!(!f64::INFINITY.is_finite_scalar());
        assert!(!f64::NEG_INFINITY.is_finite_scalar());
    }

    #[test]
    fn integers_are_always_finite() {
        assert!(i64::MAX.is_finite_scalar());
        assert!(i64::MIN.is_finite_scalar());
    }

    #[test]
    fn half_rounds_towards_negative_infinity_for_integers() {
        assert_eq!(7_i64.half(), 3);
        assert_eq!((-7_i64).half(), -4);
        assert_eq!(6_i64.half(), 3);
        assert_eq!((-6_i64).half(), -3);
    }

    #[test]
    fn half_is_exact_for_floats() {
        assert_eq!(7.0_f64.half(), 3.5);
        assert_eq!((-1.0_f64).half(), -0.5);
    }

    #[test]
    fn min_max_scalar_agree_with_ordering() {
        assert_eq!(3.0_f64.min_scalar(5.0), 3.0);
        assert_eq!(3.0_f64.max_scalar(5.0), 5.0);
        assert_eq!(5_i64.min_scalar(3), 3);
        assert_eq!(5_i64.max_scalar(3), 5);
        // Equal values return self.
        assert_eq!(4_i64.min_scalar(4), 4);
        assert_eq!(4_i64.max_scalar(4), 4);
    }

    #[test]
    fn to_f64_is_value_preserving_for_small_values() {
        assert_eq!(41_i64.to_f64(), 41.0);
        assert_eq!((-3_i64).to_f64(), -3.0);
        assert_eq!(2.5_f64.to_f64(), 2.5);
    }
}
