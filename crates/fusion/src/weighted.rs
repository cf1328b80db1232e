//! Probabilistic point-fusion baselines.
//!
//! The paper's introduction contrasts interval fusion with the classical
//! probabilistic approach where each sensor reports a point corrupted by
//! noise of known distribution and fusion is a weighted average. These
//! estimators are implemented here as baselines; they are *not*
//! attack-resilient (a single forged reading shifts the mean arbitrarily),
//! which the benchmark harness demonstrates quantitatively.

use arsf_interval::{Interval, Scalar};

use crate::FusionError;

/// A fused point estimate with a symmetric uncertainty radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEstimate {
    /// The fused value.
    pub value: f64,
    /// A (non-negative) uncertainty radius around [`PointEstimate::value`].
    pub radius: f64,
}

impl PointEstimate {
    /// The estimate viewed as the interval `[value − radius, value + radius]`.
    pub(crate) fn to_interval(self) -> Interval<f64> {
        Interval::centered(self.value, self.radius)
            .unwrap_or_else(|_| unreachable!("radius is validated non-negative at construction"))
    }
}

/// Inverse-variance weighted mean of the interval midpoints, treating each
/// half-width as one standard deviation.
///
/// Zero-width (exact) intervals receive all the weight: if any are present,
/// the estimate is their plain average with radius 0.
///
/// # Errors
///
/// [`FusionError::EmptyInput`] when no intervals are given.
pub(crate) fn inverse_variance<T: Scalar>(
    intervals: &[Interval<T>],
) -> Result<PointEstimate, FusionError> {
    if intervals.is_empty() {
        return Err(FusionError::EmptyInput);
    }
    let exact = || intervals.iter().filter(|s| s.width() == T::ZERO);
    let exact_count = exact().count();
    if exact_count > 0 {
        let value = exact().map(|s| s.midpoint().to_f64()).sum::<f64>() / exact_count as f64;
        return Ok(PointEstimate { value, radius: 0.0 });
    }
    // Weights `1 / (σ / scale)²`: at unit scale unless a `σ²` overflows
    // or underflows, then relative to the tightest sensor, in `(0, 1]`.
    let weigh = |scale: f64| {
        intervals.iter().fold((0.0, 0.0), |(sum, weighted), s| {
            let sigma = s.width().to_f64() * 0.5 / scale;
            let w = 1.0 / (sigma * sigma);
            (sum + w, weighted + w * s.midpoint().to_f64())
        })
    };
    let mut scale = 1.0;
    let (mut weight_sum, mut weighted) = weigh(scale);
    if !(weight_sum > 0.0 && weight_sum < f64::INFINITY) {
        scale = intervals
            .iter()
            .map(|s| s.width().to_f64() * 0.5)
            .fold(f64::INFINITY, f64::min);
        (weight_sum, weighted) = weigh(scale);
    }
    Ok(PointEstimate {
        value: weighted / weight_sum,
        radius: (1.0 / weight_sum).sqrt() * scale,
    })
}

/// The median of the interval midpoints — the classical robust location
/// estimator, tolerating up to `⌈n/2⌉ − 1` arbitrarily-corrupted readings.
///
/// The radius reported is the median half-width.
///
/// # Errors
///
/// [`FusionError::EmptyInput`] when no intervals are given.
///
/// # Example
///
/// ```
/// use arsf_fusion::weighted::midpoint_median;
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s = [
///     Interval::centered(10.0, 1.0)?,
///     Interval::centered(10.2, 1.0)?,
///     Interval::centered(500.0, 1.0)?, // forged
/// ];
/// // The forged outlier cannot drag the median away:
/// assert_eq!(midpoint_median(&s)?.value, 10.2);
/// # Ok(())
/// # }
/// ```
pub fn midpoint_median<T: Scalar>(intervals: &[Interval<T>]) -> Result<PointEstimate, FusionError> {
    if intervals.is_empty() {
        return Err(FusionError::EmptyInput);
    }
    Ok(PointEstimate {
        value: median_of(intervals.iter().map(|s| s.midpoint().to_f64())),
        radius: median_of(intervals.iter().map(|s| s.width().to_f64() * 0.5)),
    })
}

/// Values up to this count are sorted on the stack by [`median_of`].
const MEDIAN_STACK: usize = 32;

/// The median of a non-empty sequence of known length, sorted in a stack
/// buffer when it fits (the heap otherwise).
fn median_of(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    let mut stack = [0.0; MEDIAN_STACK];
    let mut heap = Vec::new();
    let xs = if n <= MEDIAN_STACK {
        &mut stack[..n]
    } else {
        heap.resize(n, 0.0);
        &mut heap[..]
    };
    for (slot, x) in xs.iter_mut().zip(values) {
        *slot = x;
    }
    xs.sort_unstable_by(f64::total_cmp);
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(center: f64, radius: f64) -> Interval<f64> {
        Interval::centered(center, radius).unwrap()
    }

    #[test]
    fn inverse_variance_survives_overflowing_variances() {
        // σ² overflows for both: the weights are taken relative to the
        // tighter sensor instead, 1 and 1/4 as for radii 1 and 2.
        let est = inverse_variance(&[ci(1e200, 1e200), ci(2e200, 2e200)]).unwrap();
        assert!((est.value / 1e200 - 1.2).abs() < 1e-9, "{est:?}");
        assert!(
            (est.radius / 1e200 - (0.8f64).sqrt()).abs() < 1e-9,
            "{est:?}"
        );
        // σ² underflows for both.
        let est = inverse_variance(&[ci(1e-200, 1e-200), ci(2e-200, 2e-200)]).unwrap();
        assert!((est.value / 1e-200 - 1.2).abs() < 1e-9, "{est:?}");
    }

    #[test]
    fn all_estimators_reject_empty_input() {
        assert!(inverse_variance::<f64>(&[]).is_err());
        assert!(midpoint_median::<f64>(&[]).is_err());
    }

    #[test]
    fn single_sensor_is_identity() {
        let s = [ci(10.0, 0.5)];
        for est in [inverse_variance(&s).unwrap(), midpoint_median(&s).unwrap()] {
            assert_eq!(est.value, 10.0);
            assert_eq!(est.radius, 0.5);
        }
    }

    #[test]
    fn inverse_variance_prefers_precise_sensors() {
        let s = [ci(10.0, 1.0), ci(12.0, 2.0)];
        let est = inverse_variance(&s).unwrap();
        assert!((est.value - 10.4).abs() < 1e-9);
        assert!(est.radius < 1.0);
    }

    #[test]
    fn inverse_variance_with_exact_sensor() {
        let s = [ci(10.0, 0.0), ci(50.0, 1.0)];
        let est = inverse_variance(&s).unwrap();
        assert_eq!(est.value, 10.0);
        assert_eq!(est.radius, 0.0);
    }

    #[test]
    fn mean_is_attackable_median_is_not() {
        let honest = [ci(10.0, 1.0), ci(10.2, 1.0)];
        let attacked = [ci(10.0, 1.0), ci(10.2, 1.0), ci(1000.0, 1.0)];
        let mean =
            |s: &[Interval<f64>]| s.iter().map(|i| i.midpoint()).sum::<f64>() / s.len() as f64;
        let mean_shift = mean(&attacked) - mean(&honest);
        let median_shift =
            midpoint_median(&attacked).unwrap().value - midpoint_median(&honest).unwrap().value;
        assert!(mean_shift > 100.0);
        assert!(median_shift.abs() <= 0.2);
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        let s = [ci(1.0, 0.1), ci(2.0, 0.1), ci(3.0, 0.1), ci(10.0, 0.1)];
        assert_eq!(midpoint_median(&s).unwrap().value, 2.5);
    }

    #[test]
    fn point_estimate_to_interval_round_trip() {
        let est = PointEstimate {
            value: 5.0,
            radius: 1.5,
        };
        let iv = est.to_interval();
        assert_eq!(iv.lo(), 3.5);
        assert_eq!(iv.hi(), 6.5);
    }
}
