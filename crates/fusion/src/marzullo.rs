//! Marzullo's fault-tolerant sensor fusion algorithm.
//!
//! Given `n` abstract-sensor intervals and an assumed number of faulty
//! sensors `f`, the **fusion interval** `S_{N,f}` spans the smallest to the
//! largest point of the real line contained in at least `n − f` intervals.
//! The rationale is conservative: at least `n − f` intervals are correct
//! and every correct interval contains the true value, so any point covered
//! by `n − f` intervals *could* be the true value and must be kept.
//!
//! Key facts from the paper (all verified by this crate's test-suite):
//!
//! * `f = 0` ⇒ fusion is the common intersection; `f = n − 1` ⇒ the hull,
//! * the fusion interval grows monotonically with `f` (Fig. 1),
//! * if `f < ⌈n/3⌉` the width is bounded by some **correct** interval's
//!   width; if `f < ⌈n/2⌉` by some interval's width; for `f ≥ ⌈n/2⌉` it can
//!   be arbitrarily large — hence [`max_bounded_f`] and the paper's
//!   standing assumption `f < ⌈n/2⌉`,
//! * when at most `f` sensors are actually faulty, the fusion interval
//!   contains the true value.

use arsf_interval::coverage::k_covered_span;
use arsf_interval::{Interval, Scalar};

use crate::FusionError;

/// Computes Marzullo's fusion interval for `intervals` under the assumption
/// that at most `f` of them are faulty.
///
/// Runs [`k_covered_span`]: up to 32 intervals it sorts the endpoints on
/// the stack with a merge-exchange sorting network (`O(n log² n)`
/// branch-free compares, no allocation); above 32 it sorts them in one
/// heap buffer (`O(n log n)`). Either way one scan finds the span.
///
/// # Errors
///
/// * [`FusionError::EmptyInput`] — `intervals` is empty.
/// * [`FusionError::FaultCountTooLarge`] — `f >= intervals.len()`.
/// * [`FusionError::NoAgreement`] — no point is covered by `n − f`
///   intervals; this proves the fault assumption was violated (more than
///   `f` sensors are faulty or compromised).
///
/// # Example
///
/// ```
/// use arsf_fusion::marzullo::fuse;
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s = [
///     Interval::new(9.0, 11.0)?,
///     Interval::new(9.5, 10.5)?,
///     Interval::new(17.0, 18.0)?, // faulty
/// ];
/// // Tolerating one fault keeps the two consistent sensors' overlap:
/// assert_eq!(fuse(&s, 1)?, Interval::new(9.5, 10.5)?);
/// # Ok(())
/// # }
/// ```
pub fn fuse<T: Scalar>(intervals: &[Interval<T>], f: usize) -> Result<Interval<T>, FusionError> {
    let n = intervals.len();
    if n == 0 {
        return Err(FusionError::EmptyInput);
    }
    if f >= n {
        return Err(FusionError::FaultCountTooLarge { f, n });
    }
    let required = n - f;
    k_covered_span(intervals, required).ok_or(FusionError::NoAgreement { required })
}

/// The largest fault assumption for which the paper's boundedness guarantee
/// holds: `⌈n/2⌉ − 1`, i.e. the largest `f` with `f < ⌈n/2⌉`.
///
/// The paper's evaluation always configures the fusion algorithm with this
/// value ("the sensor fusion algorithm configured for `f = ⌈n/2⌉ − 1`").
///
/// # Example
///
/// ```
/// use arsf_fusion::marzullo::max_bounded_f;
///
/// assert_eq!(max_bounded_f(3), 1);
/// assert_eq!(max_bounded_f(4), 1);
/// assert_eq!(max_bounded_f(5), 2);
/// assert_eq!(max_bounded_f(1), 0);
/// ```
pub fn max_bounded_f(n: usize) -> usize {
    n.div_ceil(2).saturating_sub(1)
}

/// Returns `true` when the fault assumption `f` keeps the fusion interval
/// bounded, i.e. `f < ⌈n/2⌉`.
///
/// # Example
///
/// ```
/// use arsf_fusion::marzullo::is_bounded_assumption;
///
/// assert!(is_bounded_assumption(5, 2));
/// assert!(!is_bounded_assumption(5, 3));
/// ```
pub fn is_bounded_assumption(n: usize, f: usize) -> bool {
    f < n.div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsf_interval::ops::{hull_all, intersection_all};

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    /// The five-interval configuration used in our rendering of the
    /// paper's Fig. 1 (all intervals share the point 5 so every `f` row is
    /// defined).
    fn fig1_config() -> Vec<Interval<f64>> {
        vec![
            iv(0.0, 6.0),
            iv(1.0, 7.0),
            iv(4.0, 8.0),
            iv(5.0, 10.0),
            iv(3.0, 5.5),
        ]
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(fuse::<f64>(&[], 0), Err(FusionError::EmptyInput));
    }

    #[test]
    fn fault_count_must_be_less_than_n() {
        let s = [iv(0.0, 1.0)];
        assert_eq!(
            fuse(&s, 1),
            Err(FusionError::FaultCountTooLarge { f: 1, n: 1 })
        );
        assert!(fuse(&s, 0).is_ok());
    }

    #[test]
    fn f_zero_is_common_intersection() {
        let s = fig1_config();
        assert_eq!(fuse(&s, 0).unwrap(), intersection_all(&s).unwrap());
    }

    #[test]
    fn f_n_minus_one_is_hull() {
        let s = fig1_config();
        assert_eq!(fuse(&s, s.len() - 1).unwrap(), hull_all(&s).unwrap());
    }

    #[test]
    fn fusion_grows_with_f_as_in_fig1() {
        let s = fig1_config();
        let s0 = fuse(&s, 0).unwrap();
        let s1 = fuse(&s, 1).unwrap();
        let s2 = fuse(&s, 2).unwrap();
        assert!(s1.contains_interval(&s0));
        assert!(s2.contains_interval(&s1));
        assert!(s1.width() >= s0.width());
        assert!(s2.width() >= s1.width());
    }

    #[test]
    fn disagreement_is_detected() {
        // Three mutually disjoint intervals: even f = 1 finds no pair
        // overlap.
        let s = [iv(0.0, 1.0), iv(2.0, 3.0), iv(4.0, 5.0)];
        assert_eq!(fuse(&s, 1), Err(FusionError::NoAgreement { required: 2 }));
        // f = 2 (>= ceil(3/2)) is mathematically computable: hull-like span.
        assert_eq!(fuse(&s, 2).unwrap(), iv(0.0, 5.0));
    }

    #[test]
    fn fusion_contains_truth_when_faults_within_assumption() {
        // Truth = 10; two correct sensors contain it, one faulty does not.
        let s = [iv(9.0, 11.0), iv(9.8, 10.4), iv(30.0, 31.0)];
        let fused = fuse(&s, 1).unwrap();
        assert!(fused.contains(10.0));
    }

    #[test]
    fn single_sensor_passthrough() {
        let s = [iv(1.0, 2.0)];
        assert_eq!(fuse(&s, 0).unwrap(), s[0]);
    }

    #[test]
    fn max_bounded_f_matches_paper_values() {
        // Paper: n in 3..=5 uses f = ceil(n/2) - 1 = 1, 1, 2.
        assert_eq!(max_bounded_f(3), 1);
        assert_eq!(max_bounded_f(4), 1);
        assert_eq!(max_bounded_f(5), 2);
        assert_eq!(max_bounded_f(2), 0);
        assert_eq!(max_bounded_f(0), 0);
    }

    #[test]
    fn integer_fusion() {
        let s = [
            Interval::new(0_i64, 6).unwrap(),
            Interval::new(2, 8).unwrap(),
            Interval::new(4, 10).unwrap(),
        ];
        assert_eq!(fuse(&s, 1).unwrap(), Interval::new(2_i64, 8).unwrap());
    }
}
