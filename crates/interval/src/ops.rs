//! Slice-level operations over collections of intervals.
//!
//! These free functions operate on `&[Interval<T>]` and implement the
//! set-level primitives the fusion and attack layers are built from:
//! common intersection (the paper's `S_{C,0}` and `Δ`), convex hull
//! (`S_{N,n-1}`), and pairwise-overlap checks (any two *correct* intervals
//! must intersect because both contain the true value).

use crate::{Interval, Scalar};

/// The intersection of all intervals in `intervals`, or `None` when the
/// slice is empty or the common intersection is empty.
///
/// In the paper's notation this is `S_{C,0}` when applied to the correct
/// intervals, and `Δ` when applied to the correct readings of the
/// compromised sensors.
///
/// # Example
///
/// ```
/// use arsf_interval::{ops::intersection_all, Interval};
///
/// # fn main() -> Result<(), arsf_interval::IntervalError> {
/// let xs = [
///     Interval::new(0.0, 3.0)?,
///     Interval::new(1.0, 4.0)?,
///     Interval::new(2.0, 5.0)?,
/// ];
/// assert_eq!(intersection_all(&xs), Some(Interval::new(2.0, 3.0)?));
/// # Ok(())
/// # }
/// ```
pub fn intersection_all<T: Scalar>(intervals: &[Interval<T>]) -> Option<Interval<T>> {
    let (first, rest) = intervals.split_first()?;
    rest.iter()
        .try_fold(*first, |acc, next| acc.intersection(next))
}

/// The convex hull of all intervals in `intervals`, or `None` when the
/// slice is empty.
///
/// This equals Marzullo fusion with `f = n - 1` (every point covered by at
/// least one interval is admissible).
///
/// # Example
///
/// ```
/// use arsf_interval::{ops::hull_all, Interval};
///
/// # fn main() -> Result<(), arsf_interval::IntervalError> {
/// let xs = [Interval::new(0.0, 1.0)?, Interval::new(9.0, 10.0)?];
/// assert_eq!(hull_all(&xs), Some(Interval::new(0.0, 10.0)?));
/// # Ok(())
/// # }
/// ```
pub fn hull_all<T: Scalar>(intervals: &[Interval<T>]) -> Option<Interval<T>> {
    let (first, rest) = intervals.split_first()?;
    Some(rest.iter().fold(*first, |acc, next| acc.hull(next)))
}

/// Indices of intervals in `candidates` that do **not** intersect
/// `reference`.
///
/// This is the paper's detection rule: any transmitted interval disjoint
/// from the fusion interval is flagged as compromised.
///
/// # Example
///
/// ```
/// use arsf_interval::{ops::disjoint_indices, Interval};
///
/// # fn main() -> Result<(), arsf_interval::IntervalError> {
/// let fused = Interval::new(0.0, 1.0)?;
/// let sensors = [
///     Interval::new(0.5, 2.0)?,  // overlaps
///     Interval::new(3.0, 4.0)?,  // disjoint -> flagged
/// ];
/// assert_eq!(disjoint_indices(&sensors, &fused), vec![1]);
/// # Ok(())
/// # }
/// ```
pub fn disjoint_indices<T: Scalar>(
    candidates: &[Interval<T>],
    reference: &Interval<T>,
) -> Vec<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.intersects(reference))
        .map(|(i, _)| i)
        .collect()
}

/// The sum of the two largest widths among `intervals`, or `None` when
/// fewer than two intervals are given.
///
/// Theorem 2 of the paper bounds the fusion interval width by this quantity
/// applied to the *correct* intervals.
///
/// # Example
///
/// ```
/// use arsf_interval::{ops::two_widest_sum, Interval};
///
/// # fn main() -> Result<(), arsf_interval::IntervalError> {
/// let xs = [
///     Interval::new(0.0, 1.0)?,
///     Interval::new(0.0, 5.0)?,
///     Interval::new(0.0, 3.0)?,
/// ];
/// assert_eq!(two_widest_sum(&xs), Some(8.0));
/// # Ok(())
/// # }
/// ```
pub fn two_widest_sum<T: Scalar>(intervals: &[Interval<T>]) -> Option<T> {
    if intervals.len() < 2 {
        return None;
    }
    let mut widest = T::ZERO;
    let mut second = T::ZERO;
    let mut seen_one = false;
    for s in intervals {
        let w = s.width();
        if !seen_one {
            widest = w;
            seen_one = true;
        } else if w > widest {
            second = widest;
            widest = w;
        } else if w > second || intervals.len() == 2 {
            second = second.max_scalar(w);
        }
    }
    Some(widest + second)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn intersection_all_empty_slice_is_none() {
        assert_eq!(intersection_all::<f64>(&[]), None);
    }

    #[test]
    fn intersection_all_single_is_identity() {
        let s = iv(1.0, 2.0);
        assert_eq!(intersection_all(&[s]), Some(s));
    }

    #[test]
    fn intersection_all_disjoint_is_none() {
        assert_eq!(intersection_all(&[iv(0.0, 1.0), iv(2.0, 3.0)]), None);
    }

    #[test]
    fn hull_all_empty_slice_is_none() {
        assert_eq!(hull_all::<f64>(&[]), None);
    }

    #[test]
    fn hull_all_is_order_independent() {
        let a = [iv(0.0, 1.0), iv(5.0, 6.0), iv(2.0, 3.0)];
        let b = [iv(5.0, 6.0), iv(2.0, 3.0), iv(0.0, 1.0)];
        assert_eq!(hull_all(&a), hull_all(&b));
        assert_eq!(hull_all(&a), Some(iv(0.0, 6.0)));
    }

    #[test]
    fn disjoint_indices_flags_only_nonoverlapping() {
        let fused = iv(0.0, 2.0);
        let sensors = [iv(-1.0, 0.0), iv(2.0, 3.0), iv(5.0, 6.0), iv(1.0, 1.5)];
        // Touching endpoints intersect, so only index 2 is disjoint.
        assert_eq!(disjoint_indices(&sensors, &fused), vec![2]);
    }

    #[test]
    fn two_widest_sum_basic() {
        assert_eq!(two_widest_sum::<f64>(&[]), None);
        assert_eq!(two_widest_sum(&[iv(0.0, 1.0)]), None);
        assert_eq!(two_widest_sum(&[iv(0.0, 1.0), iv(0.0, 2.0)]), Some(3.0));
        assert_eq!(
            two_widest_sum(&[iv(0.0, 5.0), iv(0.0, 1.0), iv(0.0, 4.0)]),
            Some(9.0)
        );
    }

    #[test]
    fn two_widest_sum_with_duplicate_maxima() {
        assert_eq!(
            two_widest_sum(&[iv(0.0, 5.0), iv(10.0, 15.0), iv(0.0, 1.0)]),
            Some(10.0)
        );
    }

    #[test]
    fn two_widest_sum_all_equal() {
        assert_eq!(
            two_widest_sum(&[iv(0.0, 2.0), iv(1.0, 3.0), iv(2.0, 4.0)]),
            Some(4.0)
        );
    }
}
