//! Naive `O(n²)` reference implementation of Marzullo fusion.
//!
//! Coverage of the real line by closed intervals can only change at
//! interval endpoints, so it suffices to evaluate the coverage at every
//! endpoint by brute force and take the span of those with coverage at
//! least `n − f`. This implementation is deliberately simple — no sweep, no
//! sorting tricks — and serves as the oracle against which the production
//! kernel ([`crate::marzullo::fuse`]) is validated in tests, property tests
//! and the `fusion_scaling` benchmark.

use arsf_interval::{Interval, Scalar};

use crate::FusionError;

/// Computes the fusion interval by brute-force endpoint enumeration.
///
/// Semantically identical to [`crate::marzullo::fuse`] but `O(n²)`.
///
/// # Errors
///
/// Same contract as [`crate::marzullo::fuse`].
///
/// # Example
///
/// ```
/// use arsf_fusion::{marzullo, naive};
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s = [
///     Interval::new(0.0, 4.0)?,
///     Interval::new(1.0, 5.0)?,
///     Interval::new(3.0, 8.0)?,
/// ];
/// assert_eq!(naive::fuse(&s, 1)?, marzullo::fuse(&s, 1)?);
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

    let mut lo: Option<T> = None;
    let mut hi: Option<T> = None;
    for s in intervals {
        for x in [s.lo(), s.hi()] {
            let coverage = intervals.iter().filter(|t| t.contains(x)).count();
            if coverage >= required {
                lo = Some(match lo {
                    Some(cur) => cur.min_scalar(x),
                    None => x,
                });
                hi = Some(match hi {
                    Some(cur) => cur.max_scalar(x),
                    None => x,
                });
            }
        }
    }
    match (lo, hi) {
        (Some(lo), Some(hi)) => Ok(Interval::new(lo, hi)
            .unwrap_or_else(|_| unreachable!("min <= max over the same candidate set"))),
        _ => Err(FusionError::NoAgreement { required }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marzullo;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn matches_sweep_on_fixed_cases() {
        let cases: Vec<Vec<Interval<f64>>> = vec![
            vec![iv(0.0, 1.0)],
            vec![iv(0.0, 1.0), iv(1.0, 2.0)],
            vec![iv(0.0, 6.0), iv(1.0, 7.0), iv(4.0, 8.0), iv(5.0, 10.0)],
            vec![iv(0.0, 2.0), iv(1.0, 2.0), iv(4.0, 6.0), iv(5.0, 6.0)],
            vec![iv(0.0, 0.0), iv(0.0, 0.0), iv(-1.0, 1.0)],
        ];
        for s in &cases {
            for f in 0..s.len() {
                assert_eq!(fuse(s, f), marzullo::fuse(s, f), "case {s:?}, f = {f}");
            }
        }
    }

    #[test]
    fn same_errors_as_sweep() {
        assert_eq!(fuse::<f64>(&[], 0), Err(FusionError::EmptyInput));
        let s = [iv(0.0, 1.0), iv(5.0, 6.0)];
        assert_eq!(fuse(&s, 0), Err(FusionError::NoAgreement { required: 2 }));
        assert_eq!(
            fuse(&s, 2),
            Err(FusionError::FaultCountTooLarge { f: 2, n: 2 })
        );
    }

    #[test]
    fn endpoint_coverage_is_sufficient() {
        // The extreme points of the >= k region are always interval
        // endpoints; a case where the region boundary is interior to no
        // interval would be a bug.
        let s = [iv(0.0, 10.0), iv(2.0, 3.0), iv(2.5, 7.0)];
        assert_eq!(fuse(&s, 1).unwrap(), iv(2.0, 7.0));
    }
}
