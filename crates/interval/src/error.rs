//! Error type for interval construction.

use core::fmt;

/// Error returned when an [`Interval`](crate::Interval) cannot be
/// constructed from the given endpoints.
///
/// # Example
///
/// ```
/// use arsf_interval::{Interval, IntervalError};
///
/// let err = Interval::new(2.0, 1.0).unwrap_err();
/// assert!(matches!(err, IntervalError::Inverted));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalError {
    /// The lower endpoint was strictly greater than the upper endpoint.
    Inverted,
    /// An endpoint was not a finite value (floating-point NaN or infinity).
    NonFinite,
    /// A radius or width argument was negative.
    NegativeWidth,
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Inverted => {
                write!(f, "lower endpoint was greater than upper endpoint")
            }
            IntervalError::NonFinite => write!(f, "endpoint was not a finite value"),
            IntervalError::NegativeWidth => write!(f, "width or radius was negative"),
        }
    }
}

impl std::error::Error for IntervalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        for err in [
            IntervalError::Inverted,
            IntervalError::NonFinite,
            IntervalError::NegativeWidth,
        ] {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good_error::<IntervalError>();
    }
}
