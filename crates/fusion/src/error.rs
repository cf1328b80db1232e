//! Error type for fusion operations.

use core::fmt;

/// Error returned by the fusion algorithms in this crate.
///
/// # Example
///
/// ```
/// use arsf_fusion::{marzullo, FusionError};
/// use arsf_interval::Interval;
///
/// // Two disjoint intervals cannot agree if zero faults are assumed:
/// let a = Interval::new(0.0, 1.0).unwrap();
/// let b = Interval::new(5.0, 6.0).unwrap();
/// let err = marzullo::fuse(&[a, b], 0).unwrap_err();
/// assert!(matches!(err, FusionError::NoAgreement { required: 2 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionError {
    /// No intervals were supplied.
    EmptyInput,
    /// The assumed fault count `f` is not smaller than the sensor count
    /// `n`; Marzullo's algorithm requires at least one trusted interval.
    FaultCountTooLarge {
        /// The assumed number of faulty sensors.
        f: usize,
        /// The number of sensors supplied.
        n: usize,
    },
    /// No point of the real line is covered by the required number of
    /// intervals. This certifies that strictly more than `f` sensors are
    /// faulty (or compromised), since `n − f` correct intervals would share
    /// the true value.
    NoAgreement {
        /// The coverage `n − f` that could not be reached.
        required: usize,
    },
}

impl fmt::Display for FusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionError::EmptyInput => write!(f, "no intervals supplied"),
            FusionError::FaultCountTooLarge { f: faults, n } => write!(
                f,
                "assumed fault count {faults} must be smaller than sensor count {n}"
            ),
            FusionError::NoAgreement { required } => write!(
                f,
                "no point is covered by {required} intervals; more sensors are faulty than assumed"
            ),
        }
    }
}

impl std::error::Error for FusionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_nonempty_and_unpunctuated() {
        let errs = [
            FusionError::EmptyInput,
            FusionError::FaultCountTooLarge { f: 3, n: 3 },
            FusionError::NoAgreement { required: 2 },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<FusionError>();
    }
}
