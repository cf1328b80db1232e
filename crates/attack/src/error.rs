//! Error type for attack solvers.

use core::fmt;

/// Error returned by the attack solvers in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackError {
    /// The attacked-interval count reaches the coverage requirement
    /// `n − f`, so the attacker could move the fusion interval arbitrarily
    /// far — the paper's unbounded regime, excluded by `fa ≤ f < ⌈n/2⌉`.
    UnboundedAttack {
        /// Number of attacked intervals.
        fa: usize,
        /// The coverage requirement `n − f` that must stay larger than `fa`.
        required: usize,
    },
    /// No correct intervals were supplied.
    NoCorrectIntervals,
    /// The correct intervals never reach the residual coverage the attack
    /// needs (`n − f − fa`), so no stealthy placement exists. With
    /// truth-containing correct intervals this cannot happen; it indicates
    /// an inconsistent configuration.
    NoFeasiblePlacement,
    /// More attacked intervals than the exhaustive lattice solver takes
    /// ([`crate::full_knowledge::MAX_ATTACKED`]).
    TooManyAttacked {
        /// Number of attacked intervals.
        fa: usize,
        /// The most the solver takes.
        max: usize,
    },
    /// An attacked interval's width is negative or non-finite.
    InvalidWidth {
        /// Position of the offending width in the attacked-width list.
        index: usize,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::UnboundedAttack { fa, required } => write!(
                f,
                "{fa} attacked intervals meet the coverage requirement {required}; the fusion interval would be unbounded"
            ),
            AttackError::NoCorrectIntervals => write!(f, "no correct intervals supplied"),
            AttackError::NoFeasiblePlacement => {
                write!(f, "correct intervals never reach the residual coverage; no stealthy placement exists")
            }
            AttackError::TooManyAttacked { fa, max } => write!(
                f,
                "{fa} attacked intervals exceed the lattice solver's limit of {max}"
            ),
            AttackError::InvalidWidth { index } => write!(
                f,
                "attacked width #{index} is negative or non-finite"
            ),
        }
    }
}

impl std::error::Error for AttackError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AttackError::UnboundedAttack { fa: 2, required: 2 };
        assert!(e.to_string().contains("unbounded"));
        assert!(!AttackError::NoCorrectIntervals.to_string().is_empty());
        assert!(!AttackError::NoFeasiblePlacement.to_string().is_empty());
        let e = AttackError::TooManyAttacked { fa: 5, max: 4 };
        assert!(e.to_string().contains("limit of 4"));
        assert!(AttackError::InvalidWidth { index: 1 }
            .to_string()
            .contains("#1"));
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<AttackError>();
    }
}
