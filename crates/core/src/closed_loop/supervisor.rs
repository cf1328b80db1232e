//! The high-level safety supervisor.
//!
//! The case study encodes platoon safety into the fusion interval: "if
//! its upper bound exceeds `v + δ1` mph or the lower bound is less than
//! `v − δ2` mph then a high-level algorithm will preempt the low-level
//! controller to guarantee safety of the vehicles". The supervisor here
//! implements exactly that rule and records the violation statistics
//! Table II reports.

use arsf_interval::Interval;

/// The supervisor's decision for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SupervisorAction {
    /// Fusion interval inside the envelope: the PI controller drives.
    Nominal,
    /// Upper bound escaped (`hi > v + δ1`): preempt with braking — the
    /// vehicle may be going too fast to stop in time.
    PreemptBrake,
    /// Lower bound escaped (`lo < v − δ2`): preempt with acceleration —
    /// the vehicle may be about to be rear-ended.
    PreemptAccelerate,
    /// Both bounds escaped: the uncertainty spans the whole envelope;
    /// brake (the conservative action for the platoon's leader-collision
    /// hazard).
    PreemptBoth,
}

/// Safety supervisor for a speed envelope `[target − δ2, target + δ1]`.
///
/// # Example
///
/// ```
/// use arsf_interval::Interval;
/// use arsf_core::closed_loop::supervisor::{Supervisor, SupervisorAction};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sup = Supervisor::new(10.0, 0.5, 0.5);
/// let action = sup.check(&Interval::new(9.8, 10.2)?);
/// assert_eq!(action, SupervisorAction::Nominal);
/// let action = sup.check(&Interval::new(9.8, 10.7)?);
/// assert_eq!(action, SupervisorAction::PreemptBrake);
/// assert_eq!(sup.upper_violations(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supervisor {
    target: f64,
    delta_up: f64,
    delta_down: f64,
    rounds: u64,
    upper_violations: u64,
    lower_violations: u64,
}

impl Supervisor {
    /// Creates a supervisor for the given target speed and envelope
    /// half-widths `δ1` (above) and `δ2` (below).
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-finite or a delta is negative.
    pub fn new(target: f64, delta_up: f64, delta_down: f64) -> Self {
        assert!(
            target.is_finite()
                && delta_up.is_finite()
                && delta_down.is_finite()
                && delta_up >= 0.0
                && delta_down >= 0.0,
            "supervisor envelope must be finite with non-negative deltas"
        );
        Self {
            target,
            delta_up,
            delta_down,
            rounds: 0,
            upper_violations: 0,
            lower_violations: 0,
        }
    }

    /// The upper envelope bound `v + δ1`.
    pub(crate) fn upper_bound(&self) -> f64 {
        self.target + self.delta_up
    }

    /// The lower envelope bound `v − δ2`.
    pub(crate) fn lower_bound(&self) -> f64 {
        self.target - self.delta_down
    }

    /// Checks one fusion interval, records statistics and returns the
    /// action.
    pub fn check(&mut self, fusion: &Interval<f64>) -> SupervisorAction {
        self.rounds += 1;
        let above = fusion.hi() > self.upper_bound();
        let below = fusion.lo() < self.lower_bound();
        if above {
            self.upper_violations += 1;
        }
        if below {
            self.lower_violations += 1;
        }
        match (above, below) {
            (false, false) => SupervisorAction::Nominal,
            (true, false) => SupervisorAction::PreemptBrake,
            (false, true) => SupervisorAction::PreemptAccelerate,
            (true, true) => SupervisorAction::PreemptBoth,
        }
    }

    /// Rounds checked so far.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds whose upper bound escaped.
    pub fn upper_violations(&self) -> u64 {
        self.upper_violations
    }

    /// Rounds whose lower bound escaped.
    pub(crate) fn lower_violations(&self) -> u64 {
        self.lower_violations
    }

    /// Fraction of rounds with an upper violation (Table II row 1).
    pub(crate) fn upper_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.upper_violations as f64 / self.rounds as f64
        }
    }

    /// Fraction of rounds with a lower violation (Table II row 2).
    pub(crate) fn lower_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.lower_violations as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn nominal_inside_envelope() {
        let mut sup = Supervisor::new(10.0, 0.5, 0.5);
        assert_eq!(sup.check(&iv(9.5, 10.5)), SupervisorAction::Nominal);
        assert_eq!(sup.upper_violations(), 0);
        assert_eq!(sup.lower_violations(), 0);
    }

    #[test]
    fn each_violation_kind_is_classified() {
        let mut sup = Supervisor::new(10.0, 0.5, 0.5);
        assert_eq!(sup.check(&iv(9.8, 10.6)), SupervisorAction::PreemptBrake);
        assert_eq!(
            sup.check(&iv(9.4, 10.2)),
            SupervisorAction::PreemptAccelerate
        );
        assert_eq!(sup.check(&iv(9.0, 11.0)), SupervisorAction::PreemptBoth);
        assert_eq!(sup.rounds(), 3);
        assert_eq!(sup.upper_violations(), 2);
        assert_eq!(sup.lower_violations(), 2);
    }

    #[test]
    fn rates_match_counts() {
        let mut sup = Supervisor::new(10.0, 0.5, 0.5);
        sup.check(&iv(9.8, 10.2));
        sup.check(&iv(9.8, 10.7));
        assert_eq!(sup.upper_rate(), 0.5);
        assert_eq!(sup.lower_rate(), 0.0);
    }

    #[test]
    fn empty_supervisor_rates_are_zero() {
        let sup = Supervisor::new(10.0, 0.5, 0.5);
        assert_eq!(sup.upper_rate(), 0.0);
        assert_eq!(sup.lower_rate(), 0.0);
        assert_eq!(sup.rounds(), 0);
    }

    #[test]
    fn asymmetric_envelope() {
        let mut sup = Supervisor::new(10.0, 1.0, 0.25);
        assert_eq!(sup.upper_bound(), 11.0);
        assert_eq!(sup.lower_bound(), 9.75);
        assert_eq!(sup.check(&iv(9.8, 10.9)), SupervisorAction::Nominal);
    }

    #[test]
    #[should_panic(expected = "non-negative deltas")]
    fn negative_delta_panics() {
        let _ = Supervisor::new(10.0, -0.5, 0.5);
    }
}
