//! Attacker configuration, modes and the strategy interface.

use arsf_interval::ops::intersection_all;
use arsf_interval::Interval;

/// The attacker's operating mode at one of her transmission slots
/// (paper, Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackMode {
    /// Not enough measurements on the bus: the forged interval must
    /// contain `Δ` to guarantee overlap with the fusion interval.
    Passive,
    /// `sent ≥ n − f − far`: free placement, provided overlap with the
    /// fusion interval remains guaranteed.
    Active,
}

impl AttackMode {
    /// Determines the mode from the bus state: `sent` measurements already
    /// transmitted, `n` sensors total, fusion fault assumption `f`, and
    /// `far` = the attacker's still-unsent intervals (including the one
    /// about to be forged).
    ///
    /// # Example
    ///
    /// ```
    /// use arsf_attack::AttackMode;
    ///
    /// // n = 3, f = 1, one attacked interval left to send:
    /// assert_eq!(AttackMode::for_slot(0, 3, 1, 1), AttackMode::Passive);
    /// assert_eq!(AttackMode::for_slot(1, 3, 1, 1), AttackMode::Active);
    /// ```
    pub fn for_slot(sent: usize, n: usize, f: usize, far: usize) -> Self {
        if sent >= n.saturating_sub(f + far) {
            AttackMode::Active
        } else {
            AttackMode::Passive
        }
    }
}

/// The intersection `Δ` of the correct readings of all compromised
/// sensors — every point the attacker cannot rule out as the true value.
///
/// Returns `None` for an empty slice. For readings taken by correct
/// sensors the intersection is never empty (all contain the truth).
///
/// # Example
///
/// ```
/// use arsf_attack::delta;
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let readings = [Interval::new(9.0, 11.0)?, Interval::new(10.0, 12.0)?];
/// assert_eq!(delta(&readings), Some(Interval::new(10.0, 11.0)?));
/// # Ok(())
/// # }
/// ```
pub fn delta(correct_readings: &[Interval<f64>]) -> Option<Interval<f64>> {
    intersection_all(correct_readings)
}

/// Static attacker configuration: which sensors she controls and the
/// fusion fault assumption `f` she knows the system uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackerConfig {
    compromised: Vec<usize>,
    f: usize,
}

impl AttackerConfig {
    /// Creates a configuration; duplicate sensor indices are removed.
    pub fn new(compromised: impl IntoIterator<Item = usize>, f: usize) -> Self {
        let mut compromised: Vec<usize> = compromised.into_iter().collect();
        compromised.sort_unstable();
        compromised.dedup();
        Self { compromised, f }
    }

    /// The compromised sensor indices (sorted).
    pub fn compromised(&self) -> &[usize] {
        &self.compromised
    }

    /// Whether the attacker controls `sensor`.
    pub fn controls(&self, sensor: usize) -> bool {
        self.compromised.binary_search(&sensor).is_ok()
    }
}

/// Everything an [`AttackStrategy`] may consult when forging the interval
/// for one of its slots.
///
/// Lifetimes tie the borrows to the pipeline driving the round; the
/// strategy must copy anything it wants to keep.
#[derive(Debug)]
pub struct SlotContext<'a> {
    /// The compromised sensor transmitting now.
    pub sensor: usize,
    /// That sensor's fixed interval width.
    pub width: f64,
    /// Intervals already broadcast this round, as `(sensor, interval)` in
    /// transmission order — everything the attacker has seen.
    pub seen: &'a [(usize, Interval<f64>)],
    /// `Δ`: intersection of the attacker's sensors' correct readings.
    pub delta: Interval<f64>,
    /// The correct reading of the transmitting sensor itself.
    pub own_correct: Interval<f64>,
    /// The current mode (derived from the bus state).
    pub mode: AttackMode,
    /// Total sensor count `n`.
    pub n: usize,
    /// Fusion fault assumption `f`.
    pub f: usize,
    /// Widths of the attacker's still-unsent intervals *after* this one.
    pub future_own_widths: &'a [f64],
    /// All sensor indices the attacker controls (including this one) —
    /// she knows which bus traffic is her own.
    pub compromised: &'a [usize],
    /// The public interval widths of **all** sensors in id order (widths
    /// are fixed by published precisions, so everyone knows them).
    pub all_widths: &'a [f64],
}

/// A streaming attack policy: forges one interval per compromised slot as
/// the round unfolds.
///
/// Implementations must return an interval of exactly
/// [`SlotContext::width`] — interval widths are public knowledge, so a
/// width change would be detected immediately. The pipeline enforces this
/// with a debug assertion.
pub trait AttackStrategy {
    /// Forges the interval to broadcast at this slot.
    fn forge(&mut self, ctx: &SlotContext<'_>) -> Interval<f64>;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// The do-nothing baseline: always transmit the correct reading.
///
/// Useful as the no-attack control in every experiment and as the fallback
/// guaranteeing stealth (a truthful interval always intersects the fusion
/// interval when `fa ≤ f`).
///
/// # Example
///
/// ```
/// use arsf_attack::{AttackStrategy, Truthful};
///
/// let mut strategy = Truthful;
/// assert_eq!(strategy.name(), "truthful");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Truthful;

impl AttackStrategy for Truthful {
    fn forge(&mut self, ctx: &SlotContext<'_>) -> Interval<f64> {
        ctx.own_correct
    }

    fn name(&self) -> &str {
        "truthful"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn mode_threshold_matches_paper() {
        // n = 5, f = 2, far = 2: threshold = 1.
        assert_eq!(AttackMode::for_slot(0, 5, 2, 2), AttackMode::Passive);
        assert_eq!(AttackMode::for_slot(1, 5, 2, 2), AttackMode::Active);
        // far = 1 after one of her intervals went out: threshold = 2.
        assert_eq!(AttackMode::for_slot(1, 5, 2, 1), AttackMode::Passive);
        assert_eq!(AttackMode::for_slot(2, 5, 2, 1), AttackMode::Active);
    }

    #[test]
    fn mode_saturates_for_large_budgets() {
        // f + far >= n: always active (threshold saturates at 0).
        assert_eq!(AttackMode::for_slot(0, 3, 2, 2), AttackMode::Active);
    }

    #[test]
    fn delta_is_intersection() {
        let readings = [iv(0.0, 4.0), iv(2.0, 6.0), iv(3.0, 5.0)];
        assert_eq!(delta(&readings), Some(iv(3.0, 4.0)));
        assert_eq!(delta(&[]), None);
    }

    #[test]
    fn config_dedupes_and_sorts() {
        let cfg = AttackerConfig::new([3, 1, 3, 0], 2);
        assert_eq!(cfg.compromised(), &[0, 1, 3]);
        assert!(cfg.controls(1));
        assert!(!cfg.controls(2));
    }

    #[test]
    fn truthful_returns_own_reading() {
        let seen: Vec<(usize, Interval<f64>)> = Vec::new();
        let ctx = SlotContext {
            sensor: 0,
            width: 2.0,
            seen: &seen,
            delta: iv(1.0, 2.0),
            own_correct: iv(0.5, 2.5),
            mode: AttackMode::Passive,
            n: 3,
            f: 1,
            future_own_widths: &[],
            compromised: &[0],
            all_widths: &[2.0, 1.0, 3.0],
        };
        assert_eq!(Truthful.forge(&ctx), iv(0.5, 2.5));
    }
}
