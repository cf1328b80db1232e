//! Schedule policies.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::TransmissionOrder;

/// A policy mapping sensor interval widths to a transmission order.
///
/// Ties between equal widths are broken by sensor index, so Ascending and
/// Descending are deterministic; [`SchedulePolicy::Random`] uses the
/// supplied RNG and [`SchedulePolicy::Rotating`] uses the round counter.
///
/// # Example
///
/// ```
/// use arsf_schedule::SchedulePolicy;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let widths = [1.0, 0.2, 0.2, 2.0]; // gps, enc, enc, camera
/// let mut rng = StdRng::seed_from_u64(1);
/// let order = SchedulePolicy::Ascending.order(&widths, 0, &mut rng);
/// assert_eq!(order.as_slice(), &[1, 2, 0, 3]); // encoders first
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulePolicy {
    /// Most precise (smallest width) sensors transmit first — the paper's
    /// recommended schedule.
    Ascending,
    /// Least precise (largest width) sensors transmit first.
    Descending,
    /// A fresh uniformly-random order every round (the paper's "Random
    /// schedule that changes transmission order in every step").
    Random,
    /// An explicit fixed order (validated when applied).
    Fixed(TransmissionOrder),
    /// A fixed base order rotated left by one slot every round.
    Rotating(TransmissionOrder),
}

impl SchedulePolicy {
    /// Produces the transmission order for one round.
    ///
    /// `widths[i]` is the interval width of sensor `i`; `round` is the
    /// communication round counter (used by [`SchedulePolicy::Rotating`]);
    /// `rng` is used by [`SchedulePolicy::Random`].
    ///
    /// # Panics
    ///
    /// Panics if a [`SchedulePolicy::Fixed`] or [`SchedulePolicy::Rotating`]
    /// order's length does not match `widths.len()` — schedules are static
    /// configuration, so a mismatch is a programming error.
    pub fn order<R: Rng + ?Sized>(
        &self,
        widths: &[f64],
        round: u64,
        rng: &mut R,
    ) -> TransmissionOrder {
        let mut out = TransmissionOrder::identity(0);
        self.order_into(widths, round, rng, &mut out);
        out
    }

    /// [`SchedulePolicy::order`] writing into an existing order, reusing
    /// its allocation: a round engine refills one buffer every round.
    ///
    /// Makes exactly the same RNG draws as [`SchedulePolicy::order`].
    ///
    /// # Panics
    ///
    /// As [`SchedulePolicy::order`].
    pub fn order_into<R: Rng + ?Sized>(
        &self,
        widths: &[f64],
        round: u64,
        rng: &mut R,
        out: &mut TransmissionOrder,
    ) {
        let n = widths.len();
        let slots = &mut out.order;
        match self {
            SchedulePolicy::Ascending => sort_by_width(widths, false, slots),
            SchedulePolicy::Descending => sort_by_width(widths, true, slots),
            SchedulePolicy::Random => {
                slots.clear();
                slots.extend(0..n);
                slots.shuffle(rng);
            }
            SchedulePolicy::Fixed(order) => {
                assert_eq!(order.len(), n, "fixed order length must match sensor count");
                out.clone_from(order);
            }
            SchedulePolicy::Rotating(base) => {
                assert_eq!(
                    base.len(),
                    n,
                    "rotating order length must match sensor count"
                );
                let shift = (round % n.max(1) as u64) as usize;
                slots.clear();
                slots.extend_from_slice(&base.order[shift..]);
                slots.extend_from_slice(&base.order[..shift]);
            }
        }
    }

    /// Whether the policy yields the same order every round without
    /// touching the RNG (Ascending, Descending and Fixed), so an engine
    /// may compute it once and reuse it.
    pub fn is_round_invariant(&self) -> bool {
        matches!(
            self,
            SchedulePolicy::Ascending | SchedulePolicy::Descending | SchedulePolicy::Fixed(_)
        )
    }

    /// The policy's rank in the paper's Table II exposure ordering, when
    /// it has one: `Ascending` (`0`, the recommended schedule — an
    /// adaptive attacker learns least before transmitting) below `Random`
    /// (`1`) below `Descending` (`2`, the attacker transmits last with
    /// full knowledge of the precise sensors).
    ///
    /// [`SchedulePolicy::Fixed`] and [`SchedulePolicy::Rotating`] return
    /// `None`: their exposure depends on the concrete order, so the
    /// static dominance pass makes no claim about them.
    pub fn exposure_rank(&self) -> Option<u8> {
        match self {
            SchedulePolicy::Ascending => Some(0),
            SchedulePolicy::Random => Some(1),
            SchedulePolicy::Descending => Some(2),
            SchedulePolicy::Fixed(_) | SchedulePolicy::Rotating(_) => None,
        }
    }

    /// A short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::Ascending => "ascending",
            SchedulePolicy::Descending => "descending",
            SchedulePolicy::Random => "random",
            SchedulePolicy::Fixed(_) => "fixed",
            SchedulePolicy::Rotating(_) => "rotating",
        }
    }
}

fn sort_by_width(widths: &[f64], descending: bool, slots: &mut Vec<usize>) {
    slots.clear();
    slots.extend(0..widths.len());
    // The index tie-break makes the order total, so an unstable sort is
    // deterministic (and never allocates).
    slots.sort_unstable_by(|&a, &b| {
        let cmp = widths[a].total_cmp(&widths[b]);
        let cmp = if descending { cmp.reverse() } else { cmp };
        cmp.then(a.cmp(&b))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn ascending_sorts_smallest_first() {
        let order = SchedulePolicy::Ascending.order(&[5.0, 11.0, 17.0], 0, &mut rng());
        assert_eq!(order.as_slice(), &[0, 1, 2]);
        let order = SchedulePolicy::Ascending.order(&[17.0, 5.0, 11.0], 0, &mut rng());
        assert_eq!(order.as_slice(), &[1, 2, 0]);
    }

    #[test]
    fn descending_sorts_largest_first() {
        let order = SchedulePolicy::Descending.order(&[5.0, 11.0, 17.0], 0, &mut rng());
        assert_eq!(order.as_slice(), &[2, 1, 0]);
    }

    #[test]
    fn ties_break_by_index_in_both_directions() {
        let widths = [5.0, 5.0, 5.0, 14.0];
        let asc = SchedulePolicy::Ascending.order(&widths, 0, &mut rng());
        assert_eq!(asc.as_slice(), &[0, 1, 2, 3]);
        let desc = SchedulePolicy::Descending.order(&widths, 0, &mut rng());
        assert_eq!(desc.as_slice(), &[3, 0, 1, 2]);
    }

    #[test]
    fn random_is_a_permutation_and_varies() {
        let widths = [1.0; 6];
        let mut rng = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            let order = SchedulePolicy::Random.order(&widths, 0, &mut rng);
            assert_eq!(order.len(), 6);
            seen.insert(order.as_slice().to_vec());
        }
        assert!(seen.len() > 1, "20 shuffles of 6 items should differ");
    }

    #[test]
    fn fixed_returns_the_given_order() {
        let base = TransmissionOrder::new(vec![2, 0, 1]).unwrap();
        let order = SchedulePolicy::Fixed(base.clone()).order(&[1.0, 2.0, 3.0], 9, &mut rng());
        assert_eq!(order, base);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn fixed_length_mismatch_panics() {
        let base = TransmissionOrder::new(vec![0, 1]).unwrap();
        let _ = SchedulePolicy::Fixed(base).order(&[1.0, 2.0, 3.0], 0, &mut rng());
    }

    #[test]
    fn rotating_advances_with_round() {
        let base = TransmissionOrder::new(vec![0, 1, 2]).unwrap();
        let policy = SchedulePolicy::Rotating(base);
        let widths = [1.0, 2.0, 3.0];
        assert_eq!(policy.order(&widths, 0, &mut rng()).as_slice(), &[0, 1, 2]);
        assert_eq!(policy.order(&widths, 1, &mut rng()).as_slice(), &[1, 2, 0]);
        assert_eq!(policy.order(&widths, 2, &mut rng()).as_slice(), &[2, 0, 1]);
        assert_eq!(policy.order(&widths, 3, &mut rng()).as_slice(), &[0, 1, 2]);
        assert_eq!(policy.order(&widths, 5, &mut rng()).as_slice(), &[2, 0, 1]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SchedulePolicy::Ascending.name(), "ascending");
        assert_eq!(SchedulePolicy::Descending.name(), "descending");
        assert_eq!(SchedulePolicy::Random.name(), "random");
    }

    #[test]
    fn exposure_ranks_follow_table_two() {
        assert_eq!(SchedulePolicy::Ascending.exposure_rank(), Some(0));
        assert_eq!(SchedulePolicy::Random.exposure_rank(), Some(1));
        assert_eq!(SchedulePolicy::Descending.exposure_rank(), Some(2));
        let base = TransmissionOrder::new(vec![0, 1]).unwrap();
        assert_eq!(SchedulePolicy::Fixed(base.clone()).exposure_rank(), None);
        assert_eq!(SchedulePolicy::Rotating(base).exposure_rank(), None);
    }

    #[test]
    fn order_into_equals_order_and_draws_the_same_randomness() {
        let widths = [3.0, 1.0, 2.0, 1.0, 5.0];
        let base = TransmissionOrder::new(vec![4, 2, 0, 3, 1]).unwrap();
        let policies = [
            SchedulePolicy::Ascending,
            SchedulePolicy::Descending,
            SchedulePolicy::Random,
            SchedulePolicy::Fixed(base.clone()),
            SchedulePolicy::Rotating(base),
        ];
        for policy in &policies {
            // A stale buffer of another length must be fully overwritten.
            let mut reused = TransmissionOrder::identity(9);
            for round in 0..7 {
                let mut rng_a = StdRng::seed_from_u64(round);
                let mut rng_b = StdRng::seed_from_u64(round);
                let fresh = policy.order(&widths, round, &mut rng_a);
                policy.order_into(&widths, round, &mut rng_b, &mut reused);
                assert_eq!(fresh, reused, "{} round {round}", policy.name());
                assert_eq!(rng_a, rng_b, "{} round {round}: RNG state", policy.name());
            }
        }
    }

    #[test]
    fn round_invariant_policies_ignore_round_and_rng() {
        let widths = [3.0, 1.0, 2.0];
        let base = TransmissionOrder::new(vec![2, 0, 1]).unwrap();
        for policy in [
            SchedulePolicy::Ascending,
            SchedulePolicy::Descending,
            SchedulePolicy::Random,
            SchedulePolicy::Fixed(base.clone()),
            SchedulePolicy::Rotating(base.clone()),
        ] {
            if !policy.is_round_invariant() {
                continue;
            }
            let mut a = StdRng::seed_from_u64(1);
            let mut b = StdRng::seed_from_u64(2);
            assert_eq!(
                policy.order(&widths, 0, &mut a),
                policy.order(&widths, 5, &mut b)
            );
            assert_eq!(a, StdRng::seed_from_u64(1), "{}", policy.name());
        }
        assert!(!SchedulePolicy::Random.is_round_invariant());
        assert!(!SchedulePolicy::Rotating(base).is_round_invariant());
    }

    #[test]
    fn empty_widths_yield_empty_order() {
        let order = SchedulePolicy::Ascending.order(&[], 0, &mut rng());
        assert!(order.is_empty());
        let empty = TransmissionOrder::new(vec![]).unwrap();
        let order = SchedulePolicy::Rotating(empty).order(&[], 4, &mut rng());
        assert!(order.is_empty());
    }
}
