//! Streaming attack policies for Monte-Carlo simulation.
//!
//! The expectimax evaluator ([`crate::expectimax`]) is exact but
//! enumerates entire measurement grids, which is the right tool for the
//! Table I expectation experiments. The case-study simulations (Table II)
//! instead run rounds with *sampled* noise, so the attacker needs a
//! streaming policy invoked once per compromised slot. This module
//! provides:
//!
//! * [`PhantomOptimal`] — the principled policy: substitute a *phantom*
//!   interval (centred on her best truth estimate, the midpoint of `Δ`)
//!   for every unseen correct sensor, solve the full-knowledge problem (1)
//!   exactly against seen ∪ phantoms, then clamp the proposal so stealth
//!   is **guaranteed** whatever the unseen sensors turn out to be. When
//!   the attacker transmits last the phantoms vanish and the policy is
//!   the exact optimum.
//! * [`GreedyExtreme`] — a simple baseline that pushes the forged interval
//!   as far as stealth allows towards one side.
//!
//! Stealth guarantees: in passive mode both policies contain `Δ` (the
//! paper's rule). In active mode they keep the forged interval in contact
//! with the *intersection of the seen correct intervals* unless every
//! correct sensor has already transmitted: seen correct intervals all
//! contain the true value, so (by Helly's theorem in one dimension) a
//! forged interval touching their common intersection shares a point with
//! `n − f − 1` mutually-intersecting intervals, which places that point
//! inside the fusion interval — the paper's Section III-A argument.

use arsf_interval::Interval;

use crate::full_knowledge::optimal_attack;
use crate::model::{AttackMode, AttackStrategy, SlotContext};

/// Which direction a one-sided policy extends towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Extend below the observed intervals.
    Low,
    /// Extend above the observed intervals.
    High,
}

/// Certainty-equivalent optimal forgery with guaranteed stealth: unseen
/// correct sensors are replaced by phantoms centred on the attacker's
/// best truth estimate, the full-knowledge solver proposes a placement
/// and the stealth clamp makes it safe against every realisation.
///
/// Left/right ties in the solver are broken by alternating the solve
/// axis between calls, so a long-running attacker splits her pressure
/// evenly between the two envelope bounds instead of always favouring
/// one side.
///
/// # Example
///
/// ```
/// use arsf_attack::strategies::PhantomOptimal;
/// use arsf_attack::AttackStrategy;
///
/// let mut strategy = PhantomOptimal::new();
/// assert_eq!(strategy.name(), "phantom-optimal");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhantomOptimal {
    mirror: bool,
}

impl PhantomOptimal {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AttackStrategy for PhantomOptimal {
    fn forge(&mut self, ctx: &SlotContext<'_>) -> Interval<f64> {
        let estimate = ctx.delta.midpoint();
        let seen_sensors: Vec<usize> = ctx.seen.iter().map(|(s, _)| *s).collect();
        let mut unseen_correct = 0usize;
        let mut world: Vec<Interval<f64>> = ctx.seen.iter().map(|(_, iv)| *iv).collect();
        for sensor in 0..ctx.n {
            if sensor == ctx.sensor
                || seen_sensors.contains(&sensor)
                || ctx.compromised.contains(&sensor)
            {
                continue;
            }
            // Unseen correct sensor: phantom of its public width centred
            // on the truth estimate.
            unseen_correct += 1;
            let width = ctx.all_widths.get(sensor).copied().unwrap_or(ctx.width);
            if let Ok(phantom) = Interval::centered(estimate, width * 0.5) {
                world.push(phantom);
            }
        }
        let mut widths = vec![ctx.width];
        widths.extend_from_slice(ctx.future_own_widths);

        // Alternate the solve axis so equal-width optima on the two
        // frontiers are chosen evenly across rounds.
        self.mirror = !self.mirror;
        let proposal = if self.mirror {
            let mirrored: Vec<Interval<f64>> = world.iter().map(|s| mirror_interval(*s)).collect();
            match optimal_attack(&mirrored, &widths, ctx.f) {
                Ok(attack) => mirror_interval(attack.placements[0]),
                Err(_) => ctx.own_correct,
            }
        } else {
            match optimal_attack(&world, &widths, ctx.f) {
                Ok(attack) => attack.placements[0],
                Err(_) => ctx.own_correct,
            }
        };
        constrain(proposal, ctx, unseen_correct == 0)
    }

    fn name(&self) -> &str {
        "phantom-optimal"
    }
}

/// Reflects an interval through the origin.
fn mirror_interval(s: Interval<f64>) -> Interval<f64> {
    Interval::new(-s.hi(), -s.lo()).expect("mirrored endpoints stay ordered")
}

/// Greedy one-sided extension: anchor the forged interval at the extreme
/// endpoint of everything observed so far (or of `Δ` when blind) and
/// extend outward, then clamp for stealth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyExtreme {
    side: Side,
}

impl GreedyExtreme {
    /// Creates the policy extending towards `side`.
    pub fn new(side: Side) -> Self {
        Self { side }
    }
}

impl AttackStrategy for GreedyExtreme {
    fn forge(&mut self, ctx: &SlotContext<'_>) -> Interval<f64> {
        let (lo, hi) = ctx
            .seen
            .iter()
            .map(|(_, iv)| (iv.lo(), iv.hi()))
            .fold((ctx.delta.lo(), ctx.delta.hi()), |(l, h), (il, ih)| {
                (l.min(il), h.max(ih))
            });
        // Place half the interval beyond the extreme so the other half
        // keeps overlapping the observed mass.
        let proposal = match self.side {
            Side::High => Interval::new(hi - ctx.width * 0.5, hi + ctx.width * 0.5),
            Side::Low => Interval::new(lo - ctx.width * 0.5, lo + ctx.width * 0.5),
        }
        .unwrap_or(ctx.own_correct);
        constrain(proposal, ctx, false)
    }

    fn name(&self) -> &str {
        match self.side {
            Side::High => "greedy-high",
            Side::Low => "greedy-low",
        }
    }
}

/// Applies the stealth guarantee to a proposed forgery.
///
/// * Passive mode: shift (width preserved) until the interval contains
///   `Δ`; if the width cannot hold `Δ`, report truthfully.
/// * Active mode with `exact` knowledge (no unseen correct sensors): the
///   solver's proposal is already anchored on the real fusion frontier —
///   keep it.
/// * Active mode under uncertainty: keep the proposal in contact with the
///   intersection of the seen **correct** intervals (which all contain
///   the truth), shifting minimally; if no correct interval has been seen
///   yet, fall back to containing `Δ`.
fn constrain(proposal: Interval<f64>, ctx: &SlotContext<'_>, exact: bool) -> Interval<f64> {
    match ctx.mode {
        AttackMode::Active if exact => proposal,
        AttackMode::Active => {
            // Intersect the seen correct intervals without collecting
            // them, so a forge through here never allocates.
            let mut seen_correct = ctx
                .seen
                .iter()
                .filter(|(s, _)| !ctx.compromised.contains(s))
                .map(|(_, iv)| *iv);
            let anchor = seen_correct
                .next()
                .and_then(|first| seen_correct.try_fold(first, |acc, next| acc.intersection(&next)))
                .unwrap_or(ctx.delta);
            shift_to_touch(proposal, &anchor, ctx)
        }
        AttackMode::Passive => shift_to_contain(proposal, &ctx.delta, ctx),
    }
}

/// Shifts `proposal` minimally (width preserved) until it intersects
/// `anchor`.
fn shift_to_touch(
    proposal: Interval<f64>,
    anchor: &Interval<f64>,
    ctx: &SlotContext<'_>,
) -> Interval<f64> {
    if proposal.intersects(anchor) {
        return proposal;
    }
    let w = ctx.width;
    let lo = if proposal.lo() > anchor.hi() {
        anchor.hi() // graze the anchor from the right
    } else {
        anchor.lo() - w // graze from the left
    };
    Interval::new(lo, lo + w).unwrap_or(ctx.own_correct)
}

/// Shifts `proposal` minimally (width preserved) until it contains
/// `delta`; returns the truthful reading when the width cannot hold it.
fn shift_to_contain(
    proposal: Interval<f64>,
    delta: &Interval<f64>,
    ctx: &SlotContext<'_>,
) -> Interval<f64> {
    if ctx.width < delta.width() {
        return ctx.own_correct;
    }
    let mut lo = proposal.lo();
    if lo > delta.lo() {
        lo = delta.lo();
    }
    if lo + ctx.width < delta.hi() {
        lo = delta.hi() - ctx.width;
    }
    Interval::new(lo, lo + ctx.width).unwrap_or(ctx.own_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsf_schedule::TransmissionOrder;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[allow(clippy::too_many_arguments)]
    fn ctx<'a>(
        order: &'a TransmissionOrder,
        seen: &'a [(usize, Interval<f64>)],
        sensor: usize,
        width: f64,
        mode: AttackMode,
        delta: Interval<f64>,
        future: &'a [f64],
        compromised: &'a [usize],
    ) -> SlotContext<'a> {
        SlotContext {
            sensor,
            width,
            seen,
            delta,
            own_correct: delta,
            mode,
            n: order.len(),
            f: 1,
            future_own_widths: future,
            compromised,
            all_widths: &[2.0, 2.0, 2.0, 2.0],
        }
    }

    #[test]
    fn phantom_optimal_last_slot_is_exact() {
        // n = 3, f = 1: attacker last with width 3; seen [0,10] and [4,6].
        let order = TransmissionOrder::new(vec![1, 2, 0]).unwrap();
        let seen = [(1usize, iv(0.0, 10.0)), (2usize, iv(4.0, 6.0))];
        let c = ctx(
            &order,
            &seen,
            0,
            3.0,
            AttackMode::Active,
            iv(4.5, 5.5),
            &[],
            &[0],
        );
        let mut strategy = PhantomOptimal::new();
        let forged = strategy.forge(&c);
        let all = vec![seen[0].1, seen[1].1, forged];
        let fused = arsf_fusion::marzullo::fuse(&all, 1).unwrap();
        assert_eq!(fused.width(), 6.0, "exact optimum when transmitting last");
        assert!((forged.width() - 3.0).abs() < 1e-12);
        assert!(forged.intersects(&fused));
    }

    #[test]
    fn phantom_optimal_passive_contains_delta() {
        let order = TransmissionOrder::identity(3);
        let seen: [(usize, Interval<f64>); 0] = [];
        let delta = iv(4.0, 5.0);
        let c = ctx(&order, &seen, 0, 4.0, AttackMode::Passive, delta, &[], &[0]);
        let mut strategy = PhantomOptimal::new();
        let forged = strategy.forge(&c);
        assert!(forged.contains_interval(&delta));
        assert!((forged.width() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn phantom_optimal_uncertain_active_touches_seen_intersection() {
        // n = 4, f = 1; attacker at slot 2 has seen two correct sensors
        // but one is still unseen: the forged interval must stay in
        // contact with the seen intersection whatever comes next.
        let order = TransmissionOrder::new(vec![2, 3, 0, 1]).unwrap();
        let seen = [(2usize, iv(0.0, 2.0)), (3usize, iv(1.0, 3.0))];
        let c = ctx(
            &order,
            &seen,
            0,
            1.0,
            AttackMode::Active,
            iv(1.2, 1.8),
            &[],
            &[0],
        );
        let mut strategy = PhantomOptimal::new();
        let forged = strategy.forge(&c);
        let seen_intersection = iv(1.0, 2.0);
        assert!(
            forged.intersects(&seen_intersection),
            "forged {forged} must touch the seen intersection"
        );
    }

    #[test]
    fn greedy_extends_to_the_configured_side() {
        let order = TransmissionOrder::new(vec![1, 0, 2]).unwrap();
        let seen = [(1usize, iv(0.0, 4.0))];
        let delta = iv(1.0, 2.0);
        let c = ctx(&order, &seen, 0, 2.0, AttackMode::Active, delta, &[], &[0]);
        let mut high = GreedyExtreme::new(Side::High);
        let forged_high = high.forge(&c);
        assert!(forged_high.hi() > 4.0);
        assert!(forged_high.intersects(&iv(0.0, 4.0)));
        let mut low = GreedyExtreme::new(Side::Low);
        let forged_low = low.forge(&c);
        assert!(forged_low.lo() < 0.0);
        assert_eq!(low.side, Side::Low);
    }

    #[test]
    fn greedy_passive_still_contains_delta() {
        let order = TransmissionOrder::identity(3);
        let seen: [(usize, Interval<f64>); 0] = [];
        let delta = iv(0.0, 1.0);
        let c = ctx(&order, &seen, 0, 3.0, AttackMode::Passive, delta, &[], &[0]);
        let mut strategy = GreedyExtreme::new(Side::High);
        let forged = strategy.forge(&c);
        assert!(forged.contains_interval(&delta));
    }

    #[test]
    fn shift_to_contain_is_minimal() {
        let order = TransmissionOrder::identity(2);
        let seen: [(usize, Interval<f64>); 0] = [];
        let delta = iv(10.0, 12.0);
        let c = ctx(&order, &seen, 0, 3.0, AttackMode::Passive, delta, &[], &[0]);
        let out = shift_to_contain(iv(0.0, 3.0), &delta, &c);
        assert!(out.contains_interval(&delta));
        assert_eq!(out.width(), 3.0);
        let ok = iv(9.5, 12.5);
        assert_eq!(shift_to_contain(ok, &delta, &c), ok);
    }

    #[test]
    fn shift_to_touch_grazes_the_anchor() {
        let order = TransmissionOrder::identity(2);
        let seen: [(usize, Interval<f64>); 0] = [];
        let anchor = iv(0.0, 1.0);
        let c = ctx(&order, &seen, 0, 2.0, AttackMode::Active, anchor, &[], &[0]);
        // From the right: lands exactly on the anchor's upper endpoint.
        let right = shift_to_touch(iv(5.0, 7.0), &anchor, &c);
        assert_eq!(right, iv(1.0, 3.0));
        // From the left.
        let left = shift_to_touch(iv(-9.0, -7.0), &anchor, &c);
        assert_eq!(left, iv(-2.0, 0.0));
        // Already touching: unchanged.
        let touching = iv(0.5, 2.5);
        assert_eq!(shift_to_touch(touching, &anchor, &c), touching);
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(PhantomOptimal::new().name(), "phantom-optimal");
        assert_eq!(GreedyExtreme::new(Side::High).name(), "greedy-high");
        assert_eq!(GreedyExtreme::new(Side::Low).name(), "greedy-low");
    }
}
