//! Exact expected-fusion-width evaluation under limited information
//! (the paper's optimisation problem (2) and the engine behind Table I).
//!
//! The paper's evaluation methodology (footnote 5) discretises the real
//! line and "generates all possible combinations of measurements for all
//! sensors", averaging the fusion-interval length. This module reproduces
//! that computation exactly as an **expectimax** over the transmission
//! schedule:
//!
//! * a *correct* sensor's slot averages over every grid placement of its
//!   measurement (uniform, always containing the true value),
//! * an *attacked* sensor's slot maximises the expected fusion width over
//!   the stealthy forgeries available in its current mode — containing
//!   `Δ` while passive, free-but-overlap-guaranteed while active,
//! * the leaf fuses all `n` intervals with the system's `f` and scores
//!   the width.
//!
//! Stealth is enforced *in guarantee form*: a forgery is only eligible if
//! it intersects the final fusion interval in **every** continuation of
//! the round (the paper's attacker never risks detection). A truthful
//! placement always qualifies, so the maximisation is never empty.
//!
//! Measurement grids: a sensor of width `w` measures at
//! `truth − w/2 + j·w/⌈w/step⌉`, which for the paper's integer widths and
//! integer `step` puts every interval endpoint on the integer lattice
//! anchored at the true value; forgery candidates are enumerated on the
//! same lattice, where (by the snapping argument of
//! [`crate::full_knowledge`]) an optimal placement always exists.

use arsf_interval::ops::intersection_all;
use arsf_interval::Interval;
use arsf_schedule::TransmissionOrder;

use crate::stealth::{active_feasible, passive_feasible, verify_stealth};
use crate::AttackMode;

/// How capable the modelled attacker is.
///
/// [`AttackerStyle::Optimal`] considers every stealthy forgery —
/// problem (2) solved exactly. [`AttackerStyle::OneSidedHigh`] restricts
/// forgeries to never extend *below* the attacker's own evidence
/// (`lo ≥ Δ.lo`), modelling a simpler adversary that always pushes the
/// fusion interval upward. The paper's reported Table I expectations are
/// closer to such a fixed-side attacker (see the README section "Table
/// I: reproduction vs. the paper"), so this style is offered for
/// side-by-side comparison; `Optimal` strictly dominates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttackerStyle {
    /// Exact expectimax over all stealthy forgeries (default).
    #[default]
    Optimal,
    /// Forgeries never extend below `Δ`'s lower endpoint.
    OneSidedHigh,
}

/// A discretised attack scenario: the static description from which
/// expected fusion widths are computed.
#[derive(Debug, Clone, PartialEq)]
pub struct GridScenario {
    widths: Vec<f64>,
    attacked: Vec<usize>,
    f: usize,
    step: f64,
    /// The true value; `new` sets it to `0.0`, and only the
    /// translation-invariance test moves it.
    truth: f64,
    style: AttackerStyle,
}

impl GridScenario {
    /// Creates a scenario with the given sensor interval widths, attacked
    /// sensor indices, fusion fault assumption `f` and grid step. The true
    /// value is `0.0` (the analysis is translation invariant).
    ///
    /// # Panics
    ///
    /// Panics when a width is negative/non-finite, an attacked index is
    /// out of range, `step` is not positive, or the attacked count
    /// reaches `n − f` (the unbounded regime) — all static configuration
    /// errors.
    pub fn new(widths: Vec<f64>, attacked: Vec<usize>, f: usize, step: f64) -> Self {
        assert!(
            widths.iter().all(|w| w.is_finite() && *w >= 0.0),
            "widths must be finite and non-negative"
        );
        assert!(step > 0.0 && step.is_finite(), "step must be positive");
        let n = widths.len();
        let mut attacked = attacked;
        attacked.sort_unstable();
        attacked.dedup();
        assert!(
            attacked.iter().all(|&a| a < n),
            "attacked indices must be < n"
        );
        assert!(
            attacked.len() < n.saturating_sub(f),
            "attacked count must stay below the coverage requirement n - f"
        );
        Self {
            widths,
            attacked,
            f,
            step,
            truth: 0.0,
            style: AttackerStyle::Optimal,
        }
    }

    /// Selects the attacker capability model (builder style).
    #[must_use]
    pub fn with_style(mut self, style: AttackerStyle) -> Self {
        self.style = style;
        self
    }

    /// The number of sensors.
    pub(crate) fn n(&self) -> usize {
        self.widths.len()
    }
}

/// The result of one expected-width evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedOutcome {
    /// The expected fusion-interval width (the paper's `E|S_{N,f}|`).
    pub expected_width: f64,
    /// Number of leaf fusions evaluated (enumeration size).
    pub leaves: u64,
    /// Whether the attacker stayed stealthy in every enumerated branch
    /// (always `true` for a correctly-configured scenario; exposed for
    /// test assertions).
    pub stealthy: bool,
}

/// Computes the expected fusion width when the attacker plays the
/// expectimax-optimal stealthy policy under the given transmission order.
///
/// # Panics
///
/// Panics if `order.len() != scenario.n()`.
///
/// # Example
///
/// ```
/// use arsf_attack::expectimax::{expected_fusion_width, GridScenario};
/// use arsf_schedule::{SchedulePolicy, TransmissionOrder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Paper Table I, first setup: n = 3, fa = 1, L = {5, 11, 17}, f = 1.
/// let widths = vec![5.0, 11.0, 17.0];
/// let scenario = GridScenario::new(widths.clone(), vec![0], 1, 1.0);
/// let mut rng = StdRng::seed_from_u64(0);
/// let asc = SchedulePolicy::Ascending.order(&widths, 0, &mut rng);
/// let desc = SchedulePolicy::Descending.order(&widths, 0, &mut rng);
/// let e_asc = expected_fusion_width(&scenario, &asc);
/// let e_desc = expected_fusion_width(&scenario, &desc);
/// // The paper's headline: Descending hands the precise attacked sensor
/// // full information, Ascending forces it to commit blind.
/// assert!(e_desc.expected_width >= e_asc.expected_width);
/// ```
pub fn expected_fusion_width(
    scenario: &GridScenario,
    order: &TransmissionOrder,
) -> ExpectedOutcome {
    assert_eq!(
        order.len(),
        scenario.n(),
        "order length must match sensor count"
    );
    let n = scenario.n();
    let f = scenario.f;

    // Deterministic mode per attacked slot.
    let mut modes: Vec<Option<AttackMode>> = vec![None; n];
    let attacked_slots: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(_, s)| scenario.attacked.contains(s))
        .map(|(slot, _)| slot)
        .collect();
    for (idx, &slot) in attacked_slots.iter().enumerate() {
        let far = attacked_slots.len() - idx;
        modes[slot] = Some(AttackMode::for_slot(slot, n, f, far));
    }
    let needs_delta = modes.iter().flatten().any(|m| *m == AttackMode::Passive);

    // Enumerate the attacker's own correct readings when passive mode
    // needs Δ; otherwise a single pass with a truth-centred placeholder.
    let own_grids: Vec<Vec<Interval<f64>>> = scenario
        .attacked
        .iter()
        .map(|&a| {
            let w = scenario.widths[a];
            if needs_delta {
                measurement_grid(scenario.truth, w, scenario.step)
            } else {
                vec![Interval::centered(scenario.truth, w * 0.5).expect("the truth is finite")]
            }
        })
        .collect();

    let mut total = 0.0;
    let mut configs = 0u64;
    let mut leaves = 0u64;
    let mut stealthy = true;
    for_each_placement(&own_grids, |own| {
        let delta = intersection_all(own)
            .unwrap_or_else(|| Interval::degenerate(scenario.truth).expect("truth is finite"));
        let mut eval = Eval {
            scenario,
            order,
            modes: &modes,
            delta,
            own,
            leaves: 0,
        };
        let mut placed: Vec<(usize, Interval<f64>)> = Vec::with_capacity(n);
        let (width, ok) = eval.node(0, &mut placed);
        total += width;
        leaves += eval.leaves;
        stealthy &= ok;
        configs += 1;
    });

    ExpectedOutcome {
        expected_width: total / configs as f64,
        leaves,
        stealthy,
    }
}

/// The no-attack control: expected fusion width when every sensor
/// (including the nominally attacked ones) transmits truthfully. Order
/// independent.
///
/// # Example
///
/// ```
/// use arsf_attack::expectimax::{expected_honest_width, GridScenario};
///
/// let scenario = GridScenario::new(vec![5.0, 11.0, 17.0], vec![0], 1, 1.0);
/// let honest = expected_honest_width(&scenario);
/// assert!(honest > 0.0);
/// ```
pub fn expected_honest_width(scenario: &GridScenario) -> f64 {
    let grids: Vec<Vec<Interval<f64>>> = scenario
        .widths
        .iter()
        .map(|&w| measurement_grid(scenario.truth, w, scenario.step))
        .collect();
    let mut total = 0.0;
    let mut count = 0u64;
    for_each_placement(&grids, |intervals| {
        let fused = arsf_fusion::marzullo::fuse(intervals, scenario.f)
            .expect("truth-containing intervals always reach coverage n - f");
        total += fused.width();
        count += 1;
    });
    total / count as f64
}

/// The measurement grid of a sensor of width `w`: its interval centred at
/// every grid position that keeps `truth` inside, at (self-correcting)
/// resolution `step`.
pub(crate) fn measurement_grid(truth: f64, w: f64, step: f64) -> Vec<Interval<f64>> {
    grid_points(truth - w * 0.5, truth + w * 0.5, step)
        .into_iter()
        .map(|centre| Interval::centered(centre, w * 0.5).expect("grid centres are finite"))
        .collect()
}

/// Visits every joint placement that takes one interval from each grid,
/// the first grid advancing fastest. An empty grid list has one (empty)
/// placement.
pub(crate) fn for_each_placement(
    grids: &[Vec<Interval<f64>>],
    mut visit: impl FnMut(&[Interval<f64>]),
) {
    let mut choice = vec![0; grids.len()];
    let mut placement: Vec<Interval<f64>> = grids.iter().map(|grid| grid[0]).collect();
    'visit: loop {
        visit(&placement);
        for (i, grid) in grids.iter().enumerate() {
            choice[i] = (choice[i] + 1) % grid.len();
            placement[i] = grid[choice[i]];
            if choice[i] != 0 {
                continue 'visit;
            }
        }
        return;
    }
}

struct Eval<'a> {
    scenario: &'a GridScenario,
    order: &'a TransmissionOrder,
    modes: &'a [Option<AttackMode>],
    delta: Interval<f64>,
    /// The attacker's own correct readings, aligned with
    /// `scenario.attacked`.
    own: &'a [Interval<f64>],
    leaves: u64,
}

impl Eval<'_> {
    /// Expectimax over slots; returns (expected width, stealth guaranteed).
    fn node(&mut self, slot: usize, placed: &mut Vec<(usize, Interval<f64>)>) -> (f64, bool) {
        let n = self.scenario.n();
        if slot == n {
            return self.leaf(placed);
        }
        let sensor = self.order[slot];
        match self.modes[slot] {
            None => {
                // Correct sensor: average over its measurement grid.
                let sc = self.scenario;
                let grid = measurement_grid(sc.truth, sc.widths[sensor], sc.step);
                let mut sum = 0.0;
                let mut ok = true;
                for &interval in &grid {
                    placed.push((sensor, interval));
                    let (width, child_ok) = self.node(slot + 1, placed);
                    placed.pop();
                    sum += width;
                    ok &= child_ok;
                }
                (sum / grid.len() as f64, ok)
            }
            Some(mode) => {
                // Attacked sensor: maximise over stealthy candidates.
                let candidates = self.candidates(slot, mode, placed);
                let mut best_ok: Option<f64> = None;
                let mut best_any = f64::NEG_INFINITY;
                for candidate in candidates {
                    placed.push((sensor, candidate));
                    let (width, child_ok) = self.node(slot + 1, placed);
                    placed.pop();
                    best_any = best_any.max(width);
                    if child_ok && best_ok.is_none_or(|b| width > b) {
                        best_ok = Some(width);
                    }
                }
                match best_ok {
                    Some(width) => (width, true),
                    // No guaranteed-stealthy candidate (cannot happen when
                    // the truthful fallback is enumerable): propagate the
                    // failure so an ancestor choice is discarded.
                    None => (best_any, false),
                }
            }
        }
    }

    fn leaf(&mut self, placed: &[(usize, Interval<f64>)]) -> (f64, bool) {
        self.leaves += 1;
        let intervals: Vec<Interval<f64>> = placed.iter().map(|(_, iv)| *iv).collect();
        let fused = arsf_fusion::marzullo::fuse(&intervals, self.scenario.f)
            .expect("correct intervals contain the truth, so coverage n - f is reachable");
        let forged: Vec<Interval<f64>> = placed
            .iter()
            .filter(|(s, _)| self.scenario.attacked.contains(s))
            .map(|(_, iv)| *iv)
            .collect();
        let ok = verify_stealth(&forged, &fused).is_empty();
        (fused.width(), ok)
    }

    /// The attacker's own correct reading of `sensor`.
    fn own(&self, sensor: usize) -> Option<Interval<f64>> {
        let mut own = self.scenario.attacked.iter().zip(self.own);
        own.find(|(&a, _)| a == sensor).map(|(_, iv)| *iv)
    }

    /// Stealth-feasible forgery candidates for an attacked slot.
    fn candidates(
        &self,
        slot: usize,
        mode: AttackMode,
        placed: &[(usize, Interval<f64>)],
    ) -> Vec<Interval<f64>> {
        let sensor = self.order[slot];
        let mut out = self.unstyled_candidates(slot, mode, placed);
        if self.scenario.style == AttackerStyle::OneSidedHigh {
            let floor = self.delta.lo();
            out.retain(|c| c.lo() >= floor - 1e-12);
        }
        if out.is_empty() {
            // The truthful reading always qualifies: it contains Δ exactly,
            // while a grid candidate can miss Δ by a rounding error (a
            // width-11 grid steps by 11/6 at step 2).
            out.extend(self.own(sensor));
        }
        out
    }

    fn unstyled_candidates(
        &self,
        slot: usize,
        mode: AttackMode,
        placed: &[(usize, Interval<f64>)],
    ) -> Vec<Interval<f64>> {
        let sensor = self.order[slot];
        let w = self.scenario.widths[sensor];
        let step = self.scenario.step;
        let truth = self.scenario.truth;
        match mode {
            AttackMode::Passive => {
                // Lower endpoints keeping Δ ⊆ [lo, lo + w].
                let mut los = grid_points(self.delta.hi() - w, self.delta.lo(), step);
                los.push(self.delta.hi() - w);
                los.push(self.delta.lo());
                dedup_sorted(&mut los);
                los.iter()
                    .map(|&lo| Interval::new(lo, lo + w).expect("finite grid"))
                    .filter(|c| passive_feasible(c, &self.delta))
                    .collect()
            }
            AttackMode::Active => {
                // Anchor on what is on the bus (falling back to the truth
                // when transmitting first); pad so every useful placement
                // is reachable. Restricting to this window loses nothing:
                // a forgery overlapping neither the bus contents nor any
                // possible future correct interval cannot influence the
                // fusion interval and would be flagged.
                let max_w = self.scenario.widths.iter().copied().fold(0.0_f64, f64::max);
                let (mut anchor_lo, mut anchor_hi) = (truth, truth);
                for (_, iv) in placed {
                    anchor_lo = anchor_lo.min(iv.lo());
                    anchor_hi = anchor_hi.max(iv.hi());
                }
                let lo_start = anchor_lo - w - max_w;
                let lo_end = anchor_hi + max_w;
                // Snap to the lattice anchored at the truth so candidates
                // align with measurement endpoints.
                let j_lo = ((lo_start - truth) / step).floor() as i64;
                let j_hi = ((lo_end - truth) / step).ceil() as i64;
                let seen: Vec<Interval<f64>> = placed.iter().map(|(_, iv)| *iv).collect();
                let future_own = self.modes[slot + 1..].iter().flatten().count();
                let n = self.scenario.n();
                let f = self.scenario.f;
                let mut out: Vec<Interval<f64>> = (j_lo..=j_hi)
                    .map(|j| {
                        let lo = truth + j as f64 * step;
                        Interval::new(lo, lo + w).expect("finite lattice")
                    })
                    .filter(|c| active_feasible(c, &seen, future_own, n, f))
                    .collect();
                // Guaranteed-stealthy fallback: the sensor's own correct
                // reading (when enumerated) always intersects the fusion
                // interval.
                out.extend(self.own(sensor));
                out
            }
        }
    }
}

/// Inclusive grid from `a` to `b` with approximately the given step; the
/// count self-corrects so both endpoints are always included exactly.
fn grid_points(a: f64, b: f64, step: f64) -> Vec<f64> {
    debug_assert!(b >= a - 1e-12, "grid bounds must be ordered");
    let span = (b - a).max(0.0);
    let count = (span / step).round() as usize;
    if count == 0 {
        return vec![a + span * 0.5];
    }
    (0..=count)
        .map(|j| a + span * j as f64 / count as f64)
        .collect()
}

fn dedup_sorted(xs: &mut Vec<f64>) {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
    xs.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsf_schedule::SchedulePolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn order_for(policy: &SchedulePolicy, widths: &[f64]) -> TransmissionOrder {
        let mut rng = StdRng::seed_from_u64(0);
        policy.order(widths, 0, &mut rng)
    }

    #[test]
    fn grid_points_include_endpoints() {
        let g = grid_points(-2.5, 2.5, 1.0);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], -2.5);
        assert_eq!(g[5], 2.5);
        assert_eq!(grid_points(3.0, 3.0, 1.0), vec![3.0]);
    }

    #[test]
    fn single_attacker_ascending_is_forced_truthful() {
        // n = 3, f = 1, fa = 1 on the most precise sensor, Ascending:
        // she transmits first in passive mode with |Δ| = her own width,
        // so the expected width equals the honest expectation.
        let widths = vec![5.0, 11.0, 17.0];
        let sc = GridScenario::new(widths.clone(), vec![0], 1, 1.0);
        let asc = order_for(&SchedulePolicy::Ascending, &widths);
        let outcome = expected_fusion_width(&sc, &asc);
        let honest = expected_honest_width(&sc);
        assert!(outcome.stealthy);
        assert!(
            (outcome.expected_width - honest).abs() < 1e-9,
            "forced-truthful attacker must match honest: {} vs {honest}",
            outcome.expected_width
        );
    }

    #[test]
    fn descending_beats_ascending_for_precise_attacker() {
        // The paper's Table I shape: attacking the most precise sensor,
        // Descending gives the attacker full knowledge.
        let widths = vec![5.0, 11.0, 17.0];
        let sc = GridScenario::new(widths.clone(), vec![0], 1, 1.0);
        let asc = order_for(&SchedulePolicy::Ascending, &widths);
        let desc = order_for(&SchedulePolicy::Descending, &widths);
        let e_asc = expected_fusion_width(&sc, &asc);
        let e_desc = expected_fusion_width(&sc, &desc);
        assert!(e_asc.stealthy && e_desc.stealthy);
        assert!(
            e_desc.expected_width > e_asc.expected_width,
            "descending {} must exceed ascending {}",
            e_desc.expected_width,
            e_asc.expected_width
        );
    }

    #[test]
    fn passive_slots_keep_the_truthful_reading_on_a_non_dyadic_grid() {
        // At step 2 both passive grid candidates miss Δ by a rounding
        // error; the own reading must still be one, for both styles.
        for (widths, attacked, expected, leaves) in [
            (vec![5.0, 11.0, 11.0], 1, 415.0 / 49.0, 196),
            (vec![5.0, 8.0, 8.0, 11.0], 3, 1931.0 / 350.0, 700),
        ] {
            let desc = order_for(&SchedulePolicy::Descending, &widths);
            for style in [AttackerStyle::Optimal, AttackerStyle::OneSidedHigh] {
                let sc =
                    GridScenario::new(widths.clone(), vec![attacked], 1, 2.0).with_style(style);
                let out = expected_fusion_width(&sc, &desc);
                assert!(
                    (out.expected_width - expected).abs() < 1e-9,
                    "{widths:?} [{attacked}] {style:?}: {out:?}"
                );
                assert_eq!((out.leaves, out.stealthy), (leaves, true));
            }
        }
    }

    #[test]
    fn attack_never_below_honest_baseline() {
        let widths = vec![4.0, 6.0, 8.0];
        let sc = GridScenario::new(widths.clone(), vec![1], 1, 2.0);
        let honest = expected_honest_width(&sc);
        for policy in [SchedulePolicy::Ascending, SchedulePolicy::Descending] {
            let order = order_for(&policy, &widths);
            let outcome = expected_fusion_width(&sc, &order);
            assert!(
                outcome.expected_width >= honest - 1e-9,
                "{policy:?}: {} < honest {honest}",
                outcome.expected_width
            );
        }
    }

    #[test]
    fn no_attack_scenario_equals_honest() {
        let widths = vec![4.0, 6.0];
        let sc = GridScenario::new(widths.clone(), vec![], 0, 2.0);
        let order = order_for(&SchedulePolicy::Ascending, &widths);
        let outcome = expected_fusion_width(&sc, &order);
        let honest = expected_honest_width(&sc);
        assert!((outcome.expected_width - honest).abs() < 1e-12);
        assert!(outcome.stealthy);
    }

    #[test]
    fn coarser_grids_are_cheaper() {
        let widths = vec![4.0, 6.0, 8.0];
        let fine = GridScenario::new(widths.clone(), vec![0], 1, 1.0);
        let coarse = GridScenario::new(widths.clone(), vec![0], 1, 4.0);
        let order = order_for(&SchedulePolicy::Descending, &widths);
        let fine_out = expected_fusion_width(&fine, &order);
        let coarse_out = expected_fusion_width(&coarse, &order);
        assert!(coarse_out.leaves < fine_out.leaves);
    }

    #[test]
    fn truth_translation_invariance() {
        let widths = vec![4.0, 6.0, 8.0];
        let base = GridScenario::new(widths.clone(), vec![0], 1, 2.0);
        let mut moved = GridScenario::new(widths.clone(), vec![0], 1, 2.0);
        moved.truth = 100.0;
        let order = order_for(&SchedulePolicy::Descending, &widths);
        let a = expected_fusion_width(&base, &order);
        let b = expected_fusion_width(&moved, &order);
        assert!((a.expected_width - b.expected_width).abs() < 1e-9);
    }

    #[test]
    fn one_sided_style_is_dominated_by_optimal() {
        let widths = vec![5.0, 11.0, 17.0];
        let desc = order_for(&SchedulePolicy::Descending, &widths);
        let optimal = GridScenario::new(widths.clone(), vec![0], 1, 1.0);
        let one_sided = GridScenario::new(widths.clone(), vec![0], 1, 1.0)
            .with_style(AttackerStyle::OneSidedHigh);
        assert_eq!(one_sided.style, AttackerStyle::OneSidedHigh);
        let e_opt = expected_fusion_width(&optimal, &desc);
        let e_one = expected_fusion_width(&one_sided, &desc);
        assert!(e_one.stealthy);
        assert!(
            e_one.expected_width <= e_opt.expected_width + 1e-9,
            "one-sided {} must not beat optimal {}",
            e_one.expected_width,
            e_opt.expected_width
        );
        // And it still beats honesty (it is an attack).
        let honest = expected_honest_width(&optimal);
        assert!(e_one.expected_width > honest);
    }

    #[test]
    #[should_panic(expected = "attacked count must stay below")]
    fn unbounded_configuration_panics() {
        // n = 3, f = 1: n - f = 2; fa = 2 not allowed.
        let _ = GridScenario::new(vec![1.0, 2.0, 3.0], vec![0, 1], 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "order length")]
    fn order_length_mismatch_panics() {
        let sc = GridScenario::new(vec![1.0, 2.0, 3.0], vec![0], 1, 1.0);
        let order = TransmissionOrder::identity(2);
        let _ = expected_fusion_width(&sc, &order);
    }
}
