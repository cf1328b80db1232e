//! The exact solver for the paper's optimisation problem (1): optimal
//! interval forgery when all correct intervals are known.
//!
//! With full knowledge the attacker transmits last, so active mode is
//! always available and the placement question is purely geometric:
//!
//! > maximise `|S_{N,f}|` subject to `S_{N,f} ∩ aᵢ ≠ ∅` for every forged
//! > interval `aᵢ` (stealth).
//!
//! The solver exploits a snapping argument. The fusion width, as a
//! function of one forged interval's position with all others fixed, is
//! piecewise linear and changes slope only when one of the forged
//! endpoints crosses a *breakpoint*: a correct-interval endpoint or
//! another forged endpoint. Sliding an interval towards the optimum
//! therefore stops at a position where some endpoint coincides with a
//! breakpoint, and by induction an optimal solution exists on the lattice
//!
//! `E = {correct endpoints} ± (signed sums of at most fa − 1 forged widths)`
//!
//! with each forged interval's lower endpoint in `E ∪ (E − wᵢ)`.
//! Exhaustively evaluating that lattice (with exact fusion and exact
//! stealth verification per combination) yields the optimum in
//! `O((c · 3^{fa})^{fa})` fusions — trivial for the paper's `fa ≤ 2` and
//! fine up to [`MAX_ATTACKED`] forged intervals; more is a typed error.
//!
//! [`brute_force_attack`] provides an independent dense-grid oracle used
//! by the property-test suite to validate the lattice solver.

use arsf_interval::coverage::CoverageMap;
use arsf_interval::Interval;

use crate::stealth::verify_stealth;
use crate::AttackError;

/// The most attacked intervals [`optimal_attack`] solves for: the
/// lattice grows as `(c · 3^{fa})^{fa}`, and the paper's regime is
/// `fa ≤ f < ⌈n/2⌉` with `n ≤ 5`.
pub const MAX_ATTACKED: usize = 4;

/// The result of an optimal full-knowledge attack.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalAttack {
    /// One forged interval per attacked width, in input order.
    pub placements: Vec<Interval<f64>>,
    /// The resulting fusion interval (exact).
    pub fusion: Interval<f64>,
    /// The fusion width of the correct intervals alone at coverage
    /// `k = n − f` — what the attacker's sensors would contribute nothing
    /// to. `None` when the correct intervals never reach coverage `k`.
    pub honest_width: Option<f64>,
}

impl OptimalAttack {
    /// The width of the optimal fusion interval.
    pub fn width(&self) -> f64 {
        self.fusion.width()
    }
}

/// Computes the optimal stealthy attack given every correct interval
/// (problem (1) of the paper).
///
/// `correct` are the `n − fa` correct intervals, `attacked_widths` the
/// fixed widths of the attacker's intervals, and `f` the fusion fault
/// assumption, so `n = correct.len() + attacked_widths.len()` and the
/// required coverage is `k = n − f`.
///
/// # Errors
///
/// * [`AttackError::NoCorrectIntervals`] — `correct` is empty,
/// * [`AttackError::UnboundedAttack`] — `fa ≥ k` (the paper's unbounded
///   regime, excluded by `fa ≤ f < ⌈n/2⌉`),
/// * [`AttackError::NoFeasiblePlacement`] — no stealthy placement reaches
///   coverage `k` anywhere (impossible when the correct intervals share
///   the true value),
/// * [`AttackError::TooManyAttacked`] — more than [`MAX_ATTACKED`] widths
///   (the exhaustive lattice search is not meant for larger `fa`),
/// * [`AttackError::InvalidWidth`] — a width is negative or non-finite.
///
/// # Example
///
/// ```
/// use arsf_attack::full_knowledge::optimal_attack;
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let correct = [Interval::new(0.0, 10.0)?, Interval::new(4.0, 6.0)?];
/// // n = 3, f = 1, k = 2: honest fusion is [4, 6] (width 2).
/// let attack = optimal_attack(&correct, &[3.0], 1)?;
/// // One forged width-3 interval stretches the fusion to [4, 10] (or
/// // symmetrically [0, 6]): width 6.
/// assert_eq!(attack.width(), 6.0);
/// assert_eq!(attack.honest_width, Some(2.0));
/// # Ok(())
/// # }
/// ```
pub fn optimal_attack(
    correct: &[Interval<f64>],
    attacked_widths: &[f64],
    f: usize,
) -> Result<OptimalAttack, AttackError> {
    let fa = attacked_widths.len();
    if fa > MAX_ATTACKED {
        return Err(AttackError::TooManyAttacked {
            fa,
            max: MAX_ATTACKED,
        });
    }
    if let Some(index) = attacked_widths
        .iter()
        .position(|w| !(w.is_finite() && *w >= 0.0))
    {
        return Err(AttackError::InvalidWidth { index });
    }
    if correct.is_empty() {
        return Err(AttackError::NoCorrectIntervals);
    }
    let n = correct.len() + fa;
    let k = n.saturating_sub(f);
    if fa >= k {
        return Err(AttackError::UnboundedAttack { fa, required: k });
    }

    let map = CoverageMap::build(correct);
    let honest_width = map.span_at_least(k).map(|s| s.width());

    // Breakpoint lattice: correct endpoints shifted by signed sums of at
    // most fa - 1 forged widths.
    let mut base: Vec<f64> = Vec::with_capacity(correct.len() * 2);
    for s in correct {
        base.push(s.lo());
        base.push(s.hi());
    }
    let shifts = signed_subset_sums(attacked_widths, fa.saturating_sub(1));
    let mut lattice: Vec<f64> = Vec::with_capacity(base.len() * shifts.len());
    for &b in &base {
        for &d in &shifts {
            lattice.push(b + d);
        }
    }
    dedup_sorted(&mut lattice);

    // Per-interval candidate lower endpoints: lattice points as either the
    // interval's lo or its hi.
    let candidates: Vec<Vec<f64>> = attacked_widths
        .iter()
        .map(|&w| {
            let mut c: Vec<f64> = Vec::with_capacity(lattice.len() * 2);
            c.extend(lattice.iter().copied());
            c.extend(lattice.iter().map(|&x| x - w));
            dedup_sorted(&mut c);
            c
        })
        .collect();

    let mut best: BestAttack = None;
    let mut placements: Vec<Interval<f64>> = Vec::with_capacity(fa);
    explore(
        correct,
        attacked_widths,
        f,
        &candidates,
        &mut placements,
        &mut best,
    );

    match best {
        Some((_, placements, fusion)) => Ok(OptimalAttack {
            placements,
            fusion,
            honest_width,
        }),
        None => Err(AttackError::NoFeasiblePlacement),
    }
}

/// Best attack found so far: `(width, placements, fusion interval)`.
type BestAttack = Option<(f64, Vec<Interval<f64>>, Interval<f64>)>;

fn explore(
    correct: &[Interval<f64>],
    widths: &[f64],
    f: usize,
    candidates: &[Vec<f64>],
    placements: &mut Vec<Interval<f64>>,
    best: &mut BestAttack,
) {
    let idx = placements.len();
    if idx == widths.len() {
        evaluate(correct, placements, f, best);
        return;
    }
    for &lo in &candidates[idx] {
        placements
            .push(Interval::new(lo, lo + widths[idx]).expect("lattice coordinates are finite"));
        explore(correct, widths, f, candidates, placements, best);
        placements.pop();
    }
}

fn evaluate(
    correct: &[Interval<f64>],
    placements: &[Interval<f64>],
    f: usize,
    best: &mut BestAttack,
) {
    let mut all: Vec<Interval<f64>> = correct.to_vec();
    all.extend(placements.iter().copied());
    let Ok(fusion) = arsf_fusion::marzullo::fuse(&all, f) else {
        return;
    };
    if !verify_stealth(placements, &fusion).is_empty() {
        return;
    }
    let width = fusion.width();
    if best.as_ref().is_none_or(|(w, ..)| width > *w) {
        *best = Some((width, placements.to_vec(), fusion));
    }
}

/// All sums of signed subsets of `widths` with at most `max_terms` terms
/// (always includes 0).
fn signed_subset_sums(widths: &[f64], max_terms: usize) -> Vec<f64> {
    let mut sums = vec![0.0];
    let mut frontier = vec![(0.0, 0usize, 0usize)]; // (sum, next index, terms used)
    while let Some((sum, start, used)) = frontier.pop() {
        if used == max_terms {
            continue;
        }
        for (i, &w) in widths.iter().enumerate().skip(start) {
            for signed in [sum + w, sum - w] {
                sums.push(signed);
                frontier.push((signed, i + 1, used + 1));
            }
        }
    }
    dedup_sorted(&mut sums);
    sums
}

fn dedup_sorted(xs: &mut Vec<f64>) {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite lattice coordinates"));
    xs.dedup();
}

/// Dense-grid oracle for [`optimal_attack`]: enumerates forged-interval
/// lower endpoints on the grid `{lo + i·step}` spanning all correct
/// endpoints padded by the largest forged width, fuses, verifies stealth
/// exactly, and returns the widest stealthy outcome.
///
/// Exponential in `fa` — intended for small cross-validation cases only.
/// With integer-coordinate inputs and `step` dividing all coordinates the
/// oracle is exact.
///
/// # Errors
///
/// Same contract as [`optimal_attack`].
pub fn brute_force_attack(
    correct: &[Interval<f64>],
    attacked_widths: &[f64],
    f: usize,
    step: f64,
) -> Result<OptimalAttack, AttackError> {
    if correct.is_empty() {
        return Err(AttackError::NoCorrectIntervals);
    }
    let fa = attacked_widths.len();
    let n = correct.len() + fa;
    let k = n.saturating_sub(f);
    if fa >= k {
        return Err(AttackError::UnboundedAttack { fa, required: k });
    }
    let max_w = attacked_widths.iter().copied().fold(0.0_f64, f64::max);
    let lo = correct.iter().map(|s| s.lo()).fold(f64::INFINITY, f64::min) - max_w;
    let hi = correct
        .iter()
        .map(|s| s.hi())
        .fold(f64::NEG_INFINITY, f64::max)
        + max_w;
    let steps = ((hi - lo) / step).round() as usize;

    let map = CoverageMap::build(correct);
    let honest_width = map.span_at_least(k).map(|s| s.width());

    let grids: Vec<Vec<f64>> = attacked_widths
        .iter()
        .map(|_| (0..=steps).map(|i| lo + i as f64 * step).collect())
        .collect();

    let mut best: BestAttack = None;
    let mut placements: Vec<Interval<f64>> = Vec::with_capacity(fa);
    explore(
        correct,
        attacked_widths,
        f,
        &grids,
        &mut placements,
        &mut best,
    );

    match best {
        Some((_, placements, fusion)) => Ok(OptimalAttack {
            placements,
            fusion,
            honest_width,
        }),
        None => Err(AttackError::NoFeasiblePlacement),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn errors_on_empty_or_unbounded_input() {
        assert_eq!(
            optimal_attack(&[], &[1.0], 1).unwrap_err(),
            AttackError::NoCorrectIntervals
        );
        // n = 2, f = 1, k = 1, fa = 1 >= k: unbounded.
        assert_eq!(
            optimal_attack(&[iv(0.0, 1.0)], &[1.0], 1).unwrap_err(),
            AttackError::UnboundedAttack { fa: 1, required: 1 }
        );
    }

    #[test]
    fn no_attack_matches_honest_fusion() {
        let correct = [iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)];
        let attack = optimal_attack(&correct, &[], 1).unwrap();
        // k = 2 over the three correct: span of >= 2 coverage = [1, 5].
        assert_eq!(attack.fusion, iv(1.0, 5.0));
        assert_eq!(attack.honest_width, Some(4.0));
    }

    #[test]
    fn doc_example_single_forged_interval() {
        let correct = [iv(0.0, 10.0), iv(4.0, 6.0)];
        let attack = optimal_attack(&correct, &[3.0], 1).unwrap();
        assert_eq!(attack.width(), 6.0);
    }

    #[test]
    fn straddling_beats_one_sided_extension() {
        // Honest k = 2 region is the tiny [4.9, 5.1]; one-sided extension
        // reaches width 5.1 (to an end of the wide interval), but a width-6
        // forged interval straddling the centre achieves its full width.
        let correct = [iv(0.0, 10.0), iv(4.9, 5.1)];
        let attack = optimal_attack(&correct, &[6.0], 1).unwrap();
        assert_eq!(attack.width(), 6.0);
    }

    #[test]
    fn wide_forged_interval_covers_everything() {
        let correct = [iv(0.0, 10.0), iv(4.0, 6.0)];
        let attack = optimal_attack(&correct, &[12.0], 1).unwrap();
        assert_eq!(attack.fusion, iv(0.0, 10.0));
    }

    #[test]
    fn two_attacked_intervals_split_sides() {
        // n = 5, f = 2, k = 3, fa = 2 of width 2 each.
        let correct = [iv(0.0, 8.0), iv(2.0, 6.0), iv(3.0, 5.0)];
        let attack = optimal_attack(&correct, &[2.0, 2.0], 2).unwrap();
        // Stacking both forged at one frontier reaches the width-1
        // coverage points: [3,5] -> 8 on the right (or 0 on the left),
        // width 5; splitting sides reaches [2,6] frontiers, width 4.
        assert_eq!(attack.width(), 5.0);
    }

    #[test]
    fn placements_are_never_detected_and_keep_widths() {
        let correct = [iv(-3.0, 3.0), iv(-1.0, 4.0), iv(0.0, 5.0)];
        for widths in [vec![2.0], vec![6.0], vec![1.0, 9.0]] {
            let attack = optimal_attack(&correct, &widths, 2).unwrap();
            assert!(verify_stealth(&attack.placements, &attack.fusion).is_empty());
            for (p, w) in attack.placements.iter().zip(&widths) {
                assert!((p.width() - w).abs() < 1e-12, "width must be preserved");
            }
        }
    }

    #[test]
    fn attack_never_loses_to_honesty() {
        let correct = [iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)];
        let attack = optimal_attack(&correct, &[3.0], 2).unwrap();
        assert!(attack.width() >= attack.honest_width.unwrap());
    }

    #[test]
    fn brute_force_agrees_on_small_cases() {
        let cases: Vec<(Vec<Interval<f64>>, Vec<f64>, usize)> = vec![
            (vec![iv(0.0, 4.0), iv(1.0, 5.0)], vec![2.0], 1),
            (vec![iv(0.0, 10.0), iv(4.0, 6.0)], vec![3.0], 1),
            (vec![iv(0.0, 10.0), iv(4.0, 6.0)], vec![6.0], 1),
            (
                vec![iv(0.0, 8.0), iv(2.0, 6.0), iv(3.0, 5.0)],
                vec![2.0, 2.0],
                2,
            ),
            (vec![iv(-2.0, 2.0), iv(-1.0, 3.0)], vec![4.0], 1),
        ];
        for (correct, widths, f) in cases {
            let exact = optimal_attack(&correct, &widths, f).unwrap();
            let brute = brute_force_attack(&correct, &widths, f, 1.0).unwrap();
            assert_eq!(
                exact.width(),
                brute.width(),
                "case correct={correct:?} widths={widths:?} f={f}"
            );
        }
    }

    #[test]
    fn signed_subset_sums_enumerate_correctly() {
        let sums = signed_subset_sums(&[1.0, 10.0], 1);
        assert_eq!(sums, vec![-10.0, -1.0, 0.0, 1.0, 10.0]);
        let sums2 = signed_subset_sums(&[1.0, 10.0], 2);
        assert!(sums2.contains(&11.0));
        assert!(sums2.contains(&-9.0));
        assert!(sums2.contains(&9.0));
        assert_eq!(signed_subset_sums(&[], 3), vec![0.0]);
        assert_eq!(signed_subset_sums(&[5.0], 0), vec![0.0]);
    }

    #[test]
    fn too_many_attacked_intervals_are_a_typed_error() {
        let correct = [iv(0.0, 1.0); 12];
        assert_eq!(
            optimal_attack(&correct, &[1.0; 5], 5),
            Err(AttackError::TooManyAttacked { fa: 5, max: 4 })
        );
    }

    #[test]
    fn negative_or_non_finite_widths_are_a_typed_error() {
        let correct = [iv(0.0, 1.0); 4];
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                optimal_attack(&correct, &[1.0, bad], 1),
                Err(AttackError::InvalidWidth { index: 1 })
            );
        }
    }
}
