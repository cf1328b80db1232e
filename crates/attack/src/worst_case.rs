//! Exhaustive worst-case configuration search (Theorems 3 and 4, Fig. 4).
//!
//! The paper's worst-case quantities are defined over *configurations*
//! (concrete placements of all intervals):
//!
//! * `S_na` — the worst-case (widest) fusion interval when **no** sensor
//!   is attacked: every interval is correct (contains the truth) and
//!   placed adversarially by nature,
//! * `S_F` — the worst case when the fixed set `F` is attacked: correct
//!   intervals placed adversarially by nature, attacked intervals placed
//!   by the optimal stealthy attacker,
//! * `S^{wc}_{fa}` — the worst case over all choices of `fa` attacked
//!   sensors.
//!
//! **Theorem 3**: attacking the `fa` *largest* intervals gives
//! `|S_F| = |S_na|`. **Theorem 4**: `|S^{wc}_{fa}|` is achieved by
//! attacking the `fa` *smallest* intervals. Both are validated
//! experimentally here by enumerating correct placements on a measurement
//! grid and invoking the exact full-knowledge solver for the attacker.

use arsf_interval::Interval;

use crate::expectimax::{for_each_placement, measurement_grid};
use crate::full_knowledge::optimal_attack;
use crate::AttackError;

/// A worst-case search result: the widest fusion interval found and the
/// configuration achieving it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCase {
    /// The widest fusion width found.
    pub width: f64,
    /// The correct intervals of the worst configuration (id order of the
    /// correct subset).
    pub correct: Vec<Interval<f64>>,
    /// The attacked intervals of the worst configuration (optimal forgery
    /// for that correct placement); empty in the no-attack search.
    pub attacked: Vec<Interval<f64>>,
}

/// Worst-case fusion width with **no attacked sensors**: all `widths`
/// belong to correct intervals that must contain the truth (0), placed
/// adversarially on a grid of the given step.
///
/// # Errors
///
/// Returns [`AttackError::NoCorrectIntervals`] for an empty width list.
///
/// # Panics
///
/// Panics if `step` is not positive or a width is negative/non-finite.
///
/// # Example
///
/// ```
/// use arsf_attack::worst_case::no_attack_worst_case;
///
/// // Two sensors of width 2 that must both contain the truth: the worst
/// // case (f = 0) is touching at the truth point ... their intersection
/// // is a single point, so the worst *fusion* width for f = 0 is 2 when
/// // they coincide. For f = 1 the span of >= 1 coverage reaches 4.
/// let wc0 = no_attack_worst_case(&[2.0, 2.0], 0, 1.0).unwrap();
/// assert_eq!(wc0.width, 2.0);
/// let wc1 = no_attack_worst_case(&[2.0, 2.0], 1, 1.0).unwrap();
/// assert_eq!(wc1.width, 4.0);
/// ```
pub fn no_attack_worst_case(widths: &[f64], f: usize, step: f64) -> Result<WorstCase, AttackError> {
    validate(widths, step)?;
    let mut best: Option<WorstCase> = None;
    for_each_placement(&correct_grids(widths, step), |config| {
        if let Ok(fused) = arsf_fusion::marzullo::fuse(config, f) {
            let width = fused.width();
            if best.as_ref().is_none_or(|b| width > b.width) {
                best = Some(WorstCase {
                    width,
                    correct: config.to_vec(),
                    attacked: Vec::new(),
                });
            }
        }
    });
    best.ok_or(AttackError::NoFeasiblePlacement)
}

/// Worst-case fusion width when the sensors at `attacked` indices are
/// compromised: nature places the correct intervals adversarially, the
/// attacker best-responds with the exact full-knowledge solver.
///
/// # Errors
///
/// * [`AttackError::NoCorrectIntervals`] — all sensors attacked or empty
///   input,
/// * [`AttackError::UnboundedAttack`] — `fa ≥ n − f`,
/// * [`AttackError::TooManyAttacked`] — more attacked sensors than the
///   exact solver takes.
///
/// # Panics
///
/// Panics if `step` is not positive, a width is negative/non-finite, or
/// an attacked index is out of range.
pub fn attacked_worst_case(
    widths: &[f64],
    attacked: &[usize],
    f: usize,
    step: f64,
) -> Result<WorstCase, AttackError> {
    validate(widths, step)?;
    assert!(
        attacked.iter().all(|&a| a < widths.len()),
        "attacked indices must be in range"
    );
    let attacked_widths: Vec<f64> = attacked.iter().map(|&a| widths[a]).collect();
    let correct_widths: Vec<f64> = widths
        .iter()
        .enumerate()
        .filter(|(i, _)| !attacked.contains(i))
        .map(|(_, &w)| w)
        .collect();
    if correct_widths.is_empty() {
        return Err(AttackError::NoCorrectIntervals);
    }
    let n = widths.len();
    let k = n.saturating_sub(f);
    if attacked_widths.len() >= k {
        return Err(AttackError::UnboundedAttack {
            fa: attacked_widths.len(),
            required: k,
        });
    }

    let mut best: Option<WorstCase> = None;
    let mut error = AttackError::NoFeasiblePlacement;
    for_each_placement(
        &correct_grids(&correct_widths, step),
        |config| match optimal_attack(config, &attacked_widths, f) {
            Ok(attack) => {
                let width = attack.width();
                if best.as_ref().is_none_or(|b| width > b.width) {
                    best = Some(WorstCase {
                        width,
                        correct: config.to_vec(),
                        attacked: attack.placements,
                    });
                }
            }
            Err(e) => error = e,
        },
    );
    best.ok_or(error)
}

/// The worst case over **all** choices of `fa` attacked sensors
/// (`S^{wc}_{fa}`), returning the achieving subset alongside the result.
///
/// # Errors
///
/// Propagates the first error if every subset fails (e.g. unbounded
/// configurations).
pub fn global_worst_case(
    widths: &[f64],
    fa: usize,
    f: usize,
    step: f64,
) -> Result<(Vec<usize>, WorstCase), AttackError> {
    let n = widths.len();
    let mut best: Option<(Vec<usize>, WorstCase)> = None;
    let mut first_err = None;
    for subset in subsets(n, fa) {
        match attacked_worst_case(widths, &subset, f, step) {
            Ok(wc) => {
                if best.as_ref().is_none_or(|(_, b)| wc.width > b.width) {
                    best = Some((subset, wc));
                }
            }
            Err(e) => first_err = Some(e),
        }
    }
    best.ok_or(first_err.unwrap_or(AttackError::NoFeasiblePlacement))
}

/// All size-`k` subsets of `0..n` in lexicographic order.
pub fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            current.push(i);
            rec(i + 1, n, k, current, out);
            current.pop();
        }
    }
    rec(0, n, k, &mut current, &mut out);
    out
}

fn validate(widths: &[f64], step: f64) -> Result<(), AttackError> {
    assert!(step > 0.0 && step.is_finite(), "step must be positive");
    assert!(
        widths.iter().all(|w| w.is_finite() && *w >= 0.0),
        "widths must be finite and non-negative"
    );
    if widths.is_empty() {
        return Err(AttackError::NoCorrectIntervals);
    }
    Ok(())
}

/// The measurement grid of each correct interval: every placement of
/// width `w` on a grid of the given step that contains the truth 0.
fn correct_grids(widths: &[f64], step: f64) -> Vec<Vec<Interval<f64>>> {
    widths
        .iter()
        .map(|&w| measurement_grid(0.0, w, step))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_enumeration() {
        assert_eq!(subsets(3, 1), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(subsets(3, 2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert_eq!(subsets(2, 0), vec![Vec::<usize>::new()]);
        assert_eq!(subsets(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn no_attack_worst_case_is_positive_and_bounded() {
        // n = 3, f = 1 < ceil(3/2): bounded by the largest width.
        let wc = no_attack_worst_case(&[2.0, 4.0, 6.0], 1, 1.0).unwrap();
        assert!(wc.width > 0.0);
        assert!(wc.width <= 6.0, "f < ceil(n/2) keeps fusion bounded");
        assert_eq!(wc.attacked.len(), 0);
        assert_eq!(wc.correct.len(), 3);
    }

    #[test]
    fn theorem3_attacking_largest_equals_no_attack() {
        // Theorem 3: if the fa largest intervals are attacked, the
        // worst-case fusion width does not change.
        let widths = [2.0, 4.0, 6.0];
        let na = no_attack_worst_case(&widths, 1, 1.0).unwrap();
        let largest = attacked_worst_case(&widths, &[2], 1, 1.0).unwrap();
        assert_eq!(
            largest.width, na.width,
            "attacking the largest interval must not change the worst case"
        );
    }

    #[test]
    fn theorem4_smallest_attack_achieves_global_worst_case() {
        let widths = [2.0, 4.0, 6.0];
        let (best_set, global) = global_worst_case(&widths, 1, 1, 1.0).unwrap();
        let smallest = attacked_worst_case(&widths, &[0], 1, 1.0).unwrap();
        assert_eq!(
            smallest.width, global.width,
            "attacking the smallest interval must achieve the global worst case (best set: {best_set:?})"
        );
    }

    #[test]
    fn attack_worst_case_at_least_no_attack() {
        let widths = [2.0, 4.0, 6.0];
        let na = no_attack_worst_case(&widths, 1, 2.0).unwrap();
        for a in 0..3 {
            let wc = attacked_worst_case(&widths, &[a], 1, 2.0).unwrap();
            assert!(
                wc.width >= na.width,
                "attacking sensor {a}: {} < {}",
                wc.width,
                na.width
            );
        }
    }

    #[test]
    fn unbounded_subset_is_rejected() {
        // n = 3, f = 1, k = 2: fa = 2 >= k.
        let err = attacked_worst_case(&[1.0, 2.0, 3.0], &[0, 1], 1, 1.0).unwrap_err();
        assert!(matches!(err, AttackError::UnboundedAttack { .. }));
    }

    #[test]
    fn too_many_attacked_sensors_are_the_solver_error() {
        // n = 12, f = 5: fa = 5 < k = 7 is bounded but past the solver.
        let widths = [&[0.0; 7][..], &[1.0; 5]].concat();
        let err = attacked_worst_case(&widths, &[7, 8, 9, 10, 11], 5, 1.0).unwrap_err();
        assert_eq!(err, AttackError::TooManyAttacked { fa: 5, max: 4 });
    }

    #[test]
    fn empty_inputs_error() {
        assert!(no_attack_worst_case(&[], 0, 1.0).is_err());
        assert!(attacked_worst_case(&[1.0], &[0], 0, 1.0).is_err());
    }

    #[test]
    fn degenerate_widths_work() {
        // Zero-width sensors pin the truth exactly.
        let wc = no_attack_worst_case(&[0.0, 0.0, 4.0], 1, 1.0).unwrap();
        // Coverage >= 2 needs both point sensors (at 0) or one point plus
        // the wide interval: the span can reach at most half the wide
        // interval's width on one side.
        assert!(wc.width <= 2.0);
    }
}
