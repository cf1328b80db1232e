//! Worst-case guarantees on the fusion interval (paper Sections II-A and
//! III-B).
//!
//! The paper's analysis rests on a handful of width bounds:
//!
//! * **Marzullo's conditions** — if `f < ⌈n/3⌉`, the fusion interval is no
//!   wider than some *correct* interval; if `f < ⌈n/2⌉`, no wider than some
//!   interval (correct or not); for `f ≥ ⌈n/2⌉` no bound exists,
//! * **Theorem 2** — `|S_{N,f}| ≤ |s_c1| + |s_c2|`, the sum of the two
//!   widest *correct* intervals, whenever `f < ⌈n/2⌉` and at most `f`
//!   sensors are compromised.
//!
//! This module exposes those bounds as plain functions plus *checkers* that
//! evaluate a concrete configuration against them. The checkers are used by
//! the property-test suite and by the `repro_fig4` worst-case experiments.

use arsf_interval::ops::two_widest_sum;
use arsf_interval::{Interval, Scalar};

use crate::marzullo;
use crate::FusionError;

/// The regime a fault assumption `f` falls into for `n` sensors,
/// determining which width guarantee applies.
///
/// # Example
///
/// ```
/// use arsf_fusion::bounds::{regime, BoundRegime};
///
/// assert_eq!(regime(9, 2), BoundRegime::CorrectWidthBounded); // f < ceil(n/3)
/// assert_eq!(regime(9, 4), BoundRegime::SomeWidthBounded);    // f < ceil(n/2)
/// assert_eq!(regime(9, 5), BoundRegime::Unbounded);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundRegime {
    /// `f < ⌈n/3⌉`: the fusion width is bounded by the width of some
    /// correct interval.
    CorrectWidthBounded,
    /// `⌈n/3⌉ ≤ f < ⌈n/2⌉`: the fusion width is bounded by the width of
    /// some (not necessarily correct) interval.
    SomeWidthBounded,
    /// `f ≥ ⌈n/2⌉`: the fusion interval may be arbitrarily large and may
    /// exclude the true value.
    Unbounded,
}

/// Classifies the `(n, f)` pair into its [`BoundRegime`].
pub fn regime(n: usize, f: usize) -> BoundRegime {
    if f < n.div_ceil(3) {
        BoundRegime::CorrectWidthBounded
    } else if f < n.div_ceil(2) {
        BoundRegime::SomeWidthBounded
    } else {
        BoundRegime::Unbounded
    }
}

/// Theorem 2 upper bound: the sum of the widths of the two widest
/// *correct* intervals, or `None` when fewer than two correct intervals
/// are supplied.
///
/// # Example
///
/// ```
/// use arsf_fusion::bounds::theorem2_bound;
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let correct = [
///     Interval::new(0.0, 5.0)?,
///     Interval::new(2.0, 4.0)?,
///     Interval::new(3.0, 10.0)?,
/// ];
/// assert_eq!(theorem2_bound(&correct), Some(12.0)); // 5 + 7
/// # Ok(())
/// # }
/// ```
pub fn theorem2_bound<T: Scalar>(correct: &[Interval<T>]) -> Option<T> {
    two_widest_sum(correct)
}

/// The outcome of checking one concrete configuration against the paper's
/// width guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheck<T> {
    /// The fusion interval that was checked.
    pub fusion: Interval<T>,
    /// Which regime `(n, f)` fell into.
    pub regime: BoundRegime,
    /// Theorem 2 bound (two widest correct intervals), when computable.
    pub theorem2: Option<T>,
    /// `true` when the fusion width respects every applicable bound.
    pub holds: bool,
}

/// Fuses `all` (correct ∪ compromised) with fault assumption `f` and checks
/// the result against every applicable bound, given which intervals are
/// known (to the experimenter) to be correct.
///
/// `correct_indices` selects the correct intervals inside `all`; indices
/// out of range are ignored. This "omniscient" view is only available in
/// simulation, which is exactly where bound-checking is useful.
///
/// # Errors
///
/// Propagates [`FusionError`] from the underlying fusion.
///
/// # Example
///
/// ```
/// use arsf_fusion::bounds::check_bounds;
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let all = [
///     Interval::new(0.0, 2.0)?,   // correct
///     Interval::new(1.0, 3.0)?,   // correct
///     Interval::new(2.5, 9.0)?,   // attacked
/// ];
/// let report = check_bounds(&all, &[0, 1], 1)?;
/// assert!(report.holds);
/// # Ok(())
/// # }
/// ```
pub fn check_bounds<T: Scalar>(
    all: &[Interval<T>],
    correct_indices: &[usize],
    f: usize,
) -> Result<BoundCheck<T>, FusionError> {
    let fusion = marzullo::fuse(all, f)?;
    let n = all.len();
    let reg = regime(n, f);
    let correct: Vec<Interval<T>> = correct_indices
        .iter()
        .filter_map(|&i| all.get(i).copied())
        .collect();
    let t2 = theorem2_bound(&correct);

    let width = fusion.width();
    let mut holds = true;

    if let Some(bound) = t2 {
        // Theorem 2 applies whenever f < ceil(n/2) and the number of
        // compromised sensors is at most f.
        if reg != BoundRegime::Unbounded && n - correct.len() <= f && width > bound {
            holds = false;
        }
    }
    match reg {
        BoundRegime::CorrectWidthBounded => {
            if n - correct.len() <= f {
                let widest_correct = correct
                    .iter()
                    .map(|s| s.width())
                    .fold(T::ZERO, |a, b| a.max_scalar(b));
                if width > widest_correct {
                    holds = false;
                }
            }
        }
        BoundRegime::SomeWidthBounded => {
            let widest_any = all
                .iter()
                .map(|s| s.width())
                .fold(T::ZERO, |a, b| a.max_scalar(b));
            if width > widest_any {
                holds = false;
            }
        }
        BoundRegime::Unbounded => {}
    }

    Ok(BoundCheck {
        fusion,
        regime: reg,
        theorem2: t2,
        holds,
    })
}

/// Theorem 2, evaluated statically from *declared* widths alone: the sum
/// of the two widest widths in `widths`, or the single width when only
/// one sensor is declared (the hull of one correct interval is itself),
/// or `None` when `widths` is empty.
///
/// Unlike [`theorem2_bound`], which needs the concrete intervals of a
/// simulated round, this needs only the a-priori width vector a sensor
/// suite publishes — so it can bound a scenario before any round is run.
///
/// # Example
///
/// ```
/// use arsf_fusion::bounds::static_theorem2_bound;
///
/// assert_eq!(static_theorem2_bound(&[5.0, 11.0, 17.0]), Some(28.0));
/// assert_eq!(static_theorem2_bound(&[5.0]), Some(5.0));
/// assert_eq!(static_theorem2_bound(&[]), None);
/// ```
pub fn static_theorem2_bound(widths: &[f64]) -> Option<f64> {
    let (mut first, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &w in widths {
        if w > first {
            second = first;
            first = w;
        } else if w > second {
            second = w;
        }
    }
    if widths.is_empty() {
        None
    } else {
        Some(first + second.max(0.0))
    }
}

/// Worst-case fused width for Marzullo-style fusion, derived from the
/// declared width vector alone — no intervals, no rounds.
///
/// * `widths` — declared widths of **all** `n` sensors. Taking the full
///   suite is sound even when some sensors are absent, because dropping
///   an interval can only shrink the two-widest sum and the maximum.
/// * `present` — the number of sensors actually transmitting this round
///   (declared `n` minus silenced sensors); the regime is decided on
///   this count, exactly as the fuser clamps at runtime.
/// * `f` — the fault assumption, clamped to `present - 1` like every
///   `Fuser` implementation does.
/// * `corrupt` — the worst-case number of *transmitting* sensors whose
///   intervals may exclude the truth (faulted or attacked).
///
/// Returns `None` when no finite bound is provable:
///
/// * `corrupt > f` — more corruption than the fault assumption covers;
///   Marzullo's guarantees are void,
/// * `f ≥ ⌈present/2⌉` with `corrupt > 0` — the unbounded regime,
/// * `present == 0` — nothing transmits, nothing is fused.
///
/// In the `f < ⌈present/3⌉` regime (or with no corruption in any
/// `f < ⌈present/2⌉` regime) the bound is the widest declared width; in
/// the `f < ⌈present/2⌉` regime with live corruption it is Theorem 2's
/// two-widest sum; an honest suite under an oversized `f` still fuses
/// within the hull of correct intervals, so the two-widest sum applies.
pub fn static_width_bound(widths: &[f64], present: usize, f: usize, corrupt: usize) -> Option<f64> {
    if present == 0 || widths.is_empty() {
        return None;
    }
    let f = f.min(present - 1);
    let corrupt = corrupt.min(present);
    if corrupt > f {
        return None;
    }
    let widest = widths.iter().copied().fold(0.0_f64, f64::max);
    match regime(present, f) {
        BoundRegime::CorrectWidthBounded => Some(widest),
        BoundRegime::SomeWidthBounded if corrupt == 0 => Some(widest),
        BoundRegime::SomeWidthBounded => static_theorem2_bound(widths),
        // An honest suite under an oversized f still fuses inside the
        // hull of correct intervals, which Theorem 2 bounds; any live
        // corruption in this regime is genuinely unbounded.
        BoundRegime::Unbounded if corrupt == 0 => static_theorem2_bound(widths),
        BoundRegime::Unbounded => None,
    }
}

/// [`static_width_bound`] for the historical (dynamics-bound) fuser.
///
/// The historical fuser intersects the memoryless Marzullo interval with
/// the propagated previous output and falls back to the memoryless
/// interval on conflict — its output is never wider than the memoryless
/// fusion, so the memoryless static bound carries over unchanged. The
/// `max_rate`/`dt` pair is validated (a non-finite or negative dynamics
/// bound voids the guarantee) but does not tighten the width bound: the
/// history only ever *refines* the interval.
pub fn historical_width_bound(
    widths: &[f64],
    present: usize,
    f: usize,
    corrupt: usize,
    max_rate: f64,
    dt: f64,
) -> Option<f64> {
    if !max_rate.is_finite() || max_rate < 0.0 || !dt.is_finite() {
        return None;
    }
    static_width_bound(widths, present, f, corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn regime_thresholds() {
        // n = 5: ceil(5/3) = 2, ceil(5/2) = 3.
        assert_eq!(regime(5, 0), BoundRegime::CorrectWidthBounded);
        assert_eq!(regime(5, 1), BoundRegime::CorrectWidthBounded);
        assert_eq!(regime(5, 2), BoundRegime::SomeWidthBounded);
        assert_eq!(regime(5, 3), BoundRegime::Unbounded);
        // n = 3: ceil(3/3) = 1, ceil(3/2) = 2.
        assert_eq!(regime(3, 0), BoundRegime::CorrectWidthBounded);
        assert_eq!(regime(3, 1), BoundRegime::SomeWidthBounded);
        assert_eq!(regime(3, 2), BoundRegime::Unbounded);
    }

    #[test]
    fn theorem2_bound_requires_two_correct() {
        assert_eq!(theorem2_bound::<f64>(&[]), None);
        assert_eq!(theorem2_bound(&[iv(0.0, 3.0)]), None);
        assert_eq!(theorem2_bound(&[iv(0.0, 3.0), iv(0.0, 1.0)]), Some(4.0));
    }

    #[test]
    fn theorem2_tightness_example() {
        // Theorem 2 is achieved when two correct intervals touch at exactly
        // the true value: fusion (f = 1 of n = 3, one attacked interval
        // covering everything) spans both correct intervals entirely.
        let correct_left = iv(-5.0, 0.0);
        let correct_right = iv(0.0, 7.0);
        let attacked = iv(-5.0, 7.0); // covers both to maximise the span
        let all = [correct_left, correct_right, attacked];
        let report = check_bounds(&all, &[0, 1], 1).unwrap();
        assert_eq!(report.fusion.width(), 12.0); // exactly |s_c1| + |s_c2|
        assert_eq!(report.theorem2, Some(12.0));
        assert!(report.holds);
    }

    #[test]
    fn correct_width_bound_holds_without_faults() {
        // f = 0 < ceil(3/3): fusion (= common intersection) cannot exceed
        // any correct width.
        let all = [iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)];
        let report = check_bounds(&all, &[0, 1, 2], 0).unwrap();
        assert_eq!(report.regime, BoundRegime::CorrectWidthBounded);
        assert!(report.holds);
    }

    #[test]
    fn some_width_bound_holds_with_attack() {
        // n = 3, f = 1 (SomeWidthBounded): the fusion is bounded by the
        // widest interval present, even with one attacked sensor.
        let all = [iv(0.0, 2.0), iv(1.0, 3.0), iv(2.9, 10.0)];
        let report = check_bounds(&all, &[0, 1], 1).unwrap();
        assert_eq!(report.regime, BoundRegime::SomeWidthBounded);
        assert!(report.holds);
    }

    #[test]
    fn unbounded_regime_skips_width_checks() {
        // f = 2 >= ceil(3/2): the fusion can be huge; the check must not
        // flag it because no guarantee is claimed.
        let all = [iv(0.0, 1.0), iv(100.0, 101.0), iv(200.0, 201.0)];
        let report = check_bounds(&all, &[0], 2).unwrap();
        assert_eq!(report.regime, BoundRegime::Unbounded);
        assert!(report.holds);
        assert_eq!(report.fusion, iv(0.0, 201.0));
    }

    #[test]
    fn out_of_range_correct_indices_are_ignored() {
        let all = [iv(0.0, 1.0), iv(0.5, 1.5)];
        let report = check_bounds(&all, &[0, 7], 0).unwrap();
        assert!(report.theorem2.is_none()); // only one valid correct index
        assert!(report.holds);
    }

    #[test]
    fn fusion_errors_propagate() {
        assert!(check_bounds::<f64>(&[], &[], 0).is_err());
    }

    #[test]
    fn static_theorem2_sums_the_two_widest() {
        assert_eq!(static_theorem2_bound(&[]), None);
        assert_eq!(static_theorem2_bound(&[3.0]), Some(3.0));
        assert_eq!(static_theorem2_bound(&[5.0, 11.0, 17.0]), Some(28.0));
        assert_eq!(static_theorem2_bound(&[0.2, 0.2, 1.0, 2.0]), Some(3.0));
    }

    #[test]
    fn static_width_bound_follows_the_regime() {
        let w = [0.2, 0.2, 1.0, 2.0]; // the landshark suite
                                      // f = 1 < ceil(4/3): bounded by the widest declared width.
        assert_eq!(static_width_bound(&w, 4, 1, 1), Some(2.0));
        // One sensor silenced: f = 1 = ceil(3/3) but < ceil(3/2), one
        // corrupt: Theorem 2's two-widest sum.
        assert_eq!(static_width_bound(&w, 3, 1, 1), Some(3.0));
        // Honest suite in the same regime: some interval is correct.
        assert_eq!(static_width_bound(&w, 3, 1, 0), Some(2.0));
        // Corruption exceeding the fault assumption voids everything.
        assert_eq!(static_width_bound(&w, 4, 1, 2), None);
        // Unbounded regime with live corruption.
        assert_eq!(static_width_bound(&w, 2, 1, 1), None);
        // Unbounded regime but honest: hull of correct intervals.
        assert_eq!(static_width_bound(&w, 2, 3, 0), Some(3.0));
        // Nothing transmitting.
        assert_eq!(static_width_bound(&w, 0, 1, 0), None);
    }

    #[test]
    fn static_width_bound_clamps_f_like_the_fusers() {
        // f = 9 clamps to present - 1 = 1 for two transmitting sensors;
        // honest, so the hull bound applies rather than None.
        assert_eq!(static_width_bound(&[1.0, 1.0], 2, 9, 0), Some(2.0));
    }

    #[test]
    fn historical_bound_matches_memoryless_and_validates_dynamics() {
        let w = [0.2, 0.2, 1.0, 2.0];
        assert_eq!(
            historical_width_bound(&w, 4, 1, 1, 3.5, 0.1),
            static_width_bound(&w, 4, 1, 1)
        );
        assert_eq!(historical_width_bound(&w, 4, 1, 1, f64::NAN, 0.1), None);
        assert_eq!(historical_width_bound(&w, 4, 1, 1, -1.0, 0.1), None);
        assert_eq!(
            historical_width_bound(&w, 4, 1, 1, 3.5, f64::INFINITY),
            None
        );
    }
}
