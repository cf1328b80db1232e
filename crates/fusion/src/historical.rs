//! Historical (dynamics-aware) interval fusion.
//!
//! The DATE'14 paper fuses each round independently. Its authors' own
//! follow-up line of work observes that a *bounded-dynamics* model makes
//! past measurements useful: if the measured variable can change by at
//! most `max_rate` per second, last round's fused interval — inflated by
//! `max_rate · dt` — still contains the true value and can be
//! intersected with the current fusion interval. The result is never
//! wider than either source and blunts exactly the attack this
//! repository studies: a forged extension of today's fusion interval is
//! clipped by yesterday's evidence.
//!
//! The refinement is sound only while the dynamics assumption holds and
//! at most `f` sensors misbehave; when the intersection comes up empty
//! (broken assumption, or more faults than `f`), the fuser falls back to
//! the memoryless interval.

use arsf_interval::Interval;

use crate::{marzullo, FusionError};

/// A bound on how fast the measured physical variable can change:
/// `|dx/dt| ≤ max_rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsBound {
    max_rate: f64,
}

impl DynamicsBound {
    /// Creates a rate bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is negative or not finite.
    pub fn new(max_rate: f64) -> Self {
        assert!(
            max_rate.is_finite() && max_rate >= 0.0,
            "rate bound must be finite and non-negative"
        );
        Self { max_rate }
    }

    /// Propagates an interval forward by `dt` seconds: every point the
    /// variable could reach starting anywhere inside `interval`, saturated
    /// at the finite `f64` range.
    pub(crate) fn propagate(&self, interval: &Interval<f64>, dt: f64) -> Interval<f64> {
        let slack = self.max_rate * dt.abs();
        Interval::new(
            (interval.lo() - slack).max(f64::MIN),
            (interval.hi() + slack).min(f64::MAX),
        )
        .unwrap_or_else(|_| unreachable!("inflation preserves endpoint ordering"))
    }
}

/// A stateful fuser combining Marzullo fusion with propagated history.
///
/// # Example
///
/// ```
/// use arsf_fusion::historical::{DynamicsBound, HistoricalFuser};
/// use arsf_fusion::{marzullo, Fuser};
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Speed changes at most 0.3 mph per 0.1 s control period.
/// let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(3.0), 0.1);
/// let round1 = [Interval::new(9.9, 10.1)?, Interval::new(9.5, 10.5)?, Interval::new(9.0, 11.0)?];
/// fuser.fuse(&round1)?;
/// // Second round: one sensor forged far to the right; the history clips it.
/// let round2 = [Interval::new(9.9, 10.1)?, Interval::new(9.5, 10.5)?, Interval::new(10.4, 12.4)?];
/// let fused = fuser.fuse(&round2)?;
/// assert!(fused.width() <= marzullo::fuse(&round2, 1)?.width());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HistoricalFuser {
    f: usize,
    bound: DynamicsBound,
    dt: f64,
    history: Option<Interval<f64>>,
}

impl HistoricalFuser {
    /// Creates a fuser with fault assumption `f`, the dynamics bound, and
    /// the fixed inter-round period `dt` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn new(f: usize, bound: DynamicsBound, dt: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "round period must be positive");
        Self {
            f,
            bound,
            dt,
            history: None,
        }
    }

    /// Clears the carried history (e.g. after a mode switch that breaks
    /// the dynamics assumption).
    pub(crate) fn reset(&mut self) {
        self.history = None;
    }

    /// One round at fault assumption `f`: the memoryless Marzullo fusion,
    /// refined by intersecting it with the propagated history. When the
    /// two are disjoint (the dynamics bound or the fault budget was
    /// violated) the fuser restarts from the memoryless interval. A fusion
    /// error leaves the history unchanged, so a transient sensor outage
    /// does not destroy the accumulated knowledge.
    fn fuse_round_with_f(
        &mut self,
        intervals: &[Interval<f64>],
        f: usize,
    ) -> Result<Interval<f64>, FusionError> {
        let memoryless = marzullo::fuse(intervals, f)?;
        let fused = match self.history {
            None => memoryless,
            Some(prev) => {
                let reachable = self.bound.propagate(&prev, self.dt);
                memoryless.intersection(&reachable).unwrap_or(memoryless)
            }
        };
        self.history = Some(fused);
        Ok(fused)
    }
}

impl crate::Fuser<f64> for HistoricalFuser {
    /// One engine round: memoryless Marzullo refined by propagated
    /// history. As for every engine-facing fuser, the
    /// fault assumption is clamped to `n − 1` so a sensor silenced
    /// mid-run degrades the guarantee instead of erroring out.
    fn fuse(&mut self, intervals: &[Interval<f64>]) -> Result<Interval<f64>, FusionError> {
        let clamped = crate::fuser::clamp_f(self.f, intervals.len());
        self.fuse_round_with_f(intervals, clamped)
    }

    fn name(&self) -> &str {
        "historical"
    }

    fn reset(&mut self) {
        HistoricalFuser::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    fn round(center: f64) -> Vec<Interval<f64>> {
        vec![
            Interval::centered(center, 0.1).unwrap(),
            Interval::centered(center, 0.5).unwrap(),
            Interval::centered(center, 1.0).unwrap(),
        ]
    }

    #[test]
    fn first_round_is_memoryless() {
        let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(3.0), 0.1);
        let fused = fuser.fuse_round_with_f(&round(10.0), 1).unwrap();
        assert_eq!(fused, marzullo::fuse(&round(10.0), 1).unwrap());
        assert_eq!(fuser.history, Some(fused));
    }

    #[test]
    fn refinement_never_widens() {
        let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(3.0), 0.1);
        let mut truth = 10.0;
        for step in 0..50 {
            truth += 0.01 * (step % 3) as f64; // slow drift within bound
            let memoryless = marzullo::fuse(&round(truth), 1).unwrap();
            let fused = fuser.fuse_round_with_f(&round(truth), 1).unwrap();
            assert!(fused.width() <= memoryless.width() + 1e-12);
            assert!(fused.contains(truth), "step {step} lost the truth");
        }
    }

    #[test]
    fn history_clips_a_forged_extension() {
        let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(1.0), 0.1);
        // Honest round with well-nested sensors establishes a tight
        // history [9.9, 10.3].
        let honest = vec![iv(9.95, 10.05), iv(9.9, 10.3), iv(9.8, 10.6)];
        let first = fuser.fuse_round_with_f(&honest, 1).unwrap();
        assert_eq!(first, iv(9.9, 10.3));
        // Next round, the camera is forged to stretch the fusion right to
        // the GPS's upper endpoint (memoryless fusion [9.9, 10.5]).
        let forged = vec![
            Interval::centered(10.0, 0.1).unwrap(),
            Interval::centered(10.0, 0.5).unwrap(),
            iv(10.45, 12.45),
        ];
        let memoryless = marzullo::fuse(&forged, 1).unwrap();
        let fused = fuser.fuse_round_with_f(&forged, 1).unwrap();
        assert!(
            fused.width() < memoryless.width(),
            "history must clip the forged extension: {} vs {}",
            fused.width(),
            memoryless.width()
        );
        // The clip lands exactly on the reachable set's upper bound:
        // 10.3 + 1.0 mph/s * 0.1 s = 10.4.
        assert!((fused.hi() - 10.4).abs() < 1e-12);
    }

    #[test]
    fn conflict_falls_back_to_memoryless() {
        let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(0.5), 0.1);
        fuser.fuse_round_with_f(&round(10.0), 1).unwrap();
        // Teleport far beyond the reachable set: assumption broken.
        let fused = fuser.fuse_round_with_f(&round(50.0), 1).unwrap();
        assert_eq!(fused, marzullo::fuse(&round(50.0), 1).unwrap());
        // History restarts from the fresh interval.
        assert_eq!(fuser.history, Some(fused));
    }

    #[test]
    fn fusion_error_preserves_history() {
        let mut fuser = HistoricalFuser::new(0, DynamicsBound::new(1.0), 0.1);
        fuser.fuse_round_with_f(&round(10.0), 0).unwrap();
        let before = fuser.history;
        // Disjoint pair with f = 0: no agreement.
        let bad = [iv(0.0, 1.0), iv(5.0, 6.0)];
        assert!(fuser.fuse_round_with_f(&bad, 0).is_err());
        assert_eq!(fuser.history, before);
    }

    #[test]
    fn reset_clears_history() {
        let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(1.0), 0.1);
        fuser.fuse_round_with_f(&round(10.0), 1).unwrap();
        fuser.reset();
        assert!(fuser.history.is_none());
    }

    #[test]
    fn engine_facing_fuse_clamps_the_fault_budget() {
        use crate::Fuser;
        // One interval with f = 1: Marzullo fusion itself errors, but the
        // engine-facing trait clamps so a silenced-sensor round degrades
        // instead of failing.
        let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(100.0), 0.1);
        let single = [iv(9.0, 11.0)];
        assert!(fuser.fuse_round_with_f(&single, 1).is_err());
        let fused = Fuser::fuse(&mut fuser, &single).unwrap();
        assert_eq!(fused, iv(9.0, 11.0));
    }

    #[test]
    fn propagate_inflates_symmetrically() {
        let bound = DynamicsBound::new(2.0);
        let p = bound.propagate(&iv(0.0, 1.0), 0.5);
        assert_eq!(p, iv(-1.0, 2.0));
        // Zero rate: identity.
        assert_eq!(
            DynamicsBound::new(0.0).propagate(&iv(0.0, 1.0), 9.0),
            iv(0.0, 1.0)
        );
    }

    #[test]
    fn propagate_saturates_instead_of_overflowing() {
        let p = DynamicsBound::new(1e300).propagate(&iv(0.0, 1.0), 1e300);
        assert_eq!(p, iv(f64::MIN, f64::MAX));
    }

    #[test]
    #[should_panic(expected = "rate bound must be finite")]
    fn negative_rate_panics() {
        let _ = DynamicsBound::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "round period must be positive")]
    fn zero_dt_panics() {
        let _ = HistoricalFuser::new(1, DynamicsBound::new(1.0), 0.0);
    }
}
