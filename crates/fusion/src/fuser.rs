//! A uniform, object-safe interface over every interval fuser.
//!
//! The round engine in `arsf-core`, the benchmark harness and the
//! simulation pipeline all swap fusion algorithms behind one interface
//! (e.g. comparing attack impact on Marzullo vs Brooks–Iyengar vs
//! historical vs weighted fusion). [`Fuser`] is that interface; it is
//! object-safe so heterogeneous fusers can live in a
//! `Vec<Box<dyn Fuser<f64>>>`, and it takes `&mut self` so *stateful*
//! fusers (like [`HistoricalFuser`](crate::historical::HistoricalFuser),
//! which carries the previous round's interval) plug in next to the
//! memoryless ones.

use arsf_interval::ops::{hull_all, intersection_all};
use arsf_interval::{Interval, Scalar};

use crate::{marzullo, weighted, FusionError};

/// An interval-fusion algorithm: `n` sensor intervals in, one fused
/// interval out.
///
/// Implementations may keep state between rounds (history, estimator
/// caches); [`Fuser::reset`] returns them to their initial state. The
/// engine builds a fresh fuser for every run and never resets one.
///
/// # Example
///
/// ```
/// use arsf_fusion::{Fuser, HullFuser, MarzulloFuser};
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fusers: Vec<Box<dyn Fuser<f64>>> =
///     vec![Box::new(MarzulloFuser::new(1)), Box::new(HullFuser)];
/// let s = [
///     Interval::new(0.0, 2.0)?,
///     Interval::new(1.0, 3.0)?,
///     Interval::new(1.5, 2.5)?,
/// ];
/// for fuser in &mut fusers {
///     let fused = fuser.fuse(&s)?;
///     assert!(fused.width() <= 3.0);
/// }
/// # Ok(())
/// # }
/// ```
pub trait Fuser<T: Scalar> {
    /// Fuses the given intervals into one.
    ///
    /// # Errors
    ///
    /// Implementations return a [`FusionError`] when the input is empty or
    /// when their fault/agreement assumptions are violated.
    fn fuse(&mut self, intervals: &[Interval<T>]) -> Result<Interval<T>, FusionError>;

    /// A short human-readable name for reports and benchmark labels.
    fn name(&self) -> &str;

    /// Clears any state carried between rounds (no-op for memoryless
    /// fusers).
    fn reset(&mut self) {}
}

impl<T: Scalar, F: Fuser<T> + ?Sized> Fuser<T> for Box<F> {
    fn fuse(&mut self, intervals: &[Interval<T>]) -> Result<Interval<T>, FusionError> {
        (**self).fuse(intervals)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

/// Clamps a configured fault assumption to the round's interval count so
/// that sensors silenced by faults do not turn fusion into a
/// [`FusionError::FaultCountTooLarge`] error (the engine's contract: the
/// fault budget never exceeds `n − 1`).
///
/// The all-sensors-silenced round (`n = 0`) clamps to `f = 0` and
/// forwards the empty slice; every algorithm behind the [`Fuser`]
/// interface checks for empty input *before* its fault-budget check, so
/// such a round surfaces as [`FusionError::EmptyInput`] — never a panic
/// or a garbage interval. `empty_input_errors_everywhere` and the
/// `engine_facing_fusers_*` property tests pin this contract for every
/// stock fuser.
pub(crate) fn clamp_f(f: usize, n: usize) -> usize {
    f.min(n.saturating_sub(1))
}

/// Marzullo's algorithm with a fixed fault assumption `f`
/// (see [`marzullo::fuse`]).
///
/// Through the [`Fuser`] interface the fault assumption is clamped to
/// `n − 1` for rounds with fewer than `f + 1` intervals, so a sensor
/// silenced mid-run degrades the guarantee instead of erroring out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarzulloFuser {
    f: usize,
}

impl MarzulloFuser {
    /// Creates a Marzullo fuser assuming at most `f` faulty sensors.
    pub fn new(f: usize) -> Self {
        Self { f }
    }
}

impl<T: Scalar> Fuser<T> for MarzulloFuser {
    fn fuse(&mut self, intervals: &[Interval<T>]) -> Result<Interval<T>, FusionError> {
        marzullo::fuse(intervals, clamp_f(self.f, intervals.len()))
    }

    fn name(&self) -> &str {
        "marzullo"
    }
}

/// Brooks–Iyengar fusion with a fixed fault assumption `f`; exposes only
/// the fused interval through the [`Fuser`] interface (see
/// [`brooks_iyengar::fuse`](crate::brooks_iyengar::fuse) for the point
/// estimate and regions). The fault assumption is clamped exactly as for
/// [`MarzulloFuser`].
///
/// The Brooks–Iyengar interval spans every point of sufficient support,
/// which is Marzullo's interval by construction, so this fuser computes it
/// with the allocation-free Marzullo kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrooksIyengarFuser {
    f: usize,
}

impl BrooksIyengarFuser {
    /// Creates a Brooks–Iyengar fuser assuming at most `f` faulty sensors.
    pub fn new(f: usize) -> Self {
        Self { f }
    }
}

impl<T: Scalar> Fuser<T> for BrooksIyengarFuser {
    fn fuse(&mut self, intervals: &[Interval<T>]) -> Result<Interval<T>, FusionError> {
        marzullo::fuse(intervals, clamp_f(self.f, intervals.len()))
    }

    fn name(&self) -> &str {
        "brooks-iyengar"
    }
}

/// The common intersection (Marzullo with `f = 0`): precise but brittle —
/// a single faulty sensor empties it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IntersectionFuser;

impl<T: Scalar> Fuser<T> for IntersectionFuser {
    fn fuse(&mut self, intervals: &[Interval<T>]) -> Result<Interval<T>, FusionError> {
        if intervals.is_empty() {
            return Err(FusionError::EmptyInput);
        }
        intersection_all(intervals).ok_or(FusionError::NoAgreement {
            required: intervals.len(),
        })
    }

    fn name(&self) -> &str {
        "intersection"
    }
}

/// The convex hull (Marzullo with `f = n − 1`): never wrong, never precise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HullFuser;

impl<T: Scalar> Fuser<T> for HullFuser {
    fn fuse(&mut self, intervals: &[Interval<T>]) -> Result<Interval<T>, FusionError> {
        hull_all(intervals).ok_or(FusionError::EmptyInput)
    }

    fn name(&self) -> &str {
        "hull"
    }
}

/// Inverse-variance weighted point fusion viewed as an interval: the
/// classical probabilistic baseline (each half-width taken as one
/// standard deviation) reported as `[value − radius, value + radius]`.
///
/// **Not** attack-resilient — a single forged reading shifts the mean
/// arbitrarily. It exists behind the [`Fuser`] interface precisely so
/// scenario sweeps can quantify that weakness against the resilient
/// fusers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InverseVarianceFuser;

impl Fuser<f64> for InverseVarianceFuser {
    fn fuse(&mut self, intervals: &[Interval<f64>]) -> Result<Interval<f64>, FusionError> {
        weighted::inverse_variance(intervals).map(|est| est.to_interval())
    }

    fn name(&self) -> &str {
        "inverse-variance"
    }
}

/// Midpoint-median point fusion viewed as an interval — the classical
/// robust location estimator ([`weighted::midpoint_median`]) behind the
/// [`Fuser`] interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MidpointMedianFuser;

impl Fuser<f64> for MidpointMedianFuser {
    fn fuse(&mut self, intervals: &[Interval<f64>]) -> Result<Interval<f64>, FusionError> {
        weighted::midpoint_median(intervals).map(|est| est.to_interval())
    }

    fn name(&self) -> &str {
        "midpoint-median"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::historical::{DynamicsBound, HistoricalFuser};

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    fn sample() -> Vec<Interval<f64>> {
        vec![iv(0.0, 2.0), iv(1.0, 3.0), iv(1.5, 2.5)]
    }

    #[test]
    fn trait_objects_work() {
        let mut fusers: Vec<Box<dyn Fuser<f64>>> = vec![
            Box::new(MarzulloFuser::new(1)),
            Box::new(BrooksIyengarFuser::new(1)),
            Box::new(IntersectionFuser),
            Box::new(HullFuser),
            Box::new(InverseVarianceFuser),
            Box::new(MidpointMedianFuser),
            Box::new(HistoricalFuser::new(1, DynamicsBound::new(1.0), 0.1)),
        ];
        let s = sample();
        for fuser in &mut fusers {
            let fused = fuser.fuse(&s).unwrap();
            assert!(fused.width() >= 0.0, "{} produced {fused}", fuser.name());
            fuser.reset();
        }
    }

    #[test]
    fn fusers_nest_as_expected() {
        // intersection ⊆ marzullo(f) ⊆ hull for any f.
        let s = sample();
        let inter = Fuser::<f64>::fuse(&mut IntersectionFuser, &s).unwrap();
        let marz = Fuser::<f64>::fuse(&mut MarzulloFuser::new(1), &s).unwrap();
        let hull = Fuser::<f64>::fuse(&mut HullFuser, &s).unwrap();
        assert!(marz.contains_interval(&inter));
        assert!(hull.contains_interval(&marz));
    }

    #[test]
    fn intersection_fuser_errors_on_disagreement() {
        let s = [iv(0.0, 1.0), iv(2.0, 3.0)];
        let err = Fuser::<f64>::fuse(&mut IntersectionFuser, &s).unwrap_err();
        assert_eq!(err, FusionError::NoAgreement { required: 2 });
    }

    #[test]
    fn names_are_distinct() {
        let marzullo = MarzulloFuser::new(0);
        let bi = BrooksIyengarFuser::new(0);
        let names = [
            Fuser::<f64>::name(&marzullo),
            Fuser::<f64>::name(&bi),
            Fuser::<f64>::name(&IntersectionFuser),
            Fuser::<f64>::name(&HullFuser),
            Fuser::<f64>::name(&InverseVarianceFuser),
            Fuser::<f64>::name(&MidpointMedianFuser),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn empty_input_errors_everywhere() {
        // The all-sensors-silenced round: clamp_f(f, 0) forwards an empty
        // slice, and every engine-facing fuser must answer with
        // EmptyInput — whatever f it was configured with.
        let empty: [Interval<f64>; 0] = [];
        for f in [0, 1, 5] {
            let mut fusers: Vec<Box<dyn Fuser<f64>>> = vec![
                Box::new(MarzulloFuser::new(f)),
                Box::new(BrooksIyengarFuser::new(f)),
                Box::new(IntersectionFuser),
                Box::new(HullFuser),
                Box::new(InverseVarianceFuser),
                Box::new(MidpointMedianFuser),
                Box::new(HistoricalFuser::new(f, DynamicsBound::new(1.0), 0.1)),
            ];
            for fuser in &mut fusers {
                assert_eq!(
                    fuser.fuse(&empty),
                    Err(FusionError::EmptyInput),
                    "{} (f = {f}) must report the silenced round",
                    fuser.name()
                );
            }
        }
    }

    #[test]
    fn historical_fuser_survives_an_empty_round_and_keeps_history() {
        // A stateful fuser must treat the silenced round as transient:
        // error out, keep the accumulated history intact, and refine the
        // next populated round with it.
        let mut fuser = HistoricalFuser::new(1, DynamicsBound::new(1.0), 0.1);
        let mut no_gap = fuser.clone();
        Fuser::fuse(&mut fuser, &sample()).unwrap();
        Fuser::fuse(&mut no_gap, &sample()).unwrap();
        assert_eq!(
            Fuser::fuse(&mut fuser, &[]),
            Err(FusionError::EmptyInput),
            "silenced round errors instead of panicking"
        );
        // Shifted right: memoryless fusion [2, 3.5], which the history
        // [1, 2.5] propagated by 0.1 clips to [2, 2.6].
        let shifted = [iv(1.0, 3.0), iv(2.0, 4.0), iv(2.5, 3.5)];
        let refined = Fuser::fuse(&mut fuser, &shifted).unwrap();
        assert_eq!(Fuser::fuse(&mut no_gap, &shifted), Ok(refined));
        assert!(refined.hi() < 3.0, "history survives the gap: {refined}");
    }

    #[test]
    fn brooks_iyengar_interval_equals_marzullo() {
        let s = sample();
        assert_eq!(
            Fuser::<f64>::fuse(&mut BrooksIyengarFuser::new(1), &s).unwrap(),
            Fuser::<f64>::fuse(&mut MarzulloFuser::new(1), &s).unwrap()
        );
    }

    #[test]
    fn fault_assumption_is_clamped_to_the_round() {
        // Two intervals with f = 2: the direct algorithm errors, the
        // engine-facing trait clamps to f = 1 (a silenced-sensor round
        // must not kill the pipeline).
        let s = [iv(0.0, 2.0), iv(1.0, 3.0)];
        assert!(marzullo::fuse(&s, 2).is_err());
        let fused = Fuser::<f64>::fuse(&mut MarzulloFuser::new(2), &s).unwrap();
        assert_eq!(fused, iv(0.0, 3.0));
    }

    #[test]
    fn boxed_fusers_forward_all_methods() {
        let mut boxed: Box<dyn Fuser<f64>> =
            Box::new(HistoricalFuser::new(1, DynamicsBound::new(1.0), 0.1));
        let first = boxed.fuse(&sample()).unwrap();
        assert_eq!(boxed.name(), "historical");
        boxed.reset();
        // After reset the same round fuses memorylessly again.
        assert_eq!(boxed.fuse(&sample()).unwrap(), first);
    }

    #[test]
    fn weighted_fusers_are_not_attack_resilient() {
        // The forged outlier drags inverse-variance away but not the
        // median — exactly the contrast the paper's introduction draws.
        let honest = [iv(9.5, 10.5), iv(9.0, 11.0), iv(9.8, 10.2)];
        let attacked = [iv(9.5, 10.5), iv(9.0, 11.0), iv(99.8, 100.2)];
        let iv_honest = Fuser::<f64>::fuse(&mut InverseVarianceFuser, &honest).unwrap();
        let iv_attacked = Fuser::<f64>::fuse(&mut InverseVarianceFuser, &attacked).unwrap();
        assert!((iv_attacked.midpoint() - iv_honest.midpoint()).abs() > 10.0);
        let med_honest = Fuser::<f64>::fuse(&mut MidpointMedianFuser, &honest).unwrap();
        let med_attacked = Fuser::<f64>::fuse(&mut MidpointMedianFuser, &attacked).unwrap();
        assert!((med_attacked.midpoint() - med_honest.midpoint()).abs() < 1.0);
    }
}
