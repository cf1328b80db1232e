//! The object-safe [`Detector`] interface the round engine drives.
//!
//! The engine in `arsf-core` used to dispatch over a closed
//! `DetectionMode` enum; this trait replaces that dispatch so new
//! detectors plug in without touching the engine. Three stock
//! implementations cover the paper's design space:
//!
//! * [`NoDetector`] — detection disabled (ablation baseline),
//! * [`ImmediateDetector`] — the paper's rule: flag every interval
//!   disjoint from the fusion interval, every round,
//! * [`WindowedDetector`] — footnote 1's
//!   temporal model: immediate flags feed a sliding window; a sensor is
//!   *condemned* only when its violations exceed the tolerance.

use arsf_interval::Interval;

use crate::window::WindowedDetector;

/// Reusable per-round detection output. The engine clears and refills
/// one assessment per round instead of allocating result vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundAssessment {
    /// Sensors whose transmitted interval was disjoint from the fusion
    /// interval this round (sensor ids, in transmission order).
    pub flagged: Vec<usize>,
    /// Sensors condemned so far by a temporal detector (sensor ids,
    /// ascending); empty for memoryless detectors.
    pub condemned: Vec<usize>,
}

impl RoundAssessment {
    /// An empty assessment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears both result sets, keeping the allocations.
    pub fn clear(&mut self) {
        self.flagged.clear();
        self.condemned.clear();
    }

    /// Whether nothing was flagged or condemned.
    pub fn all_clear(&self) -> bool {
        self.flagged.is_empty() && self.condemned.is_empty()
    }
}

/// An attack/fault detector driven once per fusion round.
///
/// Object-safe: the engine holds a `Box<dyn Detector>`. Implementations
/// may keep per-sensor state between rounds; [`Detector::reset`] returns
/// them to their initial state so one boxed detector can be reused
/// across scenario runs.
pub trait Detector {
    /// A short human-readable name for reports and benchmark labels.
    fn name(&self) -> &str;

    /// Examines one round: `transmitted` holds `(sensor id, interval)`
    /// pairs in transmission order, `fusion` the round's fusion interval.
    /// Findings are appended to `out` (which the engine has cleared).
    fn assess(
        &mut self,
        transmitted: &[(usize, Interval<f64>)],
        fusion: &Interval<f64>,
        out: &mut RoundAssessment,
    );

    /// Clears any state carried between rounds (no-op for memoryless
    /// detectors).
    fn reset(&mut self) {}
}

impl<D: Detector + ?Sized> Detector for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn assess(
        &mut self,
        transmitted: &[(usize, Interval<f64>)],
        fusion: &Interval<f64>,
        out: &mut RoundAssessment,
    ) {
        (**self).assess(transmitted, fusion, out);
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

/// Detection disabled: never flags, never condemns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NoDetector;

impl Detector for NoDetector {
    fn name(&self) -> &str {
        "off"
    }

    fn assess(
        &mut self,
        _transmitted: &[(usize, Interval<f64>)],
        _fusion: &Interval<f64>,
        _out: &mut RoundAssessment,
    ) {
    }
}

/// The paper's rule as a [`Detector`]: every interval disjoint from the
/// fusion interval is flagged immediately (see [`OverlapDetector`](crate::OverlapDetector)
/// for the index-based one-shot API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ImmediateDetector;

impl Detector for ImmediateDetector {
    fn name(&self) -> &str {
        "immediate"
    }

    fn assess(
        &mut self,
        transmitted: &[(usize, Interval<f64>)],
        fusion: &Interval<f64>,
        out: &mut RoundAssessment,
    ) {
        for (sensor, interval) in transmitted {
            if !interval.intersects(fusion) {
                out.flagged.push(*sensor);
            }
        }
    }
}

impl Detector for WindowedDetector {
    fn name(&self) -> &str {
        "windowed"
    }

    /// Immediate overlap flags feed the per-sensor window; sensors whose
    /// violations exceed the tolerance are reported as condemned.
    fn assess(
        &mut self,
        transmitted: &[(usize, Interval<f64>)],
        fusion: &Interval<f64>,
        out: &mut RoundAssessment,
    ) {
        for (sensor, interval) in transmitted {
            let violated = !interval.intersects(fusion);
            if violated {
                out.flagged.push(*sensor);
            }
            self.record(*sensor, violated);
        }
        self.condemned_into(&mut out.condemned);
    }

    fn reset(&mut self) {
        WindowedDetector::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::OverlapDetector;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    fn round() -> Vec<(usize, Interval<f64>)> {
        vec![(2, iv(9.0, 11.0)), (0, iv(9.5, 10.5)), (1, iv(30.0, 31.0))]
    }

    #[test]
    fn no_detector_stays_silent() {
        let mut out = RoundAssessment::new();
        NoDetector.assess(&round(), &iv(9.5, 10.5), &mut out);
        assert!(out.all_clear());
        assert_eq!(NoDetector.name(), "off");
    }

    #[test]
    fn immediate_detector_reports_sensor_ids_not_slots() {
        let mut out = RoundAssessment::new();
        ImmediateDetector.assess(&round(), &iv(9.5, 10.5), &mut out);
        // Slot 2 carries sensor id 1 — the id must be reported.
        assert_eq!(out.flagged, vec![1]);
        assert!(out.condemned.is_empty());
    }

    #[test]
    fn immediate_matches_the_overlap_detector_on_identity_order() {
        let intervals = [iv(9.0, 11.0), iv(9.5, 10.5), iv(30.0, 31.0)];
        let fusion = iv(9.5, 10.5);
        let report = OverlapDetector.detect(&intervals, &fusion);
        let transmitted: Vec<(usize, Interval<f64>)> =
            intervals.iter().copied().enumerate().collect();
        let mut out = RoundAssessment::new();
        ImmediateDetector.assess(&transmitted, &fusion, &mut out);
        assert_eq!(out.flagged, report.flagged);
    }

    #[test]
    fn windowed_detector_condemns_after_tolerance() {
        let mut det = WindowedDetector::new(2, 5, 1);
        let fusion = iv(9.5, 10.5);
        let bad_round = vec![(0, iv(9.6, 10.4)), (1, iv(30.0, 31.0))];
        let mut out = RoundAssessment::new();
        det.assess(&bad_round, &fusion, &mut out);
        assert_eq!(out.flagged, vec![1]);
        assert!(out.condemned.is_empty(), "one violation is tolerated");
        out.clear();
        det.assess(&bad_round, &fusion, &mut out);
        assert_eq!(out.condemned, vec![1], "second violation exceeds tolerance");
        // Reset through the trait clears the window.
        Detector::reset(&mut det);
        out.clear();
        det.assess(&bad_round, &fusion, &mut out);
        assert!(out.condemned.is_empty());
    }

    #[test]
    fn boxed_detectors_dispatch_dynamically() {
        let mut detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(NoDetector),
            Box::new(ImmediateDetector),
            Box::new(WindowedDetector::new(3, 4, 0)),
        ];
        let fusion = iv(9.5, 10.5);
        let mut out = RoundAssessment::new();
        for det in &mut detectors {
            out.clear();
            det.assess(&round(), &fusion, &mut out);
            assert!(!det.name().is_empty());
        }
        assert_eq!(out.flagged, vec![1]);
        assert_eq!(out.condemned, vec![1], "zero tolerance condemns at once");
    }

    #[test]
    fn assessment_clear_keeps_capacity() {
        let mut out = RoundAssessment::new();
        out.flagged.extend([1, 2, 3]);
        out.condemned.push(1);
        let cap = out.flagged.capacity();
        out.clear();
        assert!(out.all_clear());
        assert_eq!(out.flagged.capacity(), cap);
    }
}
