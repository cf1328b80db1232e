//! Pipeline configuration.

use arsf_detect::{Detector, ImmediateDetector, NoDetector, WindowedDetector};
use arsf_schedule::SchedulePolicy;

/// Declarative default for the engine's detector: how the controller
/// reacts to intervals disjoint from the fusion interval.
///
/// The engine itself dispatches through the object-safe
/// [`Detector`] trait; this enum is the *configuration-level* name for
/// the three stock detectors, kept declarative so scenarios serialise
/// naturally. An explicit
/// [`PipelineBuilder::detector`](crate::PipelineBuilder::detector)
/// overrides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionMode {
    /// No detection at all (ablation baseline).
    Off,
    /// The paper's rule: flag immediately on every violation.
    Immediate,
    /// Footnote 1's temporal model: condemn a sensor only when it
    /// violates more than `tolerance` times within the last `window`
    /// rounds.
    Windowed {
        /// Window length `w` in rounds.
        window: usize,
        /// Tolerated violations per window.
        tolerance: usize,
    },
}

impl DetectionMode {
    /// Builds the stock [`Detector`] this mode names, for a suite of `n`
    /// sensors.
    pub fn detector(&self, n: usize) -> Box<dyn Detector> {
        match *self {
            DetectionMode::Off => Box::new(NoDetector),
            DetectionMode::Immediate => Box::new(ImmediateDetector),
            DetectionMode::Windowed { window, tolerance } => {
                Box::new(WindowedDetector::new(n, window, tolerance))
            }
        }
    }

    /// Whether the detector this mode names reports per-round overlap
    /// violations at all (`false` only for [`DetectionMode::Off`]).
    pub fn flags(&self) -> bool {
        *self != DetectionMode::Off
    }

    /// Whether the detector this mode names can ever *condemn* a sensor
    /// (declare it compromised for the rest of the run). Only the
    /// temporal detector condemns; the immediate rule is memoryless.
    pub fn condemns(&self) -> bool {
        self.condemnation_latency().is_some()
    }

    /// How many *violating fused rounds* a persistently violating sensor
    /// needs before it is condemned, or `None` if this mode can never
    /// condemn.
    ///
    /// Detectors only observe fused rounds (a failed fusion gives the
    /// overlap check nothing to compare against), so the count is in
    /// fused rounds: `tolerance + 1` for a windowed detector, since
    /// violations must *strictly* exceed the tolerance. A window holds
    /// at most `window` violations, so `tolerance >= window` (including
    /// the degenerate `window == 0`, which
    /// [`WindowedDetector::new`] refuses to build) never condemns.
    pub fn condemnation_latency(&self) -> Option<usize> {
        match *self {
            DetectionMode::Windowed { window, tolerance } if tolerance < window => {
                Some(tolerance + 1)
            }
            _ => None,
        }
    }
}

/// Validated pipeline configuration: fusion fault assumption, schedule
/// policy and detection mode.
///
/// # Example
///
/// ```
/// use arsf_core::{DetectionMode, PipelineConfig};
/// use arsf_schedule::SchedulePolicy;
///
/// let cfg = PipelineConfig::new(1, SchedulePolicy::Ascending)
///     .with_detection(DetectionMode::Windowed { window: 10, tolerance: 2 });
/// assert_eq!(cfg.f(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    f: usize,
    schedule: SchedulePolicy,
    detection: DetectionMode,
}

impl PipelineConfig {
    /// Creates a configuration with [`DetectionMode::Immediate`]
    /// detection (the paper's default).
    pub fn new(f: usize, schedule: SchedulePolicy) -> Self {
        Self {
            f,
            schedule,
            detection: DetectionMode::Immediate,
        }
    }

    /// Overrides the detection mode (builder style).
    #[must_use]
    pub fn with_detection(mut self, detection: DetectionMode) -> Self {
        self.detection = detection;
        self
    }

    /// The fusion fault assumption `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The schedule policy.
    pub(crate) fn schedule(&self) -> &SchedulePolicy {
        &self.schedule
    }

    /// The detection mode.
    pub(crate) fn detection(&self) -> DetectionMode {
        self.detection
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_detection_is_immediate() {
        let cfg = PipelineConfig::new(2, SchedulePolicy::Descending);
        assert_eq!(cfg.detection(), DetectionMode::Immediate);
        assert_eq!(cfg.f(), 2);
        assert_eq!(cfg.schedule().name(), "descending");
    }

    #[test]
    fn detection_override() {
        let cfg = PipelineConfig::new(1, SchedulePolicy::Random).with_detection(DetectionMode::Off);
        assert_eq!(cfg.detection(), DetectionMode::Off);
    }

    #[test]
    fn modes_build_their_detectors() {
        assert_eq!(DetectionMode::Off.detector(4).name(), "off");
        assert_eq!(DetectionMode::Immediate.detector(4).name(), "immediate");
        let windowed = DetectionMode::Windowed {
            window: 5,
            tolerance: 1,
        }
        .detector(4);
        assert_eq!(windowed.name(), "windowed");
    }

    #[test]
    fn off_can_do_nothing() {
        let off = DetectionMode::Off;
        assert!(!off.flags());
        assert!(!off.condemns());
        assert_eq!(off.condemnation_latency(), None);
    }

    #[test]
    fn immediate_flags_but_never_condemns() {
        let immediate = DetectionMode::Immediate;
        assert!(immediate.flags());
        assert!(!immediate.condemns());
        assert_eq!(immediate.condemnation_latency(), None);
    }

    #[test]
    fn windowed_latency_is_tolerance_plus_one() {
        let windowed = |window, tolerance| DetectionMode::Windowed { window, tolerance };
        assert!(windowed(10, 3).flags() && windowed(10, 3).condemns());
        assert_eq!(windowed(10, 3).condemnation_latency(), Some(4));
        assert_eq!(windowed(5, 0).condemnation_latency(), Some(1));
    }

    #[test]
    fn saturated_tolerance_never_condemns() {
        for (window, tolerance) in [(4, 4), (4, 9), (0, 0)] {
            let mode = DetectionMode::Windowed { window, tolerance };
            assert!(mode.flags(), "w={window} t={tolerance}");
            assert!(!mode.condemns(), "w={window} t={tolerance}");
            assert_eq!(mode.condemnation_latency(), None);
        }
    }
}
