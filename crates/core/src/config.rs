//! Pipeline configuration.

use arsf_detect::{Detector, DetectorModel, ImmediateDetector, NoDetector, WindowedDetector};
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
#[non_exhaustive]
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

    /// The static [`DetectorModel`] of this mode: what the detector it
    /// names can do (flag, condemn, and at what latency), derived from
    /// the configuration values alone — nothing is built.
    pub fn model(&self) -> DetectorModel {
        match *self {
            DetectionMode::Off => DetectorModel::off(),
            DetectionMode::Immediate => DetectorModel::immediate(),
            DetectionMode::Windowed { window, tolerance } => {
                DetectorModel::windowed(window, tolerance)
            }
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
    fn modes_expose_their_static_models() {
        assert!(!DetectionMode::Off.model().flags);
        let immediate = DetectionMode::Immediate.model();
        assert!(immediate.flags && !immediate.condemns);
        let windowed = DetectionMode::Windowed {
            window: 10,
            tolerance: 3,
        }
        .model();
        assert_eq!(windowed.window, Some(10));
        assert_eq!(windowed.condemnation_latency(), Some(4));
    }
}
