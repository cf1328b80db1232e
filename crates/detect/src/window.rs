//! Sliding-window temporal fault detection.
//!
//! Footnote 1 of the paper: "A generalization of this work will include a
//! fault model over time for each sensor (e.g., a sensor is compromised
//! only if it is faulty more than `f` out of `w` measurements). Thus, a
//! sensor may have a temporary fault without being discarded as
//! compromised." This module implements that generalisation: each sensor
//! accumulates per-round overlap-check verdicts in a ring buffer of the
//! last `w` rounds and is only *condemned* when violations exceed the
//! threshold.

/// The standing of one sensor after recording a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowVerdict {
    /// No violation in the current window beyond the tolerance.
    Healthy,
    /// Violations present but within tolerance (a transient fault).
    Suspect,
    /// Violations exceeded the tolerance within the window: the sensor is
    /// declared compromised.
    Condemned,
}

/// Per-sensor sliding-window violation counter.
///
/// A sensor is [`WindowVerdict::Condemned`] when strictly more than
/// `tolerance` of its last `window` rounds violated the overlap check.
/// Once condemned, a sensor stays condemned (the paper's system discards
/// it) until [`WindowedDetector::reset`].
///
/// # Example
///
/// ```
/// use arsf_detect::{WindowVerdict, WindowedDetector};
///
/// // Tolerate 1 faulty round out of any 4 consecutive.
/// let mut det = WindowedDetector::new(2, 4, 1);
/// assert_eq!(det.record(0, true), WindowVerdict::Suspect);   // 1 of 4: ok
/// assert_eq!(det.record(0, false), WindowVerdict::Suspect);
/// assert_eq!(det.record(0, true), WindowVerdict::Condemned); // 2 of 4: out
/// assert_eq!(det.record(1, false), WindowVerdict::Healthy);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedDetector {
    window: usize,
    tolerance: usize,
    /// Sensor `i`'s last `window` verdicts, as a ring in
    /// `ring[i * window..(i + 1) * window]`.
    ring: Vec<bool>,
    sensors: Vec<SensorWindow>,
}

/// One sensor's position in its ring and its running counts.
#[derive(Debug, Clone, Copy, Default)]
struct SensorWindow {
    /// The ring slot the next verdict goes to.
    next: usize,
    /// How many slots hold verdicts recorded since the last reset.
    filled: usize,
    /// How many of those verdicts are violations.
    violations: usize,
    condemned: bool,
}

impl WindowedDetector {
    /// Creates a detector for `n` sensors with the given window length and
    /// violation tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` — an empty window can never observe
    /// anything — or if `n × window` overflows `usize`.
    pub fn new(n: usize, window: usize, tolerance: usize) -> Self {
        assert!(window > 0, "window length must be positive");
        let slots = n
            .checked_mul(window)
            .unwrap_or_else(|| panic!("{n} sensors with a window of {window} overflow usize"));
        Self {
            window,
            tolerance,
            ring: vec![false; slots],
            sensors: vec![SensorWindow::default(); n],
        }
    }

    /// Records one round for `sensor` (`violated` = failed the overlap
    /// check) and returns its current standing.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is out of range.
    pub fn record(&mut self, sensor: usize, violated: bool) -> WindowVerdict {
        let s = &mut self.sensors[sensor];
        let slot = &mut self.ring[sensor * self.window + s.next];
        if s.filled == self.window {
            // The oldest verdict leaves the window.
            s.violations -= usize::from(*slot);
        } else {
            s.filled += 1;
        }
        *slot = violated;
        s.violations += usize::from(violated);
        s.next += 1;
        if s.next == self.window {
            s.next = 0;
        }
        if s.violations > self.tolerance {
            s.condemned = true;
        }
        self.verdict(sensor)
    }

    /// The current standing of `sensor` without recording anything.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is out of range.
    pub fn verdict(&self, sensor: usize) -> WindowVerdict {
        let s = &self.sensors[sensor];
        if s.condemned {
            WindowVerdict::Condemned
        } else if s.violations == 0 {
            WindowVerdict::Healthy
        } else {
            WindowVerdict::Suspect
        }
    }

    /// Indices of all condemned sensors.
    pub fn condemned(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.condemned_into(&mut out);
        out
    }

    /// Appends the indices of all condemned sensors to `out` (ascending),
    /// reusing the caller's allocation.
    pub(crate) fn condemned_into(&self, out: &mut Vec<usize>) {
        out.extend(
            self.sensors
                .iter()
                .enumerate()
                .filter(|(_, s)| s.condemned)
                .map(|(i, _)| i),
        );
    }

    /// Clears all history and condemnations (e.g. after replacing a
    /// sensor). Stale ring slots need no clearing: a slot is read only
    /// once it has been rewritten since the reset.
    pub fn reset(&mut self) {
        self.sensors.fill(SensorWindow::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fault_is_tolerated() {
        let mut det = WindowedDetector::new(1, 5, 2);
        // Two violations inside the window: suspect, not condemned.
        assert_eq!(det.record(0, true), WindowVerdict::Suspect);
        assert_eq!(det.record(0, false), WindowVerdict::Suspect);
        assert_eq!(det.record(0, true), WindowVerdict::Suspect);
        assert_eq!(det.record(0, false), WindowVerdict::Suspect);
        assert_eq!(det.record(0, false), WindowVerdict::Suspect);
        // The first violation (round 1) slides out of the 5-round window.
        assert_eq!(det.record(0, false), WindowVerdict::Suspect);
        // Round 3's violation is still in the window of rounds 3-7.
        assert_eq!(det.record(0, false), WindowVerdict::Suspect);
        // Window is rounds 4-8: all clear.
        assert_eq!(det.record(0, false), WindowVerdict::Healthy);
    }

    #[test]
    fn persistent_fault_is_condemned() {
        let mut det = WindowedDetector::new(1, 4, 1);
        assert_eq!(det.record(0, true), WindowVerdict::Suspect);
        assert_eq!(det.record(0, true), WindowVerdict::Condemned);
    }

    #[test]
    fn condemnation_is_sticky() {
        let mut det = WindowedDetector::new(1, 3, 0);
        assert_eq!(det.record(0, true), WindowVerdict::Condemned);
        for _ in 0..10 {
            assert_eq!(det.record(0, false), WindowVerdict::Condemned);
        }
        assert_eq!(det.condemned(), vec![0]);
    }

    #[test]
    fn sensors_are_independent() {
        let mut det = WindowedDetector::new(3, 2, 0);
        det.record(1, true);
        assert_eq!(det.verdict(0), WindowVerdict::Healthy);
        assert_eq!(det.verdict(1), WindowVerdict::Condemned);
        assert_eq!(det.verdict(2), WindowVerdict::Healthy);
        assert_eq!(det.condemned(), vec![1]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut det = WindowedDetector::new(2, 2, 0);
        det.record(0, true);
        det.record(1, true);
        assert_eq!(det.condemned().len(), 2);
        det.reset();
        assert!(det.condemned().is_empty());
        assert_eq!(det.verdict(0), WindowVerdict::Healthy);
    }

    #[test]
    fn zero_tolerance_condemns_on_first_violation() {
        let mut det = WindowedDetector::new(1, 10, 0);
        assert_eq!(det.record(0, false), WindowVerdict::Healthy);
        assert_eq!(det.record(0, true), WindowVerdict::Condemned);
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn zero_window_panics() {
        let _ = WindowedDetector::new(1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn fully_degenerate_config_panics() {
        // Even with no sensors to track, a zero-length window is refused:
        // the `detector-window` lint flags the configuration statically,
        // and the engines would panic here when building it.
        let _ = WindowedDetector::new(0, 0, 0);
    }

    #[test]
    fn zero_sensors_with_a_valid_window_is_inert() {
        // n = 0 builds (nothing to track) but any record() is out of
        // range; the detector just never condemns anything.
        let mut det = WindowedDetector::new(0, 4, 1);
        assert!(det.sensors.is_empty());
        assert!(det.condemned().is_empty());
        det.reset();
        assert!(det.condemned().is_empty());
    }
}
