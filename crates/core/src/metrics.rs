//! Experiment metrics: width statistics and the per-vehicle and
//! supervisor summaries a sweep row reports.

use arsf_interval::Interval;

/// The closed-loop supervisor columns a Table II sweep row reports.
///
/// Produced only by closed-loop scenario runs (see
/// [`ClosedLoopSpec`](crate::scenario::ClosedLoopSpec)); open-loop rows
/// carry `None` and render the columns empty/`null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorSummary {
    /// Fraction of supervised rounds whose fusion upper bound escaped
    /// `v + δ1` (Table II row 1). Platoon runs pool all vehicles.
    pub above_rate: f64,
    /// Fraction of supervised rounds whose fusion lower bound escaped
    /// `v − δ2` (Table II row 2). Platoon runs pool all vehicles.
    pub below_rate: f64,
    /// Control periods in which the supervisor preempted the low-level
    /// controller (any vehicle, including fusion-failure brake preempts).
    pub preemptions: u64,
    /// Smallest inter-vehicle gap observed (miles); `None` for a single
    /// vehicle.
    pub min_gap: Option<f64>,
}

/// Per-vehicle fusion statistics of one closed-loop platoon run.
///
/// A platoon's [`BatchSummary`](crate::BatchSummary) describes the
/// **leader** in its headline width/truth columns; this struct carries
/// the same fusion-quality statistics for *every* vehicle (leader first),
/// cumulative over the runner's lifetime, so followers stop being
/// invisible in sweep rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VehicleSummary {
    /// Width statistics over this vehicle's fused rounds.
    pub widths: WidthStats,
    /// Rounds whose fused interval did not contain the vehicle's true
    /// speed.
    pub truth_lost: u64,
    /// Rounds where this vehicle's fusion failed outright.
    pub fusion_failures: u64,
}

impl VehicleSummary {
    /// Records one control period: the vehicle's fused interval (if
    /// fusion succeeded) at its true speed.
    pub(crate) fn record(&mut self, fusion: Option<&Interval<f64>>, true_speed: f64) {
        match fusion {
            Some(fused) => {
                self.widths.record(fused.width());
                if !fused.contains(true_speed) {
                    self.truth_lost += 1;
                }
            }
            None => self.fusion_failures += 1,
        }
    }
}

/// Streaming width statistics (mean / min / max) without storing samples.
///
/// # Example
///
/// ```
/// use arsf_core::metrics::WidthStats;
///
/// let mut stats = WidthStats::new();
/// stats.record(2.0);
/// stats.record(4.0);
/// assert_eq!(stats.mean(), 3.0);
/// assert_eq!(stats.min(), Some(2.0));
/// assert_eq!(stats.max(), Some(4.0));
/// assert_eq!(stats.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for WidthStats {
    /// Identical to [`WidthStats::new`]. A derived `Default` would zero
    /// the min/max accumulators instead of using the `±INFINITY`
    /// sentinels, so a default-constructed stats recording only positive
    /// widths would report `min() == Some(0.0)`.
    fn default() -> Self {
        Self::new()
    }
}

impl WidthStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one width sample.
    pub fn record(&mut self, width: f64) {
        self.count += 1;
        self.sum += width;
        self.min = self.min.min(width);
        self.max = self.max.max(width);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean width (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn vehicle_summary_tracks_fusion_quality() {
        let mut v = VehicleSummary::default();
        v.record(Some(&iv(9.0, 11.0)), 10.0); // fused, truth inside
        v.record(Some(&iv(9.0, 9.8)), 10.0); // fused, truth lost
        v.record(None, 10.0); // fusion failed
        assert_eq!(v.widths.count(), 2);
        assert_eq!(v.truth_lost, 1);
        assert_eq!(v.fusion_failures, 1);
        assert_eq!(v.widths.max(), Some(2.0));
    }

    #[test]
    fn width_stats_accumulate() {
        let mut s = WidthStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for w in [3.0, 1.0, 2.0] {
            s.record(w);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn default_equals_new() {
        let d = WidthStats::default();
        assert_eq!(d, WidthStats::new());
        assert_eq!(d.count(), 0);
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    fn default_constructed_stats_track_extrema_like_new() {
        // Regression: the derived Default zeroed the sentinels, so a
        // default-constructed stats recording only positive widths
        // reported min() == Some(0.0) (and negative-width… max 0.0).
        let mut d = WidthStats::default();
        d.record(2.0);
        d.record(4.0);
        assert_eq!(d.min(), Some(2.0));
        assert_eq!(d.max(), Some(4.0));
        let mut neg = WidthStats::default();
        neg.record(-3.0);
        assert_eq!(neg.max(), Some(-3.0));
    }
}
