//! The three-LandShark platoon from the case study.
//!
//! "Three LandSharks in a platoon moving away from enemy territory. The
//! leader sets a speed target `v` mph for all three vehicles"; keeping
//! every vehicle's speed inside `[v − δ2, v + δ1]` prevents both
//! rear-end collisions within the platoon and the leader outrunning its
//! ability to stop.

use rand::Rng;

use crate::closed_loop::landshark::{LandShark, StepRecord};
use crate::metrics::VehicleSummary;
use crate::{RoundOutcome, Scenario};

/// A column of LandSharks sharing one speed target.
#[derive(Debug)]
pub struct Platoon {
    sharks: Vec<LandShark>,
    start_offsets: Vec<f64>,
    min_gap: f64,
    initial_gap: f64,
    stats: Vec<VehicleSummary>,
}

impl Platoon {
    /// Creates a platoon of `size` vehicles with `gap_miles` initial
    /// spacing, each a [`LandShark`] built from `scenario`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`, `gap_miles` is not positive, or
    /// [`LandShark::new`] rejects the scenario.
    pub fn new(size: usize, gap_miles: f64, scenario: &Scenario) -> Self {
        assert!(size > 0, "a platoon needs at least one vehicle");
        assert!(
            gap_miles > 0.0 && gap_miles.is_finite(),
            "initial gap must be positive"
        );
        let sharks = (0..size).map(|_| LandShark::new(scenario)).collect();
        let start_offsets = (0..size).map(|i| -(i as f64) * gap_miles).collect();
        Self {
            sharks,
            start_offsets,
            min_gap: gap_miles,
            initial_gap: gap_miles,
            stats: vec![VehicleSummary::default(); size],
        }
    }

    /// The vehicles, leader first.
    pub fn sharks(&self) -> &[LandShark] {
        &self.sharks
    }

    /// The smallest inter-vehicle gap observed so far (miles).
    pub fn min_gap(&self) -> f64 {
        self.min_gap
    }

    /// Whether any two consecutive vehicles have collided (gap ≤ 0).
    pub fn collided(&self) -> bool {
        self.min_gap <= 0.0
    }

    /// Cumulative per-vehicle fusion statistics (leader first) — every
    /// vehicle's engine outcome feeds its own aggregate, so followers are
    /// as observable as the leader in sweep rows.
    pub fn vehicle_stats(&self) -> &[VehicleSummary] {
        &self.stats
    }

    /// Advances every vehicle by one control period and updates the gap
    /// and per-vehicle statistics. Returns the per-vehicle step records,
    /// leader first.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<StepRecord> {
        let records: Vec<StepRecord> = self.sharks.iter_mut().map(|s| s.step(rng)).collect();
        self.record_round(&records);
        records
    }

    /// [`Platoon::step`] writing the **leader's** engine outcome into a
    /// caller-owned reusable buffer (followers keep their internal
    /// buffers) — the shape the scenario runner uses so closed-loop
    /// platoon cells report the leader's fusion statistics without
    /// per-round cloning.
    pub fn step_with<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        leader_outcome: &mut RoundOutcome,
    ) -> Vec<StepRecord> {
        let mut records = Vec::with_capacity(self.sharks.len());
        for (i, shark) in self.sharks.iter_mut().enumerate() {
            records.push(if i == 0 {
                shark.step_with(rng, leader_outcome)
            } else {
                shark.step(rng)
            });
        }
        self.record_round(&records);
        records
    }

    fn record_round(&mut self, records: &[StepRecord]) {
        for (stats, record) in self.stats.iter_mut().zip(records) {
            stats.record(record.fusion.as_ref(), record.true_speed);
        }
        self.update_gaps();
    }

    fn update_gaps(&mut self) {
        for i in 1..self.sharks.len() {
            let ahead = self.sharks[i - 1].position() + self.start_offsets[i - 1];
            let behind = self.sharks[i].position() + self.start_offsets[i];
            let gap = ahead - behind;
            if gap < self.min_gap {
                self.min_gap = gap;
            }
        }
    }

    /// The configured initial gap (miles).
    pub fn initial_gap(&self) -> f64 {
        self.initial_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AttackerSpec, ClosedLoopSpec, SuiteSpec};
    use arsf_schedule::SchedulePolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    /// Each vehicle's scenario: the case study at 10 mph.
    fn cruise(schedule: SchedulePolicy, attacker: AttackerSpec) -> Scenario {
        Scenario::new("platoon", SuiteSpec::Landshark)
            .with_schedule(schedule)
            .with_attacker(attacker)
            .with_closed_loop(ClosedLoopSpec::new(10.0))
    }

    #[test]
    fn honest_platoon_keeps_formation() {
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Ascending, AttackerSpec::None);
        let mut platoon = Platoon::new(3, 0.01, &scenario);
        for _ in 0..300 {
            platoon.step(&mut rng);
        }
        assert!(!platoon.collided());
        // Gaps cannot shrink much when everyone holds the same speed.
        assert!(
            platoon.min_gap() > 0.5 * platoon.initial_gap(),
            "min gap {} vs initial {}",
            platoon.min_gap(),
            platoon.initial_gap()
        );
    }

    #[test]
    fn attacked_ascending_platoon_stays_safe() {
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Ascending, AttackerSpec::RandomEachRound);
        let mut platoon = Platoon::new(3, 0.01, &scenario);
        for _ in 0..300 {
            platoon.step(&mut rng);
        }
        assert!(!platoon.collided());
        let violations: u64 = platoon
            .sharks()
            .iter()
            .map(|s| s.supervisor().upper_violations() + s.supervisor().lower_violations())
            .sum();
        assert_eq!(violations, 0, "ascending neutralises single attackers");
    }

    #[test]
    fn every_vehicle_accumulates_its_own_statistics() {
        // Before the per-vehicle aggregate only the leader's engine fed
        // the summary; followers were invisible.
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Descending, AttackerSpec::RandomEachRound);
        let mut platoon = Platoon::new(3, 0.01, &scenario);
        let mut buffer = RoundOutcome::default();
        for _ in 0..200 {
            platoon.step_with(&mut rng, &mut buffer);
        }
        let stats = platoon.vehicle_stats();
        assert_eq!(stats.len(), 3, "one aggregate per vehicle");
        for (i, vehicle) in stats.iter().enumerate() {
            assert_eq!(
                vehicle.widths.count() + vehicle.fusion_failures,
                200,
                "vehicle {i} must account for every round"
            );
            assert!(
                vehicle.widths.mean() > 0.0,
                "vehicle {i} recorded no widths"
            );
        }
        // Independently-sampled vehicles almost surely differ somewhere.
        assert!(
            stats[0] != stats[1] || stats[1] != stats[2],
            "per-vehicle statistics must not alias one engine"
        );
    }

    #[test]
    #[should_panic(expected = "at least one vehicle")]
    fn empty_platoon_panics() {
        let _ = Platoon::new(
            0,
            0.01,
            &cruise(SchedulePolicy::Ascending, AttackerSpec::None),
        );
    }

    #[test]
    #[should_panic(expected = "gap must be positive")]
    fn nonpositive_gap_panics() {
        let _ = Platoon::new(
            2,
            0.0,
            &cruise(SchedulePolicy::Ascending, AttackerSpec::None),
        );
    }
}
