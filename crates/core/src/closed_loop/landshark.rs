//! The LandShark: one autonomous vehicle with the case study's sensor
//! suite, fusion pipeline, PI speed controller and safety supervisor.
//!
//! A vehicle is built from its closed-loop [`Scenario`]: it owns **one
//! persistent** [`FusionPipeline`] from [`Scenario::build_pipeline`], the
//! same engine an open-loop cell runs, so faults, any attack strategy,
//! any fuser and the detector behave identically inside the control loop
//! and the supervisor vets the interval detection saw. The case study's
//! "any sensor can be attacked" redraw swaps only the attacker config
//! each round instead of rebuilding the engine.

use crate::scenario::{draw_random_attacker, AttackerSpec, Scenario};
use crate::{FusionPipeline, RoundOutcome};
use arsf_fusion::Fuser;
use arsf_interval::Interval;
use rand::Rng;

use crate::closed_loop::controller::PiController;
use crate::closed_loop::supervisor::{Supervisor, SupervisorAction};
use crate::closed_loop::vehicle::{Vehicle, VehicleParams};

/// One simulation step's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// True speed at sampling time.
    pub true_speed: f64,
    /// The fused interval (when fusion succeeded).
    pub fusion: Option<Interval<f64>>,
    /// The supervisor's decision.
    pub action: SupervisorAction,
}

/// A LandShark instance: vehicle + sensors + fusion engine + control.
#[derive(Debug)]
pub struct LandShark {
    pipeline: FusionPipeline<Box<dyn Fuser<f64>>>,
    vehicle: Vehicle,
    pi: PiController,
    supervisor: Supervisor,
    target_speed: f64,
    dt: f64,
    random_attacker: bool,
    outcome: RoundOutcome,
}

impl LandShark {
    /// Creates a LandShark already cruising at the scenario's target
    /// speed (the platoon scenario starts mid-mission), controlled every
    /// [`Scenario::control_period`].
    ///
    /// # Panics
    ///
    /// Panics if the scenario is not closed-loop, or if a fault or
    /// compromised-sensor index is out of range for its suite (validate
    /// the scenario with [`Scenario::validate`] first for a typed error).
    pub fn new(scenario: &Scenario) -> Self {
        let Some(spec) = scenario.closed_loop else {
            panic!("a LandShark needs a closed-loop scenario");
        };
        let params = VehicleParams::default();
        Self {
            pipeline: scenario.build_pipeline(),
            vehicle: Vehicle::with_speed(params, spec.target_speed),
            pi: PiController::new(3.0, 0.8, params.max_accel, params.max_brake),
            supervisor: Supervisor::new(spec.target_speed, spec.delta_up, spec.delta_down),
            target_speed: spec.target_speed,
            dt: scenario.control_period(),
            random_attacker: scenario.attacker == AttackerSpec::RandomEachRound,
            outcome: RoundOutcome::default(),
        }
    }

    /// Current true speed (mph).
    pub fn speed(&self) -> f64 {
        self.vehicle.speed()
    }

    /// Travelled distance (miles).
    pub fn position(&self) -> f64 {
        self.vehicle.position()
    }

    /// The safety supervisor (violation statistics).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The persistent fusion engine (fuser/detector report names, round
    /// counters).
    pub fn pipeline(&self) -> &FusionPipeline<Box<dyn Fuser<f64>>> {
        &self.pipeline
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.pipeline.rounds()
    }

    /// Runs one control period: sample sensors at the true speed, run the
    /// scheduled fusion round (with the attacker, if any), let the
    /// supervisor vet the fusion interval, and actuate.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> StepRecord {
        let mut outcome = std::mem::take(&mut self.outcome);
        let record = self.step_with(rng, &mut outcome);
        self.outcome = outcome;
        record
    }

    /// [`LandShark::step`] writing the round's engine outcome (flagged and
    /// condemned sensors included) into a caller-owned reusable buffer —
    /// the allocation-free shape the scenario runner uses when sweeping
    /// many closed-loop cells.
    pub fn step_with<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        outcome: &mut RoundOutcome,
    ) -> StepRecord {
        let truth = self.vehicle.speed();
        if self.random_attacker {
            draw_random_attacker(&mut self.pipeline, rng);
        }
        self.pipeline.run_round_into(truth, rng, outcome);

        let (action, estimate) = match &outcome.fusion {
            Ok(fused) => (self.supervisor.check(fused), fused.midpoint()),
            // Fusion failure certifies over-budget faults; treat as a
            // brake-preempt with the last known-good estimate (target).
            Err(_) => (SupervisorAction::PreemptBrake, self.target_speed),
        };

        // Preemption overrides the actuator for this period but leaves the
        // PI state intact: the supervisor guards against *uncertainty*,
        // not against the controller, and wiping the integral would let
        // drag drag the platoon's speed down between preemptions.
        let params = *self.vehicle.params();
        let accel = match action {
            SupervisorAction::Nominal => self.pi.update(self.target_speed, estimate, self.dt),
            SupervisorAction::PreemptBrake | SupervisorAction::PreemptBoth => {
                -params.max_brake * 0.25
            }
            SupervisorAction::PreemptAccelerate => params.max_accel * 0.25,
        };
        self.vehicle.step(accel, self.dt, rng);

        StepRecord {
            true_speed: truth,
            fusion: outcome.fusion.ok(),
            action,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ClosedLoopSpec, FuserSpec, StrategySpec, SuiteSpec};
    use crate::DetectionMode;
    use arsf_schedule::SchedulePolicy;
    use arsf_sensor::{FaultKind, FaultModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    /// The case study's vehicle: 10 mph target, `δ1 = δ2 = 0.5`, `f = 1`,
    /// Marzullo fusion, immediate detection.
    fn cruise(schedule: SchedulePolicy, attacker: AttackerSpec) -> Scenario {
        Scenario::new("shark", SuiteSpec::Landshark)
            .with_schedule(schedule)
            .with_attacker(attacker)
            .with_closed_loop(ClosedLoopSpec::new(10.0))
    }

    fn fixed_phantom(sensors: Vec<usize>) -> AttackerSpec {
        AttackerSpec::Fixed {
            sensors,
            strategy: StrategySpec::PhantomOptimal,
        }
    }

    #[test]
    fn step_with_matches_step_on_identical_streams() {
        let scenario = cruise(SchedulePolicy::Descending, AttackerSpec::RandomEachRound);
        let mut rng_a = rng();
        let mut rng_b = rng();
        let mut a = LandShark::new(&scenario);
        let mut b = LandShark::new(&scenario);
        let mut buffer = RoundOutcome::default();
        for round in 0..100 {
            let ra = a.step(&mut rng_a);
            let rb = b.step_with(&mut rng_b, &mut buffer);
            assert_eq!(ra, rb, "round {round}");
            assert_eq!(buffer.fusion.as_ref().ok().copied(), rb.fusion);
        }
        assert_eq!(a.speed(), b.speed());
    }

    #[test]
    fn closed_loop_spec_reaches_the_supervisor_and_the_control_period() {
        // Unequal deltas pin their order: δ1 sits above the target, δ2
        // below it.
        let scenario = Scenario::new("cl", SuiteSpec::Landshark)
            .with_fuser(FuserSpec::BrooksIyengar)
            .with_detector(DetectionMode::Off)
            .with_closed_loop(ClosedLoopSpec::new(12.0).with_deltas(0.4, 0.6));
        let shark = LandShark::new(&scenario);
        assert_eq!(shark.supervisor().upper_bound(), 12.4);
        assert_eq!(shark.supervisor().lower_bound(), 11.4);
        assert_eq!((shark.target_speed, shark.speed()), (12.0, 12.0));
        assert_eq!(shark.pipeline().fuser().name(), "brooks-iyengar");
        assert_eq!(shark.pipeline().detector().name(), "off");
        assert_eq!(
            shark.dt, 0.1,
            "non-historical fusers keep the 100 ms period"
        );

        // A historical fuser's dt is the vehicle's control period.
        let historical = LandShark::new(&scenario.with_fuser(FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.05,
        }));
        assert_eq!(historical.dt, 0.05);
    }

    #[test]
    fn windowed_detection_flows_through_the_scenario() {
        let scenario = cruise(SchedulePolicy::Ascending, AttackerSpec::None).with_detector(
            DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        );
        let shark = LandShark::new(&scenario);
        assert_eq!(shark.pipeline().detector().name(), "windowed");
    }

    #[test]
    fn honest_shark_holds_speed_without_violations() {
        let mut rng = rng();
        let mut shark = LandShark::new(&cruise(SchedulePolicy::Ascending, AttackerSpec::None));
        let mut out = RoundOutcome::default();
        for _ in 0..200 {
            shark.step_with(&mut rng, &mut out);
            assert!(out.flagged.is_empty());
        }
        assert!(
            (shark.speed() - 10.0).abs() < 0.5,
            "speed {}",
            shark.speed()
        );
        assert_eq!(shark.supervisor().upper_violations(), 0);
        assert_eq!(shark.supervisor().lower_violations(), 0);
        assert_eq!(shark.rounds(), 200);
    }

    #[test]
    fn ascending_with_attacked_encoder_never_violates() {
        // The paper's headline: under Ascending the most precise sensor
        // transmits first and a single attacker gains nothing.
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Ascending, fixed_phantom(vec![0]));
        let mut shark = LandShark::new(&scenario);
        let mut out = RoundOutcome::default();
        for _ in 0..300 {
            shark.step_with(&mut rng, &mut out);
            assert!(out.flagged.is_empty(), "stealthy attacker flagged");
        }
        assert_eq!(shark.supervisor().upper_violations(), 0);
        assert_eq!(shark.supervisor().lower_violations(), 0);
    }

    #[test]
    fn descending_with_attacked_encoder_violates_sometimes() {
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Descending, fixed_phantom(vec![0]));
        let mut shark = LandShark::new(&scenario);
        for _ in 0..300 {
            shark.step(&mut rng);
        }
        let total = shark.supervisor().upper_violations() + shark.supervisor().lower_violations();
        assert!(
            total > 0,
            "a fully-informed attacker on the precise sensor must cause violations"
        );
    }

    #[test]
    fn supervisor_preemption_reacts_to_violations() {
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Descending, fixed_phantom(vec![0]));
        let mut shark = LandShark::new(&scenario);
        let mut preempted = 0;
        for _ in 0..300 {
            let rec = shark.step(&mut rng);
            if rec.action != SupervisorAction::Nominal {
                preempted += 1;
            }
        }
        assert!(preempted > 0);
        // Despite the attack the vehicle remains roughly at speed: the
        // supervisor acts on uncertainty, not on a wrong point estimate.
        assert!(
            (shark.speed() - 10.0).abs() < 2.0,
            "speed {}",
            shark.speed()
        );
    }

    #[test]
    fn historical_fusion_reduces_descending_violations() {
        // The follow-up defence: dynamics-aware history clips forged
        // extensions, cutting violation rates under the worst schedule.
        let rounds = 800;
        let run = |fuser: FuserSpec| {
            let mut rng = StdRng::seed_from_u64(51);
            let scenario =
                cruise(SchedulePolicy::Descending, fixed_phantom(vec![0])).with_fuser(fuser);
            let mut shark = LandShark::new(&scenario);
            for _ in 0..rounds {
                shark.step(&mut rng);
            }
            shark.supervisor().upper_violations() + shark.supervisor().lower_violations()
        };
        let without = run(FuserSpec::Marzullo);
        let with = run(FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        });
        assert!(
            (with as f64) < without as f64 * 0.75,
            "history must cut violations by at least a quarter: {with} vs {without}"
        );
    }

    #[test]
    fn historical_fusion_never_loses_the_truth() {
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Descending, AttackerSpec::RandomEachRound)
            .with_fuser(FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            });
        let mut shark = LandShark::new(&scenario);
        for _ in 0..400 {
            let rec = shark.step(&mut rng);
            if let Some(fused) = rec.fusion {
                assert!(
                    fused.contains(rec.true_speed),
                    "refined interval {fused} lost the truth {}",
                    rec.true_speed
                );
            }
        }
    }

    #[test]
    fn faulted_vehicle_runs_through_the_engine() {
        // Regression: fault injection used to be rejected closed-loop
        // (`closed-loop scenarios do not support fault injection`); the
        // vehicle now wires faults through the pipeline's own machinery.
        let mut rng = rng();
        let scenario = cruise(SchedulePolicy::Ascending, AttackerSpec::None)
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.3))
            .with_fault(3, FaultModel::new(FaultKind::Silent, 0.5));
        let mut shark = LandShark::new(&scenario);
        let mut out = RoundOutcome::default();
        let mut flagged_rounds = 0;
        for _ in 0..300 {
            shark.step_with(&mut rng, &mut out);
            if !out.flagged.is_empty() {
                flagged_rounds += 1;
            }
        }
        assert_eq!(shark.rounds(), 300);
        assert!(
            flagged_rounds > 0,
            "the biased GPS must get flagged on some rounds"
        );
    }

    #[test]
    fn non_phantom_strategies_drive_the_vehicle() {
        // Regression: every fixed strategy except PhantomOptimal used to
        // be rejected closed-loop.
        for strategy in [
            StrategySpec::GreedyHigh,
            StrategySpec::GreedyLow,
            StrategySpec::Truthful,
        ] {
            let mut rng = rng();
            let scenario = cruise(
                SchedulePolicy::Descending,
                AttackerSpec::Fixed {
                    sensors: vec![0],
                    strategy,
                },
            );
            let mut shark = LandShark::new(&scenario);
            for _ in 0..200 {
                shark.step(&mut rng);
            }
            assert_eq!(shark.rounds(), 200, "{} stalled", strategy.name());
            assert!(
                (shark.speed() - 10.0).abs() < 2.0,
                "{}: speed {} diverged",
                strategy.name(),
                shark.speed()
            );
        }
    }

    #[test]
    fn any_stock_fuser_drives_the_vehicle() {
        // Regression: fusers other than Marzullo/Historical used to be
        // rejected closed-loop.
        for fuser in [
            FuserSpec::BrooksIyengar,
            FuserSpec::Intersection,
            FuserSpec::Hull,
            FuserSpec::InverseVariance,
            FuserSpec::MidpointMedian,
        ] {
            let mut rng = rng();
            let scenario = cruise(SchedulePolicy::Ascending, AttackerSpec::RandomEachRound)
                .with_fuser(fuser.clone());
            let mut shark = LandShark::new(&scenario);
            for _ in 0..150 {
                shark.step(&mut rng);
            }
            assert_eq!(shark.rounds(), 150, "{} stalled", fuser.name());
            assert_eq!(shark.pipeline().fuser().name(), fuser.name());
        }
    }

    #[test]
    #[should_panic(expected = "closed-loop scenario")]
    fn an_open_loop_scenario_builds_no_vehicle() {
        let _ = LandShark::new(&Scenario::new("open", SuiteSpec::Landshark));
    }
}
