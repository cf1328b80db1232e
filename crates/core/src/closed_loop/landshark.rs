//! The LandShark: one autonomous vehicle with the case study's sensor
//! suite, fusion pipeline, PI speed controller and safety supervisor.
//!
//! The vehicle owns **one persistent** [`FusionPipeline`] over a boxed
//! [`Fuser`] built from the configured
//! [`FuserSpec`] — plain Marzullo by default, the dynamics-aware
//! historical defence, or any other stock fuser — so defences run
//! *through* the engine rather than as bolt-on refinements and detection
//! sees the same interval the supervisor does. Faults and attackers use
//! the **identical machinery** as the open-loop pipeline: fault models
//! attach to the suite before the run, the attacker is a declarative
//! [`AttackerSpec`] (any strategy), and per-round attacker changes (the
//! case study's "any sensor can be attacked") go through
//! [`FusionPipeline::set_attacker_config`] instead of rebuilding the
//! engine.

use crate::{DetectionMode, FusionPipeline, PipelineConfig, RoundOutcome};
use arsf_attack::AttackerConfig;
use arsf_fusion::historical::{DynamicsBound, HistoricalFuser};
use arsf_fusion::Fuser;
use arsf_interval::Interval;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::FaultModel;
use rand::Rng;

use crate::closed_loop::controller::PiController;
use crate::closed_loop::supervisor::{Supervisor, SupervisorAction};
use crate::closed_loop::vehicle::{Vehicle, VehicleParams};
use crate::scenario::{apply_faults, AttackerSpec, FuserSpec};

/// Configuration of a single LandShark.
#[derive(Debug, Clone, PartialEq)]
pub struct LandSharkConfig {
    /// Target speed `v` in mph.
    pub target_speed: f64,
    /// Upper envelope half-width `δ1`.
    pub delta_up: f64,
    /// Lower envelope half-width `δ2`.
    pub delta_down: f64,
    /// Communication schedule.
    pub schedule: SchedulePolicy,
    /// Fusion fault assumption.
    pub f: usize,
    /// Control period in seconds.
    pub dt: f64,
    /// Fault models attached to the vehicle's sensors before the run, as
    /// `(sensor index, fault)` pairs — the same wiring the open-loop
    /// pipeline uses.
    pub faults: Vec<(usize, FaultModel)>,
    /// Attacker model — any [`AttackerSpec`], with any strategy.
    pub attacker: AttackerSpec,
    /// The detector the fusion engine runs on fused rounds.
    pub detection: DetectionMode,
    /// Vehicle parameters.
    pub vehicle: VehicleParams,
    /// The fusion algorithm the engine runs (Marzullo by default;
    /// [`FuserSpec::Historical`] is the dynamics-aware follow-up defence,
    /// refining each round with the previous round's propagated
    /// evidence). A historical spec's own `dt` is ignored here: the
    /// vehicle always propagates history at the control period
    /// [`LandSharkConfig::dt`], so the two can never silently diverge.
    pub fuser: FuserSpec,
}

impl LandSharkConfig {
    /// The case study's configuration: `v` mph target, `δ1 = δ2 = 0.5`,
    /// `f = 1`, 100 ms control period, Marzullo fusion, no faults, no
    /// attacker.
    pub fn new(target_speed: f64, schedule: SchedulePolicy) -> Self {
        Self {
            target_speed,
            delta_up: 0.5,
            delta_down: 0.5,
            schedule,
            f: 1,
            dt: 0.1,
            faults: Vec::new(),
            attacker: AttackerSpec::None,
            detection: DetectionMode::Immediate,
            vehicle: VehicleParams::default(),
            fuser: FuserSpec::Marzullo,
        }
    }

    /// Sets the attacker model (builder style).
    #[must_use]
    pub fn with_attacker(mut self, attacker: AttackerSpec) -> Self {
        self.attacker = attacker;
        self
    }

    /// Attaches a fault model to a sensor (builder style).
    #[must_use]
    pub fn with_fault(mut self, sensor: usize, fault: FaultModel) -> Self {
        self.faults.push((sensor, fault));
        self
    }

    /// Sets the detector (builder style).
    #[must_use]
    pub fn with_detection(mut self, detection: DetectionMode) -> Self {
        self.detection = detection;
        self
    }

    /// Sets the fusion algorithm (builder style).
    #[must_use]
    pub fn with_fuser(mut self, fuser: FuserSpec) -> Self {
        self.fuser = fuser;
        self
    }

    /// Enables dynamics-aware historical fusion with the given rate bound
    /// at the current control period (builder-style sugar for
    /// [`LandSharkConfig::with_fuser`] with [`FuserSpec::Historical`]).
    #[must_use]
    pub fn with_history(mut self, bound: DynamicsBound) -> Self {
        self.fuser = FuserSpec::Historical {
            max_rate: bound.max_rate(),
            dt: self.dt,
        };
        self
    }
}

/// One simulation step's record.
#[derive(Debug)]
pub struct StepRecord {
    /// True speed at sampling time.
    pub true_speed: f64,
    /// The fused interval (when fusion succeeded).
    pub fusion: Option<Interval<f64>>,
    /// The supervisor's decision.
    pub action: SupervisorAction,
    /// Sensors flagged by detection this round.
    pub flagged: Vec<usize>,
    /// The full compromised set this round (ascending ids; empty when
    /// nobody was attacked).
    pub attacked: Vec<usize>,
}

/// A LandShark instance: vehicle + sensors + fusion engine + control.
#[derive(Debug)]
pub struct LandShark {
    config: LandSharkConfig,
    pipeline: FusionPipeline<Box<dyn Fuser<f64>>>,
    vehicle: Vehicle,
    pi: PiController,
    supervisor: Supervisor,
    outcome: RoundOutcome,
    /// `AttackerSpec::Fixed`'s set, normalised (sorted, deduped) once
    /// at construction so per-round records are a plain copy.
    fixed_attacked: Vec<usize>,
}

impl LandShark {
    /// Creates a LandShark already cruising at the target speed (the
    /// platoon scenario starts mid-mission).
    ///
    /// # Panics
    ///
    /// Panics if a fault or compromised-sensor index is out of range for
    /// the LandShark suite (validate the scenario with
    /// [`Scenario::validate`](crate::Scenario::validate) first for a
    /// typed error).
    pub fn new(config: LandSharkConfig) -> Self {
        let vehicle = Vehicle::with_speed(config.vehicle, config.target_speed);
        let pi = PiController::new(3.0, 0.8, config.vehicle.max_accel, config.vehicle.max_brake);
        let supervisor = Supervisor::new(config.target_speed, config.delta_up, config.delta_down);
        let mut suite = arsf_sensor::suite::landshark();
        apply_faults(&mut suite, &config.faults);
        // Historical fusion must propagate at the loop's actual control
        // period — config.dt wins over the spec's own dt, so a fuser
        // configured for a different period cannot silently shrink or
        // inflate the dynamics envelope.
        let fuser: Box<dyn Fuser<f64>> = match config.fuser {
            FuserSpec::Historical { max_rate, .. } => Box::new(HistoricalFuser::new(
                config.f,
                DynamicsBound::new(max_rate),
                config.dt,
            )),
            ref other => other.build(config.f),
        };
        let mut pipeline = FusionPipeline::builder(suite)
            .config(
                PipelineConfig::new(config.f, config.schedule.clone())
                    .with_detection(config.detection),
            )
            .fuser(fuser)
            .build();
        // Attacker wiring is the pipeline's own: RandomEachRound installs
        // a persistent strategy whose per-round compromised sensor is
        // drawn inside step(), so the hot loop only swaps the attacker
        // *config*.
        let mut fixed_attacked = Vec::new();
        if let Some((attacker, strategy)) = config.attacker.build(config.f) {
            if matches!(config.attacker, AttackerSpec::Fixed { .. }) {
                fixed_attacked = attacker.compromised().to_vec();
            }
            pipeline.set_attacker(Some((attacker, strategy)));
        }
        Self {
            config,
            pipeline,
            vehicle,
            pi,
            supervisor,
            outcome: RoundOutcome::default(),
            fixed_attacked,
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

    /// The configuration.
    pub fn config(&self) -> &LandSharkConfig {
        &self.config
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

    /// [`LandShark::step`] writing the round's engine outcome into a
    /// caller-owned reusable buffer — the allocation-free shape the
    /// scenario runner uses when sweeping many closed-loop cells.
    pub fn step_with<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        outcome: &mut RoundOutcome,
    ) -> StepRecord {
        let truth = self.vehicle.speed();
        let attacked: Vec<usize> = match &self.config.attacker {
            AttackerSpec::None => Vec::new(),
            AttackerSpec::Fixed { .. } => self.fixed_attacked.clone(),
            AttackerSpec::RandomEachRound => {
                let sensor = rng.gen_range(0..self.pipeline.suite().len());
                // Swap only the compromised set: the boxed strategy
                // persists, so the hot loop performs no re-boxing.
                self.pipeline
                    .set_attacker_config(AttackerConfig::new([sensor], self.config.f));
                vec![sensor]
            }
        };
        self.pipeline.run_round_into(truth, rng, outcome);

        let (action, estimate) = match &outcome.fusion {
            Ok(fused) => (self.supervisor.check(fused), fused.midpoint()),
            // Fusion failure certifies over-budget faults; treat as a
            // brake-preempt with the last known-good estimate (target).
            Err(_) => (SupervisorAction::PreemptBrake, self.config.target_speed),
        };

        // Preemption overrides the actuator for this period but leaves the
        // PI state intact: the supervisor guards against *uncertainty*,
        // not against the controller, and wiping the integral would let
        // drag drag the platoon's speed down between preemptions.
        let accel = match action {
            SupervisorAction::Nominal => {
                self.pi
                    .update(self.config.target_speed, estimate, self.config.dt)
            }
            SupervisorAction::PreemptBrake | SupervisorAction::PreemptBoth => {
                -self.config.vehicle.max_brake * 0.25
            }
            SupervisorAction::PreemptAccelerate => self.config.vehicle.max_accel * 0.25,
        };
        self.vehicle.step(accel, self.config.dt, rng);

        StepRecord {
            true_speed: truth,
            fusion: outcome.fusion.ok(),
            action,
            // Cloning is allocation-free on all-clear rounds; the caller
            // keeps the buffer's vector for the summary aggregation.
            flagged: outcome.flagged.clone(),
            attacked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StrategySpec;
    use arsf_sensor::FaultKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    fn fixed_phantom(sensors: Vec<usize>) -> AttackerSpec {
        AttackerSpec::Fixed {
            sensors,
            strategy: StrategySpec::PhantomOptimal,
        }
    }

    #[test]
    fn fixed_multi_sensor_attack_reports_the_full_set() {
        // Regression: StepRecord used to report only set.first() for
        // fixed attackers, silently misreporting multi-sensor attacks.
        let mut rng = rng();
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Ascending)
            .with_attacker(fixed_phantom(vec![2, 0]));
        let mut shark = LandShark::new(config);
        let rec = shark.step(&mut rng);
        assert_eq!(rec.attacked, vec![0, 2], "full sorted compromised set");
    }

    #[test]
    fn step_with_matches_step_on_identical_streams() {
        let build = || {
            LandShark::new(
                LandSharkConfig::new(10.0, SchedulePolicy::Descending)
                    .with_attacker(AttackerSpec::RandomEachRound),
            )
        };
        let mut rng_a = rng();
        let mut rng_b = rng();
        let mut a = build();
        let mut b = build();
        let mut buffer = RoundOutcome::default();
        for round in 0..100 {
            let ra = a.step(&mut rng_a);
            let rb = b.step_with(&mut rng_b, &mut buffer);
            assert_eq!(ra.fusion, rb.fusion, "round {round}");
            assert_eq!(ra.action, rb.action);
            assert_eq!(ra.flagged, rb.flagged);
            assert_eq!(ra.attacked, rb.attacked);
            assert_eq!(buffer.fusion.as_ref().ok().copied(), rb.fusion);
        }
        assert_eq!(a.speed(), b.speed());
    }

    #[test]
    fn windowed_detection_flows_through_the_config() {
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Ascending).with_detection(
            DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        );
        let shark = LandShark::new(config);
        assert_eq!(shark.pipeline().detector().name(), "windowed");
    }

    #[test]
    fn honest_shark_holds_speed_without_violations() {
        let mut rng = rng();
        let mut shark = LandShark::new(LandSharkConfig::new(10.0, SchedulePolicy::Ascending));
        for _ in 0..200 {
            let rec = shark.step(&mut rng);
            assert!(rec.flagged.is_empty());
            assert!(rec.attacked.is_empty());
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
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Ascending)
            .with_attacker(fixed_phantom(vec![0]));
        let mut shark = LandShark::new(config);
        for _ in 0..300 {
            let rec = shark.step(&mut rng);
            assert!(rec.flagged.is_empty(), "stealthy attacker flagged");
        }
        assert_eq!(shark.supervisor().upper_violations(), 0);
        assert_eq!(shark.supervisor().lower_violations(), 0);
    }

    #[test]
    fn descending_with_attacked_encoder_violates_sometimes() {
        let mut rng = rng();
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Descending)
            .with_attacker(fixed_phantom(vec![0]));
        let mut shark = LandShark::new(config);
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
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Descending)
            .with_attacker(fixed_phantom(vec![0]));
        let mut shark = LandShark::new(config);
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
        let run = |history: Option<DynamicsBound>| {
            let mut rng = StdRng::seed_from_u64(51);
            let mut config = LandSharkConfig::new(10.0, SchedulePolicy::Descending)
                .with_attacker(fixed_phantom(vec![0]));
            if let Some(bound) = history {
                config = config.with_history(bound);
            }
            let mut shark = LandShark::new(config);
            for _ in 0..rounds {
                shark.step(&mut rng);
            }
            shark.supervisor().upper_violations() + shark.supervisor().lower_violations()
        };
        let without = run(None);
        let with = run(Some(DynamicsBound::new(3.5)));
        assert!(
            (with as f64) < without as f64 * 0.75,
            "history must cut violations by at least a quarter: {with} vs {without}"
        );
    }

    #[test]
    fn historical_fusion_never_loses_the_truth() {
        let mut rng = rng();
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_history(DynamicsBound::new(3.5));
        let mut shark = LandShark::new(config);
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
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Ascending)
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.3))
            .with_fault(3, FaultModel::new(FaultKind::Silent, 0.5));
        let mut shark = LandShark::new(config);
        let mut flagged_rounds = 0;
        for _ in 0..300 {
            let rec = shark.step(&mut rng);
            if !rec.flagged.is_empty() {
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
            let config = LandSharkConfig::new(10.0, SchedulePolicy::Descending).with_attacker(
                AttackerSpec::Fixed {
                    sensors: vec![0],
                    strategy,
                },
            );
            let mut shark = LandShark::new(config);
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
            let config = LandSharkConfig::new(10.0, SchedulePolicy::Ascending)
                .with_fuser(fuser.clone())
                .with_attacker(AttackerSpec::RandomEachRound);
            let mut shark = LandShark::new(config);
            for _ in 0..150 {
                shark.step(&mut rng);
            }
            assert_eq!(shark.rounds(), 150, "{} stalled", fuser.name());
            assert_eq!(shark.pipeline().fuser().name(), fuser.name());
        }
    }

    #[test]
    fn historical_fuser_always_propagates_at_the_control_period() {
        // Regression: the vehicle must build its historical fuser from
        // config.dt, not from the spec's own dt — otherwise a spec
        // carrying a foreign period silently shrinks or inflates the
        // dynamics envelope relative to the actual control loop.
        let run = |fuser_dt: f64| {
            let mut rng = rng();
            let config = LandSharkConfig::new(10.0, SchedulePolicy::Descending)
                .with_attacker(AttackerSpec::RandomEachRound)
                .with_fuser(FuserSpec::Historical {
                    max_rate: 3.5,
                    dt: fuser_dt,
                });
            let mut shark = LandShark::new(config);
            (0..100)
                .map(|_| shark.step(&mut rng).fusion)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(0.1),
            run(99.0),
            "the spec's dt must be superseded by the control period"
        );
    }

    #[test]
    fn random_attack_selection_varies_by_round() {
        let mut rng = rng();
        let config = LandSharkConfig::new(10.0, SchedulePolicy::Random)
            .with_attacker(AttackerSpec::RandomEachRound);
        let mut shark = LandShark::new(config);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let rec = shark.step(&mut rng);
            assert_eq!(rec.attacked.len(), 1, "one sensor per round");
            seen.extend(rec.attacked);
        }
        assert!(
            seen.len() >= 3,
            "random selection should cover sensors: {seen:?}"
        );
    }
}
