//! The round engine, generic over the fusion algorithm and the detector.

use arsf_attack::model::{AttackMode, AttackStrategy, SlotContext};
use arsf_attack::{delta, AttackerConfig};
use arsf_detect::{Detector, RoundAssessment};
use arsf_fusion::{Fuser, FusionError, MarzulloFuser};
use arsf_interval::Interval;
use arsf_schedule::TransmissionOrder;
use arsf_sensor::{Measurement, SensorId, SensorSuite};
use rand::Rng;

use crate::PipelineConfig;

/// Everything observable about one communication round.
///
/// Outcomes are reusable buffers: the engine's
/// [`FusionPipeline::run_round_into`] clears and refills an existing
/// outcome instead of allocating, which is what the batch runner and the
/// benchmarks use for sweep throughput.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The ground truth the round was sampled at (simulation only).
    pub truth: f64,
    /// The transmission order used.
    pub order: TransmissionOrder,
    /// The broadcast intervals as `(sensor, interval)` in slot order
    /// (sensors silenced by faults are absent).
    pub transmitted: Vec<(usize, Interval<f64>)>,
    /// The fusion result; an error certifies that more sensors misbehaved
    /// than the fault assumption `f` allows.
    pub fusion: Result<Interval<f64>, FusionError>,
    /// Sensors flagged by the detector this round.
    pub flagged: Vec<usize>,
    /// Sensors condemned by a temporal detector so far (empty for
    /// memoryless detectors).
    pub condemned: Vec<usize>,
}

impl Default for RoundOutcome {
    /// An empty outcome ready to be filled by
    /// [`FusionPipeline::run_round_into`].
    fn default() -> Self {
        Self {
            truth: 0.0,
            order: TransmissionOrder::identity(0),
            transmitted: Vec::new(),
            fusion: Err(FusionError::EmptyInput),
            flagged: Vec::new(),
            condemned: Vec::new(),
        }
    }
}

impl RoundOutcome {
    /// The fusion width, when fusion succeeded.
    pub fn width(&self) -> Option<f64> {
        self.fusion.as_ref().ok().map(|s| s.width())
    }
}

/// How a builder materialises its fuser when none was supplied: the
/// engine defaults to Marzullo with the configured fault assumption.
enum FuserSource<F> {
    FromConfig(fn(usize) -> F),
    Given(F),
}

/// Builder for [`FusionPipeline`].
///
/// The type parameter tracks the fusion algorithm; it starts at
/// [`MarzulloFuser`] and changes when [`PipelineBuilder::fuser`] installs
/// a different one.
pub struct PipelineBuilder<F: Fuser<f64> = MarzulloFuser> {
    suite: SensorSuite,
    config: PipelineConfig,
    attacker: Option<(AttackerConfig, Box<dyn AttackStrategy>)>,
    fuser: FuserSource<F>,
    detector: Option<Box<dyn Detector>>,
}

impl<F: Fuser<f64>> PipelineBuilder<F> {
    /// Sets the pipeline configuration (defaults to `f = 1`, Ascending,
    /// immediate detection).
    #[must_use]
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a fusion algorithm, replacing the default
    /// [`MarzulloFuser`] derived from the configured `f`. Any
    /// [`Fuser<f64>`] works, including boxed trait objects and stateful
    /// fusers.
    #[must_use]
    pub fn fuser<G: Fuser<f64>>(self, fuser: G) -> PipelineBuilder<G> {
        PipelineBuilder {
            suite: self.suite,
            config: self.config,
            attacker: self.attacker,
            fuser: FuserSource::Given(fuser),
            detector: self.detector,
        }
    }

    /// Installs a detector, replacing the default derived from
    /// [`DetectionMode`](crate::DetectionMode) in the configuration.
    #[must_use]
    pub fn detector(mut self, detector: Box<dyn Detector>) -> Self {
        self.detector = Some(detector);
        self
    }

    /// Installs an attacker.
    ///
    /// # Panics
    ///
    /// Panics if a compromised index is out of range for the suite.
    #[must_use]
    pub fn attacker(mut self, config: AttackerConfig, strategy: Box<dyn AttackStrategy>) -> Self {
        assert_compromised_in(&self.suite, &config);
        self.attacker = Some((config, strategy));
        self
    }

    /// Finalises the pipeline.
    pub fn build(self) -> FusionPipeline<F> {
        let n = self.suite.len();
        let fuser = match self.fuser {
            FuserSource::FromConfig(make) => make(self.config.f()),
            FuserSource::Given(fuser) => fuser,
        };
        let detector = self
            .detector
            .unwrap_or_else(|| self.config.detection().detector(n));
        let widths = self.suite.widths();
        FusionPipeline {
            suite: self.suite,
            config: self.config,
            attacker: self.attacker,
            fuser,
            detector,
            widths,
            readings: Vec::with_capacity(n),
            intervals: Vec::with_capacity(n),
            static_order: None,
            own: Vec::new(),
            future_own_widths: Vec::new(),
            round: 0,
            random_attacker: false,
        }
    }
}

/// The round engine: sample → schedule → (attack) → fuse → detect.
///
/// Generic over the fusion algorithm `F` (any [`Fuser<f64>`], defaulting
/// to [`MarzulloFuser`]) and dynamically over the detector (any
/// [`Detector`]), so every algorithm in `arsf-fusion` and every detector
/// in `arsf-detect` runs through the same entry point.
///
/// This engine is also the closed-loop engines' engine: a
/// [`LandShark`](crate::closed_loop::landshark::LandShark) (and hence
/// every platoon vehicle) owns one pipeline built through the identical
/// fault-wiring and attacker machinery, so faults, any attack strategy
/// and any fuser behave the same whether a round is driven open-loop or
/// from inside the vehicle control loop.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct FusionPipeline<F: Fuser<f64> = MarzulloFuser> {
    suite: SensorSuite,
    config: PipelineConfig,
    attacker: Option<(AttackerConfig, Box<dyn AttackStrategy>)>,
    fuser: F,
    detector: Box<dyn Detector>,
    /// Static per-sensor interval widths (schedule input), cached once.
    widths: Vec<f64>,
    /// Scratch: this round's measurements.
    readings: Vec<Measurement>,
    /// Scratch: this round's transmitted intervals, in slot order.
    intervals: Vec<Interval<f64>>,
    /// The order of a round-invariant schedule, computed on the first
    /// round (not at build, so building stays cheap).
    static_order: Option<TransmissionOrder>,
    /// Scratch: the attacker's correct readings (for `Δ`).
    own: Vec<Interval<f64>>,
    /// Scratch: widths of the attacker's sensors in later slots.
    future_own_widths: Vec<f64>,
    round: u64,
    /// Whether [`FusionPipeline::run_round_into`] redraws the installed
    /// attacker's one compromised sensor every round, uniformly over the
    /// suite ([`AttackerSpec::RandomEachRound`](crate::scenario::AttackerSpec::RandomEachRound)).
    pub(crate) random_attacker: bool,
}

impl FusionPipeline<MarzulloFuser> {
    /// Starts building a pipeline around a sensor suite.
    pub fn builder(suite: SensorSuite) -> PipelineBuilder<MarzulloFuser> {
        PipelineBuilder {
            suite,
            config: PipelineConfig::new(1, arsf_schedule::SchedulePolicy::Ascending),
            attacker: None,
            fuser: FuserSource::FromConfig(MarzulloFuser::new),
            detector: None,
        }
    }
}

impl<F: Fuser<f64>> FusionPipeline<F> {
    /// The sensor suite.
    pub fn suite(&self) -> &SensorSuite {
        &self.suite
    }

    /// The fusion algorithm.
    pub fn fuser(&self) -> &F {
        &self.fuser
    }

    /// The detector.
    pub fn detector(&self) -> &dyn Detector {
        &*self.detector
    }

    /// The number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Installs, replaces or removes the attacker between rounds, so a
    /// persistent engine (stateful fuser/detector, advancing schedules)
    /// need not be rebuilt to change its attacker.
    ///
    /// # Panics
    ///
    /// Panics if a compromised index is out of range for the suite.
    pub fn set_attacker(&mut self, attacker: Option<(AttackerConfig, Box<dyn AttackStrategy>)>) {
        if let Some((cfg, _)) = &attacker {
            assert_compromised_in(&self.suite, cfg);
        }
        self.attacker = attacker;
    }

    /// Replaces only the **configuration** of the installed attacker,
    /// keeping the boxed strategy (and any state it carries, such as
    /// [`PhantomOptimal`](arsf_attack::strategies::PhantomOptimal)'s
    /// side-alternation) alive.
    ///
    /// # Panics
    ///
    /// Panics if no attacker is installed or a compromised index is out
    /// of range for the suite.
    pub fn set_attacker_config(&mut self, config: AttackerConfig) {
        assert_compromised_in(&self.suite, &config);
        let Some((cfg, _)) = self.attacker.as_mut() else {
            panic!("set_attacker_config needs an installed attacker");
        };
        *cfg = config;
    }

    /// Runs one communication round at the given ground truth.
    ///
    /// The round unfolds exactly as in the paper: every sensor samples,
    /// the schedule fixes the slot order, each slot broadcasts either the
    /// correct reading or — for compromised sensors — whatever the attack
    /// strategy forges from the frames already on the wire, and finally
    /// the controller fuses and runs detection.
    pub fn run_round<R: Rng + ?Sized>(&mut self, truth: f64, rng: &mut R) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        self.run_round_into(truth, rng, &mut out);
        out
    }

    /// [`FusionPipeline::run_round`] writing into a reusable outcome
    /// buffer: all result vectors are cleared and refilled in place.
    ///
    /// Once the first round has sized the buffers, the engine itself does
    /// not allocate: the random attacker's redraw, the schedule order, the
    /// attacker's per-slot context, fusion (with any stock fuser, for up
    /// to 32 sensors) and detection all reuse outcome- or pipeline-owned
    /// storage. An attack strategy may
    /// still allocate inside its `forge` (the exhaustive
    /// [`PhantomOptimal`](arsf_attack::strategies::PhantomOptimal) solver
    /// does).
    pub fn run_round_into<R: Rng + ?Sized>(
        &mut self,
        truth: f64,
        rng: &mut R,
        out: &mut RoundOutcome,
    ) {
        // The random attacker's sensor is the round's first draw.
        let n = self.suite.len();
        if self.random_attacker && n > 0 {
            if let Some((cfg, _)) = &mut self.attacker {
                cfg.set_compromised([rng.gen_range(0..n)]);
            }
        }
        let schedule = self.config.schedule();
        if schedule.is_round_invariant() {
            let order = self
                .static_order
                .get_or_insert_with(|| schedule.order(&self.widths, self.round, rng));
            out.order.clone_from(order);
        } else {
            schedule.order_into(&self.widths, self.round, rng, &mut out.order);
        }
        // Compromised sensors still produce their *correct* readings,
        // which the attacker reads before forging.
        self.suite.sample_all_into(truth, rng, &mut self.readings);

        out.truth = truth;
        out.transmitted.clear();
        // Size the reused buffers for a full round up front, so a later
        // round with more transmissions or findings never reallocates.
        out.transmitted.reserve(self.suite.len());
        let mut step = self.begin_round(&out.order);
        for slot in 0..out.order.len() {
            if let Some(sent) = step.transmit(slot, &out.transmitted) {
                out.transmitted.push(sent);
            }
        }

        // Hand the outcome's vectors to the detector as an assessment so
        // findings land in place without allocating.
        let mut assessment = RoundAssessment {
            flagged: core::mem::take(&mut out.flagged),
            condemned: core::mem::take(&mut out.condemned),
        };
        out.fusion = step.finish(&out.transmitted, &mut assessment);
        out.flagged = assessment.flagged;
        out.condemned = assessment.condemned;
    }

    /// Slot step, begin, for a round whose readings are given (one per
    /// sensor, in sensor order) rather than sampled.
    pub(crate) fn begin_given_round<'a>(
        &'a mut self,
        readings: &[Interval<f64>],
        order: &'a TransmissionOrder,
    ) -> SlotStep<'a, F> {
        self.readings.clear();
        self.readings.extend(
            readings
                .iter()
                .enumerate()
                .map(|(i, &iv)| Measurement::new(SensorId::new(i), iv.midpoint(), iv)),
        );
        self.begin_round(order)
    }

    /// Slot step, begin: opens a round over this round's readings (already
    /// in `self.readings`) in the slot order `order`, and computes the
    /// attacker's `Δ` across her sensors' correct readings.
    fn begin_round<'a>(&'a mut self, order: &'a TransmissionOrder) -> SlotStep<'a, F> {
        self.round += 1;
        let delta = match &self.attacker {
            Some((cfg, _)) => {
                self.own.clear();
                for &s in cfg.compromised() {
                    self.own.extend(reading_of(&self.readings, s));
                }
                delta(&self.own)
            }
            None => None,
        };
        SlotStep {
            pipeline: self,
            order,
            delta,
        }
    }
}

/// Panics unless `config` compromises only sensors of `suite`.
fn assert_compromised_in(suite: &SensorSuite, config: &AttackerConfig) {
    assert!(
        config.compromised().iter().all(|&i| i < suite.len()),
        "compromised sensor index out of range"
    );
}

/// Readings come in sensor-id order with silenced sensors left out, so a
/// sensor's reading sits at its own index unless an earlier sensor was
/// silenced.
fn reading_of(readings: &[Measurement], sensor: usize) -> Option<Interval<f64>> {
    match readings.get(sensor) {
        Some(m) if m.sensor.index() == sensor => Some(m.interval),
        _ => readings
            .iter()
            .find(|m| m.sensor.index() == sensor)
            .map(|m| m.interval),
    }
}

/// One round in progress: the slot step that both
/// [`FusionPipeline::run_round_into`] and the bus
/// [`transport`](crate::transport) run a round through. Begun by the
/// pipeline, it answers each slot with [`SlotStep::transmit`] and closes
/// with [`SlotStep::finish`].
pub(crate) struct SlotStep<'a, F: Fuser<f64>> {
    pipeline: &'a mut FusionPipeline<F>,
    order: &'a TransmissionOrder,
    delta: Option<Interval<f64>>,
}

impl<F: Fuser<f64>> SlotStep<'_, F> {
    /// Whether the attacker controls `sensor`.
    pub(crate) fn attacks(&self, sensor: usize) -> bool {
        self.pipeline
            .attacker
            .as_ref()
            .is_some_and(|(cfg, _)| cfg.controls(sensor))
    }

    /// The `(sensor, interval)` that slot `slot` broadcasts, given the
    /// frames `seen` on the wire before it: the correct reading, or what
    /// the attack strategy forges from `seen` for a compromised sensor.
    /// `None` when the slot's sensor is silenced this round.
    pub(crate) fn transmit(
        &mut self,
        slot: usize,
        seen: &[(usize, Interval<f64>)],
    ) -> Option<(usize, Interval<f64>)> {
        let p = &mut *self.pipeline;
        let sensor = self.order[slot];
        let correct = reading_of(&p.readings, sensor)?;
        let Some((cfg, strategy)) = p.attacker.as_mut().filter(|(cfg, _)| cfg.controls(sensor))
        else {
            return Some((sensor, correct));
        };
        let (n, f) = (p.suite.len(), p.config.f());
        let later = &self.order.as_slice()[slot..];
        let unsent_attacked = later.iter().filter(|&&s| cfg.controls(s)).count();
        p.future_own_widths.clear();
        p.future_own_widths.extend(
            later[1..]
                .iter()
                .filter(|&&s| cfg.controls(s))
                .map(|&s| p.widths[s]),
        );
        let ctx = SlotContext {
            sensor,
            width: p.widths[sensor],
            seen,
            delta: self.delta.unwrap_or(correct),
            own_correct: correct,
            mode: AttackMode::for_slot(seen.len(), n, f, unsent_attacked),
            n,
            f,
            future_own_widths: &p.future_own_widths,
            compromised: cfg.compromised(),
            all_widths: &p.widths,
        };
        let forged = strategy.forge(&ctx);
        // Endpoint rounding scales with the interval's magnitude.
        let magnitude = forged.lo().abs().max(forged.hi().abs());
        debug_assert!(
            (forged.width() - p.widths[sensor]).abs() < 1e-9 + 4.0 * f64::EPSILON * magnitude,
            "strategies must preserve the public interval width"
        );
        Some((sensor, forged))
    }

    /// Fuses `transmitted` through the pipeline's fuser and, when fusion
    /// succeeds, assesses it with the pipeline's detector. `assessment`
    /// is cleared first, so a reused buffer never carries a previous
    /// round's findings through a round whose fusion failed.
    pub(crate) fn finish(
        &mut self,
        transmitted: &[(usize, Interval<f64>)],
        assessment: &mut RoundAssessment,
    ) -> Result<Interval<f64>, FusionError> {
        let p = &mut *self.pipeline;
        p.intervals.clear();
        p.intervals.extend(transmitted.iter().map(|(_, iv)| *iv));
        let fusion = p.fuser.fuse(&p.intervals);
        let n = p.suite.len();
        assessment.clear();
        assessment.flagged.reserve(n);
        assessment.condemned.reserve(n);
        if let Ok(fused) = &fusion {
            p.detector.assess(transmitted, fused, assessment);
        }
        fusion
    }
}

impl<F: Fuser<f64>> core::fmt::Debug for FusionPipeline<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FusionPipeline")
            .field("sensors", &self.suite.len())
            .field("f", &self.config.f())
            .field("schedule", &self.config.schedule().name())
            .field("fuser", &self.fuser.name())
            .field("detector", &self.detector.name())
            .field(
                "attacker",
                &self
                    .attacker
                    .as_ref()
                    .map(|(c, s)| (c.compromised().to_vec(), s.name().to_string())),
            )
            .field("rounds", &self.round)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionMode;
    use arsf_attack::strategies::{GreedyExtreme, PhantomOptimal, Side};
    use arsf_attack::Truthful;
    use arsf_detect::{ImmediateDetector, NoDetector};
    use arsf_fusion::{BrooksIyengarFuser, HullFuser, InverseVarianceFuser};
    use arsf_schedule::SchedulePolicy;
    use arsf_sensor::{FaultKind, FaultModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2014)
    }

    fn landshark_pipeline(
        policy: SchedulePolicy,
        attacked: &[usize],
        strategy: Box<dyn AttackStrategy>,
    ) -> FusionPipeline {
        FusionPipeline::builder(arsf_sensor::suite::landshark())
            .config(PipelineConfig::new(1, policy))
            .attacker(AttackerConfig::new(attacked.iter().copied(), 1), strategy)
            .build()
    }

    #[test]
    fn honest_round_contains_truth_with_tight_fusion() {
        let mut rng = rng();
        let mut p = FusionPipeline::builder(arsf_sensor::suite::landshark())
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .build();
        for _ in 0..50 {
            let out = p.run_round(10.0, &mut rng);
            let fused = out.fusion.expect("all correct");
            assert!(fused.contains(10.0));
            assert!(out.flagged.is_empty());
            // f = 1 < ceil(4/3}? no: 1 < ceil(4/3) = 2, so the fusion is
            // bounded by some correct width (<= 2.0, the camera).
            assert!(fused.width() <= 2.0 + 1e-12);
        }
        assert_eq!(p.rounds(), 50);
    }

    #[test]
    fn attacked_round_stays_stealthy_and_contains_truth() {
        let mut rng = rng();
        for policy in [SchedulePolicy::Ascending, SchedulePolicy::Descending] {
            let mut p = landshark_pipeline(policy, &[0], Box::new(PhantomOptimal::new()));
            for _ in 0..50 {
                let out = p.run_round(10.0, &mut rng);
                let fused = out.fusion.expect("fa <= f always fuses");
                assert!(fused.contains(10.0), "fa <= f keeps truth inside");
                assert!(
                    out.flagged.is_empty(),
                    "phantom-optimal must remain stealthy; flagged {:?}",
                    out.flagged
                );
            }
        }
    }

    #[test]
    fn descending_gives_attacker_more_width_than_ascending() {
        let mut rng = rng();
        let mut asc = landshark_pipeline(
            SchedulePolicy::Ascending,
            &[0],
            Box::new(PhantomOptimal::new()),
        );
        let mut desc = landshark_pipeline(
            SchedulePolicy::Descending,
            &[0],
            Box::new(PhantomOptimal::new()),
        );
        let rounds = 300;
        let mut asc_total = 0.0;
        let mut desc_total = 0.0;
        for _ in 0..rounds {
            asc_total += asc.run_round(10.0, &mut rng).width().unwrap();
            desc_total += desc.run_round(10.0, &mut rng).width().unwrap();
        }
        assert!(
            desc_total > asc_total,
            "descending {desc_total} must exceed ascending {asc_total}"
        );
    }

    #[test]
    fn truthful_attacker_changes_nothing() {
        let mut rng_a = rng();
        let mut rng_b = rng();
        let mut honest = FusionPipeline::builder(arsf_sensor::suite::landshark())
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .build();
        let mut nominal = landshark_pipeline(SchedulePolicy::Ascending, &[0], Box::new(Truthful));
        for _ in 0..20 {
            let a = honest.run_round(10.0, &mut rng_a);
            let b = nominal.run_round(10.0, &mut rng_b);
            assert_eq!(a.fusion, b.fusion);
        }
    }

    #[test]
    fn greedy_attacker_is_flagged_or_stealthy_but_width_preserving() {
        let mut rng = rng();
        let mut p = landshark_pipeline(
            SchedulePolicy::Descending,
            &[0],
            Box::new(GreedyExtreme::new(Side::High)),
        );
        for _ in 0..50 {
            let out = p.run_round(10.0, &mut rng);
            for (sensor, iv) in &out.transmitted {
                if *sensor == 0 {
                    assert!((iv.width() - 0.2).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn silent_fault_drops_a_sensor_from_the_round() {
        let mut rng = rng();
        let mut suite = arsf_sensor::suite::landshark();
        suite.sensors_mut()[3] = suite.sensors()[3]
            .clone()
            .with_fault(FaultModel::new(FaultKind::Silent, 1.0));
        let mut p = FusionPipeline::builder(suite)
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .build();
        let out = p.run_round(10.0, &mut rng);
        assert_eq!(out.transmitted.len(), 3);
        assert!(out.fusion.is_ok());
    }

    #[test]
    fn silenced_sensor_shifts_readings_without_mixing_them_up() {
        // With sensor 1 silent, the readings of sensors 2 and 3 sit below
        // their ids; every slot must still carry its own sensor's reading,
        // for honest and compromised sensors alike.
        let mut rng = rng();
        let mut suite = arsf_sensor::suite::landshark();
        suite.sensors_mut()[1] = suite.sensors()[1]
            .clone()
            .with_fault(FaultModel::new(FaultKind::Silent, 1.0));
        let widths = suite.widths();
        let mut p = FusionPipeline::builder(suite)
            .config(PipelineConfig::new(1, SchedulePolicy::Descending))
            .attacker(AttackerConfig::new([3], 1), Box::new(Truthful))
            .build();
        for _ in 0..10 {
            let out = p.run_round(10.0, &mut rng);
            let sensors: Vec<usize> = out.transmitted.iter().map(|(s, _)| *s).collect();
            assert_eq!(sensors, vec![3, 2, 0]);
            for (sensor, iv) in &out.transmitted {
                assert!(
                    (iv.width() - widths[*sensor]).abs() < 1e-12,
                    "sensor {sensor}"
                );
                assert!(iv.contains(10.0), "sensor {sensor} reads around the truth");
            }
        }
    }

    #[test]
    fn biased_fault_is_flagged_by_immediate_detection() {
        let mut rng = rng();
        let mut suite = arsf_sensor::suite::landshark();
        // A camera stuck far away from the truth.
        suite.sensors_mut()[3] = suite.sensors()[3]
            .clone()
            .with_fault(FaultModel::new(FaultKind::Bias { offset: 50.0 }, 1.0));
        let mut p = FusionPipeline::builder(suite)
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .build();
        let out = p.run_round(10.0, &mut rng);
        assert_eq!(out.flagged, vec![3]);
        // The fusion still contains the truth (one fault, f = 1).
        assert!(out.fusion.unwrap().contains(10.0));
    }

    #[test]
    fn windowed_detection_condemns_persistent_faults() {
        let mut rng = rng();
        let mut suite = arsf_sensor::suite::landshark();
        suite.sensors_mut()[2] = suite.sensors()[2]
            .clone()
            .with_fault(FaultModel::new(FaultKind::Bias { offset: 30.0 }, 1.0));
        let mut p = FusionPipeline::builder(suite)
            .config(
                PipelineConfig::new(1, SchedulePolicy::Ascending).with_detection(
                    DetectionMode::Windowed {
                        window: 5,
                        tolerance: 2,
                    },
                ),
            )
            .build();
        let mut condemned_at = None;
        for round in 0..10 {
            let out = p.run_round(10.0, &mut rng);
            if out.condemned.contains(&2) {
                condemned_at = Some(round);
                break;
            }
        }
        assert_eq!(
            condemned_at,
            Some(2),
            "condemned after tolerance+1 = 3 rounds"
        );
    }

    #[test]
    fn detection_off_never_flags() {
        let mut rng = rng();
        let mut suite = arsf_sensor::suite::landshark();
        suite.sensors_mut()[3] = suite.sensors()[3]
            .clone()
            .with_fault(FaultModel::new(FaultKind::Bias { offset: 50.0 }, 1.0));
        let mut p = FusionPipeline::builder(suite)
            .config(
                PipelineConfig::new(1, SchedulePolicy::Ascending)
                    .with_detection(DetectionMode::Off),
            )
            .build();
        let out = p.run_round(10.0, &mut rng);
        assert!(out.flagged.is_empty());
    }

    #[test]
    fn debug_format_is_informative() {
        let p = landshark_pipeline(
            SchedulePolicy::Ascending,
            &[0],
            Box::new(PhantomOptimal::new()),
        );
        let s = format!("{p:?}");
        assert!(s.contains("phantom-optimal"));
        assert!(s.contains("ascending"));
        assert!(s.contains("marzullo"));
        assert!(s.contains("immediate"));
    }

    #[test]
    fn any_fuser_drives_the_same_engine() {
        // The acceptance shape of the redesign: heterogeneous fusers run
        // through the identical entry point on identical rounds.
        let mut rng = rng();
        let mut hull = FusionPipeline::builder(arsf_sensor::suite::landshark())
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .fuser(HullFuser)
            .build();
        let mut marzullo = FusionPipeline::builder(arsf_sensor::suite::landshark())
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .build();
        let mut rng2 = self::rng();
        for _ in 0..20 {
            let h = hull.run_round(10.0, &mut rng);
            let m = marzullo.run_round(10.0, &mut rng2);
            // Same readings (same seed), so the hull contains Marzullo.
            assert!(h.fusion.unwrap().contains_interval(&m.fusion.unwrap()));
        }
        assert_eq!(Fuser::<f64>::name(hull.fuser()), "hull");
    }

    #[test]
    fn boxed_dyn_fuser_works_in_the_engine() {
        let mut rng = rng();
        let fusers: Vec<Box<dyn Fuser<f64>>> = vec![
            Box::new(MarzulloFuser::new(1)),
            Box::new(BrooksIyengarFuser::new(1)),
            Box::new(InverseVarianceFuser),
        ];
        for fuser in fusers {
            let mut p = FusionPipeline::builder(arsf_sensor::suite::landshark())
                .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
                .fuser(fuser)
                .build();
            let out = p.run_round(10.0, &mut rng);
            assert!(out.fusion.is_ok(), "{} failed", p.fuser().name());
        }
    }

    #[test]
    fn custom_detector_overrides_the_config() {
        let mut rng = rng();
        let mut suite = arsf_sensor::suite::landshark();
        suite.sensors_mut()[3] = suite.sensors()[3]
            .clone()
            .with_fault(FaultModel::new(FaultKind::Bias { offset: 50.0 }, 1.0));
        // Config says Immediate, but the explicit NoDetector wins.
        let mut p = FusionPipeline::builder(suite)
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .detector(Box::new(NoDetector))
            .build();
        let out = p.run_round(10.0, &mut rng);
        assert!(out.flagged.is_empty());
        assert_eq!(p.detector().name(), "off");
    }

    #[test]
    fn run_round_into_reuses_buffers_and_matches_run_round() {
        let mut rng_a = rng();
        let mut rng_b = rng();
        let mut a = landshark_pipeline(
            SchedulePolicy::Descending,
            &[0],
            Box::new(PhantomOptimal::new()),
        );
        let mut b = landshark_pipeline(
            SchedulePolicy::Descending,
            &[0],
            Box::new(PhantomOptimal::new()),
        );
        let mut reused = RoundOutcome::default();
        for round in 0..30 {
            let fresh = a.run_round(10.0, &mut rng_a);
            b.run_round_into(10.0, &mut rng_b, &mut reused);
            assert_eq!(fresh.fusion, reused.fusion, "round {round}");
            assert_eq!(fresh.transmitted, reused.transmitted);
            assert_eq!(fresh.flagged, reused.flagged);
            assert_eq!(fresh.condemned, reused.condemned);
            assert_eq!(fresh.order, reused.order);
        }
    }

    #[test]
    fn explicit_detector_with_immediate_semantics_matches_default() {
        let mut rng_a = rng();
        let mut rng_b = rng();
        let mut default = FusionPipeline::builder(arsf_sensor::suite::landshark())
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .build();
        let mut explicit = FusionPipeline::builder(arsf_sensor::suite::landshark())
            .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
            .fuser(MarzulloFuser::new(1))
            .detector(Box::new(ImmediateDetector))
            .build();
        for _ in 0..20 {
            let a = default.run_round(10.0, &mut rng_a);
            let b = explicit.run_round(10.0, &mut rng_b);
            assert_eq!(a.fusion, b.fusion);
            assert_eq!(a.flagged, b.flagged);
        }
    }
}
