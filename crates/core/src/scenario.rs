//! Declarative scenario descriptions and the named-preset registry.
//!
//! A [`Scenario`] captures *everything* one experiment needs — sensor
//! suite, fault injection, attacker, transmission schedule, fusion
//! algorithm, detector, ground-truth trajectory, round count and RNG
//! seed — as plain data. The [`ScenarioRunner`](crate::ScenarioRunner)
//! materialises it into a [`FusionPipeline`] over
//! boxed [`Fuser`]/[`Detector`](arsf_detect::Detector) trait objects, so
//! any combination of the stock algorithms (and any user-supplied
//! implementation, via `Scenario::build_pipeline` plus the builder)
//! runs through the same engine entry point.
//!
//! [`registry`] holds the named presets used across the examples, tests
//! and benches: the LandShark case study under each schedule, the
//! detection ablations, and the algorithm-comparison sweeps.

use arsf_attack::full_knowledge::MAX_ATTACKED;
use arsf_attack::strategies::{GreedyExtreme, PhantomOptimal, Side};
use arsf_attack::{AttackStrategy, AttackerConfig, Truthful};
use arsf_fusion::historical::{DynamicsBound, HistoricalFuser};
use arsf_fusion::{
    BrooksIyengarFuser, Fuser, HullFuser, IntersectionFuser, InverseVarianceFuser, MarzulloFuser,
    MidpointMedianFuser,
};
use arsf_schedule::SchedulePolicy;
use arsf_sensor::suite::LANDSHARK_SPECS;
use arsf_sensor::{FaultKind, FaultModel, SensorSpec, SensorSuite};

use crate::{DetectionMode, FusionPipeline, PipelineConfig};

/// A scenario combination the engines genuinely cannot execute.
///
/// Returned by [`Scenario::validate`] (and
/// [`ScenarioRunner::try_new`](crate::ScenarioRunner::try_new)) so
/// harnesses can reject an impossible cell with a typed error instead of
/// a panic. Everything *not* listed here is a supported combination: any
/// fuser, any attack strategy within the solver limit and any fault set
/// run both open- and closed-loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A parameter no engine can run with: a negative or non-finite
    /// width, a non-finite truth or fault value, a historical fuser's
    /// negative rate bound or non-positive period, a fixed or rotating
    /// order without one slot per sensor, an empty (or `usize`-overflowing)
    /// detector window, a negative or non-finite target speed or
    /// envelope half-width, an empty platoon or a non-positive
    /// or non-finite platoon gap.
    InvalidParameter {
        /// What the value parameterises, e.g. `sensor 2 width`.
        parameter: String,
        /// The rejected value.
        value: f64,
    },
    /// A fault model references a sensor index the suite does not have.
    FaultSensorOutOfRange {
        /// The offending sensor index.
        sensor: usize,
        /// The suite's sensor count.
        suite_len: usize,
    },
    /// A fixed attacker references a sensor index the suite does not
    /// have.
    AttackedSensorOutOfRange {
        /// The offending sensor index.
        sensor: usize,
        /// The suite's sensor count.
        suite_len: usize,
    },
    /// A fixed phantom-optimal attacker compromises more sensors than the
    /// exact forgery solver handles ([`MAX_ATTACKED`]).
    TooManyOptimalAttackers {
        /// The number of distinct compromised sensors.
        attacked: usize,
        /// The solver's limit.
        max: usize,
    },
    /// Closed-loop execution drives a LandShark, whose physical sensors
    /// *are* the LandShark suite — other suites cannot be bolted onto the
    /// vehicle.
    ClosedLoopSuite {
        /// The rejected suite's label.
        suite: String,
    },
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScenarioError::InvalidParameter { parameter, value } => {
                write!(f, "{parameter} is out of range: {value}")
            }
            ScenarioError::FaultSensorOutOfRange { sensor, suite_len } => write!(
                f,
                "fault sensor index {sensor} out of range for a {suite_len}-sensor suite"
            ),
            ScenarioError::AttackedSensorOutOfRange { sensor, suite_len } => write!(
                f,
                "compromised sensor index {sensor} out of range for a {suite_len}-sensor suite"
            ),
            ScenarioError::TooManyOptimalAttackers { attacked, max } => write!(
                f,
                "a phantom-optimal attacker forges at most {max} sensors, got {attacked}"
            ),
            ScenarioError::ClosedLoopSuite { suite } => write!(
                f,
                "closed-loop scenarios run the LandShark suite, not `{suite}`"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which sensor suite a scenario instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteSpec {
    /// The LandShark case-study suite (two encoders, GPS, camera).
    Landshark,
    /// A uniform-noise suite with the given interval widths (the Table I
    /// style `L = {…}` description).
    Widths(Vec<f64>),
}

impl SuiteSpec {
    /// Builds the suite.
    pub fn build(&self) -> SensorSuite {
        match self {
            SuiteSpec::Landshark => arsf_sensor::suite::landshark(),
            SuiteSpec::Widths(widths) => arsf_sensor::suite::from_widths(widths),
        }
    }

    /// The number of sensors the built suite will have, read from the
    /// declaration without building a sensor.
    pub fn len(&self) -> usize {
        match self {
            SuiteSpec::Landshark => LANDSHARK_SPECS.len(),
            SuiteSpec::Widths(widths) => widths.len(),
        }
    }

    /// The declared interval widths of the built suite, in sensor-id
    /// order — the a-priori information the paper's static guarantees
    /// (Marzullo's regime conditions, Theorem 2) are computed from,
    /// without building a sensor or sampling a single reading.
    pub fn widths(&self) -> Vec<f64> {
        match self {
            SuiteSpec::Landshark => LANDSHARK_SPECS
                .iter()
                .map(SensorSpec::interval_width)
                .collect(),
            SuiteSpec::Widths(widths) => widths.clone(),
        }
    }

    /// Whether the built suite would be empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A compact report label, e.g. `landshark` or `widths[5|11|17]`.
    pub fn label(&self) -> String {
        match self {
            SuiteSpec::Landshark => "landshark".to_string(),
            SuiteSpec::Widths(widths) => {
                let ws: Vec<String> = widths.iter().map(|w| format!("{w}")).collect();
                format!("widths[{}]", ws.join("|"))
            }
        }
    }
}

/// Which streaming attack strategy a scenario's attacker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategySpec {
    /// The stealthy width-maximiser (never flagged).
    PhantomOptimal,
    /// Greedy extreme placement towards the high side.
    GreedyHigh,
    /// Greedy extreme placement towards the low side.
    GreedyLow,
    /// Transmit the correct reading (attack-infrastructure baseline).
    Truthful,
}

impl StrategySpec {
    /// Builds the strategy.
    pub(crate) fn build(&self) -> Box<dyn AttackStrategy> {
        match self {
            StrategySpec::PhantomOptimal => Box::new(PhantomOptimal::new()),
            StrategySpec::GreedyHigh => Box::new(GreedyExtreme::new(Side::High)),
            StrategySpec::GreedyLow => Box::new(GreedyExtreme::new(Side::Low)),
            StrategySpec::Truthful => Box::new(Truthful),
        }
    }

    /// The built strategy's report name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            StrategySpec::PhantomOptimal => "phantom-optimal",
            StrategySpec::GreedyHigh => "greedy-high",
            StrategySpec::GreedyLow => "greedy-low",
            StrategySpec::Truthful => "truthful",
        }
    }
}

/// The scenario's attacker model.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackerSpec {
    /// No attacker (honest baseline).
    None,
    /// A fixed compromised set running one strategy for the whole run.
    Fixed {
        /// Compromised sensor indices.
        sensors: Vec<usize>,
        /// The streaming strategy they execute.
        strategy: StrategySpec,
    },
    /// One compromised sensor re-drawn uniformly every round, running the
    /// stealthy [`StrategySpec::PhantomOptimal`] forger — Table II's
    /// "any sensor can be attacked" model. Works in both execution modes:
    /// the scenario's pipeline redraws the sensor in place at the top of
    /// every [`FusionPipeline::run_round_into`], on a persistent strategy.
    RandomEachRound,
}

impl AttackerSpec {
    /// A compact report label, e.g. `honest` or `phantom-optimal@0|2`.
    pub fn label(&self) -> String {
        match self {
            AttackerSpec::None => "honest".to_string(),
            AttackerSpec::Fixed { sensors, strategy } => {
                let ids: Vec<String> = sensors.iter().map(|s| format!("{s}")).collect();
                format!("{}@{}", strategy.name(), ids.join("|"))
            }
            AttackerSpec::RandomEachRound => "random-each-round".to_string(),
        }
    }

    /// The `(config, strategy)` pair an engine installs for this attacker
    /// (`None` for honest runs).
    ///
    /// [`AttackerSpec::RandomEachRound`] is installed with an **empty**
    /// compromised set and a persistent [`PhantomOptimal`], which the
    /// scenario's pipeline redraws in place every round. Both the
    /// open-loop pipeline and the closed-loop vehicle engines build their
    /// attacker through this one method.
    pub fn build(&self, f: usize) -> Option<(AttackerConfig, Box<dyn AttackStrategy>)> {
        match self {
            AttackerSpec::None => None,
            AttackerSpec::Fixed { sensors, strategy } => Some((
                AttackerConfig::new(sensors.iter().copied(), f),
                strategy.build(),
            )),
            AttackerSpec::RandomEachRound => Some((
                AttackerConfig::new([], f),
                StrategySpec::PhantomOptimal.build(),
            )),
        }
    }
}

/// A compact, CSV-safe label for one fault-injection set, e.g. `none` or
/// `0:bias(3)@0.2|2:silent@1` — the sweep reports use it so two rows of a
/// `fault_sets(...)` axis stay distinguishable.
pub fn faults_label(faults: &[(usize, FaultModel)]) -> String {
    if faults.is_empty() {
        return "none".to_string();
    }
    let parts: Vec<String> = faults
        .iter()
        .map(|(sensor, fault)| {
            let kind = match fault.kind() {
                arsf_sensor::FaultKind::StuckAt { value } => format!("stuck({value})"),
                arsf_sensor::FaultKind::Bias { offset } => format!("bias({offset})"),
                arsf_sensor::FaultKind::Scale { factor } => format!("scale({factor})"),
                arsf_sensor::FaultKind::Silent => "silent".to_string(),
            };
            format!("{sensor}:{kind}@{}", fault.probability())
        })
        .collect();
    parts.join("|")
}

/// Which fusion algorithm the scenario's engine runs.
#[derive(Debug, Clone, PartialEq)]
pub enum FuserSpec {
    /// Marzullo's algorithm at the scenario's `f` (the paper's choice).
    Marzullo,
    /// Brooks–Iyengar hybrid fusion at the scenario's `f`.
    BrooksIyengar,
    /// Common intersection (`f = 0`): precise but brittle.
    Intersection,
    /// Convex hull (`f = n − 1`): never wrong, never precise.
    Hull,
    /// Inverse-variance weighted mean (probabilistic baseline, not
    /// attack-resilient).
    InverseVariance,
    /// Midpoint median (classical robust baseline).
    MidpointMedian,
    /// Dynamics-aware historical Marzullo fusion at the scenario's `f`.
    Historical {
        /// Rate bound `|dx/dt| ≤ max_rate`.
        max_rate: f64,
        /// Inter-round period in seconds.
        dt: f64,
    },
}

impl FuserSpec {
    /// Builds the fuser with the scenario's fault assumption `f`.
    pub fn build(&self, f: usize) -> Box<dyn Fuser<f64>> {
        match *self {
            FuserSpec::Marzullo => Box::new(MarzulloFuser::new(f)),
            FuserSpec::BrooksIyengar => Box::new(BrooksIyengarFuser::new(f)),
            FuserSpec::Intersection => Box::new(IntersectionFuser),
            FuserSpec::Hull => Box::new(HullFuser),
            FuserSpec::InverseVariance => Box::new(InverseVarianceFuser),
            FuserSpec::MidpointMedian => Box::new(MidpointMedianFuser),
            FuserSpec::Historical { max_rate, dt } => {
                Box::new(HistoricalFuser::new(f, DynamicsBound::new(max_rate), dt))
            }
        }
    }

    /// The built fuser's report name.
    pub fn name(&self) -> &'static str {
        match self {
            FuserSpec::Marzullo => "marzullo",
            FuserSpec::BrooksIyengar => "brooks-iyengar",
            FuserSpec::Intersection => "intersection",
            FuserSpec::Hull => "hull",
            FuserSpec::InverseVariance => "inverse-variance",
            FuserSpec::MidpointMedian => "midpoint-median",
            FuserSpec::Historical { .. } => "historical",
        }
    }
}

/// The ground-truth trajectory driving a scenario's rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TruthSpec {
    /// The measured variable holds one value (the case study's cruise).
    Constant(f64),
    /// Linear drift: `start + rate_per_round · round`.
    Ramp {
        /// Value at round 0.
        start: f64,
        /// Per-round increment.
        rate_per_round: f64,
    },
}

impl TruthSpec {
    /// The ground truth at a round index.
    pub fn at(&self, round: u64) -> f64 {
        match *self {
            TruthSpec::Constant(v) => v,
            TruthSpec::Ramp {
                start,
                rate_per_round,
            } => start + rate_per_round * round as f64,
        }
    }
}

/// A platoon extension of a closed-loop scenario: how many vehicles and
/// the initial spacing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatoonSpec {
    /// Number of vehicles (leader first).
    pub size: usize,
    /// Initial inter-vehicle gap in miles.
    pub gap_miles: f64,
}

/// Closed-loop execution: drive a LandShark (or a platoon of them)
/// through the vehicle control loop instead of an open-loop
/// [`FusionPipeline`].
///
/// The scenario's schedule, fault assumption `f`, fuser, detector,
/// attacker, rounds and seed all carry over; the ground truth is the
/// vehicle's *actual speed* (so [`TruthSpec`] is ignored), and the
/// summary gains the supervisor's Table II columns
/// ([`SupervisorSummary`](crate::metrics::SupervisorSummary)).
///
/// Any fault set, any [`AttackerSpec`] (with any [`StrategySpec`]) and
/// any [`FuserSpec`] runs closed-loop — the vehicle engines route
/// through the same fault/attacker machinery as the open-loop pipeline.
/// The only genuinely impossible combination is a non-LandShark suite
/// (the vehicle's physical sensors *are* the LandShark suite); see
/// [`Scenario::validate`] for the typed [`ScenarioError`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopSpec {
    /// Target speed `v` in mph.
    pub target_speed: f64,
    /// Upper envelope half-width `δ1`.
    pub delta_up: f64,
    /// Lower envelope half-width `δ2`.
    pub delta_down: f64,
    /// Run a platoon instead of a single vehicle.
    pub platoon: Option<PlatoonSpec>,
}

impl ClosedLoopSpec {
    /// The case study's envelope around a target speed:
    /// `δ1 = δ2 = 0.5` mph, single vehicle.
    pub fn new(target_speed: f64) -> Self {
        Self {
            target_speed,
            delta_up: 0.5,
            delta_down: 0.5,
            platoon: None,
        }
    }

    /// Sets the envelope half-widths (builder style).
    #[must_use]
    pub fn with_deltas(mut self, delta_up: f64, delta_down: f64) -> Self {
        self.delta_up = delta_up;
        self.delta_down = delta_down;
        self
    }

    /// Runs a platoon of `size` vehicles spaced `gap_miles` apart
    /// (builder style).
    #[must_use]
    pub fn with_platoon(mut self, size: usize, gap_miles: f64) -> Self {
        self.platoon = Some(PlatoonSpec { size, gap_miles });
        self
    }
}

/// A complete, declarative experiment description.
///
/// # Example
///
/// ```
/// use arsf_core::scenario::{FuserSpec, Scenario, SuiteSpec};
/// use arsf_core::ScenarioRunner;
///
/// let scenario = Scenario::new("bi-demo", SuiteSpec::Landshark)
///     .with_fuser(FuserSpec::BrooksIyengar)
///     .with_rounds(50);
/// let summary = ScenarioRunner::new(&scenario).run();
/// assert_eq!(summary.fuser, "brooks-iyengar");
/// assert_eq!(summary.rounds, 50);
/// assert_eq!(summary.fusion_failures, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry / report name.
    pub name: String,
    /// The sensor suite.
    pub suite: SuiteSpec,
    /// Fault models attached to sensors before the run, as
    /// `(sensor index, fault)` pairs.
    pub faults: Vec<(usize, FaultModel)>,
    /// The attacker model.
    pub attacker: AttackerSpec,
    /// The communication schedule.
    pub schedule: SchedulePolicy,
    /// The fusion fault assumption `f`.
    pub f: usize,
    /// The fusion algorithm.
    pub fuser: FuserSpec,
    /// The detector.
    pub detector: DetectionMode,
    /// The ground-truth trajectory.
    pub truth: TruthSpec,
    /// Rounds per run.
    pub rounds: u64,
    /// RNG seed (runs are deterministic given the scenario).
    pub seed: u64,
    /// Closed-loop execution: when set, the runner drives a
    /// [`LandShark`](crate::closed_loop::landshark::LandShark) (or a
    /// [`Platoon`](crate::closed_loop::platoon::Platoon)) instead of an
    /// open-loop pipeline.
    pub closed_loop: Option<ClosedLoopSpec>,
}

impl Scenario {
    /// A scenario with the paper's defaults: `f = 1`, Ascending schedule,
    /// Marzullo fusion, immediate detection, constant truth 10.0,
    /// 1000 rounds, a fixed seed, no faults, no attacker.
    pub fn new(name: impl Into<String>, suite: SuiteSpec) -> Self {
        Self {
            name: name.into(),
            suite,
            faults: Vec::new(),
            attacker: AttackerSpec::None,
            schedule: SchedulePolicy::Ascending,
            f: 1,
            fuser: FuserSpec::Marzullo,
            detector: DetectionMode::Immediate,
            truth: TruthSpec::Constant(10.0),
            rounds: 1000,
            seed: 2014,
            closed_loop: None,
        }
    }

    /// Renames the scenario (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attaches a fault model to a sensor (builder style).
    #[must_use]
    pub fn with_fault(mut self, sensor: usize, fault: FaultModel) -> Self {
        self.faults.push((sensor, fault));
        self
    }

    /// Sets the attacker (builder style).
    #[must_use]
    pub fn with_attacker(mut self, attacker: AttackerSpec) -> Self {
        self.attacker = attacker;
        self
    }

    /// Sets the schedule (builder style).
    #[must_use]
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the fault assumption `f` (builder style).
    #[must_use]
    pub fn with_f(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Sets the fusion algorithm (builder style).
    #[must_use]
    pub fn with_fuser(mut self, fuser: FuserSpec) -> Self {
        self.fuser = fuser;
        self
    }

    /// Sets the detector (builder style).
    #[must_use]
    pub fn with_detector(mut self, detector: DetectionMode) -> Self {
        self.detector = detector;
        self
    }

    /// Sets the truth trajectory (builder style).
    #[must_use]
    pub fn with_truth(mut self, truth: TruthSpec) -> Self {
        self.truth = truth;
        self
    }

    /// Sets the round count (builder style).
    #[must_use]
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches the scenario to closed-loop vehicle execution (builder
    /// style).
    #[must_use]
    pub fn with_closed_loop(mut self, spec: ClosedLoopSpec) -> Self {
        self.closed_loop = Some(spec);
        self
    }

    /// Checks the scenario for combinations the engines genuinely cannot
    /// execute.
    ///
    /// The rejections are a parameter out of range (see
    /// [`ScenarioError::InvalidParameter`]), referential (a fault or
    /// compromised index outside the suite), a solver limit (a fixed
    /// phantom-optimal attacker on more than [`MAX_ATTACKED`] sensors)
    /// and physical (closed-loop execution on a suite that is not the
    /// LandShark's). A scenario that passes builds in either execution
    /// mode and runs without a panic; `crates/core/tests/validated_runs.rs`
    /// checks this over the spec space.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let suite_len = self.suite.len();
        if let SuiteSpec::Widths(widths) = &self.suite {
            for (sensor, &width) in widths.iter().enumerate() {
                check_parameter(width >= 0.0, width, || format!("sensor {sensor} width"))?;
            }
        }
        let (start, rate) = match self.truth {
            TruthSpec::Constant(value) => (value, 0.0),
            TruthSpec::Ramp {
                start,
                rate_per_round,
            } => (start, rate_per_round),
        };
        check_parameter(true, start, || "truth".to_string())?;
        check_parameter(true, rate, || "truth rate".to_string())?;
        for (sensor, fault) in &self.faults {
            if *sensor >= suite_len {
                return Err(ScenarioError::FaultSensorOutOfRange {
                    sensor: *sensor,
                    suite_len,
                });
            }
            let value = match fault.kind() {
                FaultKind::StuckAt { value } => value,
                FaultKind::Bias { offset } => offset,
                FaultKind::Scale { factor } => factor,
                _ => 0.0,
            };
            check_parameter(true, value, || format!("sensor {sensor} fault value"))?;
        }
        if let FuserSpec::Historical { max_rate, dt } = self.fuser {
            check_parameter(max_rate >= 0.0, max_rate, || {
                "historical max_rate".to_string()
            })?;
            check_parameter(dt > 0.0, dt, || "historical dt".to_string())?;
        }
        if let AttackerSpec::Fixed { sensors, strategy } = &self.attacker {
            for &sensor in sensors {
                if sensor >= suite_len {
                    return Err(ScenarioError::AttackedSensorOutOfRange { sensor, suite_len });
                }
            }
            // The strategy solves for every compromised sensor still to
            // transmit, so the first one's forge sees them all. Counted
            // without allocating: this runs before every cell.
            let attacked = (0..sensors.len())
                .filter(|&i| !sensors[..i].contains(&sensors[i]))
                .count();
            if *strategy == StrategySpec::PhantomOptimal && attacked > MAX_ATTACKED {
                return Err(ScenarioError::TooManyOptimalAttackers {
                    attacked,
                    max: MAX_ATTACKED,
                });
            }
        }
        if let SchedulePolicy::Fixed(order) | SchedulePolicy::Rotating(order) = &self.schedule {
            check_parameter(order.len() == suite_len, order.len() as f64, || {
                format!("schedule order length for a {suite_len}-sensor suite")
            })?;
        }
        if let DetectionMode::Windowed { window, .. } = self.detector {
            let fits = window > 0 && window.checked_mul(suite_len).is_some();
            check_parameter(fits, window as f64, || {
                format!("detector window over {suite_len} sensors")
            })?;
        }
        if let Some(spec) = &self.closed_loop {
            if self.suite != SuiteSpec::Landshark {
                return Err(ScenarioError::ClosedLoopSuite {
                    suite: self.suite.label(),
                });
            }
            let target = spec.target_speed;
            check_parameter(target >= 0.0, target, || {
                "closed-loop target speed".to_string()
            })?;
            let (up, down) = (spec.delta_up, spec.delta_down);
            check_parameter(up >= 0.0, up, || "closed-loop delta_up".to_string())?;
            check_parameter(down >= 0.0, down, || "closed-loop delta_down".to_string())?;
            if let Some(platoon) = spec.platoon {
                let (size, gap) = (platoon.size, platoon.gap_miles);
                check_parameter(size > 0, size as f64, || "platoon size".to_string())?;
                check_parameter(gap > 0.0, gap, || "platoon gap_miles".to_string())?;
            }
        }
        Ok(())
    }

    /// Materialises the scenario into an engine over boxed trait objects.
    ///
    /// # Panics
    ///
    /// Panics if a fault or compromised-sensor index is out of range for
    /// the suite ([`Scenario::validate`] reports the same conditions as
    /// typed errors).
    pub(crate) fn build_pipeline(&self) -> FusionPipeline<Box<dyn Fuser<f64>>> {
        let mut suite = self.suite.build();
        let sensors = suite.sensors_mut();
        for &(sensor, fault) in &self.faults {
            assert!(sensor < sensors.len(), "fault sensor index out of range");
            sensors[sensor] = sensors[sensor].clone().with_fault(fault);
        }
        let config =
            PipelineConfig::new(self.f, self.schedule.clone()).with_detection(self.detector);
        let builder = FusionPipeline::builder(suite)
            .config(config)
            .fuser(self.fuser.build(self.f));
        let mut pipeline = match self.attacker.build(self.f) {
            None => builder.build(),
            Some((attacker, strategy)) => builder.attacker(attacker, strategy).build(),
        };
        pipeline.random_attacker = self.attacker == AttackerSpec::RandomEachRound;
        pipeline
    }

    /// The closed-loop control period in seconds: a historical fuser's
    /// `dt`, so its history propagates at the loop's actual period, and
    /// otherwise the case study's 100 ms.
    pub(crate) fn control_period(&self) -> f64 {
        match self.fuser {
            FuserSpec::Historical { dt, .. } => dt,
            _ => 0.1,
        }
    }

    /// The scenario itself, once it is known to pass
    /// [`Scenario::validate`] and to be closed-loop — what
    /// [`LandShark::new`](crate::closed_loop::landshark::LandShark::new)
    /// and [`Platoon::new`](crate::closed_loop::platoon::Platoon::new)
    /// take. Kept because `perfbench/` names it.
    ///
    /// # Panics
    ///
    /// Panics when the scenario is not closed-loop or fails
    /// [`Scenario::validate`] (use `validate` first for a typed
    /// [`ScenarioError`]).
    pub fn landshark_config(&self) -> &Scenario {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid scenario `{}`: {e}", self.name));
        assert!(
            self.closed_loop.is_some(),
            "landshark_config needs a closed-loop scenario"
        );
        self
    }
}

/// `Ok` when `value` is finite and `in_range`; else the
/// [`ScenarioError::InvalidParameter`] naming it.
fn check_parameter(
    in_range: bool,
    value: f64,
    parameter: impl FnOnce() -> String,
) -> Result<(), ScenarioError> {
    if value.is_finite() && in_range {
        Ok(())
    } else {
        Err(ScenarioError::InvalidParameter {
            parameter: parameter(),
            value,
        })
    }
}

/// The built-in named presets: the case study under each schedule, the
/// detection ablations, and algorithm-comparison scenarios.
///
/// Names are unique; [`find`] looks one up.
pub fn registry() -> Vec<Scenario> {
    PRESETS.iter().map(|&(name, build)| build(name)).collect()
}

/// Looks a preset up by name, building only that preset.
pub fn find(name: &str) -> Option<Scenario> {
    PRESETS
        .iter()
        .find(|(preset, _)| *preset == name)
        .map(|&(name, build)| build(name))
}

/// The LandShark under `schedule` with encoder 0 forged by the
/// phantom-optimal attacker.
fn attacked(name: &str, schedule: SchedulePolicy) -> Scenario {
    Scenario::new(name, SuiteSpec::Landshark)
        .with_schedule(schedule)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
}

/// Table II's closed-loop cell under `schedule`: one uniformly-random
/// compromised sensor per round, LandShark at 10 mph inside the
/// [9.5, 10.5] envelope.
fn table2_preset(name: &str, schedule: SchedulePolicy) -> Scenario {
    Scenario::new(name, SuiteSpec::Landshark)
        .with_schedule(schedule)
        .with_attacker(AttackerSpec::RandomEachRound)
        .with_closed_loop(ClosedLoopSpec::new(10.0))
}

/// The registry in order: each preset's name and the function that
/// builds the preset under that name, so a lookup builds one scenario.
type Preset = (&'static str, fn(&'static str) -> Scenario);

#[rustfmt::skip]
const PRESETS: &[Preset] = &[
    ("landshark-honest", |name| Scenario::new(name, SuiteSpec::Landshark)),
    ("landshark-ascending-attacked", |name| attacked(name, SchedulePolicy::Ascending)),
    ("landshark-descending-attacked", |name| attacked(name, SchedulePolicy::Descending)),
    ("landshark-random-attacked", |name| attacked(name, SchedulePolicy::Random)),
    ("landshark-descending-historical", |name| {
        attacked(name, SchedulePolicy::Descending)
            .with_fuser(FuserSpec::Historical { max_rate: 3.5, dt: 0.1 })
    }),
    ("landshark-descending-brooks-iyengar", |name| {
        attacked(name, SchedulePolicy::Descending).with_fuser(FuserSpec::BrooksIyengar)
    }),
    ("ablation-detection-off", |name| {
        attacked(name, SchedulePolicy::Descending).with_detector(DetectionMode::Off)
    }),
    ("ablation-windowed-gps-fault", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.2))
            .with_detector(DetectionMode::Windowed { window: 20, tolerance: 6 })
    }),
    ("table1-n3", |name| {
        Scenario::new(name, SuiteSpec::Widths(vec![5.0, 11.0, 17.0]))
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_truth(TruthSpec::Constant(0.0))
    }),
    ("platoon-ramp", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_truth(TruthSpec::Ramp { start: 10.0, rate_per_round: 0.002 })
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyHigh,
            })
    }),
    // Sweep-era presets: the platoon family and the stealthy-attacker
    // × windowed-detector design space the grid sweeps explore.
    ("platoon-stealthy-windowed", |name| {
        attacked(name, SchedulePolicy::Descending)
            .with_truth(TruthSpec::Ramp { start: 10.0, rate_per_round: 0.002 })
            .with_detector(DetectionMode::Windowed { window: 20, tolerance: 6 })
    }),
    ("platoon-greedy-low", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_truth(TruthSpec::Ramp { start: 10.0, rate_per_round: -0.002 })
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyLow,
            })
    }),
    ("platoon-historical-windowed", |name| {
        attacked(name, SchedulePolicy::Descending)
            .with_truth(TruthSpec::Ramp { start: 10.0, rate_per_round: 0.002 })
            .with_fuser(FuserSpec::Historical { max_rate: 3.5, dt: 0.1 })
            .with_detector(DetectionMode::Windowed { window: 20, tolerance: 6 })
    }),
    ("stealthy-windowed-strict", |name| {
        attacked(name, SchedulePolicy::Descending)
            .with_detector(DetectionMode::Windowed { window: 10, tolerance: 2 })
    }),
    ("stealthy-windowed-lenient", |name| {
        attacked(name, SchedulePolicy::Descending)
            .with_detector(DetectionMode::Windowed { window: 30, tolerance: 10 })
    }),
    ("greedy-high-windowed", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyHigh,
            })
            .with_detector(DetectionMode::Windowed { window: 10, tolerance: 3 })
    }),
    ("table1-n5-stealthy", |name| {
        Scenario::new(name, SuiteSpec::Widths(vec![5.0, 5.0, 5.0, 5.0, 20.0]))
            .with_f(2)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_truth(TruthSpec::Constant(0.0))
    }),
    // Closed-loop presets: Table II's three schedule cells and the
    // platoon under the historical-fusion defence.
    ("table2-ascending", |name| table2_preset(name, SchedulePolicy::Ascending)),
    ("table2-descending", |name| table2_preset(name, SchedulePolicy::Descending)),
    ("table2-random", |name| table2_preset(name, SchedulePolicy::Random)),
    // The formerly-impossible closed-loop combinations, now plain
    // cells: fault injection and non-phantom strategies in the loop.
    ("table2-faulted-gps", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.2))
            .with_detector(DetectionMode::Windowed { window: 20, tolerance: 6 })
            .with_closed_loop(ClosedLoopSpec::new(10.0))
    }),
    ("table2-greedy-descending", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyHigh,
            })
            .with_closed_loop(ClosedLoopSpec::new(10.0))
    }),
    ("platoon-historical", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_fuser(FuserSpec::Historical { max_rate: 3.5, dt: 0.1 })
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(3, 0.01))
    }),
    // Regression-baseline base scenarios: the golden grids CI's
    // `baseline-check` job re-runs are built around these two (see
    // `arsf_bench::golden`), so their axes are part of the committed
    // baselines' content addresses — change them and the baselines
    // must be re-recorded.
    ("baseline-open-loop", |name| {
        attacked(name, SchedulePolicy::Ascending).with_rounds(120)
    }),
    ("baseline-table2", |name| {
        Scenario::new(name, SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_rounds(200)
            .with_closed_loop(ClosedLoopSpec::new(10.0))
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let presets = registry();
        let mut names: Vec<&str> = presets.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate preset names");
        for preset in &presets {
            let found = find(&preset.name).expect("every preset resolves");
            assert_eq!(&found, preset, "{} round-trips", preset.name);
        }
        assert!(find("no-such-scenario").is_none());
    }

    /// `len` and `widths` read the declaration without building; they
    /// must agree with the suite that is built, bit for bit.
    #[test]
    fn suite_len_and_widths_match_the_built_suite() {
        let bits = |widths: Vec<f64>| widths.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let suites = registry().into_iter().map(|preset| preset.suite).chain([
            SuiteSpec::Widths(vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]),
            SuiteSpec::Widths(vec![0.1, 0.0, 1e-3]),
            SuiteSpec::Widths(vec![]),
        ]);
        for suite in suites {
            let built = suite.build();
            assert_eq!(suite.len(), built.len(), "{}", suite.label());
            assert_eq!(suite.is_empty(), built.is_empty(), "{}", suite.label());
            assert_eq!(
                bits(suite.widths()),
                bits(built.widths()),
                "{}",
                suite.label()
            );
        }
        assert_eq!(SuiteSpec::Landshark.len(), 4);
    }

    #[test]
    fn fuser_specs_build_matching_names() {
        let specs = [
            FuserSpec::Marzullo,
            FuserSpec::BrooksIyengar,
            FuserSpec::Intersection,
            FuserSpec::Hull,
            FuserSpec::InverseVariance,
            FuserSpec::MidpointMedian,
            FuserSpec::Historical {
                max_rate: 1.0,
                dt: 0.1,
            },
        ];
        for spec in specs {
            assert_eq!(spec.build(1).name(), spec.name());
        }
    }

    #[test]
    fn truth_trajectories_evaluate() {
        assert_eq!(TruthSpec::Constant(10.0).at(99), 10.0);
        let ramp = TruthSpec::Ramp {
            start: 1.0,
            rate_per_round: 0.5,
        };
        assert_eq!(ramp.at(0), 1.0);
        assert_eq!(ramp.at(4), 3.0);
    }

    #[test]
    fn build_pipeline_applies_faults_and_attacker() {
        let scenario = Scenario::new("t", SuiteSpec::Landshark)
            .with_fault(2, FaultModel::new(arsf_sensor::FaultKind::Silent, 1.0))
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::Truthful,
            });
        let mut pipeline = scenario.build_pipeline();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let out = pipeline.run_round(10.0, &mut rng);
        // The silenced GPS never transmits.
        assert_eq!(out.transmitted.len(), 3);
        assert!(out.transmitted.iter().all(|(s, _)| *s != 2));
    }

    #[test]
    #[should_panic(expected = "fault sensor index out of range")]
    fn out_of_range_fault_panics() {
        let _ = Scenario::new("t", SuiteSpec::Widths(vec![1.0]))
            .with_fault(5, FaultModel::new(arsf_sensor::FaultKind::Silent, 1.0))
            .build_pipeline();
    }

    #[test]
    fn validate_accepts_supported_and_rejects_impossible_combinations() {
        // The full formerly-panicking closed-loop space is now valid.
        let supported = Scenario::new("ok", SuiteSpec::Landshark)
            .with_fault(2, FaultModel::new(arsf_sensor::FaultKind::Silent, 0.5))
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyLow,
            })
            .with_fuser(FuserSpec::BrooksIyengar)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(3, 0.01));
        assert_eq!(supported.validate(), Ok(()));
        // Genuinely impossible combos come back as typed errors.
        let bad_suite = Scenario::new("bad", SuiteSpec::Widths(vec![1.0, 2.0]))
            .with_closed_loop(ClosedLoopSpec::new(10.0));
        assert_eq!(
            bad_suite.validate(),
            Err(ScenarioError::ClosedLoopSuite {
                suite: "widths[1|2]".to_string()
            })
        );
        let bad_fault = Scenario::new("bad", SuiteSpec::Landshark)
            .with_fault(4, FaultModel::new(arsf_sensor::FaultKind::Silent, 1.0));
        assert_eq!(
            bad_fault.validate(),
            Err(ScenarioError::FaultSensorOutOfRange {
                sensor: 4,
                suite_len: 4
            })
        );
        let bad_gap = Scenario::new("bad", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(2, f64::NAN));
        assert!(matches!(
            bad_gap.validate(),
            Err(ScenarioError::InvalidParameter { parameter, .. }) if parameter == "platoon gap_miles"
        ));
        // Degenerate envelopes are typed errors instead of supervisor
        // panics deep inside a sweep worker.
        for spec in [
            ClosedLoopSpec::new(f64::NAN),
            ClosedLoopSpec::new(10.0).with_deltas(-0.5, 0.5),
            ClosedLoopSpec::new(10.0).with_deltas(0.5, f64::INFINITY),
        ] {
            let bad = Scenario::new("bad", SuiteSpec::Landshark).with_closed_loop(spec);
            assert!(
                matches!(
                    bad.validate(),
                    Err(ScenarioError::InvalidParameter { parameter, .. })
                        if parameter.starts_with("closed-loop")
                ),
                "{spec:?} must be rejected"
            );
        }
        assert!(Scenario::new("zero", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_deltas(0.0, 0.0))
            .validate()
            .is_ok());
        // Five phantom-optimal sensors used to validate, then panic in
        // the forgery solver's first round; other strategies and the
        // solver's own limit stay valid.
        let attacked = |sensors: Vec<usize>, strategy| {
            Scenario::new("wide", SuiteSpec::Widths(vec![1.0; 12]))
                .with_f(5)
                .with_attacker(AttackerSpec::Fixed { sensors, strategy })
                .validate()
        };
        assert_eq!(
            attacked((0..5).collect(), StrategySpec::PhantomOptimal),
            Err(ScenarioError::TooManyOptimalAttackers {
                attacked: 5,
                max: MAX_ATTACKED
            })
        );
        assert_eq!(
            attacked(vec![0, 1, 2, 3, 3], StrategySpec::PhantomOptimal),
            Ok(())
        );
        assert_eq!(attacked((0..5).collect(), StrategySpec::GreedyHigh), Ok(()));
    }

    #[test]
    fn control_period_is_the_historical_dt_or_100ms() {
        let scenario = Scenario::new("cl", SuiteSpec::Landshark)
            .with_fuser(FuserSpec::BrooksIyengar)
            .with_closed_loop(ClosedLoopSpec::new(12.0));
        assert_eq!(
            scenario.control_period(),
            0.1,
            "non-historical fusers keep the 100 ms period"
        );
        let historical = scenario.with_fuser(FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.05,
        });
        assert_eq!(historical.control_period(), 0.05);
        assert_eq!(historical.landshark_config(), &historical);
    }

    #[test]
    #[should_panic(expected = "closed-loop scenario")]
    fn landshark_config_rejects_an_open_loop_scenario() {
        let _ = Scenario::new("open", SuiteSpec::Landshark).landshark_config();
    }

    #[test]
    #[should_panic(expected = "LandShark suite")]
    fn closed_loop_on_a_widths_suite_panics_via_validate() {
        let _ = Scenario::new("bad", SuiteSpec::Widths(vec![1.0]))
            .with_closed_loop(ClosedLoopSpec::new(10.0))
            .landshark_config();
    }

    #[test]
    fn report_labels_are_compact_and_csv_safe() {
        assert_eq!(SuiteSpec::Landshark.label(), "landshark");
        assert_eq!(
            SuiteSpec::Widths(vec![5.0, 11.0, 17.0]).label(),
            "widths[5|11|17]"
        );
        assert_eq!(AttackerSpec::None.label(), "honest");
        assert_eq!(
            AttackerSpec::Fixed {
                sensors: vec![0, 2],
                strategy: StrategySpec::GreedyLow,
            }
            .label(),
            "greedy-low@0|2"
        );
        // Strategy spec names mirror the built strategies' report names.
        for spec in [
            StrategySpec::PhantomOptimal,
            StrategySpec::GreedyHigh,
            StrategySpec::GreedyLow,
            StrategySpec::Truthful,
        ] {
            assert_eq!(spec.build().name(), spec.name());
        }
    }
}
