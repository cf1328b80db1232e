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
use arsf_sensor::{FaultKind, FaultModel, SensorSuite};
use rand::Rng;

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
#[non_exhaustive]
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
#[non_exhaustive]
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

    /// The number of sensors the built suite will have.
    pub fn len(&self) -> usize {
        match self {
            SuiteSpec::Landshark => self.build().len(),
            SuiteSpec::Widths(widths) => widths.len(),
        }
    }

    /// The declared interval widths of the built suite, in sensor-id
    /// order — the a-priori information the paper's static guarantees
    /// (Marzullo's regime conditions, Theorem 2) are computed from,
    /// without sampling a single reading.
    pub(crate) fn widths(&self) -> Vec<f64> {
        match self {
            SuiteSpec::Landshark => self.build().widths(),
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
#[non_exhaustive]
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

    /// How the strategy's transmitted intervals relate to the overlap
    /// check, statically (see [`StrategyVisibility`]).
    ///
    /// Both the phantom forger and the greedy extreme placers route
    /// every proposal through the shared stealth clamp (the paper's
    /// Section III-A argument): in passive mode the forged interval
    /// contains Δ (and hence the truth), in active mode it is shifted to
    /// touch the intersection of the correct intervals seen so far —
    /// a point of maximal coverage, inside the Marzullo interval when
    /// the round's corruption stays within budget. They are therefore
    /// [`StrategyVisibility::Stealthy`]; the truthful baseline transmits
    /// the correct reading outright.
    pub(crate) fn visibility(&self) -> StrategyVisibility {
        match self {
            StrategySpec::PhantomOptimal | StrategySpec::GreedyHigh | StrategySpec::GreedyLow => {
                StrategyVisibility::Stealthy
            }
            StrategySpec::Truthful => StrategyVisibility::Honest,
        }
    }
}

/// The static visibility class of an attack strategy: what the overlap
/// check can ever see of it, before a round is run.
///
/// The companion of [`Scenario::static_model`] on the detection side:
/// `StrategySpec::visibility` and [`AttackerSpec::visibility`] derive
/// it from the declaration alone, and the static detectability analysis
/// in `arsf-analyze` turns it into per-cell verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StrategyVisibility {
    /// Transmits the correct reading: indistinguishable from an honest
    /// sensor, so the overlap check never fires on it (and no budget
    /// argument is needed).
    Honest,
    /// Forgeries are stealth-clamped to stay in contact with the fusion
    /// interval (Section III-A): provably invisible to the overlap check
    /// under Marzullo-family fusion while at most one sensor per round
    /// is attacked within budget.
    Stealthy,
    /// No static placement claim: whether the overlap check fires
    /// depends on magnitudes and runtime state.
    Opportunistic,
}

impl StrategyVisibility {
    /// The strategy's rank in the attacker-strength lattice: honest (no
    /// forgery) below stealthy (clamped forgery) below opportunistic
    /// (unconstrained placement — the full-knowledge worst case, since
    /// nothing restricts where its forgeries land).
    pub(crate) fn strength_rank(self) -> u8 {
        match self {
            StrategyVisibility::Honest => 0,
            StrategyVisibility::Stealthy => 1,
            StrategyVisibility::Opportunistic => 2,
        }
    }
}

/// The scenario's attacker model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
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
    /// the runner swaps only the attacker *config* on a persistent
    /// strategy each round.
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

    /// The visibility class of the strategy this attacker runs (see
    /// [`StrategyVisibility`]): honest for no attacker, the fixed
    /// strategy's own class for a fixed set, and stealthy for the
    /// random-each-round model (which always forges with
    /// [`StrategySpec::PhantomOptimal`]).
    pub fn visibility(&self) -> StrategyVisibility {
        match self {
            AttackerSpec::None => StrategyVisibility::Honest,
            AttackerSpec::Fixed { strategy, .. } => strategy.visibility(),
            AttackerSpec::RandomEachRound => StrategySpec::PhantomOptimal.visibility(),
        }
    }

    /// The worst-case number of *distinct* sensors this attacker forges
    /// in a single round: the stealth clamp's coverage argument only
    /// closes when at most one sensor per round is attacked.
    pub fn max_attacked_per_round(&self) -> usize {
        match self {
            AttackerSpec::None => 0,
            AttackerSpec::Fixed { sensors, strategy } => {
                if *strategy == StrategySpec::Truthful {
                    0
                } else {
                    let distinct: std::collections::BTreeSet<usize> =
                        sensors.iter().copied().collect();
                    distinct.len()
                }
            }
            AttackerSpec::RandomEachRound => 1,
        }
    }

    /// Compares two attackers in the strength lattice: the product order
    /// of the strategy's `StrategyVisibility::strength_rank` and
    /// [`AttackerSpec::max_attacked_per_round`].
    ///
    /// `Some(Less)` means `self` is provably the weaker attacker — its
    /// strategy class is no more capable *and* it forges no more sensors
    /// per round — so no worst-case metric bound can be larger under it.
    /// `None` means the two are incomparable (one axis says weaker, the
    /// other stronger), and the static dominance pass makes no claim.
    pub fn strength_partial_cmp(&self, other: &AttackerSpec) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        let rank = |a: &AttackerSpec| (a.visibility().strength_rank(), a.max_attacked_per_round());
        let (va, ca) = rank(self);
        let (vb, cb) = rank(other);
        match (va.cmp(&vb), ca.cmp(&cb)) {
            (Ordering::Equal, count) => Some(count),
            (visibility, Ordering::Equal) => Some(visibility),
            (visibility, count) if visibility == count => Some(visibility),
            _ => None,
        }
    }

    /// The `(config, strategy)` pair an engine installs for this attacker
    /// (`None` for honest runs).
    ///
    /// [`AttackerSpec::RandomEachRound`] is installed with an **empty**
    /// compromised set and a persistent [`PhantomOptimal`]: the runner
    /// swaps only the attacker config to the round's drawn sensor (see
    /// [`FusionPipeline::set_attacker_config`]), never re-boxing the
    /// strategy. Both the open-loop pipeline and the closed-loop vehicle
    /// engines build their attacker through this one method.
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

/// Draws this round's compromised sensor for an
/// [`AttackerSpec::RandomEachRound`] attacker, uniformly over the suite,
/// and swaps it into the engine's attacker config — the one redraw both
/// the open-loop runner and the closed-loop vehicle run before each
/// round. An empty suite leaves the attacker no sensor to draw.
pub(crate) fn draw_random_attacker<R: Rng + ?Sized>(
    pipeline: &mut FusionPipeline<Box<dyn Fuser<f64>>>,
    rng: &mut R,
) {
    let n = pipeline.suite().len();
    if n > 0 {
        let sensor = rng.gen_range(0..n);
        let f = pipeline.config().f();
        pipeline.set_attacker_config(AttackerConfig::new([sensor], f));
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
                other => format!("{other:?}").to_lowercase(),
            };
            format!("{sensor}:{kind}@{}", fault.probability())
        })
        .collect();
    parts.join("|")
}

/// Which fusion algorithm the scenario's engine runs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
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
#[non_exhaustive]
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

/// The a-priori corruption model of one scenario — everything the static
/// guarantee analysis (Marzullo's regime conditions, Theorem 2) needs,
/// extracted from the declaration alone: no sensors built, no rounds run.
///
/// Produced by [`Scenario::static_model`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StaticModel {
    /// Declared interval widths, in sensor-id order.
    pub widths: Vec<f64>,
    /// The fusion fault assumption `f`.
    pub f: usize,
    /// Worst-case number of *transmitting* sensors whose intervals may
    /// exclude the truth in one round: the distinct sensors carrying a
    /// non-silent fault, union the fixed compromised set, plus one for a
    /// random-each-round attacker — capped at the suite size.
    pub corrupt: usize,
    /// Number of distinct sensors a `Silent` fault can drop from a round
    /// (the worst case silences all of them at once).
    pub silent: usize,
    /// Worst-case per-round drift `|Δtruth|` of the measured variable:
    /// `Some(0.0)` for constant truth, the absolute ramp rate for a
    /// ramp, and `None` closed-loop, where the truth is the vehicle's
    /// actual speed and no static drift bound exists.
    pub truth_rate: Option<f64>,
    /// Fused outputs per round: the platoon size closed-loop, else 1.
    pub vehicles: usize,
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

    /// Extracts the [`StaticModel`] this scenario declares: widths, the
    /// fault assumption, and the worst-case corruption/silence budgets,
    /// all without building a sensor or running a round.
    ///
    /// A sensor carrying both a silent and a corrupting fault counts in
    /// both budgets — over rounds, either can manifest, and the analysis
    /// takes the worst case. Fault probabilities are ignored (a fault
    /// that *can* fire counts), and out-of-range indices are capped at
    /// the suite size ([`Scenario::validate`] reports them as errors).
    pub fn static_model(&self) -> StaticModel {
        use std::collections::BTreeSet;
        let widths = self.suite.widths();
        let n = widths.len();
        let mut silent = BTreeSet::new();
        let mut corrupt = BTreeSet::new();
        for (sensor, fault) in &self.faults {
            if matches!(fault.kind(), arsf_sensor::FaultKind::Silent) {
                silent.insert(*sensor);
            } else {
                corrupt.insert(*sensor);
            }
        }
        let extra = match &self.attacker {
            AttackerSpec::None => 0,
            AttackerSpec::Fixed { sensors, strategy } => {
                // A truthful "attacker" transmits the correct reading.
                if *strategy != StrategySpec::Truthful {
                    corrupt.extend(sensors.iter().copied());
                }
                0
            }
            AttackerSpec::RandomEachRound => 1,
        };
        let truth_rate = if self.closed_loop.is_some() {
            None
        } else {
            Some(match self.truth {
                TruthSpec::Constant(_) => 0.0,
                TruthSpec::Ramp { rate_per_round, .. } => rate_per_round.abs(),
            })
        };
        let vehicles = self
            .closed_loop
            .as_ref()
            .and_then(|spec| spec.platoon.as_ref())
            .map_or(1, |platoon| platoon.size.max(1));
        StaticModel {
            widths,
            f: self.f,
            corrupt: (corrupt.len() + extra).min(n),
            silent: silent.len().min(n),
            truth_rate,
            vehicles,
        }
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
        match self.attacker.build(self.f) {
            None => builder.build(),
            Some((attacker, strategy)) => builder.attacker(attacker, strategy).build(),
        }
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
    let attacked = |schedule: SchedulePolicy| {
        Scenario::new(
            format!("landshark-{}-attacked", schedule.name()),
            SuiteSpec::Landshark,
        )
        .with_schedule(schedule)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
    };
    vec![
        Scenario::new("landshark-honest", SuiteSpec::Landshark),
        attacked(SchedulePolicy::Ascending),
        attacked(SchedulePolicy::Descending),
        attacked(SchedulePolicy::Random),
        attacked(SchedulePolicy::Descending)
            .named("landshark-descending-historical")
            .with_fuser(FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            }),
        attacked(SchedulePolicy::Descending)
            .named("landshark-descending-brooks-iyengar")
            .with_fuser(FuserSpec::BrooksIyengar),
        attacked(SchedulePolicy::Descending)
            .named("ablation-detection-off")
            .with_detector(DetectionMode::Off),
        Scenario::new("ablation-windowed-gps-fault", SuiteSpec::Landshark)
            .with_fault(
                2,
                FaultModel::new(arsf_sensor::FaultKind::Bias { offset: 3.0 }, 0.2),
            )
            .with_detector(DetectionMode::Windowed {
                window: 20,
                tolerance: 6,
            }),
        Scenario::new("table1-n3", SuiteSpec::Widths(vec![5.0, 11.0, 17.0]))
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_truth(TruthSpec::Constant(0.0)),
        Scenario::new("platoon-ramp", SuiteSpec::Landshark)
            .with_truth(TruthSpec::Ramp {
                start: 10.0,
                rate_per_round: 0.002,
            })
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyHigh,
            }),
        // Sweep-era presets: the platoon family and the stealthy-attacker
        // × windowed-detector design space the grid sweeps explore.
        Scenario::new("platoon-stealthy-windowed", SuiteSpec::Landshark)
            .with_truth(TruthSpec::Ramp {
                start: 10.0,
                rate_per_round: 0.002,
            })
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_detector(DetectionMode::Windowed {
                window: 20,
                tolerance: 6,
            }),
        Scenario::new("platoon-greedy-low", SuiteSpec::Landshark)
            .with_truth(TruthSpec::Ramp {
                start: 10.0,
                rate_per_round: -0.002,
            })
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyLow,
            }),
        Scenario::new("platoon-historical-windowed", SuiteSpec::Landshark)
            .with_truth(TruthSpec::Ramp {
                start: 10.0,
                rate_per_round: 0.002,
            })
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_fuser(FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            })
            .with_detector(DetectionMode::Windowed {
                window: 20,
                tolerance: 6,
            }),
        Scenario::new("stealthy-windowed-strict", SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_detector(DetectionMode::Windowed {
                window: 10,
                tolerance: 2,
            }),
        Scenario::new("stealthy-windowed-lenient", SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_detector(DetectionMode::Windowed {
                window: 30,
                tolerance: 10,
            }),
        Scenario::new("greedy-high-windowed", SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyHigh,
            })
            .with_detector(DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            }),
        Scenario::new(
            "table1-n5-stealthy",
            SuiteSpec::Widths(vec![5.0, 5.0, 5.0, 5.0, 20.0]),
        )
        .with_f(2)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_truth(TruthSpec::Constant(0.0)),
        // Closed-loop presets: Table II's three schedule cells (one
        // uniformly-random compromised sensor per round, LandShark at
        // 10 mph inside the [9.5, 10.5] envelope) and the platoon under
        // the historical-fusion defence.
        table2_preset(SchedulePolicy::Ascending),
        table2_preset(SchedulePolicy::Descending),
        table2_preset(SchedulePolicy::Random),
        // The formerly-impossible closed-loop combinations, now plain
        // cells: fault injection and non-phantom strategies in the loop.
        Scenario::new("table2-faulted-gps", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_fault(
                2,
                FaultModel::new(arsf_sensor::FaultKind::Bias { offset: 3.0 }, 0.2),
            )
            .with_detector(DetectionMode::Windowed {
                window: 20,
                tolerance: 6,
            })
            .with_closed_loop(ClosedLoopSpec::new(10.0)),
        Scenario::new("table2-greedy-descending", SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyHigh,
            })
            .with_closed_loop(ClosedLoopSpec::new(10.0)),
        Scenario::new("platoon-historical", SuiteSpec::Landshark)
            .with_schedule(SchedulePolicy::Descending)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_fuser(FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            })
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(3, 0.01)),
        // Regression-baseline base scenarios: the golden grids CI's
        // `baseline-check` job re-runs are built around these two (see
        // `arsf_bench::golden`), so their axes are part of the committed
        // baselines' content addresses — change them and the baselines
        // must be re-recorded.
        Scenario::new("baseline-open-loop", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(120),
        Scenario::new("baseline-table2", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_rounds(200)
            .with_closed_loop(ClosedLoopSpec::new(10.0)),
    ]
}

fn table2_preset(schedule: SchedulePolicy) -> Scenario {
    Scenario::new(format!("table2-{}", schedule.name()), SuiteSpec::Landshark)
        .with_schedule(schedule)
        .with_attacker(AttackerSpec::RandomEachRound)
        .with_closed_loop(ClosedLoopSpec::new(10.0))
}

/// Looks a preset up by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

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

    #[test]
    fn suite_specs_build_correct_sizes() {
        assert_eq!(
            SuiteSpec::Landshark.build().len(),
            SuiteSpec::Landshark.len()
        );
        let widths = SuiteSpec::Widths(vec![1.0, 2.0]);
        assert_eq!(widths.build().len(), 2);
        assert!(!widths.is_empty());
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
    fn static_model_extracts_widths_and_budgets() {
        let scenario = Scenario::new("sm", SuiteSpec::Landshark)
            .with_fault(2, FaultModel::new(arsf_sensor::FaultKind::Silent, 0.5))
            .with_fault(
                3,
                FaultModel::new(arsf_sensor::FaultKind::Bias { offset: 3.0 }, 0.2),
            )
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0, 3],
                strategy: StrategySpec::PhantomOptimal,
            });
        let model = scenario.static_model();
        assert_eq!(model.widths, vec![0.2, 0.2, 1.0, 2.0]);
        assert_eq!(model.f, 1);
        // Sensor 3 is faulted *and* attacked: distinct count is {0, 3}.
        assert_eq!(model.corrupt, 2);
        assert_eq!(model.silent, 1);
        assert_eq!(model.truth_rate, Some(0.0));
        assert_eq!(model.vehicles, 1);
    }

    #[test]
    fn static_model_truthful_attacker_does_not_corrupt() {
        let scenario =
            Scenario::new("sm", SuiteSpec::Landshark).with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::Truthful,
            });
        assert_eq!(scenario.static_model().corrupt, 0);
    }

    #[test]
    fn strategy_visibility_classes() {
        for stealthy in [
            StrategySpec::PhantomOptimal,
            StrategySpec::GreedyHigh,
            StrategySpec::GreedyLow,
        ] {
            assert_eq!(stealthy.visibility(), StrategyVisibility::Stealthy);
        }
        assert_eq!(
            StrategySpec::Truthful.visibility(),
            StrategyVisibility::Honest
        );
        assert_eq!(AttackerSpec::None.visibility(), StrategyVisibility::Honest);
        assert_eq!(
            AttackerSpec::RandomEachRound.visibility(),
            StrategyVisibility::Stealthy
        );
    }

    #[test]
    fn max_attacked_counts_distinct_forging_sensors() {
        assert_eq!(AttackerSpec::None.max_attacked_per_round(), 0);
        assert_eq!(AttackerSpec::RandomEachRound.max_attacked_per_round(), 1);
        let fixed = AttackerSpec::Fixed {
            sensors: vec![0, 2, 0],
            strategy: StrategySpec::GreedyHigh,
        };
        assert_eq!(fixed.max_attacked_per_round(), 2);
        let truthful = AttackerSpec::Fixed {
            sensors: vec![0, 1],
            strategy: StrategySpec::Truthful,
        };
        assert_eq!(truthful.max_attacked_per_round(), 0);
    }

    #[test]
    fn strength_partial_cmp_is_the_product_order() {
        use std::cmp::Ordering;
        let honest = AttackerSpec::None;
        let random = AttackerSpec::RandomEachRound;
        let phantom_two = AttackerSpec::Fixed {
            sensors: vec![0, 2],
            strategy: StrategySpec::PhantomOptimal,
        };
        let truthful = AttackerSpec::Fixed {
            sensors: vec![0, 1, 2],
            strategy: StrategySpec::Truthful,
        };
        // Honest below any armed stealthy attacker; reflexive equality.
        assert_eq!(honest.strength_partial_cmp(&random), Some(Ordering::Less));
        assert_eq!(
            random.strength_partial_cmp(&honest),
            Some(Ordering::Greater)
        );
        assert_eq!(honest.strength_partial_cmp(&honest), Some(Ordering::Equal));
        // Same visibility class, more forged sensors: strictly stronger.
        assert_eq!(
            random.strength_partial_cmp(&phantom_two),
            Some(Ordering::Less)
        );
        // Truthful forges nothing: equal strength to no attacker at all.
        assert_eq!(
            honest.strength_partial_cmp(&truthful),
            Some(Ordering::Equal)
        );
        // Ranks come from the visibility lattice.
        assert_eq!(StrategyVisibility::Honest.strength_rank(), 0);
        assert_eq!(StrategyVisibility::Stealthy.strength_rank(), 1);
        assert_eq!(StrategyVisibility::Opportunistic.strength_rank(), 2);
    }

    #[test]
    fn static_model_random_attacker_adds_one_corruption() {
        let scenario =
            Scenario::new("sm", SuiteSpec::Landshark).with_attacker(AttackerSpec::RandomEachRound);
        assert_eq!(scenario.static_model().corrupt, 1);
    }

    #[test]
    fn static_model_closed_loop_platoon_and_unknown_drift() {
        let scenario = Scenario::new("sm", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(3, 0.05));
        let model = scenario.static_model();
        assert_eq!(model.vehicles, 3);
        assert_eq!(model.truth_rate, None);
        let ramp = Scenario::new("sm", SuiteSpec::Landshark).with_truth(TruthSpec::Ramp {
            start: 5.0,
            rate_per_round: -0.25,
        });
        assert_eq!(ramp.static_model().truth_rate, Some(0.25));
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
