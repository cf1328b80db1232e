//! Batch execution of declarative scenarios.
//!
//! [`ScenarioRunner`] materialises a [`Scenario`] into the generic
//! engine and drives it round by round, either streaming
//! ([`ScenarioRunner::step_into`]) or in batches into preallocated,
//! reusable [`RoundOutcome`] buffers ([`ScenarioRunner::run_batch`]) —
//! the shape the benchmarks use for allocation-free sweeps. A
//! [`BatchSummary`] aggregates the statistics the experiment harnesses
//! report.

use arsf_fusion::Fuser;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::closed_loop::landshark::LandShark;
use crate::closed_loop::platoon::Platoon;
use crate::closed_loop::supervisor::SupervisorAction;
use crate::metrics::{SupervisorSummary, VehicleSummary, WidthStats};
use crate::scenario::{
    draw_random_attacker, AttackerSpec, PlatoonSpec, Scenario, ScenarioError, TruthSpec,
};
use crate::{FusionPipeline, RoundOutcome};

/// Aggregated results of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// The scenario's name.
    pub scenario: String,
    /// The fuser that ran (report name).
    pub fuser: String,
    /// The detector that ran (report name).
    pub detector: String,
    /// Rounds executed. Closed-loop platoon runs count control periods
    /// (not vehicle-rounds); the fusion-quality statistics then describe
    /// the **leader**, while [`BatchSummary::supervisor`] pools every
    /// vehicle.
    pub rounds: u64,
    /// Width statistics over rounds whose fusion succeeded.
    pub widths: WidthStats,
    /// Rounds whose fused interval did **not** contain the ground truth.
    pub truth_lost: u64,
    /// Rounds where fusion failed outright.
    pub fusion_failures: u64,
    /// Rounds where the detector flagged at least one sensor.
    pub flagged_rounds: u64,
    /// Sensors condemned as of the last round whose fusion succeeded
    /// (ascending ids) — detection only runs on fused rounds.
    pub condemned: Vec<usize>,
    /// Safety-supervisor statistics, cumulative over the runner's
    /// lifetime; `None` for open-loop runs.
    pub supervisor: Option<SupervisorSummary>,
    /// Per-vehicle fusion statistics (leader first), cumulative over the
    /// runner's lifetime; empty except for closed-loop **platoon** runs,
    /// where every vehicle's engine outcome feeds its own aggregate.
    pub vehicles: Vec<VehicleSummary>,
}

impl BatchSummary {
    fn new(scenario: &str, fuser: &str, detector: &str) -> Self {
        Self {
            scenario: scenario.to_string(),
            fuser: fuser.to_string(),
            detector: detector.to_string(),
            rounds: 0,
            widths: WidthStats::new(),
            truth_lost: 0,
            fusion_failures: 0,
            flagged_rounds: 0,
            condemned: Vec::new(),
            supervisor: None,
            vehicles: Vec::new(),
        }
    }

    fn record(&mut self, out: &RoundOutcome) {
        self.rounds += 1;
        match &out.fusion {
            Ok(fused) => {
                self.widths.record(fused.width());
                if !fused.contains(out.truth) {
                    self.truth_lost += 1;
                }
                // Detection only runs on fused rounds, so only they carry
                // an up-to-date condemned set; a failed round must not
                // erase standing condemnations held by the detector.
                self.condemned.clear();
                self.condemned.extend_from_slice(&out.condemned);
                if !out.flagged.is_empty() {
                    self.flagged_rounds += 1;
                }
            }
            Err(_) => self.fusion_failures += 1,
        }
    }

    /// Fraction of fused rounds that lost the truth (0 when no round
    /// fused).
    pub(crate) fn truth_loss_rate(&self) -> f64 {
        let fused = self.rounds - self.fusion_failures;
        if fused == 0 {
            0.0
        } else {
            self.truth_lost as f64 / fused as f64
        }
    }
}

/// Executes one [`Scenario`] through the generic engine.
///
/// The runner owns the materialised pipeline (boxed fuser + detector)
/// and the scenario's deterministic RNG; two runners built from equal
/// scenarios produce identical outcome streams.
///
/// # Example
///
/// ```
/// use arsf_core::scenario::{self, Scenario, SuiteSpec};
/// use arsf_core::{RoundOutcome, ScenarioRunner};
///
/// let scenario = scenario::find("landshark-honest").expect("preset");
/// let mut runner = ScenarioRunner::new(&scenario);
/// // Reusable buffers: allocate once, sweep as many batches as needed.
/// let mut outcomes: Vec<RoundOutcome> = Vec::new();
/// let summary = runner.run_batch(100, &mut outcomes);
/// assert_eq!(outcomes.len(), 100);
/// assert_eq!(summary.fusion_failures, 0);
/// assert_eq!(summary.truth_lost, 0, "honest rounds keep the truth");
/// ```
#[derive(Debug)]
pub struct ScenarioRunner {
    /// The scenario's name, for [`BatchSummary::scenario`].
    name: String,
    /// The open-loop ground truth, read once per round.
    truth: TruthSpec,
    /// The scenario's configured round count, for [`ScenarioRunner::run`].
    rounds: u64,
    /// Whether the attacked sensor is redrawn every open-loop round
    /// ([`AttackerSpec::RandomEachRound`]).
    redraw_attacker: bool,
    engine: Engine,
    rng: StdRng,
    round: u64,
    preemptions: u64,
}

/// The materialised execution engine behind one runner: open-loop fusion
/// rounds, a single closed-loop vehicle, or a closed-loop platoon.
#[derive(Debug)]
enum Engine {
    Open(Box<FusionPipeline<Box<dyn Fuser<f64>>>>),
    Shark(Box<LandShark>),
    Platoon(Box<Platoon>),
}

fn build_engine(scenario: &Scenario) -> Engine {
    match &scenario.closed_loop {
        None => Engine::Open(Box::new(scenario.build_pipeline())),
        Some(spec) => match spec.platoon {
            None => Engine::Shark(Box::new(LandShark::new(scenario))),
            Some(PlatoonSpec { size, gap_miles }) => {
                Engine::Platoon(Box::new(Platoon::new(size, gap_miles, scenario)))
            }
        },
    }
}

impl ScenarioRunner {
    /// Materialises a scenario into a runnable engine: an
    /// open-loop [`FusionPipeline`], or — for closed-loop scenarios — a
    /// [`LandShark`] / [`Platoon`] driven through the vehicle control
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`Scenario::validate`] (an
    /// out-of-range fault/compromised index, a non-LandShark closed-loop
    /// suite, or a degenerate platoon). Use [`ScenarioRunner::try_new`]
    /// for the typed error instead.
    pub fn new(scenario: &Scenario) -> Self {
        Self::try_new(scenario)
            .unwrap_or_else(|e| panic!("invalid scenario `{}`: {e}", scenario.name))
    }

    /// Fallible [`ScenarioRunner::new`]: validates the scenario first and
    /// returns the typed [`ScenarioError`] instead of panicking, so sweep
    /// harnesses can reject impossible cells gracefully.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] [`Scenario::validate`] finds.
    pub fn try_new(scenario: &Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        Ok(Self {
            name: scenario.name.clone(),
            truth: scenario.truth,
            rounds: scenario.rounds,
            redraw_attacker: scenario.attacker == AttackerSpec::RandomEachRound,
            engine: build_engine(scenario),
            rng: StdRng::seed_from_u64(scenario.seed),
            round: 0,
            preemptions: 0,
        })
    }

    /// Runs one round into a reusable outcome buffer.
    ///
    /// Closed-loop engines fill the buffer with the vehicle's (for
    /// platoons: the **leader's**) fusion round; the ground truth is the
    /// vehicle's actual speed.
    pub fn step_into(&mut self, out: &mut RoundOutcome) {
        match &mut self.engine {
            Engine::Open(pipeline) => {
                if self.redraw_attacker {
                    draw_random_attacker(pipeline, &mut self.rng);
                }
                let truth = self.truth.at(self.round);
                pipeline.run_round_into(truth, &mut self.rng, out);
            }
            Engine::Shark(shark) => {
                let record = shark.step_with(&mut self.rng, out);
                if record.action != SupervisorAction::Nominal {
                    self.preemptions += 1;
                }
            }
            Engine::Platoon(platoon) => {
                let records = platoon.step_with(&mut self.rng, out);
                self.preemptions += records
                    .iter()
                    .filter(|r| r.action != SupervisorAction::Nominal)
                    .count() as u64;
            }
        }
        self.round += 1;
    }

    /// Runs `rounds` rounds into preallocated, reusable outcome buffers.
    ///
    /// `outcomes` is resized to `rounds` (existing buffers are reused in
    /// place; missing ones are default-constructed once) and every entry
    /// is overwritten. Returns the batch's aggregated summary. Repeated
    /// calls continue the scenario where the previous batch stopped.
    pub fn run_batch(&mut self, rounds: usize, outcomes: &mut Vec<RoundOutcome>) -> BatchSummary {
        outcomes.resize_with(rounds, RoundOutcome::default);
        let mut summary = self.summary_shell();
        for out in outcomes.iter_mut() {
            self.step_into(out);
            summary.record(out);
        }
        self.attach_supervisor(&mut summary);
        summary
    }

    /// Runs the scenario's configured round count, aggregating without
    /// retaining per-round outcomes (one reused buffer).
    pub fn run(&mut self) -> BatchSummary {
        self.run_into(&mut RoundOutcome::default())
    }

    /// [`ScenarioRunner::run`] stepping through a caller-owned reusable
    /// outcome buffer — the allocation-free shape sweep workers use when
    /// executing many scenarios back to back.
    pub fn run_into(&mut self, out: &mut RoundOutcome) -> BatchSummary {
        let mut summary = self.summary_shell();
        for _ in 0..self.rounds {
            self.step_into(out);
            summary.record(out);
        }
        self.attach_supervisor(&mut summary);
        summary
    }

    fn summary_shell(&self) -> BatchSummary {
        let pipeline: &FusionPipeline<Box<dyn Fuser<f64>>> = match &self.engine {
            Engine::Open(pipeline) => pipeline,
            Engine::Shark(shark) => shark.pipeline(),
            Engine::Platoon(platoon) => platoon.sharks()[0].pipeline(),
        };
        BatchSummary::new(
            &self.name,
            pipeline.fuser().name(),
            pipeline.detector().name(),
        )
    }

    /// Fills the summary's supervisor and per-vehicle columns from the
    /// closed-loop engine's cumulative statistics (no-op for open-loop
    /// runs).
    fn attach_supervisor(&self, summary: &mut BatchSummary) {
        if let Engine::Platoon(platoon) = &self.engine {
            summary.vehicles = platoon.vehicle_stats().to_vec();
        }
        summary.supervisor = match &self.engine {
            Engine::Open(_) => None,
            Engine::Shark(shark) => Some(SupervisorSummary {
                above_rate: shark.supervisor().upper_rate(),
                below_rate: shark.supervisor().lower_rate(),
                preemptions: self.preemptions,
                min_gap: None,
            }),
            Engine::Platoon(platoon) => {
                let (mut above, mut below, mut rounds) = (0u64, 0u64, 0u64);
                for shark in platoon.sharks() {
                    above += shark.supervisor().upper_violations();
                    below += shark.supervisor().lower_violations();
                    rounds += shark.supervisor().rounds();
                }
                let rate = |hits: u64| {
                    if rounds == 0 {
                        0.0
                    } else {
                        hits as f64 / rounds as f64
                    }
                };
                Some(SupervisorSummary {
                    above_rate: rate(above),
                    below_rate: rate(below),
                    preemptions: self.preemptions,
                    min_gap: Some(platoon.min_gap()),
                })
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AttackerSpec, FuserSpec, StrategySpec, SuiteSpec, TruthSpec};
    use crate::DetectionMode;
    use arsf_schedule::{SchedulePolicy, TransmissionOrder};

    fn quick(name: &str) -> Scenario {
        Scenario::new(name, SuiteSpec::Landshark).with_rounds(200)
    }

    #[test]
    fn equal_scenarios_produce_identical_streams() {
        let scenario = quick("det").with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        });
        let mut a = ScenarioRunner::new(&scenario);
        let mut b = ScenarioRunner::new(&scenario);
        let mut out_a = RoundOutcome::default();
        let mut out_b = RoundOutcome::default();
        for _ in 0..50 {
            a.step_into(&mut out_a);
            b.step_into(&mut out_b);
            assert_eq!(out_a.fusion, out_b.fusion);
            assert_eq!(out_a.transmitted, out_b.transmitted);
        }
    }

    #[test]
    fn run_batch_reuses_and_resizes_buffers() {
        let mut runner = ScenarioRunner::new(&quick("batch"));
        let mut outcomes = Vec::new();
        let s1 = runner.run_batch(64, &mut outcomes);
        assert_eq!(outcomes.len(), 64);
        assert_eq!(s1.rounds, 64);
        // Shrinking and growing both reuse what is there.
        let s2 = runner.run_batch(16, &mut outcomes);
        assert_eq!(outcomes.len(), 16);
        assert_eq!(s2.rounds, 16);
        assert_eq!(runner.round, 80, "batches continue the run");
        for out in &outcomes {
            assert!(out.fusion.is_ok());
        }
    }

    #[test]
    fn summaries_expose_fuser_and_detector_names() {
        let summary = ScenarioRunner::new(
            &quick("names")
                .with_fuser(FuserSpec::Hull)
                .with_detector(DetectionMode::Off),
        )
        .run();
        assert_eq!(summary.fuser, "hull");
        assert_eq!(summary.detector, "off");
        assert_eq!(summary.rounds, 200);
        assert_eq!(summary.truth_loss_rate(), 0.0);
    }

    #[test]
    fn every_stock_fuser_and_detector_runs_through_one_entry_point() {
        // The redesign's acceptance criterion, in crate-level miniature:
        // 7 fusers × 3 detectors through the same ScenarioRunner::run.
        let fusers = [
            FuserSpec::Marzullo,
            FuserSpec::BrooksIyengar,
            FuserSpec::Intersection,
            FuserSpec::Hull,
            FuserSpec::InverseVariance,
            FuserSpec::MidpointMedian,
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
        ];
        let detectors = [
            DetectionMode::Off,
            DetectionMode::Immediate,
            DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        ];
        for fuser in &fusers {
            for detector in &detectors {
                let summary = ScenarioRunner::new(
                    &quick("grid")
                        .with_rounds(40)
                        .with_fuser(fuser.clone())
                        .with_detector(*detector),
                )
                .run();
                assert_eq!(summary.rounds, 40, "{}/{}", summary.fuser, summary.detector);
                assert_eq!(
                    summary.fusion_failures, 0,
                    "{}/{} failed rounds",
                    summary.fuser, summary.detector
                );
            }
        }
    }

    #[test]
    fn historical_fuser_degrades_on_silenced_rounds_like_marzullo() {
        // A permanently-silent sensor leaves n = 1 with f = 1: every
        // engine-facing fuser must clamp the budget instead of erroring.
        let base = Scenario::new("silenced", SuiteSpec::Widths(vec![2.0, 2.0]))
            .with_fault(
                0,
                arsf_sensor::FaultModel::new(arsf_sensor::FaultKind::Silent, 1.0),
            )
            .with_rounds(50);
        for fuser in [
            FuserSpec::Marzullo,
            FuserSpec::Historical {
                max_rate: 100.0,
                dt: 0.1,
            },
        ] {
            let summary = ScenarioRunner::new(&base.clone().with_fuser(fuser.clone())).run();
            assert_eq!(
                summary.fusion_failures, 0,
                "{} must clamp f on silenced rounds",
                summary.fuser
            );
            assert_eq!(summary.truth_lost, 0);
        }
    }

    #[test]
    fn failed_round_does_not_erase_standing_condemnations() {
        use arsf_interval::Interval;
        let scenario = quick("condemn");
        let mut summary = BatchSummary::new(&scenario.name, "marzullo", "windowed");
        let mut fused_round = RoundOutcome {
            truth: 10.0,
            fusion: Ok(Interval::new(9.0, 11.0).unwrap()),
            ..RoundOutcome::default()
        };
        fused_round.condemned.push(2);
        summary.record(&fused_round);
        // A failed round carries no assessment; the detector still holds
        // sensor 2 condemned, and the summary must keep reporting it.
        summary.record(&RoundOutcome::default());
        assert_eq!(summary.condemned, vec![2]);
        assert_eq!(summary.fusion_failures, 1);
    }

    #[test]
    fn failed_round_does_not_count_stale_flags() {
        // Regression: record() used to bump flagged_rounds whenever the
        // outcome's flagged vec was non-empty, even on failed-fusion
        // rounds — but detection only runs on fused rounds, so a stale
        // flagged vec in a reused buffer inflated the count.
        use arsf_interval::Interval;
        let scenario = quick("stale-flags");
        let mut summary = BatchSummary::new(&scenario.name, "marzullo", "immediate");
        let mut buffer = RoundOutcome {
            truth: 10.0,
            fusion: Ok(Interval::new(9.0, 11.0).unwrap()),
            ..RoundOutcome::default()
        };
        buffer.flagged.push(3);
        summary.record(&buffer);
        assert_eq!(summary.flagged_rounds, 1);
        // The buffer is reused for a failing round whose flagged vec was
        // not cleared by the caller: the stale flag must not count.
        buffer.fusion = Err(arsf_fusion::FusionError::EmptyInput);
        summary.record(&buffer);
        assert_eq!(summary.flagged_rounds, 1, "failed round counted a flag");
        assert_eq!(summary.fusion_failures, 1);
    }

    #[test]
    fn reused_buffers_across_failing_rounds_keep_flag_counts_exact() {
        // End-to-end shape of the same regression: two intermittently
        // biased sensors pulling in opposite directions under Marzullo
        // f = 1 yield a genuine mix of fused, flagged and failed rounds,
        // all driven through one reused buffer.
        use arsf_sensor::{FaultKind, FaultModel};
        let scenario = Scenario::new("flaky", SuiteSpec::Widths(vec![0.5, 0.5, 0.5]))
            .with_fault(0, FaultModel::new(FaultKind::Bias { offset: 40.0 }, 0.5))
            .with_fault(1, FaultModel::new(FaultKind::Bias { offset: -40.0 }, 0.5))
            .with_rounds(200);
        let mut runner = ScenarioRunner::new(&scenario);
        let mut out = RoundOutcome::default();
        let mut summary = BatchSummary::new(&scenario.name, "marzullo", "immediate");
        let mut fused_flagged = 0;
        for _ in 0..scenario.rounds {
            runner.step_into(&mut out);
            if out.fusion.is_ok() && !out.flagged.is_empty() {
                fused_flagged += 1;
            }
            summary.record(&out);
        }
        assert!(summary.fusion_failures > 0, "opposed biases must collide");
        assert!(fused_flagged > 0, "lone biased rounds must flag");
        assert_eq!(summary.flagged_rounds, fused_flagged);
    }

    #[test]
    fn run_into_matches_run() {
        let scenario = quick("run-into").with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        });
        let fresh = ScenarioRunner::new(&scenario).run();
        let mut reused = RoundOutcome::default();
        // Pre-soil the buffer: run_into must not be confused by it.
        reused.flagged.extend([0, 1, 2]);
        let again = ScenarioRunner::new(&scenario).run_into(&mut reused);
        assert_eq!(fresh, again);
    }

    #[test]
    fn try_new_rejects_impossible_scenarios_with_typed_errors() {
        use crate::scenario::{ClosedLoopSpec, ScenarioError};
        use arsf_sensor::{FaultKind, FaultModel};
        let closed_widths = Scenario::new("bad-suite", SuiteSpec::Widths(vec![1.0, 2.0]))
            .with_closed_loop(ClosedLoopSpec::new(10.0));
        assert!(matches!(
            ScenarioRunner::try_new(&closed_widths),
            Err(ScenarioError::ClosedLoopSuite { .. })
        ));
        let bad_fault = Scenario::new("bad-fault", SuiteSpec::Landshark)
            .with_fault(9, FaultModel::new(FaultKind::Silent, 1.0));
        assert!(matches!(
            ScenarioRunner::try_new(&bad_fault),
            Err(ScenarioError::FaultSensorOutOfRange {
                sensor: 9,
                suite_len: 4
            })
        ));
        let bad_attack =
            Scenario::new("bad-attack", SuiteSpec::Landshark).with_attacker(AttackerSpec::Fixed {
                sensors: vec![7],
                strategy: StrategySpec::PhantomOptimal,
            });
        assert!(matches!(
            ScenarioRunner::try_new(&bad_attack),
            Err(ScenarioError::AttackedSensorOutOfRange {
                sensor: 7,
                suite_len: 4
            })
        ));
        let bad_solver = Scenario::new("bad-solver", SuiteSpec::Widths(vec![1.0; 12]))
            .with_f(5)
            .with_attacker(AttackerSpec::Fixed {
                sensors: (0..5).collect(),
                strategy: StrategySpec::PhantomOptimal,
            });
        assert!(matches!(
            ScenarioRunner::try_new(&bad_solver),
            Err(ScenarioError::TooManyOptimalAttackers {
                attacked: 5,
                max: 4
            })
        ));
        let bad_platoon = Scenario::new("bad-platoon", SuiteSpec::Landshark)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(0, 0.01));
        assert_eq!(
            ScenarioRunner::try_new(&bad_platoon)
                .unwrap_err()
                .to_string(),
            "platoon size is out of range: 0"
        );
        let bad_order =
            quick("bad-order").with_schedule(SchedulePolicy::Fixed(TransmissionOrder::identity(3)));
        assert_eq!(
            ScenarioRunner::try_new(&bad_order).unwrap_err().to_string(),
            "schedule order length for a 4-sensor suite is out of range: 3"
        );
        let bad_window = quick("bad-window").with_detector(DetectionMode::Windowed {
            window: 0,
            tolerance: 0,
        });
        assert_eq!(
            ScenarioRunner::try_new(&bad_window)
                .unwrap_err()
                .to_string(),
            "detector window over 4 sensors is out of range: 0"
        );
        for (bad, parameter) in [
            (
                Scenario::new("w", SuiteSpec::Widths(vec![1.0, f64::NAN])),
                "sensor 1 width",
            ),
            (
                quick("t").with_truth(TruthSpec::Constant(f64::INFINITY)),
                "truth",
            ),
            (
                quick("s").with_fault(
                    0,
                    FaultModel::new(FaultKind::Scale { factor: f64::NAN }, 1.0),
                ),
                "sensor 0 fault value",
            ),
            (
                quick("h").with_fuser(FuserSpec::Historical {
                    max_rate: 3.5,
                    dt: 0.0,
                }),
                "historical dt",
            ),
        ] {
            assert!(
                matches!(
                    ScenarioRunner::try_new(&bad),
                    Err(ScenarioError::InvalidParameter { parameter: p, .. }) if p == parameter
                ),
                "{parameter}"
            );
        }
        // Errors render as readable messages.
        let err = ScenarioRunner::try_new(&bad_fault).unwrap_err();
        assert!(err.to_string().contains("fault sensor index 9"));
        // And everything validate accepts builds.
        assert!(ScenarioRunner::try_new(&quick("fine")).is_ok());
    }

    #[test]
    fn random_attacker_on_an_empty_suite_runs() {
        // Regression: the per-round redraw panicked on an empty range.
        let empty = Scenario::new("empty", SuiteSpec::Widths(vec![]))
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_rounds(5);
        let summary = ScenarioRunner::new(&empty).run();
        assert_eq!((summary.rounds, summary.fusion_failures), (5, 5));
    }

    #[test]
    fn closed_loop_faults_and_nonphantom_attacks_run() {
        // Regression: these exact combinations used to panic while the
        // closed-loop scenario was mapped onto the vehicle, before the
        // engines were routed through the pipeline's fault/attacker
        // machinery.
        use crate::scenario::ClosedLoopSpec;
        use arsf_sensor::{FaultKind, FaultModel};
        let base = Scenario::new("cl", SuiteSpec::Landshark)
            .with_rounds(60)
            .with_closed_loop(ClosedLoopSpec::new(10.0));
        let faulted = base
            .clone()
            .with_fault(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.2));
        let greedy = base.clone().with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::GreedyHigh,
        });
        let truthful = base.clone().with_attacker(AttackerSpec::Fixed {
            sensors: vec![1],
            strategy: StrategySpec::Truthful,
        });
        let hull = base.clone().with_fuser(FuserSpec::Hull);
        let everything = base
            .with_fault(3, FaultModel::new(FaultKind::Silent, 0.5))
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::GreedyLow,
            })
            .with_fuser(FuserSpec::BrooksIyengar)
            .with_schedule(SchedulePolicy::Descending);
        for scenario in [faulted, greedy, truthful, hull, everything] {
            scenario.validate().expect("supported combination");
            let summary = ScenarioRunner::new(&scenario).run();
            assert_eq!(summary.rounds, 60, "{} stalled", summary.fuser);
            assert!(
                summary.supervisor.is_some(),
                "closed-loop rows carry supervisor stats"
            );
        }
    }

    #[test]
    fn platoon_summaries_carry_per_vehicle_statistics() {
        use crate::scenario::ClosedLoopSpec;
        let scenario = Scenario::new("pv", SuiteSpec::Landshark)
            .with_rounds(120)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(3, 0.01));
        let mut runner = ScenarioRunner::new(&scenario);
        let summary = runner.run();
        assert_eq!(summary.vehicles.len(), 3, "one aggregate per vehicle");
        for (i, vehicle) in summary.vehicles.iter().enumerate() {
            assert_eq!(
                vehicle.widths.count() + vehicle.fusion_failures,
                120,
                "vehicle {i} accounts for every control period"
            );
        }
        // The leader's aggregate is exactly the summary's headline stats.
        assert_eq!(summary.vehicles[0].widths, summary.widths);
        assert_eq!(summary.vehicles[0].truth_lost, summary.truth_lost);
        // Statistics are cumulative, like the supervisor's.
        let again = runner.run();
        assert_eq!(
            again.vehicles[0].widths.count() + again.vehicles[0].fusion_failures,
            240
        );
        // Single-vehicle and open-loop runs carry no per-vehicle rows.
        let single = Scenario::new("sv", SuiteSpec::Landshark)
            .with_rounds(20)
            .with_closed_loop(ClosedLoopSpec::new(10.0));
        assert!(ScenarioRunner::new(&single).run().vehicles.is_empty());
        assert!(ScenarioRunner::new(&quick("ol")).run().vehicles.is_empty());
    }

    #[test]
    fn attacked_descending_widens_relative_to_ascending() {
        // The paper's schedule result through the declarative API.
        let base = quick("sched").with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        });
        let asc = ScenarioRunner::new(&base.clone().with_schedule(SchedulePolicy::Ascending)).run();
        let desc = ScenarioRunner::new(&base.with_schedule(SchedulePolicy::Descending)).run();
        assert!(desc.widths.mean() > asc.widths.mean());
        assert_eq!(asc.truth_lost, 0, "fa <= f keeps the truth");
        assert_eq!(desc.truth_lost, 0, "fa <= f keeps the truth");
    }
}
