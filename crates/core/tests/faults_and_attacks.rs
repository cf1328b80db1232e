//! Random faults in addition to attacks — the paper's Section V
//! extension — through the declarative runner.
//!
//! The paper assumes uncompromised sensors are always correct and names
//! random faults as future work; footnote 1 sketches the windowed
//! detector that would tolerate them. These scenarios run the LandShark
//! suite with **both** a transiently faulty GPS and a stealthy attacker
//! on encoder 0, and check what breaks: truth loss (the `fa ≤ f`
//! guarantee is void in rounds where fault plus attack exceed `f`),
//! outright fusion failures, and the windowed detector's trade between
//! condemning the faulty sensor and condemning healthy ones.

use arsf_core::scenario::{AttackerSpec, Scenario, StrategySpec, SuiteSpec};
use arsf_core::{BatchSummary, DetectionMode, RoundOutcome, ScenarioRunner};
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};

/// The transiently faulty sensor (the GPS).
const FAULTY: usize = 2;

/// The GPS biased by +3 mph in a `probability` share of rounds, encoder
/// 0 forged by `PhantomOptimal`, a 20-round window tolerating
/// `tolerance` violations, Ascending schedule, seed 7.
fn faulty_gps(probability: f64, tolerance: usize) -> Scenario {
    Scenario::new("faults-and-attacks", SuiteSpec::Landshark)
        .with_fault(
            FAULTY,
            FaultModel::new(FaultKind::Bias { offset: 3.0 }, probability),
        )
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_detector(DetectionMode::Windowed {
            window: 20,
            tolerance,
        })
        .with_seed(7)
}

/// What one run measured beyond its [`BatchSummary`].
struct Condemnations {
    /// The first round whose condemned set holds the faulty sensor.
    faulty_at: Option<usize>,
    /// Distinct healthy sensors ever condemned.
    false_condemnations: usize,
}

fn run(scenario: &Scenario, rounds: usize) -> (BatchSummary, Condemnations) {
    let mut outcomes: Vec<RoundOutcome> = Vec::new();
    let summary = ScenarioRunner::new(scenario).run_batch(rounds, &mut outcomes);
    let faulty_at = outcomes
        .iter()
        .position(|out| out.condemned.contains(&FAULTY));
    let mut healthy: Vec<usize> = outcomes
        .iter()
        .flat_map(|out| out.condemned.iter().copied())
        .filter(|&sensor| sensor != FAULTY)
        .collect();
    healthy.sort_unstable();
    healthy.dedup();
    let condemnations = Condemnations {
        faulty_at,
        false_condemnations: healthy.len(),
    };
    (summary, condemnations)
}

#[test]
fn rare_faults_survive_a_tolerant_window() {
    let (summary, condemned) = run(&faulty_gps(0.05, 6), 600);
    assert_eq!(condemned.faulty_at, None, "5% faults fit 6-in-20");
    assert_eq!(condemned.false_condemnations, 0);
    assert_eq!(summary.fusion_failures, 0);
}

#[test]
fn persistent_faults_are_condemned_quickly() {
    let (_, condemned) = run(&faulty_gps(0.9, 4), 600);
    let at = condemned
        .faulty_at
        .expect("90% fault rate must be condemned");
    assert!(at < 20, "condemned within the first window, got {at}");
    assert_eq!(condemned.false_condemnations, 0);
}

#[test]
fn over_budget_rounds_are_loud_and_truth_loss_stays_rare() {
    // f = 1 but fault + attack make 2 misbehaving sensors in some
    // rounds: the paper's guarantee is void. The blatant fault keeps the
    // overlap check firing (the system is not blind), the faulty sensor
    // is condemned, and even then the conservative stealthy attacker
    // rarely pushes the truth out of the fusion interval (her forgery
    // must stay anchored to evidence she cannot tell from the truth).
    let scenario = faulty_gps(0.5, 4).with_schedule(SchedulePolicy::Descending);
    let (summary, condemned) = run(&scenario, 2_000);
    assert!(summary.flagged_rounds > 200, "the fault must be noticed");
    assert!(condemned.faulty_at.is_some());
    assert_eq!(condemned.false_condemnations, 0);
    assert!(
        summary.truth_lost < summary.rounds / 20,
        "silent truth loss must stay rare: {} of {}",
        summary.truth_lost,
        summary.rounds
    );
}

#[test]
fn ascending_neutralises_the_attacker_even_with_faults() {
    // The schedule result extends: under Ascending the fault is the only
    // misbehaviour, so the fault budget f = 1 always covers it.
    let (summary, _) = run(&faulty_gps(0.5, 4), 1_000);
    assert_eq!(summary.truth_lost, 0);
    assert_eq!(summary.fusion_failures, 0);
}

#[test]
fn fault_only_baseline_never_loses_truth() {
    // Without the attacker, a single fault stays within f = 1 and the
    // fusion always contains the truth.
    let scenario = faulty_gps(0.3, 4).with_attacker(AttackerSpec::None);
    let (summary, _) = run(&scenario, 800);
    assert_eq!(summary.truth_lost, 0);
    assert_eq!(summary.fusion_failures, 0);
}
