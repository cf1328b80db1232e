//! The Table I experiment engine: expected fusion-interval width under
//! the Ascending vs Descending schedules.
//!
//! Method (paper Section IV-A, reproduced exactly): for each setup
//! `(n, fa, L)` the fusion runs with `f = ⌈n/2⌉ − 1`; all combinations of
//! grid measurements are enumerated and the average fusion width is the
//! expectation. The attacker solves the limited-information problem (2)
//! at each of her slots (the [`arsf_attack::expectimax`] engine).
//!
//! The paper does not pin down *which* sensors are compromised, so the
//! engine takes the adversarial view: for every schedule, the attacker
//! chooses the size-`fa` compromised set that maximises the expected
//! width. (Theorems 3/4 say precise sensors are the profitable targets,
//! but which precise sensor depends on its slot, which depends on the
//! schedule — enumerating subsets resolves this cleanly.)

use arsf_attack::expectimax::{
    expected_fusion_width, expected_honest_width, AttackerStyle, GridScenario,
};
use arsf_attack::worst_case::subsets;
use arsf_fusion::marzullo::max_bounded_f;
use arsf_schedule::SchedulePolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One Table I experimental setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Setup {
    /// Interval widths `L` (the paper's length multiset), id order.
    pub widths: Vec<f64>,
    /// Number of compromised sensors `fa`.
    pub fa: usize,
}

impl Table1Setup {
    /// Creates a setup.
    pub fn new(widths: impl Into<Vec<f64>>, fa: usize) -> Self {
        Self {
            widths: widths.into(),
            fa,
        }
    }

    /// The paper's label, e.g. `n = 3, fa = 1, L = {5, 11, 17}`.
    pub fn label(&self) -> String {
        let lens: Vec<String> = self.widths.iter().map(|w| format!("{w}")).collect();
        format!(
            "n = {}, fa = {}, L = {{{}}}",
            self.widths.len(),
            self.fa,
            lens.join(", ")
        )
    }

    /// The fusion fault assumption the paper uses: `⌈n/2⌉ − 1`.
    pub fn f(&self) -> usize {
        max_bounded_f(self.widths.len())
    }
}

/// The eight setups of the paper's Table I.
pub fn paper_setups() -> Vec<Table1Setup> {
    vec![
        Table1Setup::new([5.0, 11.0, 17.0], 1),
        Table1Setup::new([5.0, 11.0, 11.0], 1),
        Table1Setup::new([5.0, 8.0, 17.0, 20.0], 1),
        Table1Setup::new([5.0, 8.0, 8.0, 11.0], 1),
        Table1Setup::new([5.0, 5.0, 5.0, 5.0, 20.0], 1),
        Table1Setup::new([5.0, 5.0, 5.0, 14.0, 20.0], 1),
        Table1Setup::new([5.0, 5.0, 5.0, 5.0, 20.0], 2),
        Table1Setup::new([5.0, 5.0, 5.0, 14.0, 17.0], 2),
    ]
}

/// One evaluated Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The setup.
    pub setup: Table1Setup,
    /// `E|S_{N,f}|` under the Ascending schedule (adversarial attacker).
    pub ascending: f64,
    /// `E|S_{N,f}|` under the Descending schedule.
    pub descending: f64,
    /// The no-attack expectation (not in the paper's table; included as
    /// the honest baseline).
    pub honest: f64,
    /// The compromised set the attacker chose under Ascending.
    pub ascending_attacked: Vec<usize>,
    /// The compromised set the attacker chose under Descending.
    pub descending_attacked: Vec<usize>,
}

impl Table1Row {
    /// The Descending-minus-Ascending gap the paper's argument predicts
    /// to be non-negative.
    pub fn gap(&self) -> f64 {
        self.descending - self.ascending
    }
}

/// Evaluates one setup at the given grid step.
///
/// Smaller steps reproduce the paper's "sufficiently high precision"
/// discretisation at higher cost; `step = 1.0` matches the integer grid
/// its interval lengths suggest.
pub fn evaluate_setup(setup: &Table1Setup, step: f64) -> Table1Row {
    let honest_scenario = GridScenario::new(setup.widths.clone(), vec![], setup.f(), step);
    let honest = expected_honest_width(&honest_scenario);

    let (ascending, ascending_attacked) =
        evaluate_schedule(setup, &SchedulePolicy::Ascending, step);
    let (descending, descending_attacked) =
        evaluate_schedule(setup, &SchedulePolicy::Descending, step);

    Table1Row {
        setup: setup.clone(),
        ascending,
        descending,
        honest,
        ascending_attacked,
        descending_attacked,
    }
}

/// The adversarial expected width under one schedule: maximum over all
/// size-`fa` compromised sets.
pub(crate) fn evaluate_schedule(
    setup: &Table1Setup,
    policy: &SchedulePolicy,
    step: f64,
) -> (f64, Vec<usize>) {
    let n = setup.widths.len();
    let mut best = f64::NEG_INFINITY;
    let mut best_set = Vec::new();
    for candidate in subsets(n, setup.fa) {
        let width =
            evaluate_schedule_styled(setup, policy, &candidate, step, AttackerStyle::Optimal);
        if width > best {
            best = width;
            best_set = candidate;
        }
    }
    (best, best_set)
}

/// The expected width under one schedule for a **fixed** compromised set
/// (e.g. the `fa` most precise sensors, the profitable target Theorems 3
/// and 4 point at) and attacker capability model:
/// [`AttackerStyle::Optimal`] is the paper's attacker,
/// [`AttackerStyle::OneSidedHigh`] the weaker one whose magnitudes track
/// the paper's reported values.
pub fn evaluate_schedule_styled(
    setup: &Table1Setup,
    policy: &SchedulePolicy,
    attacked: &[usize],
    step: f64,
    style: AttackerStyle,
) -> f64 {
    let f = setup.f();
    // Deterministic policies ignore the RNG; seeded for the Random case.
    let mut rng = StdRng::seed_from_u64(0);
    let order = policy.order(&setup.widths, 0, &mut rng);
    let scenario =
        GridScenario::new(setup.widths.clone(), attacked.to_vec(), f, step).with_style(style);
    let outcome = expected_fusion_width(&scenario, &order);
    debug_assert!(outcome.stealthy, "expectimax attacker must stay stealthy");
    outcome.expected_width
}

/// The indices of the `fa` most precise (smallest-width) sensors, ties
/// broken by index — the compromised set Theorem 4 says is the most
/// profitable.
pub fn most_precise_set(setup: &Table1Setup) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..setup.widths.len()).collect();
    idx.sort_by(|&a, &b| setup.widths[a].total_cmp(&setup.widths[b]).then(a.cmp(&b)));
    idx.truncate(setup.fa);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setups_have_eight_rows_with_valid_fa() {
        let setups = paper_setups();
        assert_eq!(setups.len(), 8);
        for s in &setups {
            assert!(s.fa <= s.f(), "{}: fa must not exceed f", s.label());
        }
    }

    #[test]
    fn labels_match_paper_notation() {
        let s = Table1Setup::new([5.0, 11.0, 17.0], 1);
        assert_eq!(s.label(), "n = 3, fa = 1, L = {5, 11, 17}");
        assert_eq!(s.f(), 1);
    }

    #[test]
    fn descending_never_beats_ascending_for_the_defender() {
        // Small synthetic setup on a coarse grid so the test stays fast
        // in debug builds; the repro binary runs the paper's full grid.
        let setup = Table1Setup::new([2.0, 4.0, 6.0], 1);
        let row = evaluate_setup(&setup, 2.0);
        assert!(
            row.gap() >= -1e-9,
            "ascending {} vs descending {}",
            row.ascending,
            row.descending
        );
        assert!(row.honest <= row.ascending + 1e-9);
    }

    #[test]
    fn attacked_set_is_reported() {
        let setup = Table1Setup::new([2.0, 4.0, 6.0], 1);
        let row = evaluate_setup(&setup, 2.0);
        assert_eq!(row.ascending_attacked.len(), 1);
        assert_eq!(row.descending_attacked.len(), 1);
    }

    #[test]
    fn most_precise_set_picks_smallest_widths() {
        let setup = Table1Setup::new([5.0, 5.0, 5.0, 14.0, 17.0], 2);
        assert_eq!(most_precise_set(&setup), vec![0, 1]);
        let setup = Table1Setup::new([17.0, 5.0, 11.0], 1);
        assert_eq!(most_precise_set(&setup), vec![1]);
    }

    #[test]
    fn fixed_set_never_exceeds_adversarial_choice() {
        let setup = Table1Setup::new([2.0, 4.0, 6.0], 1);
        for policy in [SchedulePolicy::Ascending, SchedulePolicy::Descending] {
            let (best, _) = evaluate_schedule(&setup, &policy, 2.0);
            let precise = most_precise_set(&setup);
            let fixed =
                evaluate_schedule_styled(&setup, &policy, &precise, 2.0, AttackerStyle::Optimal);
            assert!(fixed <= best + 1e-9);
        }
    }

    #[test]
    fn first_paper_row_reproduces_the_shape_on_a_coarse_grid() {
        // n = 3, fa = 1, L = {5, 11, 17} with a coarse grid: the ordering
        // (Descending > Ascending) must already show.
        let setup = Table1Setup::new([5.0, 11.0, 17.0], 1);
        let row = evaluate_setup(&setup, 4.0);
        assert!(
            row.descending > row.ascending,
            "descending {} must exceed ascending {}",
            row.descending,
            row.ascending
        );
    }
}
