//! The Table I experiment engine: expected fusion-interval width under
//! the Ascending vs Descending schedules.
//!
//! Method (paper Section IV-A, reproduced exactly): for each setup
//! `(n, fa, L)` the fusion runs with `f = ⌈n/2⌉ − 1`; all combinations of
//! grid measurements are enumerated and the average fusion width is the
//! expectation. The attacker solves the limited-information problem (2)
//! at each of her slots (the [`arsf_attack::expectimax`] engine).
//!
//! The paper does not pin down *which* sensors are compromised, so
//! [`evaluate_setup`] evaluates every size-`fa` compromised set once per
//! schedule into a per-set table ([`Table1Row::ascending`],
//! [`Table1Row::descending`]: the set, its expected width and its leaves,
//! in [`subsets`] order). Every column reads that table: `(adv)` takes
//! the attacker's best set, the first maximum in table order (Theorems
//! 3/4 say precise sensors are the profitable targets, but which precise
//! sensor depends on its slot, which depends on the schedule), and
//! `asc*`/`desc*` take the [`most_precise_set`] entry. A set whose
//! attacker is not stealthy in every branch fails the evaluation in
//! every build.

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

/// One compromised set's exact evaluation under one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SetOutcome {
    /// The compromised sensors, ascending.
    pub set: Vec<usize>,
    /// `E|S_{N,f}|` with this set compromised.
    pub expected_width: f64,
    /// The leaves the exact enumeration visited.
    pub leaves: u64,
}

/// One evaluated Table I row: every size-`fa` compromised set under each
/// schedule, in [`subsets`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The setup.
    pub setup: Table1Setup,
    /// The no-attack expectation (not in the paper's table; included as
    /// the honest baseline).
    pub honest: f64,
    /// Every compromised set under the Ascending schedule.
    pub ascending: Vec<SetOutcome>,
    /// Every compromised set under the Descending schedule.
    pub descending: Vec<SetOutcome>,
}

impl Table1Row {
    /// `asc (adv)`: the Ascending set of widest expected width, the first
    /// in table order on a tie.
    pub fn ascending_adv(&self) -> &SetOutcome {
        first_max(&self.ascending)
    }

    /// `desc (adv)`: the Descending set of widest expected width.
    pub fn descending_adv(&self) -> &SetOutcome {
        first_max(&self.descending)
    }

    /// The Descending-minus-Ascending `(adv)` gap the paper's argument
    /// predicts to be non-negative.
    pub fn gap(&self) -> f64 {
        self.descending_adv().expected_width - self.ascending_adv().expected_width
    }
}

/// The first set of widest expected width. A row from [`evaluate_setup`]
/// holds `C(n, fa)` sets, at least one for `fa ≤ n`.
fn first_max(sets: &[SetOutcome]) -> &SetOutcome {
    sets.iter().fold(&sets[0], |best, set| {
        if set.expected_width > best.expected_width {
            set
        } else {
            best
        }
    })
}

/// Evaluates one setup at the given grid step: the honest expectation
/// and every size-`fa` compromised set under both schedules with the
/// [`AttackerStyle::Optimal`] attacker.
///
/// Smaller steps reproduce the paper's "sufficiently high precision"
/// discretisation at higher cost; `step = 1.0` matches the integer grid
/// its interval lengths suggest.
///
/// # Panics
///
/// Panics as [`evaluate_set`] does.
pub fn evaluate_setup(setup: &Table1Setup, step: f64) -> Table1Row {
    let honest_scenario = GridScenario::new(setup.widths.clone(), vec![], setup.f(), step);
    let sets = |policy: SchedulePolicy| -> Vec<SetOutcome> {
        subsets(setup.widths.len(), setup.fa)
            .iter()
            .map(|set| evaluate_set(setup, &policy, set, step, AttackerStyle::Optimal))
            .collect()
    };
    Table1Row {
        setup: setup.clone(),
        honest: expected_honest_width(&honest_scenario),
        ascending: sets(SchedulePolicy::Ascending),
        descending: sets(SchedulePolicy::Descending),
    }
}

/// The exact expected width under one schedule for one compromised set
/// and attacker capability model: [`AttackerStyle::Optimal`] is the
/// paper's attacker, [`AttackerStyle::OneSidedHigh`] the weaker one whose
/// magnitudes track the paper's reported values.
///
/// # Panics
///
/// Panics, naming the setup, schedule and set, when the attacker is not
/// stealthy in every enumerated branch (an engine defect: its truthful
/// reading is always a stealthy candidate), and as [`GridScenario::new`]
/// does for a set of `n − f` or more sensors.
pub fn evaluate_set(
    setup: &Table1Setup,
    policy: &SchedulePolicy,
    set: &[usize],
    step: f64,
    style: AttackerStyle,
) -> SetOutcome {
    // Deterministic policies ignore the RNG; seeded for the Random case.
    let mut rng = StdRng::seed_from_u64(0);
    let order = policy.order(&setup.widths, 0, &mut rng);
    let scenario =
        GridScenario::new(setup.widths.clone(), set.to_vec(), setup.f(), step).with_style(style);
    let outcome = expected_fusion_width(&scenario, &order);
    assert!(
        outcome.stealthy,
        "{}, {} schedule, compromised set {set:?}: the {style:?} attacker is not stealthy \
         in every branch",
        setup.label(),
        policy.name()
    );
    SetOutcome {
        set: set.to_vec(),
        expected_width: outcome.expected_width,
        leaves: outcome.leaves,
    }
}

/// The most leaves, by [`leaf_bound`], `repro_table1` may enumerate: the
/// eight setups come to 3.5e17 at step 0.5 and 3.2e15 at step 1.
pub const LEAF_BUDGET: f64 = 1e18;

/// An upper bound on the leaves of one setup's at most `2·C(n, fa) + 3`
/// exact evaluations (the honest mean, every set under both schedules
/// and `--one-sided`'s two starred sets) at grid step `step` (`inf` on
/// overflow). With `m` the
/// widest width, a leaf picks each attacker's own reading and each slot's
/// interval: a measurement grid has at most `m/step + 2` points, and a
/// forged slot scans a lattice window of at most `(4·fa + 1)·m` (the bus
/// spans `2m` around the truth, padded by `3m`, plus `4m` per earlier
/// forgery) and its own reading.
pub fn leaf_bound(setup: &Table1Setup, step: f64) -> f64 {
    let (n, fa) = (setup.widths.len() as i32, setup.fa as i32);
    let cells = setup.widths.iter().copied().fold(0.0_f64, f64::max) / step;
    let sets = (0..fa).fold(1.0, |c, i| c * f64::from(n - i) / f64::from(i + 1));
    (2.0 * sets + 3.0) * (cells + 2.0).powi(fa) * (f64::from(4 * fa + 1) * cells + 4.0).powi(n)
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
        let (asc, desc) = (row.ascending_adv(), row.descending_adv());
        assert!(
            row.gap() >= -1e-9,
            "ascending {} vs descending {}",
            asc.expected_width,
            desc.expected_width
        );
        assert!(row.honest <= asc.expected_width + 1e-9);
    }

    #[test]
    fn attacked_set_is_reported() {
        let setup = Table1Setup::new([2.0, 4.0, 6.0], 1);
        let row = evaluate_setup(&setup, 2.0);
        assert_eq!(row.ascending_adv().set.len(), 1);
        assert_eq!(row.descending_adv().set.len(), 1);
    }

    #[test]
    fn leaf_bound_covers_every_evaluation_and_admits_half_steps() {
        for (setup, step) in [
            (Table1Setup::new([2.0, 4.0, 6.0], 1), 2.0),
            (Table1Setup::new([5.0, 8.0, 8.0, 11.0], 1), 2.0),
            (Table1Setup::new([5.0, 5.0, 5.0, 14.0, 17.0], 2), 4.0),
        ] {
            let row = evaluate_setup(&setup, step);
            let leaves: u64 = row
                .ascending
                .iter()
                .chain(&row.descending)
                .map(|s| s.leaves)
                .sum();
            assert!(
                (leaves as f64) < leaf_bound(&setup, step),
                "{}",
                setup.label()
            );
        }
        let run = |step: f64| -> f64 { paper_setups().iter().map(|s| leaf_bound(s, step)).sum() };
        assert!(run(0.5) <= LEAF_BUDGET);
        assert!(run(0.01) > LEAF_BUDGET);
        assert_eq!(run(1e-300), f64::INFINITY);
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
        let row = evaluate_setup(&setup, 2.0);
        let precise = most_precise_set(&setup);
        for (policy, best) in [
            (SchedulePolicy::Ascending, row.ascending_adv()),
            (SchedulePolicy::Descending, row.descending_adv()),
        ] {
            let fixed = evaluate_set(&setup, &policy, &precise, 2.0, AttackerStyle::Optimal);
            assert!(fixed.expected_width <= best.expected_width + 1e-9);
        }
    }

    #[test]
    fn first_paper_row_reproduces_the_shape_on_a_coarse_grid() {
        // n = 3, fa = 1, L = {5, 11, 17} with a coarse grid: the ordering
        // (Descending > Ascending) must already show.
        let setup = Table1Setup::new([5.0, 11.0, 17.0], 1);
        let row = evaluate_setup(&setup, 4.0);
        let (asc, desc) = (row.ascending_adv(), row.descending_adv());
        assert!(
            desc.expected_width > asc.expected_width,
            "descending {} must exceed ascending {}",
            desc.expected_width,
            asc.expected_width
        );
    }
}
