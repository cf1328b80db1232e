//! Cross-crate integration: the Table I shape on coarse grids (the full
//! grid is exercised by the `repro_table1` release binary; these tests
//! keep debug-build times reasonable).

use arsf::attack::expectimax::AttackerStyle;
use arsf::schedule::SchedulePolicy;
use arsf_bench::table1::{evaluate_set, evaluate_setup, most_precise_set, Table1Setup};

#[test]
fn descending_dominates_ascending_on_paper_like_setups() {
    // Scaled-down versions of the paper's setups (half-size widths,
    // coarse grid) so the exhaustive enumeration stays cheap in debug.
    let setups = [
        Table1Setup::new([3.0, 5.0, 9.0], 1),
        Table1Setup::new([3.0, 5.0, 5.0], 1),
        Table1Setup::new([2.0, 4.0, 8.0, 10.0], 1),
    ];
    for setup in &setups {
        let row = evaluate_setup(setup, 1.0);
        let (asc, desc) = (row.ascending_adv(), row.descending_adv());
        assert!(
            row.gap() >= -1e-9,
            "{}: ascending {} vs descending {}",
            setup.label(),
            asc.expected_width,
            desc.expected_width
        );
        assert!(row.honest <= asc.expected_width + 1e-9);
        assert!(row.honest > 0.0);
    }
}

#[test]
fn gap_widens_with_dissimilar_interval_sizes() {
    // The paper: "expected lengths of the two schedules are similar when
    // interval sizes were comparable, while they tend to get further
    // apart when there are large differences in sizes."
    let similar = Table1Setup::new([4.0, 5.0, 6.0], 1);
    let dissimilar = Table1Setup::new([2.0, 5.0, 12.0], 1);
    let row_similar = evaluate_setup(&similar, 1.0);
    let row_dissimilar = evaluate_setup(&dissimilar, 1.0);
    assert!(
        row_dissimilar.gap() > row_similar.gap(),
        "dissimilar gap {} must exceed similar gap {}",
        row_dissimilar.gap(),
        row_similar.gap()
    );
}

#[test]
fn precise_attacked_set_is_blind_under_ascending() {
    // With the most precise sensor compromised and fa = 1, Ascending
    // forces a passive, zero-slack (truthful) transmission: the attacked
    // expectation equals the honest one.
    let setup = Table1Setup::new([3.0, 5.0, 9.0], 1);
    let row = evaluate_setup(&setup, 1.0);
    let precise = most_precise_set(&setup);
    let fixed = |policy| {
        evaluate_set(&setup, &policy, &precise, 1.0, AttackerStyle::Optimal).expected_width
    };
    let asc_fixed = fixed(SchedulePolicy::Ascending);
    assert!(
        (asc_fixed - row.honest).abs() < 1e-9,
        "blind precise attacker must match honest: {asc_fixed} vs {}",
        row.honest
    );
    // While Descending hands the same attacker full knowledge.
    let desc_fixed = fixed(SchedulePolicy::Descending);
    assert!(desc_fixed > asc_fixed);
}
