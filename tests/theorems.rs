//! Cross-crate integration: the paper's theorems exercised through the
//! public API on top of the full stack.

use arsf::attack::full_knowledge::optimal_attack;
use arsf::attack::worst_case::{attacked_worst_case, global_worst_case, no_attack_worst_case};
use arsf::fusion::bounds::{check_bounds, theorem2_bound};
use arsf::fusion::marzullo::{fuse, is_bounded_assumption, max_bounded_f};
use arsf::interval::ops::disjoint_indices;
use arsf::prelude::*;

fn iv(lo: f64, hi: f64) -> Interval<f64> {
    Interval::new(lo, hi).unwrap()
}

#[test]
fn marzullo_boundedness_conditions() {
    // f < ceil(n/3): bounded by a correct width; f < ceil(n/2): by some
    // width; beyond: unbounded (paper Section II-A).
    assert!(is_bounded_assumption(5, 2));
    assert!(!is_bounded_assumption(5, 3));
    assert_eq!(max_bounded_f(4), 1);

    // An unbounded-regime example: f = 2 of n = 3 lets two colluding
    // intervals drag the fusion arbitrarily far from the truth.
    let far = [iv(9.0, 11.0), iv(500.0, 501.0), iv(500.5, 501.5)];
    let fused = fuse(&far, 2).unwrap();
    assert!(fused.width() > 400.0);
    assert!(fused.contains(10.0)); // hull still includes it here,
                                   // but no guarantee exists
}

#[test]
fn theorem2_bound_is_tight_and_respected() {
    // Tightness: two correct intervals touching exactly at the truth.
    let correct = [iv(-5.0, 0.0), iv(0.0, 7.0)];
    let attack = optimal_attack(&correct, &[12.0], 1).unwrap();
    let bound = theorem2_bound(&correct).unwrap();
    assert_eq!(attack.width(), bound, "the bound is achieved");

    // Respected on an arbitrary attacked configuration.
    let all = [iv(-1.0, 1.0), iv(-0.5, 1.5), attack.placements[0]];
    let report = check_bounds(&all, &[0, 1], 1).unwrap();
    assert!(report.holds);
}

#[test]
fn theorem3_attacking_largest_changes_nothing() {
    let widths = [1.0, 3.0, 5.0];
    let na = no_attack_worst_case(&widths, 1, 0.5).unwrap();
    let largest = attacked_worst_case(&widths, &[2], 1, 0.5).unwrap();
    assert!((na.width - largest.width).abs() < 1e-9);
}

#[test]
fn theorem4_attacking_smallest_is_globally_worst() {
    let widths = [1.0, 3.0, 5.0];
    let (_, global) = global_worst_case(&widths, 1, 1, 0.5).unwrap();
    let smallest = attacked_worst_case(&widths, &[0], 1, 0.5).unwrap();
    assert!((global.width - smallest.width).abs() < 1e-9);
    // And it strictly exceeds the no-attack worst case on this geometry.
    let na = no_attack_worst_case(&widths, 1, 0.5).unwrap();
    assert!(smallest.width > na.width);
}

#[test]
fn fig2_no_optimal_policy_under_partial_information() {
    let demo = arsf::attack::regret::fig2_demo();
    assert!(demo.one_sided.1.regret() > 0.0);
    assert!(demo.two_sided.1.regret() > 0.0);
}

#[test]
fn detector_soundness_no_false_positives_when_fa_at_most_f() {
    // A correct interval always intersects the fusion interval, so the
    // overlap detector can never flag a correct sensor (the asymmetry the
    // stealthy attacker exploits).
    let correct = [iv(9.0, 11.0), iv(9.5, 10.5), iv(8.0, 12.0)];
    let attack = optimal_attack(&correct, &[2.0], 1).unwrap();
    let mut all = correct.to_vec();
    all.push(attack.placements[0]);
    let fused = fuse(&all, 1).unwrap();
    assert!(disjoint_indices(&all, &fused).is_empty());
}
