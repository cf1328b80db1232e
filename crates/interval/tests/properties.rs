//! Property-based tests for the interval substrate.
//!
//! These pin down the algebraic laws the fusion and attack layers rely on:
//! intersection/hull lattice laws, closed-interval overlap semantics, and
//! agreement between the *k*-coverage kernel and the full coverage map.

use arsf_interval::coverage::{k_covered_span, CoverageMap};
use arsf_interval::ops::{hull_all, intersection_all, two_widest_sum};
use arsf_interval::{Interval, Scalar};
use proptest::prelude::*;

/// Strategy: a finite, reasonably-sized interval on an integer grid
/// (exact arithmetic keeps the oracle comparisons trivial).
fn grid_interval() -> impl Strategy<Value = Interval<i64>> {
    (-100_i64..100, 0_i64..50)
        .prop_map(|(lo, w)| Interval::new(lo, lo + w).expect("constructed ordered"))
}

fn grid_intervals(max: usize) -> impl Strategy<Value = Vec<Interval<i64>>> {
    prop::collection::vec(grid_interval(), 1..=max)
}

/// Oracle: coverage of point x by brute force.
fn coverage_brute(intervals: &[Interval<i64>], x: i64) -> usize {
    intervals.iter().filter(|s| s.contains(x)).count()
}

/// Coverage at `x` read off the map's profile: the point coverage at a
/// breakpoint, the enclosing open segment's coverage between two, and
/// zero outside the profile.
fn coverage_from_map(map: &CoverageMap<i64>, x: i64) -> usize {
    let points = map.breakpoints();
    match points.binary_search(&x) {
        Ok(i) => map.point_coverages()[i],
        Err(i) if i == 0 || i == points.len() => 0,
        Err(i) => map.segment_coverages()[i - 1],
    }
}

/// Oracle: k-covered span by scanning every grid point.
fn k_span_brute(intervals: &[Interval<i64>], k: usize) -> Option<Interval<i64>> {
    if k == 0 {
        return None;
    }
    let lo = intervals.iter().map(|s| s.lo()).min()?;
    let hi = intervals.iter().map(|s| s.hi()).max()?;
    let mut first = None;
    let mut last = None;
    // Integer endpoints mean coverage can only change at integers, so a
    // unit-step scan visits every breakpoint.
    let mut x = lo;
    while x <= hi {
        if coverage_brute(intervals, x) >= k {
            if first.is_none() {
                first = Some(x);
            }
            last = Some(x);
        }
        x += 1;
    }
    match (first, last) {
        (Some(a), Some(b)) => Some(Interval::new(a, b).unwrap()),
        _ => None,
    }
}

/// Strategy: 0 to 40 intervals on a coarse grid — both sides of the sweep
/// kernel's 32-interval stack buffer — where touching, duplicated and
/// zero-width intervals are common, paired with a `k` from 0 to `n + 1`.
fn crowded_intervals_and_k() -> impl Strategy<Value = (Vec<Interval<i64>>, usize)> {
    let crowded = (-12_i64..12, 0_i64..5)
        .prop_map(|(lo, w)| Interval::new(lo, lo + w).expect("constructed ordered"));
    prop::collection::vec(crowded, 0..=40).prop_flat_map(|xs| {
        let n = xs.len();
        (Just(xs), 0..=n + 1)
    })
}

/// Oracle: the k-coverage sweep as it was before the merge kernel — one
/// sorted list of `+1`/`−1` endpoint events, openings first at ties.
fn k_span_event_sort(intervals: &[Interval<i64>], k: usize) -> Option<Interval<i64>> {
    if k == 0 || k > intervals.len() {
        return None;
    }
    let mut events: Vec<(i64, i8)> = Vec::with_capacity(intervals.len() * 2);
    for s in intervals {
        events.push((s.lo(), 1));
        events.push((s.hi(), -1));
    }
    events.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut count = 0_usize;
    let (mut lo, mut hi) = (None, None);
    for (x, delta) in events {
        if delta == 1 {
            count += 1;
            if count >= k && lo.is_none() {
                lo = Some(x);
            }
        } else {
            if count >= k && count - 1 < k {
                hi = Some(x);
            }
            count -= 1;
        }
    }
    Some(Interval::new(lo?, hi?).unwrap())
}

proptest! {
    #[test]
    fn intersection_is_commutative(a in grid_interval(), b in grid_interval()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
    }

    #[test]
    fn hull_is_commutative_and_contains_both(a in grid_interval(), b in grid_interval()) {
        let h = a.hull(&b);
        prop_assert_eq!(h, b.hull(&a));
        prop_assert!(h.contains_interval(&a));
        prop_assert!(h.contains_interval(&b));
    }

    #[test]
    fn intersection_subset_of_operands(a in grid_interval(), b in grid_interval()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_interval(&i));
            prop_assert!(b.contains_interval(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn hull_absorbs_intersection(a in grid_interval(), b in grid_interval()) {
        // Lattice absorption: a ⊆ hull(a, a∩b ...) trivial; here check
        // intersection ⊆ hull.
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.hull(&b).contains_interval(&i));
        }
    }

    #[test]
    fn intersection_all_is_contained_in_every_input(xs in grid_intervals(8)) {
        if let Some(common) = intersection_all(&xs) {
            for s in &xs {
                prop_assert!(s.contains_interval(&common));
            }
        }
    }

    #[test]
    fn hull_all_contains_every_input(xs in grid_intervals(8)) {
        let h = hull_all(&xs).unwrap();
        for s in &xs {
            prop_assert!(h.contains_interval(s));
        }
    }

    #[test]
    fn helly_property_in_one_dimension(xs in grid_intervals(8)) {
        // In 1-D, pairwise intersection <=> non-empty common intersection.
        let pairwise = xs.iter().enumerate().all(|(i, a)| {
            xs.iter().skip(i + 1).all(|b| a.intersects(b))
        });
        prop_assert_eq!(pairwise, intersection_all(&xs).is_some());
    }

    #[test]
    fn sweep_agrees_with_bruteforce((xs, k) in crowded_intervals_and_k()) {
        let span = k_covered_span(&xs, k);
        prop_assert_eq!(span, k_span_brute(&xs, k), "n = {}, k = {}", xs.len(), k);
        prop_assert_eq!(span, k_span_event_sort(&xs, k), "n = {}, k = {}", xs.len(), k);
    }

    #[test]
    fn coverage_map_agrees_with_bruteforce(xs in grid_intervals(8), x in -120_i64..120) {
        let map = CoverageMap::build(&xs);
        prop_assert_eq!(coverage_from_map(&map, x), coverage_brute(&xs, x), "x = {}", x);
        // Every breakpoint, and one interior point of every open segment
        // wide enough to have one.
        let points = map.breakpoints();
        for (i, &p) in points.iter().enumerate() {
            prop_assert_eq!(map.point_coverages()[i], coverage_brute(&xs, p));
            if i + 1 < points.len() && points[i + 1] - p >= 2 {
                prop_assert_eq!(map.segment_coverages()[i], coverage_brute(&xs, p + 1));
            }
        }
    }

    #[test]
    fn coverage_map_span_agrees_with_sweep(xs in grid_intervals(8), k in 1_usize..10) {
        let map = CoverageMap::build(&xs);
        prop_assert_eq!(map.span_at_least(k), k_covered_span(&xs, k));
    }

    #[test]
    fn k_span_is_monotone_decreasing_in_k(xs in grid_intervals(8)) {
        // Higher k demands more agreement, so the span can only shrink.
        for k in 1..xs.len() {
            let wider = k_covered_span(&xs, k);
            let narrower = k_covered_span(&xs, k + 1);
            if let Some(narrow) = narrower {
                let wide = wider.expect("span at k exists if k+1 does");
                prop_assert!(wide.contains_interval(&narrow));
            }
        }
    }

    #[test]
    fn two_widest_sum_bounds_any_pairwise_hull_width(xs in grid_intervals(8)) {
        prop_assume!(xs.len() >= 2);
        let bound = two_widest_sum(&xs).unwrap();
        // For any two *intersecting* intervals, their hull width is at most
        // the sum of the two largest widths.
        for (i, a) in xs.iter().enumerate() {
            for b in xs.iter().skip(i + 1) {
                if a.intersects(b) {
                    prop_assert!(a.hull(b).width() <= bound);
                }
            }
        }
    }

    #[test]
    fn float_and_integer_sweeps_agree((xs, k) in crowded_intervals_and_k()) {
        let floats: Vec<Interval<f64>> = xs
            .iter()
            .map(|s| Interval::new(s.lo().to_f64(), s.hi().to_f64()).unwrap())
            .collect();
        let int_span = k_covered_span(&xs, k);
        let float_span = k_covered_span(&floats, k);
        match (int_span, float_span) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.lo().to_f64(), b.lo());
                prop_assert_eq!(a.hi().to_f64(), b.hi());
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "mismatch: {:?} vs {:?}", a, b),
        }
    }
}
