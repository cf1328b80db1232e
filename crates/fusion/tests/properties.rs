//! Property-based tests for the fusion crate: the paper's guarantees as
//! machine-checked invariants.

use arsf_fusion::bounds::{
    check_bounds, regime, static_theorem2_bound, theorem2_bound, BoundRegime,
};
use arsf_fusion::{brooks_iyengar, marzullo, naive};
use arsf_interval::ops::{hull_all, intersection_all};
use arsf_interval::Interval;
use proptest::prelude::*;

fn grid_interval() -> impl Strategy<Value = Interval<i64>> {
    (-60_i64..60, 0_i64..40)
        .prop_map(|(lo, w)| Interval::new(lo, lo + w).expect("ordered by construction"))
}

/// A coarse grid where touching, duplicated and zero-width intervals are
/// common.
fn crowded_interval() -> impl Strategy<Value = Interval<i64>> {
    (-10_i64..10, 0_i64..4)
        .prop_map(|(lo, w)| Interval::new(lo, lo + w).expect("ordered by construction"))
}

fn configs() -> impl Strategy<Value = (Vec<Interval<i64>>, usize)> {
    prop::collection::vec(grid_interval(), 1..=9).prop_flat_map(|xs| {
        let n = xs.len();
        (Just(xs), 0..n)
    })
}

/// A family of intervals all containing a common "true value", plus a
/// number of unconstrained (possibly faulty) intervals.
fn truth_anchored() -> impl Strategy<Value = (Vec<Interval<i64>>, Vec<Interval<i64>>, i64)> {
    (
        -20_i64..20,
        prop::collection::vec((0_i64..30, 0_i64..30), 1..=6),
        prop::collection::vec(grid_interval(), 0..=3),
    )
        .prop_map(|(truth, correct_shapes, faulty)| {
            let correct: Vec<Interval<i64>> = correct_shapes
                .into_iter()
                .map(|(left, right)| Interval::new(truth - left, truth + right).expect("ordered"))
                .collect();
            (correct, faulty, truth)
        })
}

proptest! {
    #[test]
    fn sweep_equals_naive_reference((xs, f) in configs()) {
        prop_assert_eq!(marzullo::fuse(&xs, f), naive::fuse(&xs, f));
    }

    #[test]
    fn fusion_is_monotone_in_f(xs in prop::collection::vec(grid_interval(), 1..=9)) {
        let mut prev: Option<Interval<i64>> = None;
        for f in 0..xs.len() {
            let cur = marzullo::fuse(&xs, f).ok();
            if let (Some(p), Some(c)) = (prev, cur) {
                prop_assert!(c.contains_interval(&p), "f went {p} -> {c}");
            }
            if cur.is_some() {
                prev = cur;
            }
        }
    }

    #[test]
    fn f_extremes_are_intersection_and_hull(xs in prop::collection::vec(grid_interval(), 1..=9)) {
        match intersection_all(&xs) {
            Some(i) => prop_assert_eq!(marzullo::fuse(&xs, 0).unwrap(), i),
            None => prop_assert!(marzullo::fuse(&xs, 0).is_err()),
        }
        prop_assert_eq!(
            marzullo::fuse(&xs, xs.len() - 1).unwrap(),
            hull_all(&xs).unwrap()
        );
    }

    #[test]
    fn fusion_contains_truth_under_fault_assumption(
        (correct, faulty, truth) in truth_anchored()
    ) {
        // As long as the number of unconstrained intervals is assumed as f,
        // the fusion interval must contain the true value.
        let mut all = correct.clone();
        all.extend(faulty.iter().copied());
        let f = faulty.len();
        if f < all.len() {
            let fused = marzullo::fuse(&all, f).expect(
                "correct intervals share the truth, so coverage n-f is reachable",
            );
            prop_assert!(fused.contains(truth));
        }
    }

    #[test]
    fn fusion_width_never_below_best_correct_information(
        (correct, _faulty, _truth) in truth_anchored()
    ) {
        // Fusing only correct intervals with f = 0 gives the tightest
        // possible interval; any nonzero fault allowance must be at least
        // as wide.
        let base = marzullo::fuse(&correct, 0).unwrap();
        for f in 1..correct.len() {
            let wider = marzullo::fuse(&correct, f).unwrap();
            prop_assert!(wider.width() >= base.width());
        }
    }

    #[test]
    fn theorem2_bound_holds(
        (correct, faulty, _truth) in truth_anchored()
    ) {
        // Theorem 2: |S_{N,f}| <= sum of two widest correct widths, for
        // f < ceil(n/2) and fa <= f.
        prop_assume!(correct.len() >= 2);
        let mut all = correct.clone();
        all.extend(faulty.iter().copied());
        let n = all.len();
        let f = faulty.len();
        prop_assume!(f < n.div_ceil(2));
        let report = check_bounds(&all, &(0..correct.len()).collect::<Vec<_>>(), f).unwrap();
        prop_assert!(report.holds, "bound report: {:?}", report);
    }

    #[test]
    fn marzullo_width_bounds_by_regime(
        (correct, faulty, _truth) in truth_anchored()
    ) {
        let mut all = correct.clone();
        all.extend(faulty.iter().copied());
        let n = all.len();
        let f = faulty.len();
        prop_assume!(f < n);
        let Ok(fused) = marzullo::fuse(&all, f) else { return Ok(()); };
        match regime(n, f) {
            BoundRegime::CorrectWidthBounded => {
                let max_correct = correct.iter().map(|s| s.width()).max().unwrap();
                prop_assert!(fused.width() <= max_correct);
            }
            BoundRegime::SomeWidthBounded => {
                let max_any = all.iter().map(|s| s.width()).max().unwrap();
                prop_assert!(fused.width() <= max_any);
            }
            BoundRegime::Unbounded => {}
        }
    }

    #[test]
    fn brooks_iyengar_estimate_inside_marzullo_interval((xs, f) in configs()) {
        if let Ok(out) = brooks_iyengar::fuse(&xs, f) {
            let mz = marzullo::fuse(&xs, f).unwrap();
            prop_assert_eq!(out.interval, mz);
            prop_assert!(mz.to_f64_interval().contains(out.estimate));
        }
    }

    #[test]
    fn brooks_iyengar_regions_are_sorted_and_supported((xs, f) in configs()) {
        if let Ok(out) = brooks_iyengar::fuse(&xs, f) {
            let required = xs.len() - f;
            for (r, support) in &out.regions {
                prop_assert!(*support >= required);
                // Support equals true coverage at the region's midpoint
                // (or at the point itself for degenerate regions).
                let probe = r.midpoint();
                let cov = xs.iter().filter(|s| s.contains(probe)).count();
                prop_assert!(cov >= required);
            }
            for w in out.regions.windows(2) {
                prop_assert!(w[0].0.hi() <= w[1].0.lo());
            }
        }
    }

    #[test]
    fn brooks_iyengar_fuser_is_marzullo_errors_included(
        (xs, f) in prop::collection::vec(crowded_interval(), 0..=12).prop_flat_map(|xs| {
            let n = xs.len();
            (Just(xs), 0..=n + 2)
        }),
    ) {
        // The engine-facing Brooks–Iyengar fuser skips the region
        // enumeration and runs the Marzullo sweep; it must agree with the
        // full algorithm's interval on every round, failures included.
        use arsf_fusion::{BrooksIyengarFuser, Fuser, MarzulloFuser};
        let clamped = f.min(xs.len().saturating_sub(1));
        let fuser = Fuser::fuse(&mut BrooksIyengarFuser::new(f), &xs);
        let full = brooks_iyengar::fuse(&xs, clamped).map(|out| out.interval);
        let marzullo = Fuser::fuse(&mut MarzulloFuser::new(f), &xs);
        prop_assert_eq!(&fuser, &full, "n = {}, f = {}", xs.len(), f);
        prop_assert_eq!(&fuser, &marzullo, "n = {}, f = {}", xs.len(), f);
    }

    #[test]
    fn midpoint_median_matches_a_sorted_reference(
        xs in prop::collection::vec(crowded_interval(), 1..=40),
    ) {
        // 1 to 40 intervals cross the median's 32-value stack buffer.
        fn median(mut v: Vec<f64>) -> f64 {
            v.sort_by(f64::total_cmp);
            let n = v.len();
            if n % 2 == 1 { v[n / 2] } else { 0.5 * (v[n / 2 - 1] + v[n / 2]) }
        }
        let est = arsf_fusion::weighted::midpoint_median(&xs).unwrap();
        prop_assert_eq!(est.value, median(xs.iter().map(|s| s.midpoint() as f64).collect()));
        prop_assert_eq!(est.radius, median(xs.iter().map(|s| s.width() as f64 * 0.5).collect()));
    }

    #[test]
    fn engine_facing_fusers_error_cleanly_never_panic(
        xs in prop::collection::vec(grid_interval(), 0..=8),
        f in 0_usize..10,
    ) {
        // The clamp_f audit as a property: every stock fuser behind the
        // engine-facing trait, fed any round — including the
        // all-sensors-silenced empty one — either fuses or returns a
        // FusionError. Empty input is always EmptyInput; the clamp makes
        // FaultCountTooLarge unreachable.
        use arsf_fusion::historical::{DynamicsBound, HistoricalFuser};
        use arsf_fusion::{
            BrooksIyengarFuser, Fuser, FusionError, HullFuser, IntersectionFuser,
            InverseVarianceFuser, MarzulloFuser, MidpointMedianFuser,
        };
        let round: Vec<Interval<f64>> = xs.iter().map(|s| s.to_f64_interval()).collect();
        let mut fusers: Vec<Box<dyn Fuser<f64>>> = vec![
            Box::new(MarzulloFuser::new(f)),
            Box::new(BrooksIyengarFuser::new(f)),
            Box::new(IntersectionFuser),
            Box::new(HullFuser),
            Box::new(InverseVarianceFuser),
            Box::new(MidpointMedianFuser),
            Box::new(HistoricalFuser::new(f, DynamicsBound::new(1.0), 0.1)),
        ];
        for fuser in &mut fusers {
            let name = fuser.name().to_string();
            match fuser.fuse(&round) {
                Ok(fused) => {
                    prop_assert!(!round.is_empty(), "{} fused an empty round", name);
                    prop_assert!(fused.width() >= 0.0);
                }
                Err(FusionError::EmptyInput) => {
                    prop_assert!(round.is_empty(), "{} spurious EmptyInput", name);
                }
                Err(FusionError::NoAgreement { .. }) => {
                    prop_assert!(!round.is_empty(), "{} NoAgreement on empty", name);
                }
                Err(err) => {
                    prop_assert!(false, "{} leaked {:?} through the clamp", name, err);
                }
            }
        }
    }

    #[test]
    fn check_bounds_verdicts_are_consistent_with_the_regime(
        (correct, faulty, _truth) in truth_anchored(),
        f in 0_usize..10,
    ) {
        // For *any* n/f pairing — including f below or above the actual
        // number of faulty intervals — the checker must classify the
        // configuration exactly as `regime()` does, and whenever the
        // paper's assumptions genuinely hold (faulty count within f) the
        // verdict must be that the bounds hold.
        let mut all = correct.clone();
        all.extend(faulty.iter().copied());
        let n = all.len();
        let Ok(report) = check_bounds(&all, &(0..correct.len()).collect::<Vec<_>>(), f) else {
            return Ok(());
        };
        prop_assert_eq!(report.regime, regime(n, f));
        prop_assert_eq!(report.theorem2, theorem2_bound(&correct));
        if faulty.len() <= f {
            prop_assert!(report.holds, "assumptions hold but report {:?}", report);
        }
        if report.regime == BoundRegime::Unbounded && report.theorem2.is_none() {
            // No claim is made, so no claim can fail.
            prop_assert!(report.holds);
        }
    }

    #[test]
    fn theorem2_bound_is_monotone_in_the_two_widest(
        (correct, _faulty, _truth) in truth_anchored(),
        grow in 1_i64..25,
    ) {
        // Widening any correct interval — in particular either of the
        // two widest — never shrinks the Theorem-2 bound; widening one
        // of the two widest grows it by exactly the increment.
        prop_assume!(correct.len() >= 2);
        let base = theorem2_bound(&correct).unwrap();
        let widest = (0..correct.len())
            .max_by_key(|&i| correct[i].width())
            .unwrap();
        for i in 0..correct.len() {
            let mut widened = correct.clone();
            widened[i] =
                Interval::new(widened[i].lo() - grow, widened[i].hi()).unwrap();
            let grown = theorem2_bound(&widened).unwrap();
            prop_assert!(grown >= base, "widening {i} shrank {base} -> {grown}");
            if i == widest {
                prop_assert_eq!(grown, base + grow);
            }
        }
    }

    #[test]
    fn static_theorem2_matches_the_interval_form(
        widths in prop::collection::vec(0.0_f64..50.0, 2..=9),
    ) {
        // The width-only form agrees with the interval form on any
        // concrete intervals realising those widths.
        let intervals: Vec<Interval<f64>> = widths
            .iter()
            .map(|&w| Interval::new(0.0, w).unwrap())
            .collect();
        prop_assert_eq!(static_theorem2_bound(&widths), theorem2_bound(&intervals));
    }

    #[test]
    fn fusion_is_permutation_invariant((xs, f) in configs()) {
        let mut reversed = xs.clone();
        reversed.reverse();
        prop_assert_eq!(marzullo::fuse(&xs, f), marzullo::fuse(&reversed, f));
    }

    #[test]
    fn fusion_is_translation_equivariant((xs, f) in configs(), d in -40_i64..40) {
        let shift = |s: &Interval<i64>| Interval::new(s.lo() + d, s.hi() + d).unwrap();
        let shifted: Vec<Interval<i64>> = xs.iter().map(shift).collect();
        match (marzullo::fuse(&xs, f), marzullo::fuse(&shifted, f)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(shift(&a), b);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "mismatch {:?} vs {:?}", a, b),
        }
    }
}
