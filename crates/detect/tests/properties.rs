//! Property-based tests for the sliding-window detector: the ring-buffer
//! implementation against a naive recount oracle, and the monotonicity
//! of condemnation.

use arsf_detect::{WindowVerdict, WindowedDetector};
use proptest::prelude::*;

/// The oracle: recount violations over the last `window` rounds from the
/// full sequence, with sticky condemnation.
fn naive_verdicts(seq: &[bool], window: usize, tolerance: usize) -> Vec<WindowVerdict> {
    let mut out = Vec::with_capacity(seq.len());
    let mut condemned = false;
    for t in 0..seq.len() {
        let start = (t + 1).saturating_sub(window);
        let violations = seq[start..=t].iter().filter(|&&v| v).count();
        if violations > tolerance {
            condemned = true;
        }
        out.push(if condemned {
            WindowVerdict::Condemned
        } else if violations == 0 {
            WindowVerdict::Healthy
        } else {
            WindowVerdict::Suspect
        });
    }
    out
}

fn violation_seq() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec((0_u8..2).prop_map(|b| b == 1), 0..=60)
}

proptest! {
    #[test]
    fn window_verdict_equals_naive_recount(
        events in prop::collection::vec((0_usize..3, 0_u8..7), 0..=120),
        window in 1_usize..=8,
        tolerance in 0_usize..=5,
    ) {
        // Three sensors share the detector. Event kind 6 resets it,
        // otherwise odd = violation for the event's sensor. Each sensor's
        // running counts must match a recount of its rounds since the last
        // reset, across window wrap-around and resets alike.
        let mut det = WindowedDetector::new(3, window, tolerance);
        let mut since_reset: Vec<Vec<bool>> = vec![Vec::new(); 3];
        for (t, &(sensor, kind)) in events.iter().enumerate() {
            if kind == 6 {
                det.reset();
                since_reset.iter_mut().for_each(Vec::clear);
                prop_assert!(det.condemned().is_empty(), "after reset at {}", t);
                continue;
            }
            let violated = kind % 2 == 1;
            since_reset[sensor].push(violated);
            let got = det.record(sensor, violated);
            for (s, seq) in since_reset.iter().enumerate() {
                let expected = naive_verdicts(seq, window, tolerance)
                    .last()
                    .copied()
                    .unwrap_or(WindowVerdict::Healthy);
                if s == sensor {
                    prop_assert_eq!(
                        got, expected,
                        "event {} of {:?} (w = {}, tol = {})", t, events, window, tolerance
                    );
                }
                prop_assert_eq!(det.verdict(s), expected, "sensor {} at event {}", s, t);
            }
        }
        let condemned_now: Vec<usize> = (0..3)
            .filter(|&s| {
                naive_verdicts(&since_reset[s], window, tolerance).last()
                    == Some(&WindowVerdict::Condemned)
            })
            .collect();
        prop_assert_eq!(det.condemned(), condemned_now);
    }

    #[test]
    fn condemnation_is_monotone_without_reset(
        seq in violation_seq(),
        suffix in violation_seq(),
        window in 1_usize..=8,
        tolerance in 0_usize..=5,
    ) {
        let mut det = WindowedDetector::new(1, window, tolerance);
        let mut condemned_seen = false;
        for &violated in &seq {
            let verdict = det.record(0, violated);
            if condemned_seen {
                prop_assert_eq!(verdict, WindowVerdict::Condemned, "un-condemned mid-sequence");
            }
            condemned_seen |= verdict == WindowVerdict::Condemned;
        }
        // Whatever comes next — including an all-healthy suffix — a
        // condemned sensor stays condemned until reset.
        for &violated in &suffix {
            let verdict = det.record(0, violated);
            if condemned_seen {
                prop_assert_eq!(verdict, WindowVerdict::Condemned, "suffix un-condemned");
            }
            condemned_seen |= verdict == WindowVerdict::Condemned;
        }
        // reset() is the only way back: history and condemnation clear.
        det.reset();
        prop_assert!(det.condemned().is_empty());
        prop_assert_eq!(det.verdict(0), WindowVerdict::Healthy);
    }

    #[test]
    fn sensors_do_not_interfere(
        seq in violation_seq(),
        other in violation_seq(),
        window in 1_usize..=8,
        tolerance in 0_usize..=5,
    ) {
        // Interleaving records for a second sensor must not change the
        // first sensor's verdict stream.
        let mut solo = WindowedDetector::new(1, window, tolerance);
        let mut duo = WindowedDetector::new(2, window, tolerance);
        let mut others = other.iter().cycle();
        for &violated in &seq {
            if let Some(&noise) = others.next() {
                duo.record(1, noise);
            }
            prop_assert_eq!(solo.record(0, violated), duo.record(0, violated));
        }
    }
}
