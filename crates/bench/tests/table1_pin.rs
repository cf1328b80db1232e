//! Pins the exact Table I engine bit for bit: every paper setup ×
//! {Ascending, Descending} × every size-`fa` compromised set ×
//! {`Optimal`, `OneSidedHigh`} (176 evaluations), plus each setup's
//! honest expectation.
//!
//! Each evaluation feeds `expected_width.to_bits()`, `leaves` and
//! `stealthy` into one FNV-1a digest per grid step, and each setup feeds
//! its honest width's bits. A change to any mean, maximum or summation
//! order, or to the enumeration itself, moves the digest even when every
//! printed value still rounds the same.
//!
//! The test calls the `arsf_attack::expectimax` engine directly, so a
//! change to how `arsf_bench::table1` walks the sets cannot edit it.
//! The scope is step 1 in release (about 9 s; CI runs it next to
//! `exhaustive_solvers`) and step 2 in debug builds (about 5 s).
//! Re-pinning after an intentional change: the failure message prints
//! the new [`Pinned`] row; paste it over the old one in [`PINNED`].

use arsf_attack::expectimax::{
    expected_fusion_width, expected_honest_width, AttackerStyle, GridScenario,
};
use arsf_attack::worst_case::subsets;
use arsf_bench::table1::paper_setups;
use arsf_schedule::SchedulePolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The grid step enumerated.
const STEP: f64 = if cfg!(debug_assertions) { 2.0 } else { 1.0 };

/// The pinned outcome of one grid step.
#[derive(Debug, PartialEq)]
struct Pinned {
    step: f64,
    rows: u64,
    leaves: u64,
    digest: u64,
}

#[rustfmt::skip]
const PINNED: [Pinned; 2] = [
    Pinned { step: 2.0, rows: 176, leaves: 3283615, digest: 14507120002799707523 },
    Pinned { step: 1.0, rows: 176, leaves: 93371310, digest: 14918933482379982040 },
];

/// 64-bit FNV-1a, fed one value at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn every_paper_set_keeps_its_exact_width_leaves_and_stealth() {
    let mut digest = Fnv::new();
    let (mut rows, mut leaves) = (0u64, 0u64);
    for setup in paper_setups() {
        let (widths, f) = (setup.widths.clone(), setup.f());
        let honest = expected_honest_width(&GridScenario::new(widths.clone(), vec![], f, STEP));
        digest.write(&honest.to_bits().to_le_bytes());
        for policy in [SchedulePolicy::Ascending, SchedulePolicy::Descending] {
            let order = policy.order(&widths, 0, &mut StdRng::seed_from_u64(0));
            for set in subsets(widths.len(), setup.fa) {
                for style in [AttackerStyle::Optimal, AttackerStyle::OneSidedHigh] {
                    let scenario =
                        GridScenario::new(widths.clone(), set.clone(), f, STEP).with_style(style);
                    let outcome = expected_fusion_width(&scenario, &order);
                    digest.write(&outcome.expected_width.to_bits().to_le_bytes());
                    digest.write(&outcome.leaves.to_le_bytes());
                    digest.write(&[u8::from(outcome.stealthy)]);
                    rows += 1;
                    leaves += outcome.leaves;
                }
            }
        }
    }
    let got = Pinned {
        step: STEP,
        rows,
        leaves,
        digest: digest.0,
    };
    let pinned = PINNED.iter().find(|p| p.step == STEP);
    assert_eq!(
        pinned,
        Some(&got),
        "the exact Table I values moved; re-pin if intended:\n    {got:?},"
    );
}
