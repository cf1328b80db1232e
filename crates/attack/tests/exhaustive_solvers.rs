//! Exhaustive small-scope check of the exact attack solvers: every
//! integer configuration with `n ≤ 4` sensors, `fa ∈ {1, 2}` attacked
//! sensors and coordinates and widths in `0..=G`, under every fault
//! assumption `f` the solvers accept.
//!
//! On integer inputs both the lattice solver ([`optimal_attack`]) and
//! the unit-step grid oracle ([`brute_force_attack`]) are exact, so their
//! optimal widths must be equal — or both must report the same error.
//!
//! Equal widths say nothing about *which* optimum comes first, yet
//! `PhantomOptimal` transmits exactly that one (`placements[0]`). An
//! FNV-1a digest over every configuration's first placement is therefore
//! pinned too, so a change to the candidate order or to the tie-break
//! fails here even when every width still agrees.
//!
//! The scope is `G = 4` in release (272625 configurations, about 2 s;
//! CI runs it next to the exact work counts) and `G = 2` in debug builds
//! (8613). Re-pinning after an intentional change: the failure message
//! prints the new [`Pinned`] row; paste it over the old one in
//! [`PINNED`].

use arsf_attack::full_knowledge::{brute_force_attack, optimal_attack, OptimalAttack};
use arsf_attack::AttackError;
use arsf_interval::Interval;

/// The largest coordinate and width enumerated.
const G: u32 = if cfg!(debug_assertions) { 2 } else { 4 };

/// The pinned outcome of one scope.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    g: u32,
    cases: u64,
    digest: u64,
}

#[rustfmt::skip]
const PINNED: [Pinned; 2] = [
    Pinned { g: 2, cases: 8613, digest: 12601652086347895997 },
    Pinned { g: 4, cases: 272625, digest: 16197665578355631081 },
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

/// Every tuple of `len` values in `0..=max`, in lexicographic order.
fn tuples(len: usize, max: u32) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::with_capacity(len)];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                (0..=max).map(move |v| {
                    let mut next = prefix.clone();
                    next.push(v);
                    next
                })
            })
            .collect();
    }
    out
}

/// The first placement, or the error, as digest bytes.
fn first_placement(result: &Result<OptimalAttack, AttackError>) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    match result {
        Ok(attack) => {
            let first = attack.placements[0];
            bytes[..8].copy_from_slice(&first.lo().to_bits().to_le_bytes());
            bytes[8..].copy_from_slice(&first.hi().to_bits().to_le_bytes());
        }
        // A NaN pattern no placement has, tagged with the error.
        Err(error) => {
            bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
            bytes[8] = match error {
                AttackError::NoFeasiblePlacement => 1,
                _ => 2,
            };
        }
    }
    bytes
}

#[test]
fn lattice_and_grid_solvers_agree_on_every_small_configuration() {
    let mut digest = Fnv::new();
    let mut cases = 0u64;
    let mut solved = 0u64;
    for n in 2..=4usize {
        for fa in 1..=2usize.min(n - 1) {
            let correct_count = n - fa;
            // Every (lo, width) pair of every correct interval, then every
            // attacked width.
            let correct_sets: Vec<Vec<Interval<f64>>> = tuples(2 * correct_count, G)
                .into_iter()
                .map(|t| {
                    t.chunks(2)
                        .map(|p| {
                            let lo = f64::from(p[0]);
                            Interval::new(lo, lo + f64::from(p[1])).unwrap()
                        })
                        .collect()
                })
                .collect();
            let width_sets: Vec<Vec<f64>> = tuples(fa, G)
                .into_iter()
                .map(|t| t.into_iter().map(f64::from).collect())
                .collect();
            // The solvers need fa < k = n − f.
            for f in (0..n).filter(|&f| fa < n - f) {
                for correct in &correct_sets {
                    for widths in &width_sets {
                        let lattice = optimal_attack(correct, widths, f);
                        let grid = brute_force_attack(correct, widths, f, 1.0);
                        match (&lattice, &grid) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(
                                    a.width(),
                                    b.width(),
                                    "n {n}, f {f}, correct {correct:?}, widths {widths:?}"
                                );
                                solved += 1;
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b),
                            _ => panic!(
                                "n {n}, f {f}, correct {correct:?}, widths {widths:?}: \
                                 lattice {lattice:?} vs grid {grid:?}"
                            ),
                        }
                        digest.write(&first_placement(&lattice));
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(solved > 0, "every configuration failed to solve");
    let got = Pinned {
        g: G,
        cases,
        digest: digest.0,
    };
    let pinned = PINNED.iter().find(|p| p.g == G);
    assert_eq!(
        pinned,
        Some(&got),
        "the solvers' first placements moved; re-pin if intended:\n    {got:?},"
    );
}
