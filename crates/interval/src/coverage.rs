//! *k*-coverage kernel.
//!
//! The heart of Marzullo's fusion algorithm is a purely geometric question:
//! *which points of the real line are covered by at least `k` of the `n`
//! given closed intervals?* The fusion interval for `f` assumed faults is
//! the span from the smallest to the largest point covered by at least
//! `n - f` intervals.
//!
//! This module provides two implementations:
//!
//! * [`k_covered_span`] — answers the span question directly: it sorts
//!   the lower and the upper endpoints (on the stack with a branch-free
//!   sorting network up to 32 intervals, so without allocating; in one
//!   heap buffer above) and finds the span in one two-pointer scan; this
//!   is what the fusion crate calls in production,
//! * [`CoverageMap`] — a full piecewise-constant coverage profile, used by
//!   the naive reference fuser, the attacker's optimisers and the test
//!   suite to cross-validate the kernel.

use crate::{Interval, Scalar};

/// The span (convex hull) of all points covered by at least `k` of the
/// given closed intervals, or `None` when no point reaches coverage `k`.
///
/// Ties at shared endpoints are handled with closed-interval semantics: a
/// point where one interval ends and another begins is covered by both.
///
/// `k == 0` is rejected (`None`): every point of the real line is trivially
/// covered by zero intervals, so the span would be unbounded.
///
/// A zero endpoint of the span may carry either sign when the input has
/// both `-0.0` and `0.0` endpoints: they compare equal, so the sort may
/// leave them in either order.
///
/// # Example
///
/// ```
/// use arsf_interval::{coverage::k_covered_span, Interval};
///
/// # fn main() -> Result<(), arsf_interval::IntervalError> {
/// let xs = [
///     Interval::new(0.0, 4.0)?,
///     Interval::new(2.0, 6.0)?,
///     Interval::new(5.0, 9.0)?,
/// ];
/// // Points in >= 2 intervals: [2,4] ∪ [5,6]; the span is [2,6].
/// assert_eq!(k_covered_span(&xs, 2), Some(Interval::new(2.0, 6.0)?));
/// // No point lies in all three.
/// assert_eq!(k_covered_span(&xs, 3), None);
/// # Ok(())
/// # }
/// ```
pub fn k_covered_span<T: Scalar>(intervals: &[Interval<T>], k: usize) -> Option<Interval<T>> {
    let n = intervals.len();
    if k == 0 || k > n {
        return None;
    }
    if n > NETWORK_MAX {
        // Too many for the stack: sort each lane in one heap buffer.
        let mut ends = Vec::with_capacity(2 * n);
        ends.extend(intervals.iter().map(|s| s.lo()));
        ends.extend(intervals.iter().map(|s| s.hi()));
        let (los, his) = ends.split_at_mut(n);
        let by_value = |a: &T, b: &T| {
            a.partial_cmp(b)
                .unwrap_or_else(|| unreachable!("interval endpoints are finite by construction"))
        };
        los.sort_unstable_by(by_value);
        his.sort_unstable_by(by_value);
        return sorted_span(n, k, |i| los[i], |i| his[i]);
    }
    // Sort the lower endpoints in the first lane and the upper endpoints
    // in the second, both through the same comparators. `min_scalar` and
    // `max_scalar` compile to selects, so no comparator branches.
    let mut ends = [(T::ZERO, T::ZERO); NETWORK_MAX];
    for (end, s) in ends.iter_mut().zip(intervals) {
        *end = (s.lo(), s.hi());
    }
    for &(i, j) in NETWORKS.of(n) {
        let ((lo_i, hi_i), (lo_j, hi_j)) = (ends[usize::from(i)], ends[usize::from(j)]);
        ends[usize::from(i)] = (lo_i.min_scalar(lo_j), hi_i.min_scalar(hi_j));
        ends[usize::from(j)] = (lo_i.max_scalar(lo_j), hi_i.max_scalar(hi_j));
    }
    let ends = &ends[..n];
    sorted_span(n, k, |i| ends[i].0, |i| ends[i].1)
}

/// The span of the points covered by at least `1 <= k <= n` of `n`
/// closed intervals, given the `i`-th least lower endpoint `lo(i)` and
/// the `i`-th least upper endpoint `hi(i)` for `i < n`.
// Inlined into both callers, so the network path indexes its stack
// array in place.
#[inline(always)]
fn sorted_span<T: Scalar>(
    n: usize,
    k: usize,
    lo: impl Fn(usize) -> T,
    hi: impl Fn(usize) -> T,
) -> Option<Interval<T>> {
    // The closed coverage at `x` is #{lo_j <= x} - #{hi_j < x}. It only
    // rises at a lower endpoint, so the least point covered `k` times is
    // a lower endpoint, and at the `i`-th sorted one #{lo_j <= x} is at
    // least `i + 1` (exactly, at the last of equal lows, which the scan
    // reaches before any greater value). The uppers below the candidate
    // only grow as it does, so one pointer walks them.
    let mut below = 0;
    let least = (k - 1..n).find_map(|i| {
        let x = lo(i);
        // Stops in bounds: the greatest upper is at least every lower.
        while hi(below) < x {
            below += 1;
        }
        (i + 1 - below >= k).then_some(x)
    })?;
    // Mirrored: coverage at `x` is also #{hi_j >= x} - #{lo_j > x}, and
    // the greatest covered point is an upper endpoint.
    let mut above = 0;
    let greatest = (0..=n - k).rev().find_map(|i| {
        let x = hi(i);
        while lo(n - 1 - above) > x {
            above += 1;
        }
        (n - i - above >= k).then_some(x)
    })?;
    Some(
        Interval::new(least, greatest)
            .unwrap_or_else(|_| unreachable!("the least covered point is first")),
    )
}

/// The interval count up to which [`k_covered_span`] sorts the endpoints
/// on the stack with a merge-exchange network; larger inputs sort them in
/// a heap buffer. In the `fusion_scaling` bench, which cycles through
/// 1024 distinct random inputs per size, Marzullo fusion of 3 intervals
/// takes ~18 ns, 4 ~23 ns, 9 ~57 ns, 16 ~99 ns, 20 ~139 ns and 32
/// ~247 ns, against ~840 ns for the heap sort at 33 (best of 20 samples,
/// 2 vCPU). The cut is the stack array's size, not a crossover:
/// 32 sensors is the largest suite the engine promises to fuse without
/// allocating.
const NETWORK_MAX: usize = 32;

/// Batcher's merge-exchange sorting networks for every input count up to
/// [`NETWORK_MAX`], generated at compile time.
static NETWORKS: Networks<NETWORK_PAIRS> = Networks::generate();

/// The comparator count of all of [`NETWORKS`] together.
const NETWORK_PAIRS: usize = Networks::<0>::generate().start[NETWORK_MAX + 1];

/// Sorting networks for `0..=NETWORK_MAX` inputs, concatenated.
struct Networks<const CAP: usize> {
    /// Compare-exchange pairs `(i, j)` with `i < j`: after each, slot `i`
    /// holds the smaller value and slot `j` the larger.
    pairs: [(u8, u8); CAP],
    /// The network for `n` inputs is `pairs[start[n]..start[n + 1]]`.
    start: [usize; NETWORK_MAX + 2],
}

impl<const CAP: usize> Networks<CAP> {
    /// Runs Knuth's Algorithm M (TAOCP §5.2.2) for each `n`, keeping the
    /// first `CAP` comparators; with `CAP = 0` it only counts them.
    const fn generate() -> Self {
        let mut pairs = [(0, 0); CAP];
        let mut start = [0; NETWORK_MAX + 2];
        let mut len = 0;
        let mut n = 2;
        while n <= NETWORK_MAX {
            start[n] = len;
            // t = ⌈log₂ n⌉; p, q and d are powers of two or their gaps.
            let t = usize::BITS - (n - 1).leading_zeros();
            let mut p = 1 << (t - 1);
            while p > 0 {
                let (mut q, mut r, mut d) = (1 << (t - 1), 0, p);
                loop {
                    let mut i = 0;
                    while i + d < n {
                        if i & p == r {
                            if len < CAP {
                                pairs[len] = (i as u8, (i + d) as u8);
                            }
                            len += 1;
                        }
                        i += 1;
                    }
                    if q == p {
                        break;
                    }
                    (d, q, r) = (q - p, q / 2, p);
                }
                p /= 2;
            }
            n += 1;
        }
        start[NETWORK_MAX + 1] = len;
        Self { pairs, start }
    }

    /// The comparators that sort `n <= NETWORK_MAX` inputs.
    fn of(&self, n: usize) -> &[(u8, u8)] {
        &self.pairs[self.start[n]..self.start[n + 1]]
    }
}

/// A piecewise-constant profile of how many intervals cover each point.
///
/// The profile distinguishes coverage *at* breakpoints from coverage on the
/// *open segments* between them, which matters for closed intervals: at a
/// point where one interval ends and the next begins, the point coverage
/// exceeds both neighbouring segment coverages.
///
/// # Example
///
/// ```
/// use arsf_interval::{coverage::CoverageMap, Interval};
///
/// # fn main() -> Result<(), arsf_interval::IntervalError> {
/// let xs = [Interval::new(0.0, 1.0)?, Interval::new(1.0, 2.0)?];
/// let map = CoverageMap::build(&xs);
/// assert_eq!(map.breakpoints(), &[0.0, 1.0, 2.0]);
/// assert_eq!(map.point_coverages(), &[1, 2, 1]); // both intervals touch x = 1
/// assert_eq!(map.segment_coverages(), &[1, 1]);
/// assert_eq!(map.span_at_least(2), Some(Interval::new(1.0, 1.0)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap<T> {
    /// Sorted, de-duplicated interval endpoints.
    points: Vec<T>,
    /// `point_cov[i]` = number of intervals containing `points[i]`.
    point_cov: Vec<usize>,
    /// `seg_cov[i]` = number of intervals containing the open segment
    /// `(points[i], points[i + 1])`; has length `points.len() - 1` (or 0).
    seg_cov: Vec<usize>,
}

impl<T: Scalar> CoverageMap<T> {
    /// Builds the coverage profile of the given intervals in
    /// `O(n log n)` time.
    pub fn build(intervals: &[Interval<T>]) -> Self {
        let mut points: Vec<T> = Vec::with_capacity(intervals.len() * 2);
        for s in intervals {
            points.push(s.lo());
            points.push(s.hi());
        }
        points.sort_unstable_by(|a, b| {
            a.partial_cmp(b)
                .unwrap_or_else(|| unreachable!("interval endpoints are finite by construction"))
        });
        points.dedup_by(|a, b| a == b);

        let m = points.len();
        let mut point_diff = vec![0_isize; m + 1];
        let mut seg_diff = vec![0_isize; m + 1];
        for s in intervals {
            let il = index_of(&points, s.lo());
            let ih = index_of(&points, s.hi());
            point_diff[il] += 1;
            point_diff[ih + 1] -= 1;
            // The interval covers open segments il .. ih-1 (between its own
            // endpoints); degenerate intervals cover no segment.
            if ih > il {
                seg_diff[il] += 1;
                seg_diff[ih] -= 1;
            }
        }

        let point_cov = prefix_counts(&point_diff, m);
        let seg_cov = prefix_counts(&seg_diff, m.saturating_sub(1));
        Self {
            points,
            point_cov,
            seg_cov,
        }
    }

    /// The span from the first to the last point with coverage at least
    /// `k`, or `None` when coverage never reaches `k` (or `k == 0`).
    ///
    /// Agrees with [`k_covered_span`], which is cheaper when only the span
    /// is needed: it sorts the endpoints on the stack, without building a
    /// profile.
    pub fn span_at_least(&self, k: usize) -> Option<Interval<T>> {
        if k == 0 {
            return None;
        }
        let first = self.point_cov.iter().position(|&c| c >= k)?;
        let last = self.point_cov.iter().rposition(|&c| c >= k)?;
        Some(
            Interval::new(self.points[first], self.points[last])
                .unwrap_or_else(|_| unreachable!("points are sorted, so first <= last")),
        )
    }

    /// The breakpoints of the profile (sorted, de-duplicated endpoints).
    pub fn breakpoints(&self) -> &[T] {
        &self.points
    }

    /// Coverage at each breakpoint, parallel to
    /// [`CoverageMap::breakpoints`].
    pub fn point_coverages(&self) -> &[usize] {
        &self.point_cov
    }

    /// Coverage of each *open* segment between consecutive breakpoints;
    /// entry `i` covers `(breakpoints[i], breakpoints[i + 1])` and the
    /// slice is one shorter than [`CoverageMap::breakpoints`].
    ///
    /// Exact even on integer grids where a unit-width segment has no
    /// representable interior point.
    pub fn segment_coverages(&self) -> &[usize] {
        &self.seg_cov
    }
}

fn index_of<T: Scalar>(points: &[T], x: T) -> usize {
    let pos = points.partition_point(|p| *p < x);
    debug_assert!(
        pos < points.len() && points[pos] == x,
        "endpoint must be present in the breakpoint list"
    );
    pos
}

fn prefix_counts(diff: &[isize], len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(len);
    let mut acc: isize = 0;
    for d in diff.iter().take(len) {
        acc += d;
        debug_assert!(acc >= 0, "coverage count went negative");
        out.push(acc as usize);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    /// Endpoints on a coarse grid that holds both zeros, so intervals share
    /// and touch endpoints and about one in six is degenerate.
    fn grid_intervals(n: usize, state: &mut u64) -> Vec<Interval<f64>> {
        const GRID: [f64; 8] = [-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5];
        let mut draw = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            GRID[(*state >> 32) as usize % GRID.len()]
        };
        (0..n)
            .map(|_| {
                let (a, b) = (draw(), draw());
                if b < a {
                    iv(b, a)
                } else {
                    iv(a, b)
                }
            })
            .collect()
    }

    /// Same endpoint values, and same bits wherever the value is nonzero
    /// (a `-0.0` and a `0.0` endpoint are equal and either may be reported).
    fn same_endpoints(a: Option<Interval<f64>>, b: Option<Interval<f64>>) -> bool {
        let bits = |x: f64| if x == 0.0 { 0 } else { x.to_bits() };
        a.map(|s| (bits(s.lo()), bits(s.hi()))) == b.map(|s| (bits(s.lo()), bits(s.hi())))
    }

    #[test]
    fn merge_exchange_networks_have_batchers_comparator_counts() {
        let counts: Vec<usize> = (0..=NETWORK_MAX).map(|n| NETWORKS.of(n).len()).collect();
        assert_eq!(counts[..5], [0, 0, 1, 3, 5]);
        assert_eq!((counts[9], counts[16], counts[32]), (26, 63, 191));
        for n in 0..=NETWORK_MAX {
            for &(i, j) in NETWORKS.of(n) {
                assert!(i < j && usize::from(j) < n, "n = {n}: ({i}, {j})");
            }
        }
    }

    /// The comparators of `NETWORKS.of(values.len())` applied as the
    /// kernel applies them.
    fn network_sort(values: &mut [f64]) {
        for &(i, j) in NETWORKS.of(values.len()) {
            let (a, b) = (values[usize::from(i)], values[usize::from(j)]);
            values[usize::from(i)] = a.min_scalar(b);
            values[usize::from(j)] = a.max_scalar(b);
        }
    }

    /// By the 0-1 principle a comparator network sorts every input iff it
    /// sorts every input of zeros and ones, so this proves the networks
    /// up to 16 inputs. Bit `i` of `ones` is slot `i`.
    #[test]
    fn merge_exchange_networks_sort_every_zero_one_input() {
        for n in 0..=16 {
            for input in 0_u32..1 << n {
                let mut ones = input;
                for &(i, j) in NETWORKS.of(n) {
                    if ones >> i & 1 == 1 && ones >> j & 1 == 0 {
                        ones ^= 1 << i | 1 << j;
                    }
                }
                // Sorted: zeros in the low slots, every one above them.
                let zeros = n - input.count_ones() as usize;
                let sorted = ((1_u64 << n) - (1_u64 << zeros)) as u32;
                assert_eq!(ones, sorted, "n = {n}, input {input:#b}");
            }
        }
    }

    #[test]
    fn merge_exchange_networks_sort_random_floats_above_16() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for n in 17..=NETWORK_MAX {
            for round in 0..1000 {
                let mut values: Vec<f64> = (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let unit = (state >> 11) as f64 / (1_u64 << 53) as f64;
                        // Every other input draws from 8 values, so ties
                        // are common; the rest are distinct.
                        if round % 2 == 0 {
                            (unit * 8.0).floor() - 4.0
                        } else {
                            unit * 200.0 - 100.0
                        }
                    })
                    .collect();
                let mut expected = values.clone();
                expected.sort_by(f64::total_cmp);
                network_sort(&mut values);
                assert_eq!(values, expected, "n = {n}");
            }
        }
    }

    /// n = 1..40 crosses the cut between the stack network and the heap
    /// sort.
    #[test]
    fn kernel_matches_coverage_map() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for n in 1..=40 {
            for _ in 0..60 {
                let xs = grid_intervals(n, &mut state);
                let map = CoverageMap::build(&xs);
                for k in 0..=n + 1 {
                    let kernel = k_covered_span(&xs, k);
                    let profile = map.span_at_least(k);
                    assert_eq!(kernel, profile, "n = {n}, k = {k}, {xs:?}");
                    assert!(same_endpoints(kernel, profile), "n = {n}, k = {k}, {xs:?}");
                }
            }
        }
    }

    /// Every closed integer interval with endpoints in `0..grid`.
    fn grid_intervals_up_to(grid: i64) -> Vec<Interval<i64>> {
        (0..grid)
            .flat_map(|lo| (lo..grid).map(move |hi| Interval::new(lo, hi).unwrap()))
            .collect()
    }

    /// Calls `visit` with every length-`n` tuple of indices into `0..m`,
    /// or only the non-decreasing ones when `multiset`, and returns how
    /// many it visited.
    fn for_each_tuple(m: usize, n: usize, multiset: bool, mut visit: impl FnMut(&[usize])) -> u64 {
        let mut idx = vec![0; n];
        let mut visited = 0;
        loop {
            visit(&idx);
            visited += 1;
            let Some(pos) = (0..n).rev().find(|&i| idx[i] + 1 < m) else {
                return visited;
            };
            idx[pos] += 1;
            let restart = if multiset { idx[pos] } else { 0 };
            idx[pos + 1..].fill(restart);
        }
    }

    /// `C(m, r)`, small enough not to overflow here.
    fn choose(m: u64, r: u64) -> u64 {
        (0..r).fold(1, |acc, i| acc * (m - i) / (i + 1))
    }

    /// The span kernel and the coverage map only compare endpoints, so
    /// their output is a function of the endpoints' weak order, and an
    /// integer grid of `2n` values realises every weak order of `n`
    /// intervals. Enumerating every ordered configuration on that grid
    /// therefore proves both for `n ≤ 4` (for any `Scalar`, since
    /// no arithmetic is involved). `n = 5` and `6` take every sorted
    /// multiset (the output is order-invariant) on 8 and 6 grid values.
    /// Each span, for every `k` in `0..=n + 1`, must equal
    /// [`CoverageMap::span_at_least`] and a count of coverage at every
    /// integer point, which is exact because coverage only changes at the
    /// integer endpoints.
    ///
    /// Release builds run the full scope (2577218 configurations, about
    /// 2.5 s; CI runs it next to the exact work counts); debug builds run
    /// `n ≤ 3` ordered and `n = 4..=6` as multisets on 4 grid values.
    #[test]
    fn kernels_agree_on_every_small_integer_configuration() {
        // (n, grid values, multisets only)
        let scopes: &[(usize, i64, bool)] = if cfg!(debug_assertions) {
            &[
                (1, 2, false),
                (2, 4, false),
                (3, 6, false),
                (4, 4, true),
                (5, 4, true),
                (6, 4, true),
            ]
        } else {
            &[
                (1, 2, false),
                (2, 4, false),
                (3, 6, false),
                (4, 8, false),
                (5, 8, true),
                (6, 6, true),
            ]
        };
        for &(n, grid, multiset) in scopes {
            let pool = grid_intervals_up_to(grid);
            let mut xs = Vec::with_capacity(n);
            let mut coverage = vec![0; grid as usize];
            let visited = for_each_tuple(pool.len(), n, multiset, |idx| {
                xs.clear();
                xs.extend(idx.iter().map(|&i| pool[i]));
                for (x, c) in (0..grid).zip(coverage.iter_mut()) {
                    *c = xs.iter().filter(|s| s.contains(x)).count();
                }
                let map = CoverageMap::build(&xs);
                for k in 0..=n + 1 {
                    let first = coverage.iter().position(|&c| k > 0 && c >= k);
                    let last = coverage.iter().rposition(|&c| k > 0 && c >= k);
                    let expected = first
                        .zip(last)
                        .map(|(a, b)| Interval::new(a as i64, b as i64).unwrap());
                    assert_eq!(k_covered_span(&xs, k), expected, "network, k = {k}, {xs:?}");
                    assert_eq!(
                        map.span_at_least(k),
                        expected,
                        "coverage map, k = {k}, {xs:?}"
                    );
                }
            });
            let m = pool.len() as u64;
            let expected = if multiset {
                choose(m + n as u64 - 1, n as u64)
            } else {
                m.pow(n as u32)
            };
            assert_eq!(visited, expected, "n = {n}, grid = {grid}");
        }
    }

    #[test]
    fn span_rejects_k_zero_and_k_too_large() {
        let xs = [iv(0.0, 1.0)];
        assert_eq!(k_covered_span(&xs, 0), None);
        assert_eq!(k_covered_span(&xs, 2), None);
        assert_eq!(k_covered_span::<f64>(&[], 1), None);
    }

    #[test]
    fn span_k1_is_hull() {
        let xs = [iv(0.0, 1.0), iv(5.0, 6.0), iv(2.0, 3.0)];
        assert_eq!(k_covered_span(&xs, 1), Some(iv(0.0, 6.0)));
    }

    #[test]
    fn span_kn_is_common_intersection_when_nonempty() {
        let xs = [iv(0.0, 3.0), iv(1.0, 4.0), iv(2.0, 5.0)];
        assert_eq!(k_covered_span(&xs, 3), Some(iv(2.0, 3.0)));
    }

    #[test]
    fn touching_endpoints_count_as_double_coverage() {
        let xs = [iv(0.0, 1.0), iv(1.0, 2.0)];
        assert_eq!(k_covered_span(&xs, 2), Some(iv(1.0, 1.0)));
    }

    #[test]
    fn disconnected_coverage_region_yields_spanning_hull() {
        let xs = [iv(0.0, 2.0), iv(1.0, 2.0), iv(4.0, 6.0), iv(5.0, 6.0)];
        // >= 2 region is [1,2] ∪ [5,6]; Marzullo takes the span.
        assert_eq!(k_covered_span(&xs, 2), Some(iv(1.0, 6.0)));
    }

    #[test]
    fn degenerate_intervals_participate() {
        let xs = [iv(1.0, 1.0), iv(0.0, 2.0)];
        assert_eq!(k_covered_span(&xs, 2), Some(iv(1.0, 1.0)));
    }

    #[test]
    fn integer_grid_sweep() {
        let xs = [
            Interval::new(0_i64, 4).unwrap(),
            Interval::new(2, 6).unwrap(),
            Interval::new(5, 9).unwrap(),
        ];
        assert_eq!(
            k_covered_span(&xs, 2),
            Some(Interval::new(2_i64, 6).unwrap())
        );
    }

    #[test]
    fn coverage_map_point_and_segment_queries() {
        let xs = [iv(0.0, 4.0), iv(2.0, 6.0), iv(5.0, 9.0)];
        let map = CoverageMap::build(&xs);
        assert_eq!(map.breakpoints(), &[0.0, 2.0, 4.0, 5.0, 6.0, 9.0]);
        assert_eq!(map.point_coverages(), &[1, 2, 2, 2, 2, 1]);
        assert_eq!(map.segment_coverages(), &[1, 2, 1, 2, 1]);
    }

    #[test]
    fn coverage_map_span_agrees_with_sweep() {
        let xs = [iv(0.0, 4.0), iv(2.0, 6.0), iv(5.0, 9.0), iv(3.0, 3.5)];
        let map = CoverageMap::build(&xs);
        for k in 0..=5 {
            assert_eq!(map.span_at_least(k), k_covered_span(&xs, k), "k = {k}");
        }
    }

    #[test]
    fn coverage_map_empty_profile() {
        let map = CoverageMap::<f64>::build(&[]);
        assert!(map.point_coverages().is_empty());
        assert!(map.segment_coverages().is_empty());
        assert_eq!(map.span_at_least(1), None);
    }

    #[test]
    fn coverage_with_duplicated_intervals() {
        let xs = [iv(0.0, 1.0); 4];
        let map = CoverageMap::build(&xs);
        assert_eq!(map.point_coverages(), &[4, 4]);
        assert_eq!(k_covered_span(&xs, 4), Some(iv(0.0, 1.0)));
    }
}
