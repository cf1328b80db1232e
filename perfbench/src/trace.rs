//! Outside-in tracing: timing decorators around the engine's `Fuser`,
//! `AttackStrategy` and `Detector` trait objects, and a per-thread
//! recorder that keeps spans in memory until the run ends.
//!
//! A span has a name ([`Layer::name`]), start, end, parent
//! ([`Layer::parent`]) and the cell it belongs to. Per-call spans of a
//! whole run would not fit in memory, so each layer's calls are folded
//! into a per-cell aggregate ([`CellSpan`]) plus a run-wide duration
//! histogram for percentiles. A round's self time is its duration minus
//! the forge, fuse and assess spans inside it.
//!
//! The decorators consume no randomness and forward every call
//! unchanged, so a decorated pipeline reproduces the undecorated one
//! exactly (the tracing-equivalence test pins this).

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use arsf_attack::{AttackStrategy, SlotContext};
use arsf_detect::{Detector, RoundAssessment};
use arsf_fusion::{Fuser, FusionError};
use arsf_interval::Interval;

/// A traced layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AttackStrategy::forge` on a compromised slot.
    Forge,
    /// `Fuser::fuse` once per round.
    Fuse,
    /// `Detector::assess` on fused rounds.
    Assess,
    /// `FusionPipeline::run_round_into`.
    Round,
    /// `LandShark::step_with` / `Platoon::step_with`, per vehicle.
    Step,
    /// `ScenarioRunner::try_new`.
    Build,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Forge,
        Layer::Fuse,
        Layer::Assess,
        Layer::Round,
        Layer::Step,
        Layer::Build,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Forge => "attack.forge",
            Layer::Fuse => "fusion.fuse",
            Layer::Assess => "detect.assess",
            Layer::Round => "pipeline.round",
            Layer::Step => "closed_loop.step",
            Layer::Build => "runner.build",
        }
    }

    /// The name of the span that encloses this one.
    pub fn parent(self) -> &'static str {
        match self {
            Layer::Forge | Layer::Fuse | Layer::Assess => "pipeline.round",
            Layer::Round | Layer::Step | Layer::Build => "cell",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn is_round_child(self) -> bool {
        matches!(self, Layer::Forge | Layer::Fuse | Layer::Assess)
    }
}

/// Durations up to this many nanoseconds are binned exactly.
const BUCKETS: usize = 1 << 17;

/// A 1-ns-resolution duration histogram (longer durations share one
/// overflow bucket). Recording never allocates, so it is safe inside
/// spans whose allocations are being counted.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS + 1],
            total: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        let bucket = (ns as usize).min(BUCKETS);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// The `q`-quantile in nanoseconds (nearest rank); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (ns, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return ns as f64;
            }
        }
        BUCKETS as f64
    }
}

/// Calls made and nanoseconds spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Completed calls.
    pub calls: u64,
    /// Nanoseconds inside them.
    pub ns: u64,
}

impl Totals {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }
}

/// One cell's span with its layers' calls folded into aggregates.
#[derive(Debug, Clone)]
pub struct CellSpan {
    /// Index of the grid within the workload.
    pub grid: usize,
    /// Cell index within the grid.
    pub cell: usize,
    /// Which pass over the workload this cell ran in.
    pub pass: usize,
    /// Start, in nanoseconds since the recorder was installed.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was installed.
    pub end_ns: u64,
    /// Per-layer aggregates of the spans inside the cell.
    pub layers: [Totals; LAYERS],
}

/// Everything one thread's traced run recorded.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    histograms: Vec<Histogram>,
    /// Run-wide per-layer aggregates.
    totals: [Totals; LAYERS],
    /// Σ over rounds of round time minus forge, fuse and assess time.
    pub round_self_ns: u64,
    /// `fuse` calls that returned an error.
    pub fuse_failures: u64,
    /// `assess` calls that flagged at least one sensor.
    pub flagged: u64,
    /// Closed cell spans, in completion order.
    pub spans: Vec<CellSpan>,
    open: Option<CellSpan>,
    round_children_ns: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            histograms: (0..LAYERS).map(|_| Histogram::new()).collect(),
            totals: [Totals::default(); LAYERS],
            round_self_ns: 0,
            fuse_failures: 0,
            flagged: 0,
            spans: Vec::new(),
            open: None,
            round_children_ns: 0,
        }
    }

    /// The duration histogram of one layer.
    pub fn histogram(&self, layer: Layer) -> &Histogram {
        &self.histograms[layer.index()]
    }

    /// Run-wide aggregate of one layer.
    pub fn total(&self, layer: Layer) -> Totals {
        self.totals[layer.index()]
    }

    fn record(&mut self, layer: Layer, ns: u64) {
        self.histograms[layer.index()].record(ns);
        self.totals[layer.index()].add(ns);
        if let Some(cell) = &mut self.open {
            cell.layers[layer.index()].add(ns);
        }
        if layer.is_round_child() {
            self.round_children_ns += ns;
        } else if layer == Layer::Round {
            self.round_self_ns += ns.saturating_sub(self.round_children_ns);
            self.round_children_ns = 0;
        }
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding any earlier recording).
pub fn install() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
    ON.with(|on| on.set(true));
}

/// Stops recording on this thread and returns what was recorded.
///
/// # Panics
///
/// Panics if [`install`] was not called on this thread.
pub fn take() -> Recorder {
    ON.with(|on| on.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::install must precede trace::take")
}

/// Whether this thread is recording.
pub fn recording() -> bool {
    ON.with(Cell::get)
}

/// Opens a span: the start instant while recording, else `None`.
#[inline]
pub fn begin() -> Option<Instant> {
    recording().then(Instant::now)
}

/// Closes a span opened by [`begin`], recording it under `layer`.
#[inline]
pub fn end(layer: Layer, start: Option<Instant>) {
    if let Some(start) = start {
        let ns = start.elapsed().as_nanos() as u64;
        RECORDER.with(|r| {
            if let Some(recorder) = r.borrow_mut().as_mut() {
                recorder.record(layer, ns);
            }
        });
    }
}

/// Records an already-measured span of `ns` nanoseconds.
pub fn record(layer: Layer, ns: u64) {
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            recorder.record(layer, ns);
        }
    });
}

/// Opens the span of one cell; the layers recorded until
/// [`close_cell`] are folded into it.
pub fn open_cell(grid: usize, cell: usize, pass: usize) {
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            let start_ns = recorder.epoch.elapsed().as_nanos() as u64;
            recorder.open = Some(CellSpan {
                grid,
                cell,
                pass,
                start_ns,
                end_ns: start_ns,
                layers: [Totals::default(); LAYERS],
            });
        }
    });
}

/// Closes the span opened by [`open_cell`].
pub fn close_cell() {
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            if let Some(mut span) = recorder.open.take() {
                span.end_ns = recorder.epoch.elapsed().as_nanos() as u64;
                recorder.spans.push(span);
            }
        }
    });
}

fn bump(counter: fn(&mut Recorder) -> &mut u64) {
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            *counter(recorder) += 1;
        }
    });
}

/// Busy-waits for `delay` (an injected slowdown: sleeping would yield
/// the core and measure the scheduler instead).
fn spin(delay: Duration) {
    let start = Instant::now();
    while start.elapsed() < delay {
        std::hint::spin_loop();
    }
}

/// A timing decorator around one of the engine's trait objects, with an
/// optional fixed delay inside the span (the injected-slowdown
/// self-test's knob; zero otherwise).
#[derive(Debug)]
pub struct Traced<T> {
    inner: T,
    delay: Duration,
}

impl<T> Traced<T> {
    /// Wraps `inner` with no added delay.
    pub fn new(inner: T) -> Self {
        Traced::with_delay(inner, Duration::ZERO)
    }

    /// Wraps `inner`, busy-waiting `delay` inside every call.
    pub fn with_delay(inner: T, delay: Duration) -> Self {
        Traced { inner, delay }
    }

    #[inline]
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce(&mut T) -> R) -> R {
        let start = begin();
        if !self.delay.is_zero() {
            spin(self.delay);
        }
        let result = f(&mut self.inner);
        end(layer, start);
        result
    }
}

impl<F: Fuser<f64>> Fuser<f64> for Traced<F> {
    fn fuse(&mut self, intervals: &[Interval<f64>]) -> Result<Interval<f64>, FusionError> {
        let result = self.call(Layer::Fuse, |inner| inner.fuse(intervals));
        if result.is_err() && recording() {
            bump(|r| &mut r.fuse_failures);
        }
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl AttackStrategy for Traced<Box<dyn AttackStrategy>> {
    fn forge(&mut self, ctx: &SlotContext<'_>) -> Interval<f64> {
        self.call(Layer::Forge, |inner| inner.forge(ctx))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<D: Detector> Detector for Traced<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assess(
        &mut self,
        transmitted: &[(usize, Interval<f64>)],
        fusion: &Interval<f64>,
        out: &mut RoundAssessment,
    ) {
        self.call(Layer::Assess, |inner| {
            inner.assess(transmitted, fusion, out)
        });
        if !out.flagged.is_empty() && recording() {
            bump(|r| &mut r.flagged);
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_nearest_rank() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        for ns in [10, 20, 30, 40] {
            h.record(ns);
        }
        h.record(u64::MAX);
        assert_eq!(h.total, 5);
        assert_eq!(h.quantile(0.5), 30.0);
        assert_eq!(h.quantile(0.2), 10.0);
        assert_eq!(h.quantile(1.0), BUCKETS as f64);
    }

    #[test]
    fn round_self_time_excludes_child_spans() {
        install();
        open_cell(0, 3, 0);
        record(Layer::Forge, 70);
        record(Layer::Fuse, 10);
        record(Layer::Round, 100);
        record(Layer::Round, 50);
        close_cell();
        let recorder = take();
        assert_eq!(recorder.round_self_ns, 20 + 50);
        assert_eq!(recorder.total(Layer::Round), Totals { calls: 2, ns: 150 });
        assert_eq!(recorder.spans.len(), 1);
        assert_eq!(recorder.spans[0].cell, 3);
        assert_eq!(recorder.spans[0].layers[Layer::Forge.index()].ns, 70);
        assert!(!recording());
    }
}
