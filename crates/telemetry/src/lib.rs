//! # stm-telemetry — observability for the stm stack
//!
//! The paper's whole pitch is *observability on the cheap*: LBR/LCR rings
//! are hardware telemetry and LBRA/LCRA are statistical consumers of it.
//! This crate gives the reproduction the same property about itself —
//! always-compiled-in, near-zero-cost-when-off instrumentation of the
//! interpreter, the simulated hardware rings and the diagnosis pipeline.
//!
//! Three primitive kinds, all `std`-only and process-global:
//!
//! * [`Counter`] — a monotonically increasing atomic `u64`, declared at the
//!   use site with [`counter!`];
//! * [`Histogram`] — log2-bucketed value distribution (count, sum, min,
//!   max, percentile estimates), declared with [`histogram!`];
//! * [`Gauge`] — an instantaneous level (queue depth, failure streak)
//!   that moves both ways, declared with [`gauge!`];
//! * spans — hierarchical RAII wall-clock timers created with [`span`] /
//!   [`span_cat`], recorded as Chrome `trace_event` complete events, plus
//!   zero-duration [`instant`] markers.
//!
//! A structured, leveled JSONL event log (what *happened*, not how much
//! or how long) lives in [`log`]; the live health model and HTTP
//! endpoint built on these metrics live in the `stm-observatory` crate.
//!
//! Collection is gated by one global switch ([`set_enabled`]); when off,
//! every operation is a load of one relaxed atomic and an early return —
//! no locks, no allocation, no timestamps.
//!
//! Export lives in [`export`]: a human-readable summary table, a JSON
//! metrics object, and a Chrome `trace_event` JSON loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>. A minimal JSON value
//! type with an encoder *and* parser lives in [`json`] (the build is
//! offline; no serde).
//!
//! ## Example
//!
//! ```
//! stm_telemetry::set_enabled(true);
//! {
//!     let _run = stm_telemetry::span("demo.phase");
//!     stm_telemetry::counter!("demo.events").add(3);
//!     stm_telemetry::histogram!("demo.latency_us").record(250);
//! }
//! let m = stm_telemetry::metrics_snapshot();
//! assert_eq!(m.counter("demo.events"), Some(3));
//! let trace = stm_telemetry::export::chrome_trace(&stm_telemetry::take_spans());
//! assert!(trace.contains("demo.phase"));
//! stm_telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod json;
pub mod log;
pub mod status;

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global collection switch. Relaxed is enough: telemetry is advisory and
/// never synchronises program data.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on or off. Off is the default; when off every
/// instrumentation call is a true no-op (one relaxed atomic load).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of log2 histogram buckets: bucket `i` counts values in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros), up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The global registry of every counter/histogram that has ever recorded
/// a value, plus the span sink.
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    spans: Mutex<Vec<SpanRecord>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
    })
}

/// Process-wide monotonic epoch; all span timestamps are microseconds
/// since the first telemetry event.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A named monotonic counter. Declare one per site with [`counter!`]; the
/// static is registered globally on its first recorded increment.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates a zeroed counter (used by the [`counter!`] macro).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`; a no-op while collection is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.lock().unwrap().push(self);
        }
    }

    /// Adds one; a no-op while collection is disabled.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Declares (once) and returns a `&'static Counter` for this call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static COUNTER: $crate::Counter = $crate::Counter::new($name);
        &COUNTER
    }};
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A named log2-bucketed histogram of `u64` samples. Declare one per site
/// with [`histogram!`].
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// Creates an empty histogram (used by the [`histogram!`] macro).
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bucket index of a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records a sample; a no-op while collection is disabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().histograms.lock().unwrap().push(self);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            name: self.name.to_string(),
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Declares (once) and returns a `&'static Histogram` for this call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        &HISTOGRAM
    }};
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// A named instantaneous level (queue depth, in-flight jobs, live workers):
/// unlike a [`Counter`] it moves both ways and snapshots report its
/// *current* value, not an accumulation. Declare one per site with
/// [`gauge!`].
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// Creates a zeroed gauge (used by the [`gauge!`] macro).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicI64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Moves the level by `delta` (negative to lower it); a no-op while
    /// collection is disabled.
    #[inline]
    pub fn add(&'static self, delta: i64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
        self.register();
    }

    /// Sets the level outright; a no-op while collection is disabled.
    #[inline]
    pub fn set(&'static self, v: i64) {
        if !enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
        self.register();
    }

    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().gauges.lock().unwrap().push(self);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Declares (once) and returns a `&'static Gauge` for this call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static GAUGE: $crate::Gauge = $crate::Gauge::new($name);
        &GAUGE
    }};
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts; bucket `i` covers `[2^(i-1), 2^i)`, bucket 0 is
    /// exactly zero.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value, 0.0 when empty.
    #[must_use = "the computed mean is the result; use it"]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) as the upper bound of the
    /// bucket holding that rank — an over-estimate by at most 2x, which is
    /// the log2-bucket resolution.
    #[must_use = "the computed quantile is the result; use it"]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return match i {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        self.max
    }

    /// Bucket-wise difference against an `earlier` snapshot of the same
    /// metric: `count`, `sum` and the per-bucket tallies subtract.
    /// `min`/`max` keep this (later) snapshot's values — extrema cannot
    /// be attributed to a window, so they stay whole-process bounds.
    #[must_use = "the computed delta is the result; use it"]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut d = self.clone();
        d.count = self.count.saturating_sub(earlier.count);
        d.sum = self.sum.saturating_sub(earlier.sum);
        for (i, b) in d.buckets.iter_mut().enumerate() {
            *b = b.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0));
        }
        d
    }

    /// Folds another snapshot of the *same* metric name into this one —
    /// used when several call-site statics share a histogram name.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, b) in other.buckets.iter().enumerate() {
            self.buckets[i] += b;
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One finished span or instant marker, in Chrome `trace_event` terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Event name (`"lbra.ranking"`, ...).
    pub name: &'static str,
    /// Category (`"machine"`, `"hardware"`, `"diagnosis"`, ...).
    pub cat: &'static str,
    /// Logical thread id of the recording OS thread.
    pub tid: u64,
    /// Start, microseconds since the process telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds; `None` for instant markers.
    pub dur_us: Option<u64>,
    /// Process-unique id of this event (never 0 once recorded).
    pub id: u64,
    /// Id of the span that was open on the same thread when this event
    /// started; 0 for top-level events.
    pub parent: u64,
    /// Flow id tying this span into a cross-thread causal chain, 0 when
    /// the span is not part of any flow. See [`SpanGuard::with_flow`].
    pub flow: u64,
    /// This span's role in its flow; `None` whenever `flow` is 0.
    pub flow_phase: Option<FlowPhase>,
}

/// Where a span sits in a cross-thread flow. The Chrome trace exporter
/// maps the three phases to flow events `"s"` (start), `"t"` (step) and
/// `"f"` (end), which Perfetto renders as arrows between the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// The producing end of the chain (e.g. a job enqueue).
    Start,
    /// An intermediate hop (e.g. the worker executing the job).
    Step,
    /// The consuming end of the chain (e.g. ordered consumption).
    End,
}

/// Allocates a process-unique id for a new cross-thread flow. Hand the id
/// to every [`SpanGuard::with_flow`] participant of the chain.
pub fn new_flow_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Id of the innermost open span on this thread (0 = none); gives
    /// every record its `parent` without a global structure.
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn thread_index() -> u64 {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed) as u64;
    }
    INDEX.with(|i| *i)
}

/// Finished spans batch in a thread-local buffer and move to the global
/// sink in chunks, so span-heavy hot paths don't contend on one mutex.
const SPAN_FLUSH_THRESHOLD: usize = 128;

/// Bumped by [`reset`]. A thread-local buffer stamped with an older epoch
/// holds spans recorded *before* the reset; they are discarded (instead of
/// leaking into the next export) the next time that buffer is touched.
static SPAN_EPOCH: AtomicU64 = AtomicU64::new(0);

/// The buffer flushes on overflow and (via `Drop`) on thread exit.
struct LocalSpans {
    spans: Vec<SpanRecord>,
    epoch: u64,
}

impl LocalSpans {
    /// Drops spans recorded before the last [`reset`], which invalidated
    /// them by bumping [`SPAN_EPOCH`].
    fn sync_epoch(&mut self) {
        let current = SPAN_EPOCH.load(Ordering::Relaxed);
        if self.epoch != current {
            self.spans.clear();
            self.epoch = current;
        }
    }
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        self.sync_epoch();
        if !self.spans.is_empty() {
            registry().spans.lock().unwrap().append(&mut self.spans);
        }
    }
}

thread_local! {
    static LOCAL_SPANS: std::cell::RefCell<LocalSpans> =
        const { std::cell::RefCell::new(LocalSpans { spans: Vec::new(), epoch: 0 }) };
}

fn push_span(rec: SpanRecord) {
    let mut rec = Some(rec);
    let _ = LOCAL_SPANS.try_with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        l.spans.push(rec.take().unwrap());
        if l.spans.len() >= SPAN_FLUSH_THRESHOLD {
            registry().spans.lock().unwrap().append(&mut l.spans);
        }
    });
    if let Some(r) = rec {
        // The thread-local is gone (thread teardown); sink directly.
        registry().spans.lock().unwrap().push(r);
    }
}

fn flush_local_spans() {
    let _ = LOCAL_SPANS.try_with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        if !l.spans.is_empty() {
            registry().spans.lock().unwrap().append(&mut l.spans);
        }
    });
}

/// An RAII span: records a complete event from creation to drop. Created
/// by [`span`] / [`span_cat`]; inactive (fully free) when collection is
/// disabled at creation time.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    active: bool,
    id: u64,
    parent: u64,
    flow: u64,
    flow_phase: Option<FlowPhase>,
}

impl SpanGuard {
    /// The span's process-unique id; 0 when the guard is inactive
    /// (collection was off at creation).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ties this span into the cross-thread flow `flow` with the given
    /// phase, so the trace exporter draws an arrow through it. A no-op
    /// when the guard is inactive or `flow` is 0.
    pub fn with_flow(mut self, flow: u64, phase: FlowPhase) -> SpanGuard {
        if self.active && flow != 0 {
            self.flow = flow;
            self.flow_phase = Some(phase);
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_us();
        let _ = CURRENT_SPAN.try_with(|c| c.set(self.parent));
        push_span(SpanRecord {
            name: self.name,
            cat: self.cat,
            tid: thread_index(),
            start_us: self.start_us,
            dur_us: Some(end.saturating_sub(self.start_us)),
            id: self.id,
            parent: self.parent,
            flow: self.flow,
            flow_phase: self.flow_phase,
        });
    }
}

/// Opens a span in the default category; closes when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    span_cat(name, "stm")
}

/// Opens a span with an explicit category.
pub fn span_cat(name: &'static str, cat: &'static str) -> SpanGuard {
    let active = enabled();
    let (id, parent) = if active {
        let id = next_span_id();
        let parent = CURRENT_SPAN
            .try_with(|c| {
                let parent = c.get();
                c.set(id);
                parent
            })
            .unwrap_or(0);
        (id, parent)
    } else {
        (0, 0)
    };
    SpanGuard {
        name,
        cat,
        start_us: if active { now_us() } else { 0 },
        active,
        id,
        parent,
        flow: 0,
        flow_phase: None,
    }
}

/// Records an instant marker (a zero-duration event).
pub fn instant(name: &'static str, cat: &'static str) {
    if !enabled() {
        return;
    }
    push_span(SpanRecord {
        name,
        cat,
        tid: thread_index(),
        start_us: now_us(),
        dur_us: None,
        id: next_span_id(),
        parent: CURRENT_SPAN.try_with(|c| c.get()).unwrap_or(0),
        flow: 0,
        flow_phase: None,
    });
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// Every registered histogram.
    pub histograms: Vec<HistogramSnapshot>,
    /// `(name, level)` for every registered gauge.
    pub gauges: Vec<(String, i64)>,
}

impl MetricsSnapshot {
    /// The value of a counter, when registered.
    #[must_use = "the looked-up value is the result; use it"]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A histogram snapshot, when registered.
    #[must_use = "the looked-up snapshot is the result; use it"]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The level of a gauge, when registered.
    #[must_use = "the looked-up level is the result; use it"]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Difference against an earlier snapshot, covering all three metric
    /// kinds. Counters subtract (they are monotonic; missing-before names
    /// diff against zero) and zero deltas are dropped. Histograms
    /// subtract bucket-wise via [`HistogramSnapshot::delta`] and empty
    /// deltas are dropped. Gauges report the level *change* (which can be
    /// negative); unchanged gauges are dropped. Used by the table
    /// harnesses to attribute metrics to one benchmark.
    #[must_use = "the computed deltas are the result; use them"]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n).unwrap_or(0))))
            .filter(|(_, v)| *v > 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let d = match earlier.histogram(&h.name) {
                    Some(e) => h.delta(e),
                    None => h.clone(),
                };
                (d.count > 0).then_some(d)
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), v - earlier.gauge(n).unwrap_or(0)))
            .filter(|(_, v)| *v != 0)
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
            gauges,
        }
    }
}

/// Copies out every registered counter and histogram.
///
/// The `counter!`/`gauge!`/`histogram!` macros declare one static per
/// *call site*, so the same metric name may be registered several times
/// (e.g. a counter bumped on both the sequential and the pooled path of
/// an engine). Snapshots merge same-name entries — counters and gauges
/// sum, histograms combine — so each name appears exactly once.
#[must_use = "snapshotting does not export anything by itself; use the returned snapshot"]
pub fn metrics_snapshot() -> MetricsSnapshot {
    let mut counters: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for c in registry().counters.lock().unwrap().iter() {
        *counters.entry(c.name.to_string()).or_insert(0) += c.get();
    }
    let mut histograms: std::collections::BTreeMap<String, HistogramSnapshot> =
        std::collections::BTreeMap::new();
    for h in registry().histograms.lock().unwrap().iter() {
        let snap = h.snapshot();
        match histograms.entry(snap.name.clone()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(snap);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&snap),
        }
    }
    let mut gauges: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
    for g in registry().gauges.lock().unwrap().iter() {
        *gauges.entry(g.name.to_string()).or_insert(0) += g.get();
    }
    for (name, v) in labeled()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
    {
        *counters.entry(name.clone()).or_insert(0) += v;
    }
    for (name, v) in labeled()
        .gauges
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
    {
        *gauges.entry(name.clone()).or_insert(0) += v;
    }
    MetricsSnapshot {
        counters: counters.into_iter().collect(),
        histograms: histograms.into_values().collect(),
        gauges: gauges.into_iter().collect(),
    }
}

// ---------------------------------------------------------------------------
// Labeled metrics
// ---------------------------------------------------------------------------

/// Dynamically-labeled counters and gauges — the per-shard series the
/// fleet daemon publishes (`fleet.queue_depth{shard="sort"}`).
///
/// The `counter!`/`gauge!` macros declare one `&'static` cell per call
/// site, which cannot express a label set only known at runtime. Labeled
/// series instead live in one mutex-protected map keyed by the full
/// rendered series name, are created on first record, merge into
/// [`metrics_snapshot`] alongside the static metrics, and are cleared by
/// [`reset`]. They cost a lock plus a map lookup per record — fine for
/// per-snapshot daemon accounting, not for interpreter-hot paths.
struct LabeledRegistry {
    counters: Mutex<std::collections::BTreeMap<String, u64>>,
    gauges: Mutex<std::collections::BTreeMap<String, i64>>,
}

fn labeled() -> &'static LabeledRegistry {
    static LABELED: OnceLock<LabeledRegistry> = OnceLock::new();
    LABELED.get_or_init(|| LabeledRegistry {
        counters: Mutex::new(std::collections::BTreeMap::new()),
        gauges: Mutex::new(std::collections::BTreeMap::new()),
    })
}

/// The full series name of a labeled metric:
/// `name{label="value"}`. Quotes and backslashes in the value are
/// replaced with `_` so the rendered name always stays one
/// Prometheus-parseable token.
#[must_use = "the rendered series name is the result; use it"]
pub fn series_name(name: &str, label: &str, value: &str) -> String {
    let clean: String = value
        .chars()
        .map(|c| if c == '"' || c == '\\' { '_' } else { c })
        .collect();
    format!("{name}{{{label}=\"{clean}\"}}")
}

/// Adds to a labeled counter, creating the series on first record.
pub fn labeled_counter_add(name: &str, label: &str, value: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let key = series_name(name, label, value);
    *labeled()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .entry(key)
        .or_insert(0) += delta;
}

/// Sets a labeled gauge level, creating the series on first record.
pub fn labeled_gauge_set(name: &str, label: &str, value: &str, level: i64) {
    if !enabled() {
        return;
    }
    let key = series_name(name, label, value);
    labeled()
        .gauges
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(key, level);
}

/// Pushes the calling thread's buffered spans to the global sink now,
/// instead of waiting for chunk overflow or thread exit.
///
/// Short-lived worker threads need this: `std::thread::scope` (and
/// `JoinHandle::join`) can observe a thread as finished while its TLS
/// destructors — including the buffer's exit flush — are still running,
/// so spans left to the destructor may land *after* the joining thread's
/// [`take_spans`]. Flushing as the last act inside the closure puts the
/// spans in the sink before the join completes. Long-lived workers need
/// it too, since they never reach thread exit: the collection engine's
/// pool workers flush when they run out of jobs to claim, before they
/// deregister from the plan.
pub fn flush_thread() {
    flush_local_spans();
}

/// Drains every finished span recorded so far. Spans of one thread stay
/// in order; spans still buffered by *other* live threads arrive at their
/// next flush (chunk overflow or thread exit).
///
/// Dropping the result silently discards the drained spans — export them.
#[must_use = "draining removes the spans; dropping the result loses them"]
pub fn take_spans() -> Vec<SpanRecord> {
    flush_local_spans();
    std::mem::take(&mut *registry().spans.lock().unwrap())
}

/// Zeroes every registered metric and drops all recorded spans. Counters
/// and histograms stay registered (they are statics).
pub fn reset() {
    for c in registry().counters.lock().unwrap().iter() {
        c.reset();
    }
    for h in registry().histograms.lock().unwrap().iter() {
        h.reset();
    }
    for g in registry().gauges.lock().unwrap().iter() {
        g.reset();
    }
    labeled()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
    labeled()
        .gauges
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
    // Spans may still be batched in the thread-local buffers of *other*
    // live threads, where this thread cannot reach them. Bumping the
    // epoch invalidates those buffers in place: each one clears itself
    // the next time it is touched (push, flush or thread exit).
    SPAN_EPOCH.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL_SPANS.try_with(|l| l.borrow_mut().sync_epoch());
    registry().spans.lock().unwrap().clear();
    log::reset_events();
    status::clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Telemetry state is process-global; tests in this crate serialise on
    /// this lock so they can assert exact values.
    fn lock() -> MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        guard
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let _g = lock();
        let c = counter!("test.counter");
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(metrics_snapshot().counter("test.counter"), Some(42));
        set_enabled(false);
    }

    #[test]
    fn labeled_series_snapshot_and_reset() {
        let _g = lock();
        labeled_counter_add("test.fleet.shed", "shard", "sort", 3);
        labeled_counter_add("test.fleet.shed", "shard", "sort", 2);
        labeled_counter_add("test.fleet.shed", "shard", "apache", 1);
        labeled_gauge_set("test.fleet.depth", "shard", "sort", 7);
        labeled_gauge_set("test.fleet.depth", "shard", "sort", 4);
        let snap = metrics_snapshot();
        assert_eq!(snap.counter("test.fleet.shed{shard=\"sort\"}"), Some(5));
        assert_eq!(snap.counter("test.fleet.shed{shard=\"apache\"}"), Some(1));
        assert_eq!(snap.gauge("test.fleet.depth{shard=\"sort\"}"), Some(4));
        // Quotes/backslashes in values cannot break the series token.
        assert_eq!(
            series_name("n", "l", "a\"b\\c"),
            "n{l=\"a_b_c\"}".to_string()
        );
        reset();
        let snap = metrics_snapshot();
        assert_eq!(snap.counter("test.fleet.shed{shard=\"sort\"}"), None);
        assert_eq!(snap.gauge("test.fleet.depth{shard=\"sort\"}"), None);
        set_enabled(false);
    }

    #[test]
    fn same_name_call_sites_merge_into_one_snapshot_entry() {
        // Each macro invocation declares its own static, so the same name
        // registered from two call sites must still snapshot as ONE entry
        // with summed values — not two rows that downstream JSON objects
        // would dedupe arbitrarily.
        let _g = lock();
        counter!("test.dup.counter").add(2);
        counter!("test.dup.counter").add(3);
        gauge!("test.dup.gauge").add(4);
        gauge!("test.dup.gauge").add(-1);
        histogram!("test.dup.histogram").record(1);
        histogram!("test.dup.histogram").record(1000);
        let m = metrics_snapshot();
        let rows = |name: &str| m.counters.iter().filter(|(n, _)| n == name).count();
        assert_eq!(rows("test.dup.counter"), 1);
        assert_eq!(m.counter("test.dup.counter"), Some(5));
        assert_eq!(
            m.gauges
                .iter()
                .filter(|(n, _)| n == "test.dup.gauge")
                .count(),
            1
        );
        assert_eq!(m.gauge("test.dup.gauge"), Some(3));
        let hists = m
            .histograms
            .iter()
            .filter(|h| h.name == "test.dup.histogram")
            .count();
        assert_eq!(hists, 1);
        let h = m.histogram("test.dup.histogram").expect("registered");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1001);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        set_enabled(false);
    }

    #[test]
    fn gauges_move_both_ways_and_snapshot() {
        let _g = lock();
        let g = gauge!("test.gauge");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        assert_eq!(metrics_snapshot().gauge("test.gauge"), Some(3));
        g.set(-7);
        assert_eq!(metrics_snapshot().gauge("test.gauge"), Some(-7));
        reset();
        assert_eq!(g.get(), 0);
        set_enabled(false);
    }

    #[test]
    fn disabled_mode_is_a_true_noop() {
        let _g = lock();
        set_enabled(false);
        let c = counter!("test.disabled.counter");
        let h = histogram!("test.disabled.histogram");
        let ga = gauge!("test.disabled.gauge");
        c.add(5);
        h.record(5);
        ga.add(5);
        ga.set(9);
        assert_eq!(ga.get(), 0);
        instant("test.disabled.instant", "test");
        {
            let _s = span("test.disabled.span");
        }
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        let m = metrics_snapshot();
        assert_eq!(m.counter("test.disabled.counter"), None);
        assert!(m.histogram("test.disabled.histogram").is_none());
        assert_eq!(m.gauge("test.disabled.gauge"), None);
        assert!(take_spans().is_empty());
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = lock();
        let h = histogram!("test.histogram");
        for v in [0u64, 1, 1, 3, 8, 1000] {
            h.record(v);
        }
        let m = metrics_snapshot();
        let s = m.histogram("test.histogram").expect("registered");
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1013);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the two ones
        assert_eq!(s.buckets[2], 1); // 3 in [2,4)
        assert_eq!(s.buckets[4], 1); // 8 in [8,16)
        assert_eq!(s.buckets[10], 1); // 1000 in [512,1024)
        assert_eq!(s.quantile(0.5), 1); // rank 3 of 6 lands in the [1,2) bucket
        assert!(s.quantile(1.0) >= 1000);
        assert!((s.mean() - 1013.0 / 6.0).abs() < 1e-9);
        set_enabled(false);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn spans_nest_and_record_durations() {
        let _g = lock();
        {
            let _outer = span_cat("test.outer", "test");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span_cat("test.inner", "test");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            instant("test.marker", "test");
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        // Inner closes first, then the marker fires, then outer closes.
        let inner = &spans[0];
        let marker = &spans[1];
        let outer = &spans[2];
        assert_eq!(inner.name, "test.inner");
        assert_eq!(marker.name, "test.marker");
        assert_eq!(marker.dur_us, None);
        assert_eq!(outer.name, "test.outer");
        assert!(outer.start_us <= inner.start_us);
        let (od, id) = (outer.dur_us.unwrap(), inner.dur_us.unwrap());
        assert!(od >= id, "outer {od}us shorter than inner {id}us");
        assert!(outer.start_us + od >= inner.start_us + id);
        assert_eq!(inner.tid, outer.tid);
        set_enabled(false);
    }

    #[test]
    fn delta_since_diffs_counters() {
        let _g = lock();
        let c = counter!("test.delta");
        c.add(10);
        let before = metrics_snapshot();
        c.add(7);
        let after = metrics_snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.counter("test.delta"), Some(7));
        set_enabled(false);
    }

    #[test]
    fn delta_since_covers_histograms_and_gauges() {
        let _g = lock();
        let h = histogram!("test.delta.histogram");
        let g = gauge!("test.delta.gauge");
        let quiet = counter!("test.delta.quiet");
        h.record(3);
        h.record(100);
        g.add(5);
        quiet.add(2);
        let before = metrics_snapshot();
        h.record(3);
        h.record(40);
        g.add(-3);
        let after = metrics_snapshot();
        let delta = after.delta_since(&before);

        let hd = delta.histogram("test.delta.histogram").expect("present");
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 43);
        assert_eq!(hd.buckets[2], 1, "one new sample in [2,4)");
        assert_eq!(hd.buckets[6], 1, "one new sample in [32,64)");
        assert_eq!(hd.buckets[7], 0, "the pre-window 100 subtracted out");
        // Extrema are whole-process, not per-window.
        assert_eq!((hd.min, hd.max), (3, 100));

        assert_eq!(delta.gauge("test.delta.gauge"), Some(-3));
        // Untouched metrics drop out of the delta entirely.
        assert_eq!(delta.counter("test.delta.quiet"), None);
        let quiet_hist = delta.histograms.iter().filter(|h| h.count == 0).count();
        assert_eq!(quiet_hist, 0, "empty histogram deltas are dropped");
        set_enabled(false);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty snapshot: every quantile is 0.
        let empty = HistogramSnapshot {
            name: "e".to_string(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);

        // Single-bucket population: every quantile lands in that bucket.
        let mut single = empty.clone();
        single.name = "s".to_string();
        single.count = 10;
        single.sum = 50;
        single.min = 5;
        single.max = 7;
        single.buckets[3] = 10; // all samples in [4,8)
        assert_eq!(single.quantile(0.0), 7, "q=0 clamps to rank 1");
        assert_eq!(single.quantile(0.5), 7);
        assert_eq!(single.quantile(1.0), 7, "bucket upper bound 2^3-1");

        // q outside [0,1] clamps instead of panicking or overflowing.
        assert_eq!(single.quantile(-1.0), 7);
        assert_eq!(single.quantile(2.0), 7);

        // The top bucket saturates at u64::MAX.
        let mut top = empty.clone();
        top.count = 1;
        top.max = u64::MAX;
        top.buckets[64] = 1;
        assert_eq!(top.quantile(1.0), u64::MAX);
    }

    #[test]
    fn merge_edge_cases() {
        let empty = HistogramSnapshot {
            name: "m".to_string(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        let mut low = empty.clone();
        low.count = 2;
        low.sum = 3;
        low.min = 1;
        low.max = 2;
        low.buckets[1] = 1;
        low.buckets[2] = 1;
        let mut high = empty.clone();
        high.count = 1;
        high.sum = 1000;
        high.min = 1000;
        high.max = 1000;
        high.buckets[10] = 1;

        // Merging an empty snapshot changes nothing.
        let mut m = low.clone();
        m.merge(&empty);
        assert_eq!(m, low);

        // Merging *into* an empty snapshot adopts the other wholesale
        // (in particular min must not stay at the empty sentinel 0).
        let mut m = empty.clone();
        m.merge(&high);
        assert_eq!((m.count, m.min, m.max), (1, 1000, 1000));

        // Disjoint bucket ranges: totals sum, extrema span both, and the
        // occupied buckets stay disjoint.
        let mut m = low.clone();
        m.merge(&high);
        assert_eq!((m.count, m.sum), (3, 1003));
        assert_eq!((m.min, m.max), (1, 1000));
        assert_eq!((m.buckets[1], m.buckets[2], m.buckets[10]), (1, 1, 1));
        assert_eq!(m.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn spans_carry_ids_parents_and_flows() {
        let _g = lock();
        let flow = new_flow_id();
        {
            let _outer = span_cat("test.id.outer", "test");
            let _inner = span_cat("test.id.inner", "test").with_flow(flow, FlowPhase::Start);
            instant("test.id.marker", "test");
        }
        {
            let _after = span_cat("test.id.after", "test");
        }
        let spans = take_spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("recorded");
        let outer = by_name("test.id.outer");
        let inner = by_name("test.id.inner");
        let marker = by_name("test.id.marker");
        let after = by_name("test.id.after");
        assert_ne!(outer.id, 0);
        assert_ne!(outer.id, inner.id, "span ids are unique");
        assert_eq!(outer.parent, 0, "top-level span has no parent");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(marker.parent, inner.id, "instants attach to the open span");
        assert_eq!(after.parent, 0, "drop restores the previous parent");
        assert_eq!(inner.flow, flow);
        assert_eq!(inner.flow_phase, Some(FlowPhase::Start));
        assert_eq!(outer.flow, 0);
        assert_eq!(outer.flow_phase, None);
        set_enabled(false);
    }

    #[test]
    fn events_buffer_in_order_and_drain() {
        let _g = lock();
        log::set_stderr_level(None); // keep test output clean
        log::info("test", "first", vec![("k", "v".to_string())]);
        log::warn("test", "second", vec![]);
        let peeked = log::recent_events(10);
        assert_eq!(peeked.len(), 2, "recent_events must not drain");
        let events = log::take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, "first");
        assert_eq!(events[0].level, log::Level::Info);
        assert_eq!(events[0].fields, vec![("k", "v".to_string())]);
        assert_eq!(events[1].event, "second");
        assert!(events[0].ts_us <= events[1].ts_us);
        assert!(log::take_events().is_empty(), "drain empties the buffer");
        // Each event is one canonical JSONL line.
        let line = events[0].to_json().encode();
        let parsed = json::Json::parse(&line).expect("event line parses");
        assert_eq!(
            parsed.get("level").and_then(json::Json::as_str),
            Some("info")
        );
        assert_eq!(
            parsed
                .get("fields")
                .and_then(|f| f.get("k"))
                .and_then(json::Json::as_str),
            Some("v")
        );
        log::set_stderr_level(Some(log::Level::Warn));
        set_enabled(false);
    }

    #[test]
    fn events_do_not_buffer_while_disabled() {
        let _g = lock();
        log::set_stderr_level(None);
        set_enabled(false);
        log::error("test", "silent", vec![]);
        assert!(!log::would_log(log::Level::Error));
        set_enabled(true);
        assert!(log::take_events().is_empty());
        log::set_stderr_level(Some(log::Level::Warn));
        set_enabled(false);
    }

    #[test]
    fn event_buffer_is_bounded_and_counts_drops() {
        let _g = lock();
        log::set_stderr_level(None);
        for _ in 0..log::EVENT_CAPACITY + 5 {
            log::debug("test", "flood", vec![]);
        }
        assert_eq!(log::dropped_events(), 5);
        let events = log::take_events();
        assert_eq!(events.len(), log::EVENT_CAPACITY);
        reset();
        assert_eq!(log::dropped_events(), 0, "reset clears the drop count");
        log::set_stderr_level(Some(log::Level::Warn));
        set_enabled(false);
    }

    #[test]
    fn reset_keeps_gauge_and_delta_semantics_across_worker_flush() {
        // Regression companion to the epoch-stamped span-buffer fix: a
        // worker still running across a reset() must not resurrect
        // pre-reset state. Counters/gauges are registered statics, so a
        // post-reset snapshot must see exactly the post-reset activity,
        // and delta_since must never go negative (saturating) even when
        // the "earlier" snapshot predates the reset.
        let _g = lock();
        let before = {
            counter!("test.rst.counter").add(10);
            gauge!("test.rst.gauge").set(7);
            metrics_snapshot()
        };
        assert_eq!(before.gauge("test.rst.gauge"), Some(7));

        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            {
                let _s = span_cat("test.rst.stale", "test");
            }
            counter!("test.rst.counter").add(5);
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // Post-reset worker activity: the only state a subsequent
            // snapshot may observe.
            counter!("test.rst.counter").add(3);
            gauge!("test.rst.gauge").add(2);
            {
                let _s = span_cat("test.rst.fresh", "test");
            }
            flush_thread();
        });
        ready_rx.recv().unwrap();
        reset();
        go_tx.send(()).unwrap();
        worker.join().unwrap();

        let after = metrics_snapshot();
        assert_eq!(after.counter("test.rst.counter"), Some(3));
        assert_eq!(after.gauge("test.rst.gauge"), Some(2));
        // Diffing across a reset: counters saturate to zero-and-drop
        // rather than underflowing; the gauge reports the level change.
        let delta = after.delta_since(&before);
        assert_eq!(delta.counter("test.rst.counter"), None);
        assert_eq!(delta.gauge("test.rst.gauge"), Some(-5));
        let names: Vec<_> = take_spans().iter().map(|s| s.name).collect();
        assert!(!names.contains(&"test.rst.stale"), "{names:?}");
        assert!(names.contains(&"test.rst.fresh"), "{names:?}");
        set_enabled(false);
    }

    #[test]
    fn reset_discards_spans_batched_on_other_threads() {
        // Regression: reset() used to clear only the *calling* thread's
        // local buffer, so spans batched on a still-live worker thread
        // survived the reset and leaked into the next export.
        let _g = lock();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            {
                let _s = span_cat("test.reset.stale", "test");
            }
            // The span is now batched in this thread's local buffer.
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // Touch the buffer again after the main thread's reset; the
            // epoch bump must discard the stale span here.
            {
                let _s = span_cat("test.reset.fresh", "test");
            }
        });
        ready_rx.recv().unwrap();
        reset();
        go_tx.send(()).unwrap();
        worker.join().unwrap();
        let names: Vec<_> = take_spans().iter().map(|s| s.name).collect();
        assert!(
            !names.contains(&"test.reset.stale"),
            "pre-reset span leaked through reset: {names:?}"
        );
        assert!(
            names.contains(&"test.reset.fresh"),
            "post-reset span must survive: {names:?}"
        );
        set_enabled(false);
    }
}
