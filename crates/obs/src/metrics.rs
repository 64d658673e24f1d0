//! Instrument handles and the registry that mints them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::span::{EventRing, Span, SpanEvent};
use crate::trace::TraceSpan;

/// Hard cap on buffered trace spans per registry; recording stops (and
/// is counted as dropped by the length plateau) beyond it.
const TRACE_SPAN_CAP: usize = 1 << 20;

/// Number of histogram buckets: bucket 0 holds zero, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i)`.
pub(crate) const BUCKETS: usize = 65;

/// Map a value to its log bucket index.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing total. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// An instantaneous level. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Move the level up.
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Move the level down.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for i in 0..BUCKETS {
            let n = self.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper_bound(i), n));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A log-bucketed distribution of `u64` samples (typically nanoseconds).
/// Cloning shares the underlying buckets.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("enabled", &self.0.is_some())
            .finish()
    }
}

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// Record an elapsed duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Start a timer that records into this histogram when dropped.
    /// This is the allocation-free hot path; [`Registry::span`] adds
    /// name lookup and optional event logging on top.
    #[expect(
        clippy::disallowed_methods,
        reason = "obs is the instrumentation layer every clock read flows through"
    )]
    #[inline]
    pub fn start(&self) -> HistogramTimer {
        HistogramTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Whether this handle records anywhere (false for no-op handles).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// RAII timer from [`Histogram::start`].
pub struct HistogramTimer {
    hist: Histogram,
    start: Instant,
}

impl HistogramTimer {
    /// Stop early and return the elapsed duration.
    pub fn stop(self) -> Duration {
        let elapsed = self.start.elapsed();
        self.hist.record_duration(elapsed);
        std::mem::forget(self);
        elapsed
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

pub(crate) struct Shared {
    pub(crate) start: Instant,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCore>>>,
    pub(crate) events: Mutex<EventRing>,
    /// Whether finished spans are recorded as trace-tree nodes.
    tracing: AtomicBool,
    /// Finished trace spans, in completion order (the tree structure
    /// lives in the IDs, not in this ordering).
    traces: Mutex<Vec<TraceSpan>>,
    /// Per-name root slot counters; reset by [`Registry::take_trace_spans`]
    /// so consecutive traces mint identical root IDs.
    root_slots: Mutex<BTreeMap<String, u64>>,
}

/// A collection of named instruments.
///
/// Cheap to clone (all clones share the same instruments). A registry built
/// with [`Registry::noop`] mints inert handles and records nothing — useful
/// for measuring instrumentation overhead and for callers that want the
/// wiring without the bookkeeping.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Registry {
    /// A live registry with its own instrument namespace.
    #[expect(
        clippy::disallowed_methods,
        reason = "obs is the instrumentation layer every clock read flows through"
    )]
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Shared {
                start: Instant::now(),
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                events: Mutex::new(EventRing::disabled()),
                tracing: AtomicBool::new(false),
                traces: Mutex::new(Vec::new()),
                root_slots: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A registry that mints no-op handles and records nothing.
    pub fn noop() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry actually records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(shared) = &self.inner else {
            return Counter::noop();
        };
        if let Some(cell) = shared.counters.read().get(name) {
            return Counter(Some(cell.clone()));
        }
        let mut map = shared.counters.write();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(cell.clone()))
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(shared) = &self.inner else {
            return Gauge::noop();
        };
        if let Some(cell) = shared.gauges.read().get(name) {
            return Gauge(Some(cell.clone()));
        }
        let mut map = shared.gauges.write();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(cell.clone()))
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(shared) = &self.inner else {
            return Histogram::noop();
        };
        if let Some(core) = shared.histograms.read().get(name) {
            return Histogram(Some(core.clone()));
        }
        let mut map = shared.histograms.write();
        let core = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new()));
        Histogram(Some(core.clone()))
    }

    /// Start an RAII span timer feeding the histogram named `name`
    /// (see the [`span!`](crate::span!) macro).
    pub fn span(&self, name: &'static str) -> Span {
        Span::begin(self.clone(), name)
    }

    /// Turn on the span event ring buffer, keeping the most recent
    /// `capacity` finished spans for [`Registry::events_jsonl`].
    pub fn enable_events(&self, capacity: usize) {
        if let Some(shared) = &self.inner {
            shared.events.lock().set_capacity(capacity);
        }
    }

    /// Append a point event (no duration) to the event ring, if enabled.
    pub fn event(&self, name: &str, detail: impl Into<String>) {
        if let Some(shared) = &self.inner {
            let t_ns = shared.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            shared
                .events
                .lock()
                .push(name.to_string(), t_ns, None, Some(detail.into()));
        }
    }

    /// Number of events evicted from the ring since creation (the ring keeps
    /// only the most recent `capacity` events).
    pub fn events_dropped(&self) -> u64 {
        match &self.inner {
            Some(shared) => shared.events.lock().dropped(),
            None => 0,
        }
    }

    /// Drain-free view of the buffered span events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(shared) => shared.events.lock().to_vec(),
            None => Vec::new(),
        }
    }

    /// Export buffered span events as JSONL (one JSON object per line).
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            match serde_json::to_string(&event) {
                Ok(line) => {
                    out.push_str(&line);
                    out.push('\n');
                }
                Err(_) => continue,
            }
        }
        out
    }

    /// Turn on causal tracing: finished spans are recorded with
    /// deterministic trace/span/parent IDs (see [`crate::trace`]) until
    /// drained with [`Registry::take_trace_spans`].
    pub fn enable_tracing(&self) {
        if let Some(shared) = &self.inner {
            shared.tracing.store(true, Ordering::Relaxed);
            crate::trace::set_enabled(true);
        }
    }

    /// Whether this registry records trace spans.
    pub fn tracing_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|s| s.tracing.load(Ordering::Relaxed))
    }

    /// Copy of the buffered trace spans, in completion order.
    pub fn trace_spans(&self) -> Vec<TraceSpan> {
        match &self.inner {
            Some(shared) => shared.traces.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Drain the buffered trace spans and start a fresh trace epoch:
    /// the per-name root slot counters reset, so the next trace mints
    /// the same root IDs as this one did. Two identical runs separated
    /// by a `take_trace_spans` therefore produce byte-identical
    /// [`crate::trace::tree_digest`]s.
    pub fn take_trace_spans(&self) -> Vec<TraceSpan> {
        match &self.inner {
            Some(shared) => {
                shared.root_slots.lock().clear();
                std::mem::take(&mut *shared.traces.lock())
            }
            None => Vec::new(),
        }
    }

    /// Next root slot for a span named `name` opened with no enclosing
    /// context (per-name counter, reset each trace epoch).
    pub(crate) fn next_root_slot(&self, name: &str) -> u64 {
        match &self.inner {
            Some(shared) => {
                let mut slots = shared.root_slots.lock();
                let slot = slots.entry(name.to_string()).or_insert(0);
                let v = *slot;
                *slot += 1;
                v
            }
            None => 0,
        }
    }

    /// Buffer one finished trace span (bounded by an internal cap).
    pub(crate) fn record_trace(&self, span: TraceSpan) {
        if let Some(shared) = &self.inner {
            let mut traces = shared.traces.lock();
            if traces.len() < TRACE_SPAN_CAP {
                traces.push(span);
            }
        }
    }

    pub(crate) fn shared(&self) -> Option<&Arc<Shared>> {
        self.inner.as_ref()
    }

    /// Capture a point-in-time snapshot of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let Some(shared) = &self.inner else {
            return Snapshot::default();
        };
        let counters = shared
            .counters
            .read()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = shared
            .gauges
            .read()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = shared
            .histograms
            .read()
            .iter()
            .map(|(name, core)| (name.clone(), core.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // every bucket's upper bound maps back into that bucket
        for i in 1..64 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let registry = Registry::new();
        let c = registry.counter("test.counter");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // same name returns the same underlying cell
        assert_eq!(registry.counter("test.counter").get(), 42);

        let g = registry.gauge("test.gauge");
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let registry = Registry::new();
        let h = registry.histogram("test.hist");
        for v in [0, 1, 1, 5, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = registry.snapshot();
        let hs = &snap.histograms["test.hist"];
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1_001_007);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1_000_000);
        assert_eq!(hs.buckets.iter().map(|(_, n)| n).sum::<u64>(), 6);
    }

    #[test]
    fn noop_registry_records_nothing() {
        let registry = Registry::noop();
        let c = registry.counter("x");
        c.add(100);
        assert_eq!(c.get(), 0);
        registry.histogram("y").record(5);
        registry.gauge("z").set(9);
        let snap = registry.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn histogram_timer_records() {
        let registry = Registry::new();
        let h = registry.histogram("t");
        {
            let _timer = h.start();
            std::hint::black_box(1 + 1);
        }
        let d = h.start().stop();
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["t"].count, 2);
        assert!(d <= Duration::from_secs(1));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test shares handles across raw threads to prove they are Send + Sync"
    )]
    fn handles_are_shared_across_threads() {
        let registry = Registry::new();
        let c = registry.counter("mt");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
