//! RAII span timers and the bounded event ring they feed.

use std::collections::VecDeque;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{Histogram, Registry};

/// One finished span (or point event) in the trace ring buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Monotonic sequence number (counts all events ever pushed, including
    /// ones the ring has since evicted).
    pub seq: u64,
    /// Span / event name.
    pub name: String,
    /// Start offset from registry creation, in nanoseconds.
    pub t_ns: u64,
    /// Span duration in nanoseconds; `None` for point events.
    pub dur_ns: Option<u64>,
    /// Free-form detail attached to point events.
    pub detail: Option<String>,
}

/// Bounded ring of recent [`SpanEvent`]s. Capacity 0 disables logging.
pub(crate) struct EventRing {
    capacity: usize,
    next_seq: u64,
    /// Events evicted (or refused while disabled) since creation.
    dropped: u64,
    buf: VecDeque<SpanEvent>,
}

impl EventRing {
    pub(crate) fn disabled() -> Self {
        EventRing {
            capacity: 0,
            next_seq: 0,
            dropped: 0,
            buf: VecDeque::new(),
        }
    }

    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.buf.len() > capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn push(
        &mut self,
        name: String,
        t_ns: u64,
        dur_ns: Option<u64>,
        detail: Option<String>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(SpanEvent {
            seq,
            name,
            t_ns,
            dur_ns,
            detail,
        });
    }

    pub(crate) fn to_vec(&self) -> Vec<SpanEvent> {
        self.buf.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// RAII span timer from [`Registry::span`] / the [`span!`](crate::span!)
/// macro: on drop, records elapsed nanoseconds into the histogram of the
/// same name and appends to the event ring if enabled.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    registry: Registry,
    hist: Histogram,
    name: &'static str,
    start: Instant,
    start_off_ns: u64,
    trace: crate::trace::ActiveSpan,
}

impl Span {
    #[expect(
        clippy::disallowed_methods,
        reason = "obs is the instrumentation layer every clock read flows through"
    )]
    pub(crate) fn begin(registry: Registry, name: &'static str) -> Span {
        let Some(shared) = registry.shared() else {
            return Span { inner: None };
        };
        let start_off_ns = shared.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let hist = registry.histogram(name);
        let trace = crate::trace::begin_span(&registry, name);
        Span {
            inner: Some(SpanInner {
                registry,
                hist,
                name,
                start: Instant::now(),
                start_off_ns,
                trace,
            }),
        }
    }

    /// Stop the span now instead of at scope end.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        inner.hist.record(dur_ns);
        crate::trace::end_span(&inner.trace);
        if let Some(rec) = inner.trace.rec {
            if inner.registry.tracing_enabled() {
                inner.registry.record_trace(crate::trace::TraceSpan {
                    trace_id: rec.trace_id,
                    span_id: rec.span_id,
                    parent_id: rec.parent_id,
                    slot: rec.slot,
                    name: inner.name.to_string(),
                    start_ns: inner.start_off_ns,
                    dur_ns,
                });
            }
        }
        if let Some(shared) = inner.registry.shared() {
            let mut ring = shared.events.lock();
            if ring.is_enabled() {
                ring.push(
                    inner.name.to_string(),
                    inner.start_off_ns,
                    Some(dur_ns),
                    None,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_histogram() {
        let registry = Registry::new();
        {
            let _span = crate::span!(registry, "unit.work");
        }
        {
            let span = registry.span("unit.work");
            span.finish();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["unit.work"].count, 2);
    }

    #[test]
    fn event_ring_keeps_most_recent() {
        let registry = Registry::new();
        registry.enable_events(3);
        for i in 0..5 {
            let _span = registry.span(if i % 2 == 0 { "even" } else { "odd" });
        }
        let events = registry.events();
        assert_eq!(events.len(), 3);
        assert_eq!(registry.events_dropped(), 2);
        // oldest two evicted: sequences 2, 3, 4 remain in order
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(events.iter().all(|e| e.dur_ns.is_some()));
    }

    #[test]
    fn events_disabled_by_default() {
        let registry = Registry::new();
        {
            let _span = registry.span("quiet");
        }
        assert!(registry.events().is_empty());
        // histogram still recorded
        assert_eq!(registry.snapshot().histograms["quiet"].count, 1);
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let registry = Registry::new();
        registry.enable_events(16);
        {
            let _span = registry.span("a");
        }
        registry.event("note", "something happened");
        let jsonl = registry.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let parsed: SpanEvent = serde_json::from_str(line).expect("valid JSON line");
            assert!(!parsed.name.is_empty());
        }
        assert!(lines[1].contains("something happened"));
    }

    #[test]
    fn noop_registry_spans_are_inert() {
        let registry = Registry::noop();
        registry.enable_events(8);
        {
            let _span = registry.span("ghost");
        }
        assert!(registry.events().is_empty());
        assert!(registry.snapshot().histograms.is_empty());
    }
}
