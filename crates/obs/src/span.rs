//! RAII span timers.

use std::time::Instant;

use crate::metrics::{Histogram, Registry};

/// RAII span timer from [`Registry::span`] / the [`span!`](crate::span!)
/// macro: on drop, records elapsed nanoseconds into the histogram of the
/// same name and, while tracing is enabled, a trace-tree node.
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
        drop(registry.span("unit.work"));
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["unit.work"].count, 2);
    }

    #[test]
    fn noop_registry_spans_are_inert() {
        let registry = Registry::noop();
        registry.enable_tracing();
        {
            let _span = registry.span("ghost");
        }
        assert!(registry.take_trace_spans().is_empty());
        assert!(registry.snapshot().histograms.is_empty());
    }
}
