//! In-memory spans recorded by the harness around its own calls into
//! each layer. No crate under `crates/` knows about them.
//!
//! A span is (name, parent, start, busy time, calls). Calls made once
//! per step get their own span; calls made thousands of times per step
//! (one LG request, one feed delta, one UPDATE) are folded into one
//! *aggregate* child of the span that was open when they ran, whose
//! busy time is the sum of the calls. A layer's self time is its busy
//! time minus its children's, which works for both shapes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `looking-glass.collect`.
    pub name: String,
    /// Index of the enclosing span in the same list; `None` for a root.
    pub parent: Option<u32>,
    /// Start of the span (of the first call, for an aggregate).
    pub start_ns: u64,
    /// Time spent inside (summed over calls, for an aggregate).
    pub busy_ns: u64,
    /// 1 for a plain span; the number of calls folded into an aggregate.
    pub calls: u64,
    /// Which phase recorded it: `setup`, or the repetition number.
    pub phase: String,
}

struct Open {
    index: usize,
    /// Aggregate children created so far under this span, by name.
    aggregates: Vec<(&'static str, usize)>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<Open>,
    phase: String,
}

/// The span recorder. Disabled, every method is a plain call-through
/// with no clock read, which is how the end-to-end repetitions run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Label the spans recorded from here on.
    pub fn set_phase(&self, phase: &str) {
        if self.enabled {
            self.state.borrow_mut().phase = phase.to_string();
        }
    }

    /// Run `f` under a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        {
            let mut st = self.state.borrow_mut();
            let parent = st.stack.last().map(|o| o.index as u32);
            let index = st.spans.len();
            let phase = st.phase.clone();
            st.spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns: self.ns(start),
                busy_ns: 0,
                calls: 1,
                phase,
            });
            st.stack.push(Open {
                index,
                aggregates: Vec::new(),
            });
        }
        let out = f();
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        let open = st.stack.pop().expect("span stack is balanced");
        st.spans[open.index].busy_ns = end.duration_since(start).as_nanos() as u64;
        out
    }

    /// Run `f` and fold its time into the aggregate child `name` of the
    /// span currently open.
    pub fn busy<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let spent = start.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let Some(open) = st.stack.last_mut() else {
            return out;
        };
        let index = match open.aggregates.iter().find(|(n, _)| *n == name) {
            Some((_, i)) => *i,
            None => {
                let i = st.spans.len();
                st.spans.push(Span {
                    name: name.to_string(),
                    parent: Some(open.index as u32),
                    start_ns: start.duration_since(self.origin).as_nanos() as u64,
                    busy_ns: 0,
                    calls: 0,
                    phase: st.phase.clone(),
                });
                open.aggregates.push((name, i));
                i
            }
        };
        st.spans[index].busy_ns += spent;
        st.spans[index].calls += 1;
        out
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut self.state.borrow_mut().spans)
    }
}

/// Busy and self time per span name over one list of spans.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Σ busy time of the spans with this name, seconds.
    pub busy_s: BTreeMap<String, f64>,
    /// Σ (busy − children's busy), seconds.
    pub self_s: BTreeMap<String, f64>,
    /// Σ calls.
    pub calls: BTreeMap<String, u64>,
}

impl Totals {
    pub fn of(spans: &[Span]) -> Self {
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.busy_ns;
            }
        }
        let mut t = Totals::default();
        for (s, kids) in spans.iter().zip(children) {
            *t.busy_s.entry(s.name.clone()).or_default() += s.busy_ns as f64 / 1e9;
            *t.self_s.entry(s.name.clone()).or_default() +=
                s.busy_ns.saturating_sub(kids) as f64 / 1e9;
            *t.calls.entry(s.name.clone()).or_default() += s.calls;
        }
        t
    }

    pub fn busy(&self, name: &str) -> f64 {
        self.busy_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Name of the root span the harness opens around one timed repetition.
pub const RUN: &str = "run";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_children() {
        let tr = Tracer::new(true);
        tr.span(RUN, || {
            tr.span("a.outer", || {
                for _ in 0..3 {
                    tr.busy("b.inner", || std::hint::black_box(1 + 1));
                }
            });
        });
        let spans = tr.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].calls, 3);
        assert_eq!(spans[2].parent, Some(1));
        let t = Totals::of(&spans);
        let outer = t.busy("a.outer");
        let inner = t.busy("b.inner");
        assert!((t.self_s["a.outer"] - (outer - inner)).abs() < 1e-12);
        assert!(t.self_s[RUN] <= t.busy(RUN));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x.y", || tr.busy("x.z", || 7)), 7);
        assert!(tr.drain().is_empty());
    }
}
