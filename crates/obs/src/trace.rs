//! Deterministic causal tracing: span trees with reproducible IDs.
//!
//! Every [`Span`](crate::Span) opened while tracing is enabled becomes a
//! node in a trace tree. The tree's shape is *causal*, not temporal:
//! a span's parent is the span that was active when it was opened — on
//! the same thread via a thread-local context stack, across
//! `par::map_indexed` workers via [`capture`]/[`attach_task`], and
//! across the looking-glass TCP transport via [`wire_ctx`]/[`adopt_wire`]
//! (the client puts the context in the request framing, the server
//! adopts it).
//!
//! # Deterministic IDs
//!
//! IDs are not random. A span's ID is an FNV-1a-style mix of its
//! parent's ID, its name, and a *slot* — the deterministic position at
//! which it was opened under that parent:
//!
//! * same-thread children take consecutive slots `0, 1, 2, …`;
//! * a task submitted to `par` at index `i` allocates its children from
//!   slot base `i << 32`, so the tree is identical no matter which
//!   worker ran the task or in what order;
//! * a request crossing the TCP transport carries one client-allocated
//!   slot, shifted by 16 bits on the server for its serving spans.
//!
//! Roots derive from ID 0 and a per-name root counter in the registry.
//! Because every input to the mix is a pure function of the program's
//! deterministic execution (seeds, input order, span structure), the
//! serialized tree — see [`tree_digest`] — is byte-identical under any
//! `PAR_THREADS`, making the trace itself an equivalence oracle
//! (`tests/trace_equivalence.rs`).
//!
//! Slots collide only when a task opens *no* span before nesting
//! another `par` fan-out (the inner tasks of different outer tasks then
//! share slot bases). The collision is itself deterministic, so the
//! oracle still holds; opening a span per task (as the pipeline does)
//! avoids it entirely.
//!
//! # Consumers
//!
//! * [`tree_digest`] — structural serialization (names, slots, IDs; no
//!   timing), the byte-comparable oracle form;
//! * [`chrome_trace_json`] — Chrome `trace_event` JSON, loadable in
//!   Perfetto / `chrome://tracing` (`repro --trace FILE` writes this);
//! * [`collapsed_stacks`] — folded `root;child;leaf self_ns` lines for
//!   flamegraph tooling;
//! * [`self_time_table`] / [`render_self_time`] — per-name self time
//!   (total minus children), the "where does the overhead actually
//!   live" table.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Deserialize, Serialize};

use crate::metrics::Registry;

/// Synthetic root name for spans opened inside a `par` task whose
/// submitting thread had no active span.
const DETACHED_TASK: &str = "par.detached";
/// Frame name installed by [`adopt_wire`] on the serving side.
const REMOTE_FRAME: &str = "lg.remote";

/// Process-wide switch: when off, spans skip ID derivation and nothing
/// is recorded (the name-only context stack still tracks the enclosing
/// span for call-site attribution).
static TRACING: AtomicBool = AtomicBool::new(false);

/// True once any registry called
/// [`enable_tracing`](crate::Registry::enable_tracing).
pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

pub(crate) fn set_enabled(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// The (trace, span) ID pair of one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIds {
    /// ID of the root span of this tree.
    pub trace_id: u64,
    /// This span's own ID.
    pub span_id: u64,
}

/// One finished span in a trace tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// ID of the tree's root span.
    pub trace_id: u64,
    /// This span's deterministic ID.
    pub span_id: u64,
    /// Parent span ID; 0 for roots.
    pub parent_id: u64,
    /// Deterministic position under the parent (see module docs).
    pub slot: u64,
    /// Span name (an `obs::names` constant).
    pub name: String,
    /// Start offset from registry creation, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// One level of the thread-local context stack.
struct Frame {
    /// Name of the span (or inherited context) this frame represents.
    name: &'static str,
    /// Unique removal token (spans can drop out of LIFO order).
    token: u64,
    /// IDs children derive from; `None` while tracing is disabled.
    ids: Option<SpanIds>,
    /// Next child slot to hand out.
    next_slot: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: Cell<u64> = const { Cell::new(1) };
}

fn fresh_token() -> u64 {
    NEXT_TOKEN.with(|t| {
        let v = t.get();
        t.set(v + 1);
        v
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_mix(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Derive a span ID from its parent's ID, its name, and its slot.
/// Pure and stable across processes; never returns 0 (0 means "no
/// parent").
pub fn derive_id(parent_id: u64, name: &str, slot: u64) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_mix(h, &parent_id.to_le_bytes());
    h = fnv_mix(h, name.as_bytes());
    h = fnv_mix(h, &slot.to_le_bytes());
    h | 1
}

/// What [`begin_span`] recorded for one opened span; `Span` keeps this
/// and hands it back to [`end_span`] on drop.
pub(crate) struct ActiveSpan {
    token: u64,
    pub(crate) rec: Option<RecordedIds>,
}

/// The identity a finished span is recorded under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordedIds {
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
    pub(crate) parent_id: u64,
    pub(crate) slot: u64,
}

/// Open a span: push a context frame and (when tracing) derive its IDs
/// from the innermost enclosing frame, or mint a root from the
/// registry's per-name root counter.
pub(crate) fn begin_span(registry: &Registry, name: &'static str) -> ActiveSpan {
    let token = fresh_token();
    let rec = if enabled() {
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.last_mut().and_then(|f| {
                let ids = f.ids?;
                let slot = f.next_slot;
                f.next_slot += 1;
                Some((ids, slot))
            })
        });
        let (trace_id, span_id, parent_id, slot) = match parent {
            Some((ids, slot)) => (
                ids.trace_id,
                derive_id(ids.span_id, name, slot),
                ids.span_id,
                slot,
            ),
            None => {
                let slot = registry.next_root_slot(name);
                let id = derive_id(0, name, slot);
                (id, id, 0, slot)
            }
        };
        Some(RecordedIds {
            trace_id,
            span_id,
            parent_id,
            slot,
        })
    } else {
        None
    };
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            name,
            token,
            ids: rec.map(|r| SpanIds {
                trace_id: r.trace_id,
                span_id: r.span_id,
            }),
            next_slot: 0,
        })
    });
    ActiveSpan { token, rec }
}

/// Close a span's context frame (found by token — spans may finish out
/// of LIFO order).
pub(crate) fn end_span(active: &ActiveSpan) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|f| f.token == active.token) {
            stack.remove(pos);
        }
    });
}

/// The context a `par::map_indexed` call captures at submit time: the
/// innermost enclosing span's name and (when tracing) IDs.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    /// Name of the enclosing span (used to label `par.task_ns/<name>`).
    pub name: &'static str,
    /// IDs of the enclosing span; `None` while tracing is disabled.
    pub ids: Option<SpanIds>,
}

/// Capture the innermost active span on this thread, if any. `par`
/// calls this on the submitting thread and passes the result to
/// [`attach_task`] inside each task.
pub fn capture() -> Option<TraceCtx> {
    STACK.with(|s| {
        s.borrow().last().map(|f| TraceCtx {
            name: f.name,
            ids: f.ids,
        })
    })
}

/// RAII guard from [`attach_task`] / [`adopt_wire`]: restores the
/// thread's previous context stack on drop.
pub struct TaskGuard {
    saved: Option<Vec<Frame>>,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            STACK.with(|s| *s.borrow_mut() = saved);
        }
    }
}

fn swap_in(frame: Frame) -> TaskGuard {
    let saved = STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), vec![frame]));
    TaskGuard { saved: Some(saved) }
}

/// Re-attach a captured context inside a `par` task. Spans the task
/// opens parent directly to the submitting span, with child slots
/// allocated from `index << 32` so the tree is independent of worker
/// scheduling. A task with no captured context gets a deterministic
/// detached root derived from its index.
///
/// Returns a no-op guard while tracing is disabled.
pub fn attach_task(parent: Option<&TraceCtx>, index: usize) -> TaskGuard {
    if !enabled() {
        return TaskGuard { saved: None };
    }
    let base = (index as u64) << 32;
    let frame = match parent.and_then(|c| c.ids.map(|ids| (c.name, ids))) {
        Some((name, ids)) => Frame {
            name,
            token: fresh_token(),
            ids: Some(ids),
            next_slot: base,
        },
        None => {
            let id = derive_id(0, DETACHED_TASK, index as u64);
            Frame {
                name: DETACHED_TASK,
                token: fresh_token(),
                ids: Some(SpanIds {
                    trace_id: id,
                    span_id: id,
                }),
                next_slot: base,
            }
        }
    };
    swap_in(frame)
}

/// Trace context as carried over a wire transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCtx {
    /// Root ID of the caller's trace.
    pub trace_id: u64,
    /// The caller's active span.
    pub span_id: u64,
    /// Slot the caller allocated for this request.
    pub slot: u64,
}

/// Snapshot the current context for a wire request, allocating one
/// child slot from the active span. `None` while tracing is disabled or
/// no span is active.
pub fn wire_ctx() -> Option<WireCtx> {
    if !enabled() {
        return None;
    }
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let f = stack.last_mut()?;
        let ids = f.ids?;
        let slot = f.next_slot;
        f.next_slot += 1;
        Some(WireCtx {
            trace_id: ids.trace_id,
            span_id: ids.span_id,
            slot,
        })
    })
}

/// Adopt a wire context on the serving side: spans opened under the
/// guard parent to the remote caller's span, with slots under
/// `slot << 16`. Returns a no-op guard while tracing is disabled.
pub fn adopt_wire(ctx: WireCtx) -> TaskGuard {
    if !enabled() {
        return TaskGuard { saved: None };
    }
    swap_in(Frame {
        name: REMOTE_FRAME,
        token: fresh_token(),
        ids: Some(SpanIds {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
        }),
        next_slot: ctx.slot << 16,
    })
}

// --- tree consumers -----------------------------------------------------

/// Child index: span indexes grouped by parent ID, each group sorted by
/// (slot, name, span_id); plus root indexes (parent unknown or 0).
fn index_tree(spans: &[TraceSpan]) -> (Vec<usize>, BTreeMap<u64, Vec<usize>>) {
    let known: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent_id != 0 && known.contains(&s.parent_id) {
            children.entry(s.parent_id).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    let by_pos = |a: &usize, b: &usize| {
        let (x, y) = (&spans[*a], &spans[*b]);
        (x.slot, &x.name, x.span_id).cmp(&(y.slot, &y.name, y.span_id))
    };
    for group in children.values_mut() {
        group.sort_by(by_pos);
    }
    roots.sort_by(|a, b| {
        let (x, y) = (&spans[*a], &spans[*b]);
        (&x.name, x.slot, x.span_id).cmp(&(&y.name, y.slot, y.span_id))
    });
    (roots, children)
}

/// Depth-first walk in deterministic order; each span visited once
/// (duplicate IDs cannot loop). Yields (index, depth, path-so-far).
fn walk(spans: &[TraceSpan], mut visit: impl FnMut(usize, usize, &[usize])) {
    let (roots, children) = index_tree(spans);
    let mut seen = vec![false; spans.len()];
    // (index, depth) work stack; path maintained alongside
    let mut path: Vec<usize> = Vec::new();
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        path.truncate(depth);
        path.push(i);
        visit(i, depth, &path);
        if let Some(kids) = children.get(&spans[i].span_id) {
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
}

/// Serialize the structural tree — names, slots, IDs, children in slot
/// order; no timing — as indented text. This is the byte-comparable
/// form: two runs of a deterministic program produce identical digests
/// regardless of thread count or wall-clock behavior.
pub fn tree_digest(spans: &[TraceSpan]) -> String {
    let mut out = String::new();
    walk(spans, |i, depth, _| {
        let s = &spans[i];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} slot={:#x} id={:016x}\n",
            s.name, s.slot, s.span_id
        ));
    });
    out
}

/// Export spans as Chrome `trace_event` JSON (complete "X" events),
/// loadable in Perfetto or `chrome://tracing`. Lanes (`tid`) follow the
/// `par` task index of the nearest fan-out ancestor so parallel tasks
/// render side by side.
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    let mut lanes: Vec<u64> = vec![0; spans.len()];
    let mut events: Vec<String> = Vec::with_capacity(spans.len());
    walk(spans, |i, _, path| {
        let s = &spans[i];
        let parent_lane = path.len().checked_sub(2).map_or(0, |p| lanes[path[p]]);
        lanes[i] = if s.slot >= (1 << 32) {
            (s.slot >> 32) + 1
        } else {
            parent_lane
        };
        let name = serde_json::to_string(&s.name).unwrap_or_else(|_| "\"?\"".into());
        events.push(format!(
            "{{\"name\":{name},\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\
             \"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\
             \"parent_id\":\"{:016x}\",\"slot\":\"{:#x}\"}}}}",
            lanes[i],
            s.start_ns as f64 / 1000.0,
            s.dur_ns as f64 / 1000.0,
            s.trace_id,
            s.span_id,
            s.parent_id,
            s.slot,
        ));
    });
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        events.join(",\n")
    )
}

/// Self time per span: duration minus the summed duration of direct
/// children (saturating — overlapping parallel children can exceed the
/// parent's wall time).
fn self_ns_per_span(spans: &[TraceSpan]) -> Vec<u64> {
    let mut child_sum: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent_id != 0 {
            *child_sum.entry(s.parent_id).or_insert(0) += s.dur_ns;
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns
                .saturating_sub(child_sum.get(&s.span_id).copied().unwrap_or(0))
        })
        .collect()
}

/// Folded collapsed-stack lines (`root;child;leaf self_ns`), aggregated
/// by path and sorted, for flamegraph tooling.
pub fn collapsed_stacks(spans: &[TraceSpan]) -> String {
    let self_ns = self_ns_per_span(spans);
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    walk(spans, |i, _, path| {
        let names: Vec<&str> = path.iter().map(|&p| spans[p].name.as_str()).collect();
        *folded.entry(names.join(";")).or_insert(0) += self_ns[i];
    });
    let mut out = String::new();
    for (path, ns) in folded {
        out.push_str(&format!("{path} {ns}\n"));
    }
    out
}

/// One row of the self-time profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Spans aggregated under this name.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Total minus time spent in child spans, nanoseconds.
    pub self_ns: u64,
}

/// Aggregate spans by name into self-time rows, sorted by self time
/// (descending), ties by name.
pub fn self_time_table(spans: &[TraceSpan]) -> Vec<SelfTime> {
    let self_ns = self_ns_per_span(spans);
    let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&self_ns) {
        let row = by_name.entry(s.name.as_str()).or_insert_with(|| SelfTime {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns;
        row.self_ns += own;
    }
    let mut rows: Vec<SelfTime> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Render the top-`k` self-time rows as an aligned text table: where
/// the run's wall time actually went, after subtracting child spans.
pub fn render_self_time(rows: &[SelfTime], k: usize) -> String {
    let grand: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "count", "total", "self", "self%"
    ));
    for r in rows.iter().take(k) {
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>12} {:>6.1}%\n",
            r.name,
            r.count,
            crate::report::fmt_ns(r.total_ns as f64),
            crate::report::fmt_ns(r.self_ns as f64),
            if grand == 0 {
                0.0
            } else {
                r.self_ns as f64 / grand as f64 * 100.0
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The TRACING flag is process-global and cargo runs tests on
    /// multiple threads; every test that reads or writes it takes this
    /// lock (and sets the state it needs) first.
    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    fn with_tracing_on() -> MutexGuard<'static, ()> {
        let guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        guard
    }

    fn span(
        name: &str,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        slot: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> TraceSpan {
        TraceSpan {
            trace_id,
            span_id,
            parent_id,
            slot,
            name: name.to_string(),
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn derive_id_is_pure_and_nonzero() {
        assert_eq!(derive_id(7, "a.b", 3), derive_id(7, "a.b", 3));
        assert_ne!(derive_id(7, "a.b", 3), derive_id(7, "a.b", 4));
        assert_ne!(derive_id(7, "a.b", 3), derive_id(8, "a.b", 3));
        assert_ne!(derive_id(7, "a.b", 3), derive_id(7, "a.c", 3));
        for slot in 0..100 {
            assert_ne!(derive_id(0, "x.y", slot), 0);
        }
    }

    #[test]
    fn spans_form_deterministic_tree() {
        let _flag = with_tracing_on();
        let r = Registry::new();
        r.enable_tracing();
        let run = || {
            {
                let _root = r.span("unit.root");
                {
                    let _a = r.span("unit.alpha");
                }
                {
                    let _b = r.span("unit.beta");
                }
            }
            r.take_trace_spans()
        };
        let first = run();
        let second = run();
        assert_eq!(first.len(), 3);
        // identical structure AND identical IDs across runs (the root
        // counter resets on take_trace_spans)
        assert_eq!(tree_digest(&first), tree_digest(&second));
        let root = first.iter().find(|s| s.name == "unit.root").expect("root");
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.trace_id, root.span_id);
        let alpha = first
            .iter()
            .find(|s| s.name == "unit.alpha")
            .expect("alpha");
        let beta = first.iter().find(|s| s.name == "unit.beta").expect("beta");
        assert_eq!(alpha.parent_id, root.span_id);
        assert_eq!(beta.parent_id, root.span_id);
        assert_eq!((alpha.slot, beta.slot), (0, 1));
        assert_eq!(alpha.trace_id, root.span_id);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "this test drives the trace-context plumbing directly"
    )]
    fn attach_task_rebases_and_restores() {
        let _flag = with_tracing_on();
        let r = Registry::new();
        r.enable_tracing();
        let parent_ctx;
        {
            let _root = r.span("unit.submit");
            parent_ctx = capture().expect("context");
            {
                let _task = attach_task(Some(&parent_ctx), 5);
                let _child = r.span("unit.task_child");
            }
            // guard dropped: the submitting frame is active again
            let after = capture().expect("context");
            assert_eq!(
                after.ids.map(|i| i.span_id),
                parent_ctx.ids.map(|i| i.span_id)
            );
        }
        let spans = r.take_trace_spans();
        let submit = spans
            .iter()
            .find(|s| s.name == "unit.submit")
            .expect("submit");
        let child = spans
            .iter()
            .find(|s| s.name == "unit.task_child")
            .expect("child");
        assert_eq!(child.parent_id, submit.span_id);
        assert_eq!(child.slot, 5u64 << 32);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "this test drives the trace-context plumbing directly"
    )]
    fn detached_task_gets_deterministic_root() {
        let _flag = with_tracing_on();
        let r = Registry::new();
        r.enable_tracing();
        {
            let _task = attach_task(None, 2);
            let _child = r.span("unit.orphan");
        }
        {
            let _task = attach_task(None, 2);
            let _child = r.span("unit.orphan");
        }
        let spans = r.take_trace_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].span_id, spans[1].span_id);
        assert_eq!(spans[0].parent_id, derive_id(0, DETACHED_TASK, 2));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "this test drives the trace-context plumbing directly"
    )]
    fn wire_ctx_allocates_slots_and_adopt_parents_to_caller() {
        let _flag = with_tracing_on();
        let r = Registry::new();
        r.enable_tracing();
        {
            let _root = r.span("unit.client");
            let w1 = wire_ctx().expect("ctx");
            let w2 = wire_ctx().expect("ctx");
            assert_eq!(w1.span_id, w2.span_id);
            assert_eq!(w2.slot, w1.slot + 1);
            {
                let _serve = adopt_wire(w1);
                let _span = r.span("unit.serve");
            }
        }
        let spans = r.take_trace_spans();
        let client = spans
            .iter()
            .find(|s| s.name == "unit.client")
            .expect("client");
        let serve = spans
            .iter()
            .find(|s| s.name == "unit.serve")
            .expect("serve");
        assert_eq!(serve.parent_id, client.span_id);
        assert_eq!(serve.trace_id, client.trace_id);
    }

    #[test]
    fn digest_orders_children_by_slot_not_insertion() {
        let spans = vec![
            span("t.root", 1, 1, 0, 0, 0, 100),
            span("t.late", 1, 3, 1, 1, 60, 10),
            span("t.early", 1, 2, 1, 0, 10, 10),
        ];
        let digest = tree_digest(&spans);
        let early = digest.find("t.early").expect("early in digest");
        let late = digest.find("t.late").expect("late in digest");
        assert!(early < late, "{digest}");
        assert!(digest.starts_with("t.root"));
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("t.root", 1, 1, 0, 0, 0, 100),
            span("t.leaf", 1, 2, 1, 0, 10, 30),
            span("t.leaf", 1, 3, 1, 1, 50, 30),
        ];
        let rows = self_time_table(&spans);
        assert_eq!(rows[0].name, "t.leaf");
        assert_eq!(rows[0].self_ns, 60);
        let root = rows.iter().find(|r| r.name == "t.root").expect("root row");
        assert_eq!(root.self_ns, 40);
        let rendered = render_self_time(&rows, 10);
        assert!(rendered.contains("t.leaf"));
        assert!(rendered.contains("self%"));
    }

    #[test]
    fn collapsed_stacks_fold_paths() {
        let spans = vec![
            span("t.root", 1, 1, 0, 0, 0, 100),
            span("t.leaf", 1, 2, 1, 0, 10, 30),
        ];
        let folded = collapsed_stacks(&spans);
        assert!(folded.contains("t.root 70\n"));
        assert!(folded.contains("t.root;t.leaf 30\n"));
    }

    #[test]
    fn chrome_json_has_events_and_lanes() {
        let spans = vec![
            span("t.root", 1, 1, 0, 0, 0, 100_000),
            span("t.task", 1, 2, 1, 3u64 << 32, 10_000, 30_000),
        ];
        let json = chrome_trace_json(&spans);
        // must parse as JSON (the vendored Value has no Index impl, so
        // the shape is checked on the emitted text)
        serde_json::parse_value(&json).expect("valid JSON");
        assert!(json.contains("\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // the par task at index 3 lands in lane 4; the root in lane 0
        assert!(json.contains("\"name\":\"t.root\",\"ph\":\"X\",\"pid\":1,\"tid\":0"));
        assert!(json.contains("\"name\":\"t.task\",\"ph\":\"X\",\"pid\":1,\"tid\":4"));
        assert!(json.contains("\"ts\":10.000"));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "this test drives the trace-context plumbing directly"
    )]
    fn disabled_tracing_records_nothing_but_tracks_names() {
        let _flag = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let r = Registry::new();
        {
            let _root = r.span("unit.quiet");
            let ctx = capture().expect("name-only context");
            assert_eq!(ctx.name, "unit.quiet");
            assert!(ctx.ids.is_none());
        }
        assert!(r.take_trace_spans().is_empty());
    }
}
