//! # par
//!
//! A deterministic scoped parallel executor for the collect→analyze
//! pipeline: [`map_indexed`] runs a function over a slice on N worker
//! threads but performs an **ordered join** — results come back in
//! input order, so every downstream artifact (datasets, tables,
//! goldens, chaos FNV-1a fingerprints) is bit-for-bit identical to the
//! serial run no matter how the OS schedules the workers.
//!
//! ## Why determinism holds
//!
//! Parallel execution can only change observable output through three
//! channels, and the pool closes all of them:
//!
//! 1. **Result order.** Workers tag every result with its input index
//!    and the join sorts by that index before returning, so the output
//!    `Vec` is a pure function of the input slice — never of thread
//!    interleaving.
//! 2. **Shared mutable state.** `map_indexed` takes `T: Sync` items and
//!    a `Fn(usize, &T) -> R + Sync` closure: tasks cannot mutate each
//!    other's inputs, and the pipeline's tasks are seeded per (ixp,
//!    day, afi) so they share no RNG stream. Observability counters are
//!    the one sanctioned shared sink, and those are commutative atomic
//!    adds (sharded per worker here and merged once at join, so the
//!    ingest path takes no lock).
//! 3. **Scheduling-dependent control flow.** Work distribution uses
//!    per-block atomic cursors (`fetch_add` claims), which affects only
//!    *which worker* runs a task, never *whether* or *with what input*
//!    it runs. Every index in `0..items.len()` is claimed exactly once.
//!
//! `PAR_THREADS=1` (or [`set_threads_override`]`(Some(1))`) degenerates
//! to a plain in-place serial loop — today's behavior, same stack, no
//! spawned threads.
//!
//! ## Work distribution
//!
//! The input range is split into one contiguous block per worker. Each
//! block carries an atomic cursor; a worker drains its own block by
//! `fetch_add(1)` and, once empty, steals from the other blocks'
//! cursors the same way. A claim is valid iff the returned index is
//! still inside the block, so no index is ever run twice and none is
//! skipped — without locks and without `unsafe`.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// In-process override of the worker count (used by benches and the
/// serial/parallel equivalence tests). `0` means "not set".
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while a pool worker runs tasks: nested `map_indexed` calls
    /// from inside a task run inline instead of spawning a second tier
    /// of threads (which would oversubscribe and add nothing).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Override the worker count for this process, taking precedence over
/// the `PAR_THREADS` environment variable. `None` removes the override.
pub fn set_threads_override(n: Option<usize>) {
    THREADS_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count [`map_indexed`] will use: the in-process override
/// if set, else the `PAR_THREADS` environment variable if it parses to
/// a positive integer, else the machine's available parallelism.
pub fn threads() -> usize {
    let o = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("PAR_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// True when called from inside a pool worker (nested calls run inline).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// One contiguous slice of the input range, drained via an atomic
/// cursor. `cursor` values at or past `end` mean the block is empty.
struct Block {
    cursor: AtomicUsize,
    end: usize,
}

/// Pre-minted metric handles for one `map_indexed` call. Handles are
/// cheap clones of `Arc`s onto the global registry's atomics; minting
/// them once per call keeps the per-task path lock-free.
struct PoolMetrics {
    tasks: obs::Counter,
    steals: obs::Counter,
    queue_depth: obs::Gauge,
    task_ns: obs::Histogram,
}

impl PoolMetrics {
    /// `site` is the span enclosing the `map_indexed` call on the
    /// submitting thread: when known, per-task time also lands in the
    /// call-site histogram `par.task_ns/<site>` so pool overhead is
    /// attributable per pipeline stage.
    fn mint(site: Option<&str>) -> Self {
        let r = obs::global();
        Self {
            tasks: r.counter(obs::names::PAR_TASKS),
            steals: r.counter(obs::names::PAR_STEALS),
            queue_depth: r.gauge(obs::names::PAR_QUEUE_DEPTH),
            task_ns: match site {
                Some(s) => r.histogram(&obs::names::par_task_site(s)),
                None => r.histogram(obs::names::PAR_TASK_NS),
            },
        }
    }
}

/// One worker's contribution to a [`map_indexed`] join: its task and
/// steal counts plus the index-tagged results it produced.
type Shard<R> = (u64, u64, Vec<(usize, R)>);

/// Map `f` over `items` on [`threads`] worker threads, returning the
/// results **in input order**. `f` receives `(index, &item)`.
///
/// Equivalent to `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`
/// for every `f` whose only shared side effects are commutative (obs
/// counters qualify; the pipeline's tasks are otherwise independent by
/// construction). Falls back to exactly that serial loop when the pool
/// is sized to one thread, when there is at most one item, or when
/// called from inside a pool worker.
///
/// Panics in `f` propagate to the caller (after all workers stop).
#[expect(
    clippy::disallowed_methods,
    reason = "the pool is the sanctioned thread and trace-context site: its ordered join keeps artifacts deterministic, and every task reattaches to the captured parent span"
)]
pub fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    // Capture the submitting thread's trace context once: tasks reattach
    // to it (same in the serial fallback, so the trace tree is identical)
    // and its span name labels the per-site task histogram.
    let parent = obs::trace::capture();
    let m = PoolMetrics::mint(parent.as_ref().map(|c| c.name));
    if workers <= 1 || n <= 1 || in_worker() {
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            let _task = obs::trace::attach_task(parent.as_ref(), i);
            let timer = m.task_ns.start();
            out.push(f(i, item));
            timer.stop();
        }
        m.tasks.add(n as u64);
        return out;
    }

    // One contiguous block per worker; block b owns [b*n/w, (b+1)*n/w).
    let blocks: Vec<Block> = (0..workers)
        .map(|b| Block {
            cursor: AtomicUsize::new(b * n / workers),
            end: (b + 1) * n / workers,
        })
        .collect();
    let completed = AtomicUsize::new(0);
    m.queue_depth.set(n as i64);

    let mut shards: Vec<Shard<R>> = Vec::with_capacity(workers);
    let shard_results = std::thread::scope(|scope| {
        let blocks = &blocks;
        let completed = &completed;
        let f = &f;
        let parent = &parent;
        let queue_depth = &m.queue_depth;
        let task_ns = &m.task_ns;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    let mut local: Vec<(usize, R)> = Vec::with_capacity(n / workers + 1);
                    let (mut tasks, mut steals) = (0u64, 0u64);
                    // Drain the own block first (offset 0), then steal
                    // from the others in round-robin order.
                    for offset in 0..workers {
                        let block = &blocks[(w + offset) % workers];
                        loop {
                            let idx = block.cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= block.end {
                                break;
                            }
                            tasks += 1;
                            if offset > 0 {
                                steals += 1;
                            }
                            let _task = obs::trace::attach_task(parent.as_ref(), idx);
                            let timer = task_ns.start();
                            local.push((idx, f(idx, &items[idx])));
                            timer.stop();
                            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                            queue_depth.set(n.saturating_sub(done) as i64);
                        }
                    }
                    IN_WORKER.with(|c| c.set(false));
                    (tasks, steals, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(shard) => shard,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect::<Vec<_>>()
    });
    shards.extend(shard_results);

    // Ordered join: merge the sharded metric counts (one atomic add per
    // worker, not per task) and sort results back into input order.
    let (mut total_tasks, mut total_steals) = (0u64, 0u64);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    for (tasks, steals, local) in shards {
        total_tasks += tasks;
        total_steals += steals;
        tagged.extend(local);
    }
    m.tasks.add(total_tasks);
    m.steals.add(total_steals);
    m.queue_depth.set(0);
    tagged.sort_unstable_by_key(|(idx, _)| *idx);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// `set_threads_override` is process-global and cargo runs tests on
    /// multiple threads; serialize the tests that touch it.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_threads_override(Some(n));
        let r = body();
        set_threads_override(None);
        r
    }

    #[test]
    fn results_in_input_order_all_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7] {
            let got = with_threads(threads, || map_indexed(&items, |_, &x| x * x + 1));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_position() {
        let items = vec!["a", "b", "c", "d", "e", "f", "g", "h"];
        let got = with_threads(4, || map_indexed(&items, |i, s| format!("{i}:{s}")));
        let expect: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{i}:{s}"))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let n = 1000usize;
        let runs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        with_threads(4, || {
            map_indexed(&items, |i, _| runs[i].fetch_add(1, Ordering::Relaxed))
        });
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(with_threads(4, || map_indexed(&empty, |_, &x| x)).is_empty());
        assert_eq!(
            with_threads(4, || map_indexed(&[9u32], |i, &x| (i, x))),
            vec![(0, 9)]
        );
    }

    #[test]
    fn nested_calls_run_inline() {
        let outer: Vec<u32> = (0..8).collect();
        let got = with_threads(4, || {
            map_indexed(&outer, |_, &x| {
                assert!(in_worker() || threads() == 1);
                let inner: Vec<u32> = (0..4).collect();
                map_indexed(&inner, |_, &y| x * 10 + y).iter().sum::<u32>()
            })
        });
        let expect: Vec<u32> = outer.iter().map(|&x| 40 * x + 6).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn env_and_override_resolution() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_threads_override(Some(3));
        assert_eq!(threads(), 3);
        set_threads_override(None);
        assert!(threads() >= 1);
    }

    #[test]
    fn pool_metrics_account_for_all_tasks() {
        // the counters are process-global: read them under the same lock
        // that serializes every other pool user in this test binary
        let items: Vec<u64> = (0..64).collect();
        with_threads(4, || {
            let before = obs::global().counter(obs::names::PAR_TASKS).get();
            map_indexed(&items, |_, &x| x + 1);
            let after = obs::global().counter(obs::names::PAR_TASKS).get();
            assert_eq!(after - before, 64);
            assert_eq!(obs::global().gauge(obs::names::PAR_QUEUE_DEPTH).get(), 0);
        });
    }

    #[test]
    fn pool_metrics_totals_are_exact() {
        // The block-steal cursor claims indices with a Relaxed
        // `fetch_add`; atomicity alone guarantees each index is claimed
        // exactly once, so the merged totals must be exact — not merely
        // approximate — no matter how claims interleave. Uneven task
        // durations push workers into each other's blocks to exercise
        // the stealing path. (This is the output-invariance argument
        // backing the SC111 waiver for crates/par in staticheck.toml.)
        let items: Vec<u64> = (0..193).collect();
        // (counters read under the pool lock, as in the test above)
        for round in 0..16 {
            with_threads(4, || {
                let tasks_before = obs::global().counter(obs::names::PAR_TASKS).get();
                let steals_before = obs::global().counter(obs::names::PAR_STEALS).get();
                map_indexed(&items, |i, &x| {
                    // spin longer on a sliding band of indices so block
                    // ownership and completion order diverge each round
                    let spin = if i % 4 == round % 4 { 2000 } else { 10 };
                    let mut h = x;
                    for _ in 0..spin {
                        h = h.wrapping_mul(0x100_0000_01b3).rotate_left(7);
                    }
                    h
                });
                let tasks = obs::global().counter(obs::names::PAR_TASKS).get() - tasks_before;
                let steals = obs::global().counter(obs::names::PAR_STEALS).get() - steals_before;
                assert_eq!(tasks, 193, "round {round}: every index exactly once");
                assert!(
                    steals <= tasks,
                    "round {round}: steals {steals} > tasks {tasks}"
                );
                assert_eq!(obs::global().gauge(obs::names::PAR_QUEUE_DEPTH).get(), 0);
            });
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test reads the submitting span's context to check what tasks parent to"
    )]
    fn task_spans_parent_to_submitting_span() {
        // A span opened inside a worker task must parent to the span
        // active on the submitting thread, at slot base index << 32.
        let registry = obs::global();
        registry.enable_tracing();
        let items: Vec<u64> = (0..8).collect();
        let (submit_ids, spans) = with_threads(4, || {
            let _ = registry.take_trace_spans();
            let submit_ids;
            {
                let parent = registry.span("par.unit_parent");
                let _ = parent; // span stays open across the map
                submit_ids = obs::trace::capture()
                    .and_then(|c| c.ids)
                    .expect("tracing on");
                map_indexed(&items, |_, &x| {
                    let _child = registry.span("par.unit_child");
                    x
                });
            }
            (submit_ids, registry.take_trace_spans())
        });
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "par.unit_child")
            .collect();
        assert_eq!(children.len(), 8);
        let mut slots: Vec<u64> = children.iter().map(|s| s.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..8u64).map(|i| i << 32).collect::<Vec<_>>());
        for child in children {
            assert_eq!(child.parent_id, submit_ids.span_id);
            assert_eq!(child.trace_id, submit_ids.trace_id);
        }
    }

    #[test]
    fn parallel_matches_serial_with_stateful_tasks() {
        // Per-task deterministic "RNG" (index-derived), mirroring how the
        // pipeline seeds per (ixp, day, afi): thread count must not leak.
        let items: Vec<u64> = (0..100).collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                map_indexed(&items, |i, &x| {
                    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ x;
                    for _ in 0..=i % 7 {
                        h = h.wrapping_mul(0x100_0000_01b3).rotate_left(13);
                    }
                    h
                })
            })
        };
        assert_eq!(run(1), run(4));
    }
}
