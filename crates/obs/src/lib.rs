//! Structured metrics, spans, and pipeline telemetry for the collection stack.
//!
//! Every crate in the workspace records what it does through this one small
//! core, so a scenario run can be summarised, diffed, and exported without any
//! crate growing its own ad-hoc counters.
//!
//! # Model
//!
//! A [`Registry`] owns three kinds of named instruments:
//!
//! * **Counters** ([`Counter`]) — monotonically increasing `u64` totals
//!   (`rs.updates_processed`, `wire.decode_errors`). Incrementing is a single
//!   relaxed atomic add on a pre-minted handle: no locks, no allocation.
//! * **Gauges** ([`Gauge`]) — instantaneous `i64` levels that go up and down
//!   (`sim.day`, `lg.inflight_requests`).
//! * **Histograms** ([`Histogram`]) — log-bucketed distributions. Values land
//!   in power-of-two buckets (`bucket i` holds `[2^(i-1), 2^i)`), which keeps
//!   recording at a handful of atomic adds while still answering
//!   `p50`/`p99`-style questions to within a factor of two. Durations are
//!   recorded in nanoseconds.
//!
//! Handles are minted once with [`Registry::counter`] / [`Registry::gauge`] /
//! [`Registry::histogram`] (get-or-create by name) and are then cheap to clone
//! and hammer from any thread. A registry built with [`Registry::noop`] hands
//! out inert handles whose operations compile to a branch on `None`; a live
//! handle's operations never allocate (asserted by `tests/alloc_free.rs`).
//!
//! # Spans
//!
//! [`span!`] starts an RAII timer that records its elapsed time into the
//! histogram of the same name when dropped:
//!
//! ```
//! let registry = obs::Registry::new();
//! {
//!     let _span = obs::span!(registry, "rs.ingest_update");
//!     // ... work ...
//! } // elapsed ns recorded into histogram "rs.ingest_update"
//! assert_eq!(registry.snapshot().histograms["rs.ingest_update"].count, 1);
//! ```
//!
//! With [`Registry::enable_tracing`], spans gain deterministic
//! trace/span/parent IDs forming a causal tree — propagated across `par`
//! workers and the looking-glass transport — that exports as Chrome
//! `trace_event` JSON and a self-time profile. See the [`trace`] module.
//!
//! # Snapshots
//!
//! [`Registry::snapshot`] captures a point-in-time [`Snapshot`] of every
//! instrument. Snapshots subtract ([`Snapshot::diff`]) so a pipeline stage can
//! be reported as "what changed while stage X ran", and serialize to JSON
//! ([`Snapshot::to_json`]).
//!
//! The process-wide default registry is [`global()`]; library crates record
//! there unless handed an explicit registry (e.g. `RouteServer::with_registry`
//! for isolated tests and benchmarks).

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

mod metrics;
pub mod names;
mod report;
mod snapshot;
mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use report::render_report;
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::Span;

use std::sync::OnceLock;

/// The process-wide default registry.
///
/// Library crates mint their handles here unless given an explicit
/// [`Registry`]; binaries snapshot it to report what a run did.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Start an RAII span timer: records elapsed nanoseconds into the histogram
/// of the same name (and a trace-tree node, if tracing) when dropped.
///
/// `span!("name")` times against the [`global()`] registry;
/// `span!(registry, "name")` against an explicit one.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr $(,)?) => {
        $registry.span($name)
    };
    ($name:expr) => {
        $crate::global().span($name)
    };
}
