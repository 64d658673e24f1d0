//! # chaos
//!
//! Deterministic simulation testing for the collect→sanitize→analyze
//! pipeline, in the FoundationDB mould: every campaign runs on a
//! virtual clock ([`looking_glass::clock::VirtualClock`]), every fault
//! comes from a seed-derived [`plan::FaultPlan`], and every failure is
//! replayable from the `(seed, fault_plan)` pair the harness prints.
//!
//! Fault plans and property inputs are drawn from the `prop` crate's
//! recorded choice streams, so a failing campaign shrinks to a minimal
//! plan like any other property; the [`prelude`] re-exports the engine.
//!
//! The pieces:
//!
//! - [`plan`] — fault plans: dropped/duplicated/delayed responses,
//!   garbage frames, out-of-order and truncated route pages, rate-limit
//!   storms, flapping peers, RIB churn between pages, monitoring-session
//!   resets, and lost peer-down events on the stream feed — as data;
//! - [`inject`] — the [`inject::ChaosTransport`] wrapper that applies a
//!   plan to an in-process Looking Glass server;
//! - [`campaign`] — the multi-day campaign driver: each day a chaotic
//!   snapshot poll and a chaotic stream drain through one injecting
//!   transport, then a fault-free drain and reference poll of the same
//!   server; it fingerprints its datasets with FNV-1a for the
//!   determinism oracle;
//! - [`oracle`] — the invariant oracles: completeness, summary
//!   agreement, pagination integrity, conservation vs the same day's
//!   fault-free reference poll, sanitation idempotence, retry bounds,
//!   time budgets, determinism, the stream path's end-of-day
//!   equivalence and update conservation, and incremental-vs-batch
//!   report identity;
//! - [`corpus`] — the multi-seed driver: per seed, one campaign and its
//!   determinism rerun.
//!
//! ```
//! use chaos::prelude::*;
//!
//! let cfg = CampaignConfig::default();
//! let plan = FaultPlan::from_seed(7, cfg.days);
//! let outcome = run_campaign(7, &plan, &cfg);
//! let violations = check_campaign(&outcome, &plan, &cfg);
//! assert!(violations.is_empty(), "replay: (seed=7, plan={})", plan.to_json());
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod inject;
mod metrics;
pub mod oracle;
pub mod plan;

/// Common imports for chaos tests.
pub mod prelude {
    pub use crate::campaign::{
        run_campaign, snapshot_fingerprint, CampaignConfig, CampaignOutcome, DayRecord,
        DAY_BUDGET_MS, DAY_MS,
    };
    pub use crate::corpus::{run_corpus, SeedOutcome};
    pub use crate::inject::{ChaosTransport, InjectStats};
    pub use crate::oracle::{check_campaign, check_determinism, Violation};
    pub use crate::plan::{FaultClass, FaultPlan};
    pub use prop::{assert_holds, check, iteration_seed, CheckConfig, Choices, CounterExample};
}
