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
//! - [`campaign`] — the multi-day campaign driver, fingerprinting its
//!   dataset with FNV-1a for the determinism oracle;
//! - [`oracle`] — the invariant oracles: completeness, summary
//!   agreement, pagination integrity, conservation vs the fault-free
//!   baseline, sanitation idempotence, retry bounds, time budgets,
//!   determinism — plus the stream path's end-of-day equivalence and
//!   update-conservation oracles.
//!
//! ```
//! use chaos::prelude::*;
//!
//! let cfg = CampaignConfig::default();
//! let plan = FaultPlan::from_seed(7, cfg.days);
//! let baseline = run_campaign(7, &FaultPlan::none(), &cfg);
//! let outcome = run_campaign(7, &plan, &cfg);
//! let violations = check_campaign(&outcome, &baseline, &plan, &cfg);
//! assert!(violations.is_empty(), "replay: (seed=7, plan={})", plan.to_json());
//! ```

#![forbid(unsafe_code)]
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
        dataset_hash, run_campaign, run_stream_campaign, snapshot_fingerprint, store_fingerprint,
        CampaignConfig, CampaignOutcome, DayRecord, StreamCampaignOutcome, StreamDayRecord,
        DAY_BUDGET_MS, DAY_MS,
    };
    pub use crate::corpus::{run_corpus, SeedOutcome};
    pub use crate::inject::{ChaosTransport, InjectStats};
    pub use crate::oracle::{check_campaign, check_determinism, check_stream_campaign, Violation};
    pub use crate::plan::{FaultClass, FaultPlan};
    pub use prop::{assert_holds, check, iteration_seed, CheckConfig, Choices, CounterExample};
}
