//! Static analysis for the IXP action-community workspace: a policy
//! verifier and a workspace linter behind one binary, wired into CI
//! (`scripts/ci.sh`).
//!
//! ```text
//! cargo run -p staticheck -- [policy|lints|all] [--format text|json]
//! ```
//!
//! # Engine 1: the policy verifier ([`policy`])
//!
//! Consumes a [`route_server::config::RsConfig`] and a
//! [`community_dict::dictionary::Dictionary`] — configuration only, no
//! simulation — and reports defects a run would only surface late, if
//! at all:
//!
//! | code  | finding |
//! |-------|---------|
//! | SC001 | shadowed import rule: can never match |
//! | SC002 | contradictory actions on intersecting matchers |
//! | SC003 | action target has no session at the RS (statically ineffective) |
//! | SC004 | two dictionary patterns give one community value two meanings |
//! | SC005 | applied import-rule action that can never take effect |
//! | SC006 | cross-dictionary drift: one pattern, conflicting actions |
//!
//! # The range-intersection model behind SC001/SC004
//!
//! Both checks reduce "can these two matchers/patterns ever apply to the
//! same input?" to interval arithmetic, which makes them exact rather
//! than heuristic:
//!
//! * A community [`Pattern`](community_dict::pattern::Pattern) fixes its
//!   high 16 bits and constrains the low 16 bits to an interval:
//!   `Exact(h:l)` ↦ `[l, l]`, `h:<peer-as>` ↦ `[0, 65535]`, and
//!   `h:[lo..=hi]` ↦ `[lo, hi]`. Two patterns overlap iff their highs
//!   are equal and their low intervals intersect; pattern *A* covers
//!   pattern *B* iff additionally *B*'s interval is contained in *A*'s.
//!   SC004 walks all same-high entry pairs, intersects their intervals,
//!   and then — because overlap alone is not ambiguity — samples witness
//!   values from the overlap and compares what each entry *resolves* to
//!   there. Agreeing semantics (an exact entry documenting what a
//!   template already means) are redundancy, not ambiguity, and stay
//!   silent; disagreeing semantics are an error for partial/equal
//!   overlap and a warning for strict containment, where the
//!   specificity precedence (exact > range > template) already picks a
//!   deterministic winner.
//!
//! * An import rule matcher is a product of four independent dimensions
//!   (AFI, prefix length, peer, community), each either unconstrained
//!   or an exact value — except prefix length, which is an interval.
//!   Rule *i* covers rule *j* iff it covers it in every dimension, so a
//!   rule is dead (SC001) when a single earlier rule covers it, or when
//!   the earlier rules that cover it in all *other* dimensions have
//!   prefix-length intervals whose sorted, merged union contains its
//!   interval. The union step matters: `len 0–20` followed by
//!   `len 21–128` jointly shadow a later catch-all even though neither
//!   alone does.
//!
//! SC003 is the static half of the paper's §5.5 effectiveness question:
//! an action targeting an AS with no RS session can never influence
//! export ([`community_dict::action::Target::is_ineffective`], the one
//! definition the route server and the analyses use too). The same
//! test is exposed as [`policy::ineffective_targets`] so
//! `tests/static_dynamic_ineffective.rs` can cross-check the route
//! server's own accounting against the static prediction — the two
//! must agree exactly.
//!
//! # Engine 2: the workspace linter ([`lints`], `lock_order`)
//!
//! A token-level scanner (no `syn`: the workspace builds offline) over
//! `crates/*/src/**.rs` enforcing: SC103 every minted metric/span name
//! comes from the `obs::names` registry, SC104 the registry itself is
//! consistent, and SC110 no two functions take the same pair of locks
//! in opposite orders (within each function body; calls are not
//! followed). The source rules about calls — no panics in library
//! code, no raw clock reads, no ad-hoc threads, no hand-rolled trace
//! context — are clippy lints with resolved paths (`clippy.toml`).
//!
//! The other concurrency and determinism hazards have stronger gates
//! than a lexical scan: rustc rejects a par task that shares a
//! `RefCell`, `Cell` or `mpsc::Receiver` (`par::map_indexed` takes
//! `F: Sync`), and the serial/parallel equivalence oracle and the chaos
//! suite reject schedule- or hash-order-dependent output. TESTING.md
//! records the seeded bugs behind that split.
//!
//! Output renders as text or JSON. Exit status: 0 clean, 1 error-grade
//! findings, 2 internal error.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod cli;
pub(crate) mod diag;
pub mod lints;
pub(crate) mod lock_order;
pub mod policy;

pub use diag::{Diagnostic, Report, Severity};
