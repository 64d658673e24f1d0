//! # route-server
//!
//! An IXP route server in the RFC 7947 mould, built for the CoNEXT'22
//! reproduction: members announce BGP routes tagged with action
//! communities; the server filters imports (the paper's §3
//! accepted/filtered split), tags informational communities, executes the
//! requested actions (do-not-announce / announce-only / prepend /
//! blackhole) when computing per-peer export RIBs, scrubs the executed
//! communities, and accounts for the §5.5 overhead of action communities
//! targeting ASes that are not members.
//!
//! ```
//! use bgp_model::prelude::*;
//! use community_dict::prelude::*;
//! use route_server::prelude::*;
//!
//! let mut rs = RouteServer::for_ixp(IxpId::DeCixFra);
//! rs.add_member(Asn(39120), true, true);
//! rs.add_member(Asn(6939), true, true);
//!
//! // announce a route asking the RS not to export it to AS6939
//! let route = Route::builder(
//!     "193.0.10.0/24".parse().unwrap(),
//!     "198.32.0.7".parse().unwrap(),
//! )
//! .path([39120])
//! .standard(schemes::avoid_community(IxpId::DeCixFra, Asn(6939)))
//! .build();
//! rs.announce(Asn(39120), route);
//!
//! assert!(rs.export_to(Asn(6939)).is_empty()); // action executed
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
#![warn(missing_docs)]

pub mod config;
pub mod events;
pub mod filter;
pub mod metrics;
pub mod policy;
pub mod rules;
pub mod server;
pub mod stats;

/// Common re-exports.
pub mod prelude {
    pub use crate::config::{RsConfig, ScrubPolicy};
    pub use crate::events::RibEvent;
    pub use crate::filter::FilterReason;
    pub use crate::policy::{ExportDecision, RoutePolicy};
    pub use crate::rules::{ImportRule, RuleAction, RuleMatch};
    pub use crate::server::{FilteredRoute, IngestOutcome, Member, RouteServer};
    pub use crate::stats::RsStats;
}

pub use prelude::*;
