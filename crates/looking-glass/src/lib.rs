//! # looking-glass
//!
//! The Looking Glass layer of the CoNEXT'22 reproduction: the JSON API
//! real IXPs expose over their route servers, a server with the rate
//! limits and instability the paper's collection fought (§3), a paced
//! collector client with bounded retries, snapshot persistence (JSON and
//! MRT), and the valley-detection sanitation that removed 13.5% of the
//! paper's snapshots.
//!
//! ```
//! use std::sync::Arc;
//! use bgp_model::prelude::*;
//! use community_dict::prelude::*;
//! use looking_glass::prelude::*;
//! use parking_lot::RwLock;
//! use route_server::prelude::*;
//!
//! // a route server with one announced route
//! let mut rs = RouteServer::for_ixp(IxpId::Linx);
//! rs.add_member(Asn(39120), true, false);
//! rs.announce(
//!     Asn(39120),
//!     Route::builder("193.0.10.0/24".parse().unwrap(), "198.32.0.7".parse().unwrap())
//!         .path([39120, 15169])
//!         .build(),
//! );
//!
//! // collect a snapshot through the LG
//! let lg = LgServer::new(Arc::new(RwLock::new(rs)), 42);
//! let collector = Collector::default();
//! let mut transport = &lg;
//! let report = collector.collect(&mut transport, Afi::Ipv4, 0, 0).unwrap();
//! assert_eq!(report.snapshot.route_count(), 1);
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

pub mod api;
pub mod client;
pub mod clock;
pub mod dataset;
mod metrics;
pub mod sanitize;
pub mod server;
pub mod snapshot;
pub mod transport;

/// Common re-exports.
pub mod prelude {
    pub use crate::api::{
        LgError, LgRequest, LgResponse, MemberSummary, StreamFrame, TraceContext, TracedRequest,
    };
    pub use crate::client::{CollectionReport, Collector, CollectorConfig, LgTransport};
    pub use crate::clock::{Clock, VirtualClock};
    pub use crate::dataset::{export as export_dataset, import as import_dataset, DatasetIndex};
    pub use crate::sanitize::{sanitize_store, SanitationReport, SanitizeConfig, SeriesPoint};
    pub use crate::server::{FailureModel, LgServer, RateLimiter};
    pub use crate::snapshot::{Snapshot, SnapshotStore};
    pub use crate::transport::{TcpLgClient, TcpLgServer};
}

pub use prelude::*;
