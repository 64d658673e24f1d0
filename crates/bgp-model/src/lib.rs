//! # bgp-model
//!
//! The BGP data model shared by every crate in this workspace: ASNs,
//! IP prefixes, the three community types (standard / extended / large),
//! AS paths, route records and RIB structures.
//!
//! This is the vocabulary of the CoNEXT'22 paper *"Light, Camera, Actions:
//! characterizing the usage of IXPs' action BGP communities"*: routes
//! observed at IXP route servers carry lists of communities, and the
//! higher-level crates classify and count those communities.
//!
//! ```
//! use bgp_model::prelude::*;
//!
//! let route = Route::builder(
//!     "203.0.113.0/24".parse().unwrap(),
//!     "198.32.0.7".parse().unwrap(),
//! )
//! .path([64496, 15169])
//! .standard(StandardCommunity::from_parts(0, 6939)) // "do not announce to AS6939"
//! .build();
//!
//! assert_eq!(route.origin_asn(), Some(Asn(15169)));
//! assert_eq!(route.community_count(), 1);
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

pub mod asn;
pub mod aspath;
pub mod community;
pub mod prefix;
pub mod rib;
pub mod route;

/// Common re-exports.
pub mod prelude {
    pub use crate::asn::Asn;
    pub use crate::aspath::{AsPath, Segment};
    pub use crate::community::{
        well_known, Community, ExtendedCommunity, LargeCommunity, StandardCommunity,
    };
    pub use crate::prefix::{Afi, Prefix};
    pub use crate::rib::{AdjRibIn, PeerRib};
    pub use crate::route::{Origin, Route, RouteBuilder};
}

pub use prelude::*;
