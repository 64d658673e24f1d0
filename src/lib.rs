//! # ixp-actions
//!
//! A full reproduction of *"Light, Camera, Actions: characterizing the
//! usage of IXPs' action BGP communities"* (CoNEXT 2022) as a Rust
//! workspace: BGP wire protocol and data model, per-IXP community
//! dictionaries, an RFC 7947-style route server that executes action
//! communities, a Looking-Glass collection layer with the paper's §3
//! sanitation, a calibrated synthetic world standing in for the eight
//! real IXPs, and analyses regenerating every table and figure.
//!
//! This crate is the facade: it re-exports the workspace crates and hosts
//! the runnable examples and cross-crate integration tests.
//!
//! ```
//! use ixp_actions::prelude::*;
//!
//! // one line from world to paper finding:
//! let world = build_ixp(IxpId::Linx, &WorldConfig { seed: 1, scale: 0.01 });
//! assert!(world.rs.stats().ineffective_fraction() > 0.2); // §5.5
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub use analysis;
pub use bgp_model;
pub use bgp_wire;
pub use community_dict;
pub use ixp_sim;
pub use looking_glass;
pub use par;
pub use route_server;

/// Everything most users need.
pub mod prelude {
    pub use analysis::prelude::*;
    pub use bgp_model::prelude::*;
    pub use community_dict::prelude::*;
    pub use ixp_sim::prelude::*;
    pub use looking_glass::prelude::*;
    pub use route_server::prelude::*;
}
