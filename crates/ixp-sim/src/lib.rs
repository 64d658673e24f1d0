//! # ixp-sim
//!
//! The synthetic IXP ecosystem of the CoNEXT'22 reproduction: eight IXP
//! worlds calibrated to the paper's Table 1, member populations with
//! heavy-tailed route counts, a tagging behaviour model that reproduces
//! the paper's action-community usage patterns (PNI-driven avoidance of
//! content providers, defensive tagging of non-members by large ISPs),
//! the twelve-week collection timeline with injectable outages, and an
//! end-to-end scenario driver wiring everything through the route server
//! and Looking Glass layers.
//!
//! ```
//! use community_dict::ixp::IxpId;
//! use ixp_sim::world::{build_ixp, WorldConfig};
//!
//! let world = build_ixp(IxpId::Linx, &WorldConfig { seed: 1, scale: 0.01 });
//! assert!(world.rs.stats().routes_accepted > 0);
//! assert!(world.rs.stats().ineffective_action_instances > 0); // §5.5
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

pub mod calibration;
pub mod members;
pub mod profile;
pub mod scenario;
pub mod timeline;
pub mod universe;
pub mod world;

/// Common re-exports.
pub mod prelude {
    pub use crate::calibration::{calibration, Calibration};
    pub use crate::members::{Behavior, MemberProfile};
    pub use crate::profile::{profile, IxpProfile};
    pub use crate::scenario::{run, Scenario, ScenarioConfig};
    pub use crate::timeline::{
        anchors, generate_all, generate_series, CollectionMode, Series, TimelineConfig,
    };
    pub use crate::universe::{avoid_weights, famous_at_rs, only_targets};
    pub use crate::world::{build_ixp, build_world, IxpWorld, PrefixAllocator, WorldConfig};
}

pub use prelude::*;
