//! # community-dict
//!
//! IXP BGP community dictionaries: the semantics layer of the CoNEXT'22
//! reproduction. Defines the action taxonomy (§5.3 of the paper:
//! do-not-announce-to / announce-only-to / prepend-to / blackholing),
//! community patterns, per-IXP dictionaries built as the union of the RS
//! configuration and website documentation (§3), and classification of
//! every community instance on a route into IXP-defined (informational or
//! action) versus unknown.
//!
//! The eight concrete schemes in [`schemes`] reproduce the paper's
//! dictionary sizes exactly: 649 (IX.br-SP), 774 (DE-CIX ×3), 58 (LINX),
//! 37 (AMS-IX), 50 (BCIX), 67 (Netnod) — 3,183 in total.
//!
//! ```
//! use bgp_model::asn::Asn;
//! use community_dict::prelude::*;
//!
//! let dict = schemes::dictionary(IxpId::DeCixFra);
//! assert_eq!(dict.len(), 774);
//!
//! // "0:6939" at DE-CIX means: do not announce this route to AS6939
//! let c = schemes::avoid_community(IxpId::DeCixFra, Asn(6939));
//! let action = dict.classify(c).action().unwrap();
//! assert_eq!(action, Action::avoid(Asn(6939)));
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

pub mod action;
pub mod classify;
pub mod config_text;
pub mod dictionary;
pub mod entry;
pub mod ixp;
pub mod known;
pub mod pattern;
pub mod schemes;
pub mod semantics;

/// Common re-exports.
pub mod prelude {
    pub use crate::action::{Action, ActionGroup, ActionKind, Target};
    pub use crate::classify::{classify_community, classify_route, route_has_action};
    pub use crate::dictionary::Dictionary;
    pub use crate::entry::{DictionaryEntry, SourceSet};
    pub use crate::ixp::IxpId;
    pub use crate::pattern::Pattern;
    pub use crate::schemes;
    pub use crate::semantics::{Classification, InfoKind, Semantics};
}

pub use prelude::*;
