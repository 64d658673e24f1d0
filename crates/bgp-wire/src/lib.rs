//! # bgp-wire
//!
//! BGP-4 wire protocol implementation: the RFC 4271 message codec with the
//! attribute set IXP route servers see in practice (standard / extended /
//! large communities, MP-BGP IPv6, 4-octet ASNs), a transport-agnostic
//! session state machine, and an MRT TABLE_DUMP_V2-style snapshot codec
//! used to persist route-server RIBs. RFC 7606 revised error handling
//! (attribute discard / treat-as-withdraw) lives in [`lenient`].
//!
//! Routes enter the workspace's route server as parsed UPDATE messages, so
//! the full measurement pipeline of the reproduced paper is exercised at
//! the byte level.
//!
//! ```
//! use bgp_model::prelude::*;
//! use bgp_wire::convert::{routes_to_update, update_to_routes};
//! use bgp_wire::message::Message;
//! use bytes::BytesMut;
//!
//! let route = Route::builder(
//!     "203.0.113.0/24".parse().unwrap(),
//!     "198.32.0.7".parse().unwrap(),
//! )
//! .path([64496, 15169])
//! .standard(StandardCommunity::from_parts(0, 6939))
//! .build();
//!
//! // encode to wire bytes and back
//! let update = routes_to_update(std::slice::from_ref(&route));
//! let wire = Message::Update(update).encode().unwrap();
//! let mut buf = BytesMut::from(&wire[..]);
//! let Some(Message::Update(decoded)) = Message::decode(&mut buf).unwrap() else {
//!     unreachable!()
//! };
//! assert_eq!(update_to_routes(&decoded).unwrap().announced, vec![route]);
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

pub mod attrs;
pub mod convert;
pub mod error;
pub mod fsm;
pub mod lenient;
pub mod message;
mod metrics;
pub mod mrt;
pub mod nlri;

pub use error::WireError;
pub use message::{Message, NotificationMessage, OpenMessage, UpdateMessage};
