//! BMP-style update events emitted from RIB mutations.
//!
//! When event recording is enabled ([`RouteServer::enable_events`]), every
//! state change to the server — session registration, session teardown,
//! an accepted announcement, a withdraw that removed something — appends
//! one [`RibEvent`] to an in-server log that a monitoring session drains
//! ([`RouteServer::take_events`]). Announce events carry the route **as
//! stored**: after the blackhole next-hop rewrite and informational
//! tagging, so a consumer replaying the log reconstructs the RIB exactly.
//!
//! [`RouteServer::enable_events`]: crate::server::RouteServer::enable_events
//! [`RouteServer::take_events`]: crate::server::RouteServer::take_events

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Prefix;
use bgp_model::route::Route;

/// One observable state change of a route server's Adj-RIB-In.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RibEvent {
    /// A member session came up (or its family set widened). The flags
    /// are the member's full session state *after* the change.
    PeerUp {
        /// Member ASN.
        peer: Asn,
        /// Has an IPv4 session after this event.
        ipv4: bool,
        /// Has an IPv6 session after this event.
        ipv6: bool,
    },
    /// A member session went down: the peer and all its routes are gone.
    PeerDown {
        /// Member ASN.
        peer: Asn,
    },
    /// A route was accepted into the RIB (possibly replacing an earlier
    /// route for the same prefix — an implicit withdraw).
    Announce {
        /// Announcing member.
        peer: Asn,
        /// The route exactly as stored (post rewrite/tagging).
        route: Route,
    },
    /// A previously accepted route was withdrawn.
    Withdraw {
        /// Withdrawing member.
        peer: Asn,
        /// The withdrawn prefix.
        prefix: Prefix,
    },
}
