//! The Looking Glass API (modeled on the alice-lg style JSON APIs the
//! paper scraped; see §3: "we collected daily snapshots of routing data
//! from the IXP primary IPv4 and IPv6 RSes, using their LG API").
//!
//! Three endpoints:
//! - **summary**: the member list with per-member accepted/filtered route
//!   counts ("we first obtain a summary file with the list of peers,
//!   along with the number of routes announced by each peer", §3);
//! - **routes**: paginated accepted (or filtered) routes of one peer;
//! - **rs-config**: the RS configuration's community list (dictionary
//!   source #1).

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;
use community_dict::entry::DictionaryEntry;
use community_dict::ixp::IxpId;
use route_server::events::RibEvent;

/// A request to the LG server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LgRequest {
    /// Member list with route counts for one family.
    Summary {
        /// Address family.
        afi: Afi,
    },
    /// One page of a peer's routes.
    Routes {
        /// Peer ASN.
        peer: Asn,
        /// Address family.
        afi: Afi,
        /// Accepted (false) or filtered (true) table.
        filtered: bool,
        /// Zero-based page index.
        page: usize,
    },
    /// The RS configuration's community dictionary (structured).
    RsConfig,
    /// Poll the BMP-style monitoring session for update events.
    ///
    /// `session` is the monitoring-session generation the client last saw
    /// (0 for a fresh attach); `after` is the highest frame sequence
    /// number it has received. When the server's session generation still
    /// matches it serves frames with `seq > after`; when it does not
    /// (the session was reset) it ignores `after` and **replays** from
    /// the start of the feed — the client dedups by sequence number.
    StreamPoll {
        /// Session generation the client last observed.
        session: u64,
        /// Highest frame sequence number the client has received.
        after: u64,
    },
}

/// Trace context carried in the request framing (see `obs::trace`):
/// lets the server parent its serving spans to the remote caller's
/// span, so one collection produces one coherent trace across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Root ID of the caller's trace.
    pub trace_id: u64,
    /// The caller's active span.
    pub span_id: u64,
    /// Child slot the caller allocated for this request.
    pub slot: u64,
}

/// A request wrapped with its caller's trace context. The TCP framing
/// accepts both this and a bare [`LgRequest`] line, so untraced clients
/// keep working.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracedRequest {
    /// The caller's trace context.
    pub trace: TraceContext,
    /// The request itself.
    pub req: LgRequest,
}

/// Summary row for one member.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberSummary {
    /// Member ASN.
    pub asn: Asn,
    /// Number of accepted routes in the requested family.
    pub accepted_routes: usize,
    /// Number of filtered routes in the requested family.
    pub filtered_routes: usize,
}

/// Response payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LgResponse {
    /// Response to [`LgRequest::Summary`].
    Summary {
        /// The IXP served.
        ixp: IxpId,
        /// One row per member with a session in the requested family.
        members: Vec<MemberSummary>,
    },
    /// Response to [`LgRequest::Routes`].
    Routes {
        /// The routes of this page.
        routes: Vec<Route>,
        /// Page index served.
        page: usize,
        /// Total pages available.
        total_pages: usize,
    },
    /// Response to [`LgRequest::RsConfig`].
    RsConfig {
        /// The dictionary entries the RS config lists.
        entries: Vec<DictionaryEntry>,
    },
    /// Response to [`LgRequest::StreamPoll`]: one page of the feed.
    StreamEvents {
        /// Current monitoring-session generation.
        session: u64,
        /// Up to [`STREAM_PAGE`] sequenced frames.
        frames: Vec<StreamFrame>,
        /// Frames still queued on the server past this page.
        backlog: u64,
        /// True when the server ignored the client's cursor because the
        /// session generation changed — the page (re)starts the feed.
        resync: bool,
    },
}

/// One sequenced frame on the monitoring session. Sequence numbers are
/// global and monotonic for the lifetime of the feed: a session reset
/// changes the *generation*, not the numbering, so a replayed frame
/// carries its original `seq` and the collector can dedup on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamFrame {
    /// Position in the feed (1-based, dense).
    pub seq: u64,
    /// The update event.
    pub event: RibEvent,
}

/// Frames per [`LgResponse::StreamEvents`] page.
pub(crate) const STREAM_PAGE: usize = 256;

/// Errors the LG can return (or the transport can surface).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LgError {
    /// Query rate limit exceeded — retry later (§3: "query rate limits").
    RateLimited,
    /// Transient server failure (§3: "LG instability").
    ServerError,
    /// Unknown peer ASN.
    UnknownPeer(Asn),
    /// Page beyond the end.
    PageOutOfRange {
        /// Requested page.
        page: usize,
        /// Pages available.
        total_pages: usize,
    },
    /// Transport-level failure (connection reset, malformed frame).
    Transport(String),
}

impl std::fmt::Display for LgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LgError::RateLimited => write!(f, "rate limited"),
            LgError::ServerError => write!(f, "server error"),
            LgError::UnknownPeer(asn) => write!(f, "unknown peer {asn}"),
            LgError::PageOutOfRange { page, total_pages } => {
                write!(f, "page {page} out of range ({total_pages} pages)")
            }
            LgError::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for LgError {}

/// Routes per page served by the LG.
pub(crate) const PAGE_SIZE: usize = 250;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_serde_roundtrip() {
        let req = LgRequest::Routes {
            peer: Asn(6939),
            afi: Afi::Ipv4,
            filtered: false,
            page: 3,
        };
        let js = serde_json::to_string(&req).unwrap();
        let back: LgRequest = serde_json::from_str(&js).unwrap();
        assert_eq!(back, req);

        let resp = LgResponse::Summary {
            ixp: IxpId::Linx,
            members: vec![MemberSummary {
                asn: Asn(39120),
                accepted_routes: 10,
                filtered_routes: 2,
            }],
        };
        let js = serde_json::to_string(&resp).unwrap();
        let back: LgResponse = serde_json::from_str(&js).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_display() {
        assert_eq!(LgError::RateLimited.to_string(), "rate limited");
        assert_eq!(
            LgError::PageOutOfRange {
                page: 9,
                total_pages: 3
            }
            .to_string(),
            "page 9 out of range (3 pages)"
        );
    }
}
