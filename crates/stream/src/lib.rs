//! # stream
//!
//! BMP-style streaming collection for the CoNEXT'22 reproduction: instead
//! of polling daily snapshots through the Looking Glass, a monitoring
//! session has the route server *push* per-update events — announce,
//! withdraw, peer-up, peer-down — over the same LG transport
//! ([`looking_glass::api::LgRequest::StreamPoll`]), and an incremental
//! [`state::RouterState`] per router, keyed by (peer, prefix), tracks
//! live state on the collector side. Session resets replay the feed (frames
//! keep their original sequence numbers) and the store dedups the replay;
//! peer-down events synthesize withdraws for the departed peer's table.
//!
//! The headline contract, proven by `tests/stream_equivalence.rs` and the
//! chaos corpus: **after any simulated day, the streamed
//! end-of-day state is byte-identical (serialized dataset hash) to the
//! snapshot the polled collector assembles** — which makes the whole
//! snapshot-era oracle apparatus (sanitation, conservation, determinism)
//! reusable against the event path.
//!
//! ```
//! use std::sync::Arc;
//! use bgp_model::prelude::*;
//! use community_dict::prelude::*;
//! use looking_glass::prelude::*;
//! use parking_lot::RwLock;
//! use route_server::prelude::*;
//! use stream::prelude::*;
//!
//! let mut rs = RouteServer::for_ixp(IxpId::Linx);
//! rs.add_member(Asn(39120), true, false);
//! rs.announce(
//!     Asn(39120),
//!     Route::builder("193.0.10.0/24".parse().unwrap(), "198.32.0.7".parse().unwrap())
//!         .path([39120, 15169])
//!         .build(),
//! );
//!
//! // drain the monitoring feed instead of paging through snapshots
//! let lg = LgServer::new(Arc::new(RwLock::new(rs)), 42);
//! let mut state = RouterState::new(IxpId::Linx);
//! let mut transport = &lg;
//! StreamCollector::default().drain(&mut state, &mut transport, 0).unwrap();
//! assert_eq!(state.route_count(), 1);
//! assert_eq!(state.to_snapshot(Afi::Ipv4, 0).route_count(), 1);
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

pub mod collector;
mod metrics;
pub mod state;

/// Common re-exports.
pub mod prelude {
    pub use crate::collector::{DrainReport, StreamCollector, StreamConfig};
    pub use crate::state::{DeltaConsumer, PeerSession, RouteDelta, RouterState, StreamStats};
}

pub use prelude::*;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::RwLock;

    use bgp_model::asn::Asn;
    use bgp_model::prefix::Afi;
    use bgp_model::route::Route;
    use community_dict::ixp::IxpId;
    use looking_glass::client::{Collector, LgTransport};
    use looking_glass::server::LgServer;
    use route_server::server::RouteServer;

    use crate::prelude::*;

    fn route(pfx: &str, announcer: u32) -> Route {
        Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path([announcer, 15169])
            .build()
    }

    fn lg_with_routes(n: usize) -> LgServer {
        let mut rs = RouteServer::for_ixp(IxpId::Linx);
        rs.add_member(Asn(39120), true, false);
        rs.add_member(Asn(6939), true, true);
        for i in 0..n {
            rs.announce(
                Asn(39120),
                route(&format!("193.{}.{}.0/24", i / 250, i % 250), 39120),
            );
        }
        LgServer::new(Arc::new(RwLock::new(rs)), 7)
    }

    fn drain(lg: &LgServer, state: &mut RouterState) -> DrainReport {
        let mut t = lg;
        StreamCollector::default().drain(state, &mut t, 0).unwrap()
    }

    #[test]
    fn initial_dump_rebuilds_current_state() {
        let lg = lg_with_routes(600); // more than two STREAM_PAGEs
        let mut state = RouterState::new(IxpId::Linx);
        let report = drain(&lg, &mut state);
        assert_eq!(state.members_for(Afi::Ipv4).count(), 2);
        assert_eq!(state.route_count(), 600);
        // 2 peer-ups + 600 announces, applied exactly once
        assert_eq!(report.applied, 602);
        assert!(report.polls >= 3, "600+ frames need several pages");
    }

    #[test]
    fn incremental_events_flow_after_the_dump() {
        let lg = lg_with_routes(3);
        let mut state = RouterState::new(IxpId::Linx);
        drain(&lg, &mut state);
        {
            let rs = lg.route_server();
            let mut rs = rs.write();
            rs.announce(Asn(6939), route("81.0.0.0/24", 6939));
            rs.withdraw(Asn(39120), &"193.0.0.0/24".parse().unwrap());
        }
        let report = drain(&lg, &mut state);
        assert_eq!(report.applied, 2);
        assert_eq!(state.route_count(), 3); // +1 announce, -1 withdraw
        assert_eq!(report.resyncs, 0);
    }

    #[test]
    fn session_reset_replays_and_dedup_absorbs_it() {
        let lg = lg_with_routes(10);
        let mut state = RouterState::new(IxpId::Linx);
        drain(&lg, &mut state);
        let applied_before = state.stats().applied;
        lg.reset_stream();
        let report = drain(&lg, &mut state);
        assert_eq!(report.resyncs, 1);
        assert_eq!(
            state.stats().applied,
            applied_before,
            "replayed frames must all be deduped"
        );
        assert!(state.stats().dupes_dropped > 0);
        assert_eq!(state.route_count(), 10);
    }

    #[test]
    fn without_dedup_a_replay_double_applies() {
        let lg = lg_with_routes(10);
        let collector = StreamCollector::new(StreamConfig {
            dedup_replays: false,
            ..StreamConfig::default()
        });
        let mut state = RouterState::new(IxpId::Linx);
        let mut t = &lg;
        collector.drain(&mut state, &mut t, 0).unwrap();
        let applied_before = state.stats().applied;
        lg.reset_stream();
        let mut t = &lg;
        collector.drain(&mut state, &mut t, 0).unwrap();
        // state converges anyway (the event algebra is last-writer-wins)
        assert_eq!(state.route_count(), 10);
        // ...but the update count betrays the duplicate application,
        // which is exactly what the chaos conservation oracle checks
        assert!(state.stats().applied > applied_before);
        assert_eq!(state.stats().dupes_dropped, 0);
    }

    #[test]
    fn peer_down_synthesizes_withdraws() {
        let lg = lg_with_routes(5);
        let mut state = RouterState::new(IxpId::Linx);
        drain(&lg, &mut state);
        lg.route_server().write().remove_member(Asn(39120));
        drain(&lg, &mut state);
        assert_eq!(state.route_count(), 0);
        assert_eq!(state.members_for(Afi::Ipv4).count(), 1);
        assert_eq!(state.stats().synth_withdraws, 5);
    }

    #[test]
    fn streamed_snapshot_equals_polled_snapshot() {
        let lg = lg_with_routes(300);
        // stream path
        let mut state = RouterState::new(IxpId::Linx);
        drain(&lg, &mut state);
        let streamed = state.to_snapshot(Afi::Ipv4, 3);
        // poll path against the same server
        let mut t = &lg;
        let polled = Collector::default()
            .collect(&mut t, Afi::Ipv4, 3, 0)
            .unwrap()
            .snapshot;
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&polled).unwrap(),
            "streamed state must serialize byte-identically to the poll"
        );
    }

    #[test]
    fn transport_trait_is_object_safe_for_streams() {
        // the poll request flows through the same LgTransport as the
        // snapshot collector's requests (trace framing included)
        let lg = lg_with_routes(1);
        let mut t: &LgServer = &lg;
        let resp = t
            .request(
                &looking_glass::api::LgRequest::StreamPoll {
                    session: 0,
                    after: 0,
                },
                0,
            )
            .unwrap();
        assert!(matches!(
            resp,
            looking_glass::api::LgResponse::StreamEvents { .. }
        ));
    }
}
