//! The Looking Glass server: serves a [`RouteServer`] with token-bucket
//! rate limiting and injectable instability, the two phenomena that made
//! the paper's collection "take several hours and [be] subject to
//! communication failures" (§3).

use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use bgp_model::prefix::Afi;
use bgp_model::route::Route;

use route_server::events::RibEvent;
use route_server::server::RouteServer;

use crate::api::{
    LgError, LgRequest, LgResponse, MemberSummary, StreamFrame, PAGE_SIZE, STREAM_PAGE,
};

/// Token-bucket rate limiter with an explicit clock (milliseconds).
#[derive(Debug, Clone)]
pub struct RateLimiter {
    capacity: f64,
    tokens: f64,
    refill_per_ms: f64,
    last_ms: u64,
}

impl RateLimiter {
    /// A bucket of `capacity` requests refilling at `per_second`.
    pub fn new(capacity: u32, per_second: f64) -> Self {
        RateLimiter {
            capacity: capacity as f64,
            tokens: capacity as f64,
            refill_per_ms: per_second / 1000.0,
            last_ms: 0,
        }
    }

    /// Try to take one token at time `now_ms`.
    pub fn try_acquire(&mut self, now_ms: u64) -> bool {
        let elapsed = now_ms.saturating_sub(self.last_ms) as f64;
        self.last_ms = now_ms;
        self.tokens = (self.tokens + elapsed * self.refill_per_ms).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Probabilistic failure injection.
#[derive(Debug, Clone)]
pub struct FailureModel {
    /// Probability a request fails with [`LgError::ServerError`].
    pub error_rate: f64,
    /// Probability a routes page is silently truncated (partial data —
    /// the failure mode the paper's valley detection catches).
    pub truncate_rate: f64,
}

impl FailureModel {
    /// No failures.
    pub const NONE: FailureModel = FailureModel {
        error_rate: 0.0,
        truncate_rate: 0.0,
    };

    /// The baseline instability of a busy public LG.
    pub const FLAKY: FailureModel = FailureModel {
        error_rate: 0.02,
        truncate_rate: 0.002,
    };

    /// An outage day: most requests fail (drives §3's removed snapshots).
    pub const OUTAGE: FailureModel = FailureModel {
        error_rate: 0.7,
        truncate_rate: 0.2,
    };
}

/// The BMP-style monitoring feed of one LG server: an append-only frame
/// log with dense 1-based sequence numbers and a session generation. A
/// reset bumps the generation only — replayed frames keep their original
/// sequence numbers, which is what lets the collector dedup them.
#[derive(Debug, Default)]
struct StreamFeed {
    /// Session generation (0 = feed never polled; first poll sets 1).
    session: u64,
    /// Every frame since the feed started; `log[i].seq == i as u64 + 1`.
    log: Vec<StreamFrame>,
}

impl StreamFeed {
    fn push(&mut self, event: RibEvent) {
        let seq = self.log.len() as u64 + 1;
        self.log.push(StreamFrame { seq, event });
    }
}

/// The LG server fronting one route server.
pub struct LgServer {
    rs: Arc<RwLock<RouteServer>>,
    limiter: RwLock<RateLimiter>,
    failures: RwLock<FailureModel>,
    rng: RwLock<StdRng>,
    stream: RwLock<StreamFeed>,
}

impl LgServer {
    /// Wrap a route server with default limits (20 req/s, burst 40) and no
    /// injected failures.
    pub fn new(rs: Arc<RwLock<RouteServer>>, seed: u64) -> Self {
        LgServer {
            rs,
            limiter: RwLock::new(RateLimiter::new(40, 20.0)),
            failures: RwLock::new(FailureModel::NONE),
            rng: RwLock::new(StdRng::seed_from_u64(seed)),
            stream: RwLock::new(StreamFeed::default()),
        }
    }

    /// Reset the monitoring session: the next [`LgRequest::StreamPoll`]
    /// ignores the client's cursor and replays the feed from the start
    /// under a new session generation (frames keep their sequence
    /// numbers, so a deduping collector absorbs the replay).
    pub fn reset_stream(&self) {
        let mut feed = self.stream.write();
        if feed.session > 0 {
            feed.session += 1;
        }
    }

    /// Frames ever minted onto the monitoring feed (replays re-serve
    /// existing frames and do not mint). At quiescence a deduping
    /// collector's applied count must equal this exactly — the stream
    /// update-conservation invariant the chaos oracle checks.
    pub fn stream_frames_minted(&self) -> u64 {
        self.stream.read().log.len() as u64
    }

    /// Replace the failure model (e.g. for an outage day).
    pub fn set_failures(&self, model: FailureModel) {
        *self.failures.write() = model;
    }

    /// Replace the rate limiter.
    pub fn set_limiter(&self, limiter: RateLimiter) {
        *self.limiter.write() = limiter;
    }

    /// Shared handle to the underlying route server.
    pub fn route_server(&self) -> Arc<RwLock<RouteServer>> {
        Arc::clone(&self.rs)
    }

    /// Handle one request at time `now_ms`.
    pub fn handle(&self, request: &LgRequest, now_ms: u64) -> Result<LgResponse, LgError> {
        let m = crate::metrics::handles();
        m.requests.inc();
        // A span, not a bare histogram timer: serve latency lands in the
        // `lg.handle` histogram either way, and with tracing enabled each
        // request also becomes a trace-tree child of whatever span issued
        // it (collection loop or TCP serve), so per-request cost is
        // attributable in the self-time profile.
        let _span = obs::span!(obs::names::LG_HANDLE);
        if !self.limiter.write().try_acquire(now_ms) {
            m.rate_limited.inc();
            return Err(LgError::RateLimited);
        }
        let (fail, truncate) = {
            let failures = self.failures.read();
            let mut guard = self.rng.write();
            let rng: &mut StdRng = &mut guard;
            (
                rng.random::<f64>() < failures.error_rate,
                rng.random::<f64>() < failures.truncate_rate,
            )
        };
        if fail {
            m.failures_injected.inc();
            return Err(LgError::ServerError);
        }
        match request {
            LgRequest::Summary { afi } => Ok(self.summary(*afi)),
            LgRequest::Routes {
                peer,
                afi,
                filtered,
                page,
            } => self.routes(*peer, *afi, *filtered, *page, truncate),
            LgRequest::RsConfig => {
                let ixp = self.rs.read().ixp();
                Ok(LgResponse::RsConfig {
                    entries: community_dict::schemes::rs_config_entries(ixp),
                })
            }
            LgRequest::RsConfigText => {
                let ixp = self.rs.read().ixp();
                let entries = community_dict::schemes::rs_config_entries(ixp);
                Ok(LgResponse::RsConfigText {
                    text: community_dict::config_text::render(
                        ixp.rs_asn(),
                        ixp.short_name(),
                        &entries,
                    ),
                })
            }
            LgRequest::StreamPoll { session, after } => {
                Ok(self.stream_poll(*session, *after, truncate))
            }
        }
    }

    /// Serve one page of the monitoring feed. The first poll ever primes
    /// the feed: event recording is switched on at the route server and
    /// an initial table dump (peer-up per member, then each member's
    /// stored routes in prefix order) is synthesized under the same write
    /// lock, so no mutation can fall between the dump and the incremental
    /// tail. Later polls drain the route server's event log into the
    /// feed before serving.
    fn stream_poll(&self, client_session: u64, after: u64, truncate: bool) -> LgResponse {
        let mut feed = self.stream.write();
        if feed.session == 0 {
            feed.session = 1;
            let mut rs = self.rs.write();
            rs.enable_events();
            // discard anything recorded before the feed existed: the dump
            // below reflects the net state those events produced
            let _ = rs.take_events();
            let members: Vec<route_server::server::Member> = rs.members().copied().collect();
            for m in &members {
                feed.push(RibEvent::PeerUp {
                    peer: m.asn,
                    ipv4: m.ipv4,
                    ipv6: m.ipv6,
                });
            }
            for m in &members {
                if let Some(table) = rs.accepted().peer(m.asn) {
                    for route in table.iter() {
                        feed.push(RibEvent::Announce {
                            peer: m.asn,
                            route: route.clone(),
                        });
                    }
                }
            }
        } else {
            for event in self.rs.write().take_events() {
                feed.push(event);
            }
        }
        let resync = client_session != feed.session;
        let start = if resync { 0 } else { after as usize };
        let mut frames: Vec<StreamFrame> = feed
            .log
            .iter()
            .skip(start)
            .take(STREAM_PAGE)
            .cloned()
            .collect();
        if truncate && frames.len() > 1 {
            // silent partial page: harmless to a cursor-driven client,
            // the tail is simply served again on the next poll
            frames.truncate(frames.len() / 2);
            crate::metrics::handles().pages_truncated.inc();
        }
        let backlog = feed.log.len().saturating_sub(start + frames.len()) as u64;
        crate::metrics::handles()
            .stream_queue_depth
            .set(backlog as i64);
        LgResponse::StreamEvents {
            session: feed.session,
            frames,
            backlog,
            resync,
        }
    }

    fn summary(&self, afi: Afi) -> LgResponse {
        let rs = self.rs.read();
        let members = rs
            .members_for(afi)
            .map(|m| {
                let accepted = rs
                    .accepted()
                    .peer(m.asn)
                    .map(|t| t.iter_afi(afi).count())
                    .unwrap_or(0);
                let filtered = rs
                    .filtered()
                    .iter()
                    .filter(|f| f.peer == m.asn && f.route.afi() == afi)
                    .count();
                MemberSummary {
                    asn: m.asn,
                    accepted_routes: accepted,
                    filtered_routes: filtered,
                }
            })
            .collect();
        LgResponse::Summary {
            ixp: rs.ixp(),
            members,
        }
    }

    fn routes(
        &self,
        peer: bgp_model::asn::Asn,
        afi: Afi,
        filtered: bool,
        page: usize,
        truncate: bool,
    ) -> Result<LgResponse, LgError> {
        let rs = self.rs.read();
        if !rs.is_member(peer) {
            return Err(LgError::UnknownPeer(peer));
        }
        // The table is walked twice — once to count, once to the page —
        // so only the page's routes are ever cloned, not the whole table
        // once per page.
        let table = || -> Box<dyn Iterator<Item = &Route> + '_> {
            if filtered {
                Box::new(
                    rs.filtered()
                        .iter()
                        .filter(move |f| f.peer == peer && f.route.afi() == afi)
                        .map(|f| &f.route),
                )
            } else {
                Box::new(
                    rs.accepted()
                        .peer(peer)
                        .into_iter()
                        .flat_map(move |t| t.iter_afi(afi)),
                )
            }
        };
        let total_pages = table().count().div_ceil(PAGE_SIZE).max(1);
        if page >= total_pages {
            return Err(LgError::PageOutOfRange { page, total_pages });
        }
        let mut routes: Vec<Route> = table()
            .skip(page * PAGE_SIZE)
            .take(PAGE_SIZE)
            .cloned()
            .collect();
        if truncate && routes.len() > 1 {
            // silent partial data: drop the tail of the page
            routes.truncate(routes.len() / 2);
            crate::metrics::handles().pages_truncated.inc();
        }
        Ok(LgResponse::Routes {
            routes,
            page,
            total_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use community_dict::ixp::IxpId;

    fn setup(seed: u64) -> LgServer {
        let mut rs = RouteServer::for_ixp(IxpId::Linx);
        rs.add_member(Asn(39120), true, false);
        rs.add_member(Asn(6939), true, true);
        for i in 0..5u8 {
            let r = Route::builder(
                format!("193.0.{i}.0/24").parse().unwrap(),
                "198.32.0.7".parse().unwrap(),
            )
            .path([39120, 15169])
            .build();
            rs.announce(Asn(39120), r);
        }
        LgServer::new(Arc::new(RwLock::new(rs)), seed)
    }

    #[test]
    fn summary_lists_members_with_counts() {
        let lg = setup(1);
        let LgResponse::Summary { ixp, members } = lg
            .handle(&LgRequest::Summary { afi: Afi::Ipv4 }, 0)
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(ixp, IxpId::Linx);
        assert_eq!(members.len(), 2);
        let m = members.iter().find(|m| m.asn == Asn(39120)).unwrap();
        assert_eq!(m.accepted_routes, 5);
        // v6 summary only lists the v6-capable member
        let LgResponse::Summary { members, .. } = lg
            .handle(&LgRequest::Summary { afi: Afi::Ipv6 }, 100)
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(members.len(), 1);
    }

    #[test]
    fn routes_pagination() {
        let lg = setup(2);
        let LgResponse::Routes {
            routes,
            page,
            total_pages,
        } = lg
            .handle(
                &LgRequest::Routes {
                    peer: Asn(39120),
                    afi: Afi::Ipv4,
                    filtered: false,
                    page: 0,
                },
                200,
            )
            .unwrap()
        else {
            panic!()
        };
        assert_eq!((page, total_pages), (0, 1));
        assert_eq!(routes.len(), 5);
        // out of range
        assert_eq!(
            lg.handle(
                &LgRequest::Routes {
                    peer: Asn(39120),
                    afi: Afi::Ipv4,
                    filtered: false,
                    page: 1,
                },
                300,
            ),
            Err(LgError::PageOutOfRange {
                page: 1,
                total_pages: 1
            })
        );
        // unknown peer
        assert_eq!(
            lg.handle(
                &LgRequest::Routes {
                    peer: Asn(7),
                    afi: Afi::Ipv4,
                    filtered: false,
                    page: 0,
                },
                400,
            ),
            Err(LgError::UnknownPeer(Asn(7)))
        );
    }

    /// Every page of one table, concatenated, and the page count the
    /// server reported (checked equal on every page, as is the bound).
    fn all_pages(lg: &LgServer, peer: Asn, afi: Afi, filtered: bool) -> (Vec<Route>, usize) {
        let request = |page| LgRequest::Routes {
            peer,
            afi,
            filtered,
            page,
        };
        let mut all = Vec::new();
        let mut pages = 1;
        let mut page = 0;
        while page < pages {
            let LgResponse::Routes {
                routes,
                page: served,
                total_pages,
            } = lg.handle(&request(page), 0).unwrap()
            else {
                panic!()
            };
            assert_eq!(served, page);
            assert!(page == 0 || total_pages == pages);
            let full = page + 1 < total_pages;
            assert!(routes.len() <= PAGE_SIZE && (!full || routes.len() == PAGE_SIZE));
            pages = total_pages;
            all.extend(routes);
            page += 1;
        }
        assert_eq!(
            lg.handle(&request(pages), 0),
            Err(LgError::PageOutOfRange {
                page: pages,
                total_pages: pages
            })
        );
        (all, pages)
    }

    #[test]
    fn pages_partition_the_table_in_table_order() {
        let mut rs = RouteServer::for_ixp(IxpId::Linx);
        rs.add_member(Asn(39120), true, true);
        rs.add_member(Asn(6939), true, true);
        rs.add_member(Asn(15169), true, true);
        // 600 accepted /24s and 520 filtered /25s (too specific) for the
        // peer under test, announced out of prefix order and interleaved
        // with another member's routes and with the other family
        for i in (0..600u32).rev() {
            let path = [39120, 3000 + i % 7];
            let v4 = |len| {
                format!("193.{}.{}.0/{len}", i / 200, i % 200)
                    .parse()
                    .unwrap()
            };
            let hop = "198.32.0.7".parse().unwrap();
            rs.announce(Asn(39120), Route::builder(v4(24), hop).path(path).build());
            if i < 520 {
                rs.announce(Asn(39120), Route::builder(v4(25), hop).path(path).build());
                rs.announce(Asn(6939), Route::builder(v4(26), hop).path([6939]).build());
            }
            if i < 3 {
                let v6 = format!("2a01:4f8:{i:x}::/48").parse().unwrap();
                let hop6 = "2001:7f8::7".parse().unwrap();
                rs.announce(Asn(39120), Route::builder(v6, hop6).path(path).build());
            }
        }
        let accepted: Vec<Route> = rs
            .accepted()
            .peer(Asn(39120))
            .unwrap()
            .iter_afi(Afi::Ipv4)
            .cloned()
            .collect();
        let filtered: Vec<Route> = rs
            .filtered()
            .iter()
            .filter(|f| f.peer == Asn(39120) && f.route.afi() == Afi::Ipv4)
            .map(|f| f.route.clone())
            .collect();
        assert_eq!((accepted.len(), filtered.len()), (600, 520));
        let lg = LgServer::new(Arc::new(RwLock::new(rs)), 7);
        lg.set_limiter(RateLimiter::new(10_000, 1e9));

        assert_eq!(all_pages(&lg, Asn(39120), Afi::Ipv4, false), (accepted, 3));
        assert_eq!(all_pages(&lg, Asn(39120), Afi::Ipv4, true), (filtered, 3));
        // the other family of the same peer is its own, one-page table
        assert_eq!(all_pages(&lg, Asn(39120), Afi::Ipv6, false).0.len(), 3);
        // empty tables serve exactly one empty page
        for (peer, afi, filtered) in [
            (Asn(15169), Afi::Ipv4, false),
            (Asn(15169), Afi::Ipv4, true),
            (Asn(39120), Afi::Ipv6, true),
            (Asn(6939), Afi::Ipv4, false),
        ] {
            assert_eq!(all_pages(&lg, peer, afi, filtered), (vec![], 1));
        }

        // a truncated page is the first half of the honest one
        let honest = |filtered| all_pages(&lg, Asn(39120), Afi::Ipv4, filtered).0;
        let (honest_accepted, honest_filtered) = (honest(false), honest(true));
        lg.set_failures(FailureModel {
            error_rate: 0.0,
            truncate_rate: 1.0,
        });
        for (filtered, honest) in [(false, honest_accepted), (true, honest_filtered)] {
            for (page, whole) in honest.chunks(PAGE_SIZE).enumerate() {
                let request = LgRequest::Routes {
                    peer: Asn(39120),
                    afi: Afi::Ipv4,
                    filtered,
                    page,
                };
                let LgResponse::Routes { routes, .. } = lg.handle(&request, 0).unwrap() else {
                    panic!()
                };
                assert_eq!(routes, whole[..whole.len() / 2]);
            }
        }
    }

    #[test]
    fn rate_limiter_blocks_bursts_and_refills() {
        let lg = setup(3);
        lg.set_limiter(RateLimiter::new(2, 1.0)); // burst 2, 1/s
        assert!(lg.handle(&LgRequest::Summary { afi: Afi::Ipv4 }, 0).is_ok());
        assert!(lg.handle(&LgRequest::Summary { afi: Afi::Ipv4 }, 1).is_ok());
        assert_eq!(
            lg.handle(&LgRequest::Summary { afi: Afi::Ipv4 }, 2),
            Err(LgError::RateLimited)
        );
        // one second later a token is back
        assert!(lg
            .handle(&LgRequest::Summary { afi: Afi::Ipv4 }, 1100)
            .is_ok());
    }

    #[test]
    fn failure_injection_fails_requests() {
        let lg = setup(4);
        lg.set_failures(FailureModel {
            error_rate: 1.0,
            truncate_rate: 0.0,
        });
        assert_eq!(
            lg.handle(&LgRequest::Summary { afi: Afi::Ipv4 }, 0),
            Err(LgError::ServerError)
        );
        lg.set_failures(FailureModel::NONE);
        assert!(lg
            .handle(&LgRequest::Summary { afi: Afi::Ipv4 }, 100)
            .is_ok());
    }

    #[test]
    fn truncation_drops_tail() {
        let lg = setup(5);
        lg.set_failures(FailureModel {
            error_rate: 0.0,
            truncate_rate: 1.0,
        });
        let LgResponse::Routes { routes, .. } = lg
            .handle(
                &LgRequest::Routes {
                    peer: Asn(39120),
                    afi: Afi::Ipv4,
                    filtered: false,
                    page: 0,
                },
                0,
            )
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(routes.len(), 2); // 5 → truncated to half
    }

    #[test]
    fn rate_limiter_drains_full_burst_then_blocks() {
        let mut limiter = RateLimiter::new(5, 1.0);
        // the whole burst is available at t=0...
        for _ in 0..5 {
            assert!(limiter.try_acquire(0));
        }
        // ...and the very next request is rejected
        assert!(!limiter.try_acquire(0));
        assert!(!limiter.try_acquire(1));
    }

    #[test]
    fn rate_limiter_refill_precision() {
        let mut limiter = RateLimiter::new(1, 2.0); // one token per 500 ms
        assert!(limiter.try_acquire(0));
        // 499 ms refills 0.998 tokens — not enough
        assert!(!limiter.try_acquire(499));
        // 1 ms more tops the bucket up to a full token
        assert!(limiter.try_acquire(500));
        // fractional refill must accumulate across failed attempts too:
        // 250 ms + 250 ms = one token even when probed in between
        assert!(!limiter.try_acquire(750));
        assert!(limiter.try_acquire(1000));
    }

    #[test]
    fn rate_limiter_tolerates_clock_going_backwards() {
        let mut limiter = RateLimiter::new(2, 1000.0);
        assert!(limiter.try_acquire(10_000));
        // a clock step backwards must not panic (saturating_sub) nor
        // mint tokens from a negative elapsed interval
        assert!(limiter.try_acquire(2_000));
        assert!(!limiter.try_acquire(2_000));
        // time resumes from the regressed value
        assert!(limiter.try_acquire(2_002));
    }

    #[test]
    fn failure_model_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let lg = setup(seed);
            lg.set_limiter(RateLimiter::new(10_000, 10_000.0));
            lg.set_failures(FailureModel {
                error_rate: 0.5,
                truncate_rate: 0.0,
            });
            (0..100)
                .map(|i| lg.handle(&LgRequest::Summary { afi: Afi::Ipv4 }, i).is_ok())
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must inject identical failures");
        // the model actually fired both ways at p=0.5
        assert!(a.iter().any(|ok| *ok));
        assert!(a.iter().any(|ok| !*ok));
        // and a different seed gives a different trace
        assert_ne!(a, run(43), "independent seeds should diverge");
    }

    #[test]
    fn rs_config_endpoint_serves_dictionary_source() {
        let lg = setup(6);
        let LgResponse::RsConfig { entries } = lg.handle(&LgRequest::RsConfig, 0).unwrap() else {
            panic!()
        };
        // the RS-config source is the incomplete one (§3)
        assert!(!entries.is_empty());
        assert!(entries.len() < community_dict::schemes::expected_len(IxpId::Linx));
    }
}
