//! The collector client.
//!
//! Mirrors the paper's §3 methodology: fetch the summary (peer list +
//! route counts), then per peer fetch all accepted-route pages; keep a
//! single logical connection, pace requests to respect the rate limit,
//! retry transient failures a bounded number of times, and mark the
//! snapshot partial when a peer stays unreachable — the raw material the
//! valley sanitation later works on.

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;

use crate::api::{LgError, LgRequest, LgResponse};
use crate::clock::{Clock, SystemClock, VirtualClock};
use crate::snapshot::Snapshot;

/// Anything that can carry LG requests (in-process or TCP).
pub trait LgTransport {
    /// Issue one request at (simulated) time `now_ms`.
    fn request(&mut self, req: &LgRequest, now_ms: u64) -> Result<LgResponse, LgError>;

    /// True when the transport's server runs on a real clock (e.g. TCP):
    /// the collector must then actually sleep to pace its requests,
    /// instead of merely advancing its simulated clock.
    fn is_real_time(&self) -> bool {
        false
    }
}

/// In-process transport: call the server directly.
impl LgTransport for &crate::server::LgServer {
    fn request(&mut self, req: &LgRequest, now_ms: u64) -> Result<LgResponse, LgError> {
        self.handle(req, now_ms)
    }
}

/// Request pacing and the transient-failure retry budget: the one
/// request discipline the snapshot [`Collector`] and the stream
/// collector (`crates/stream`) share.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Milliseconds waited before every attempt (pacing).
    pub interval_ms: u64,
    /// Retries after the first attempt.
    pub max_retries: u32,
    /// Milliseconds waited after a transient failure.
    pub backoff_ms: u64,
}

/// One step of [`request_with_retry`], reported to the caller so it can
/// keep its own request and failure counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// A request went out.
    Sent,
    /// It failed transiently (rate limit, server error, transport).
    Failed,
}

/// Issue `req` through `transport` at most `1 + max_retries` times:
/// pace before each attempt, back off after each transient failure
/// (`RateLimited`, `ServerError`, `Transport`), and return any other
/// error at once — retrying an unknown peer or a page out of range
/// cannot help. Every wait goes through `clock`.
pub fn request_with_retry<T: LgTransport>(
    transport: &mut T,
    req: &LgRequest,
    clock: &dyn Clock,
    policy: RetryPolicy,
    mut tally: impl FnMut(Attempt),
) -> Result<LgResponse, LgError> {
    let mut last_err = LgError::ServerError;
    for _attempt in 0..=policy.max_retries {
        clock.sleep_ms(policy.interval_ms);
        tally(Attempt::Sent);
        match transport.request(req, clock.now_ms()) {
            Ok(resp) => return Ok(resp),
            Err(e @ (LgError::RateLimited | LgError::ServerError | LgError::Transport(_))) => {
                tally(Attempt::Failed);
                clock.sleep_ms(policy.backoff_ms);
                last_err = e;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err)
}

/// Run `f` on the clock a collector paces its transport by, starting at
/// `start_ms`: a [`VirtualClock`] for in-process transports (no wait
/// ever blocks), a [`SystemClock`] when the far side paces against real
/// time (`real_time`, from [`LgTransport::is_real_time`]; TCP).
pub fn with_pacing_clock<R>(real_time: bool, start_ms: u64, f: impl FnOnce(&dyn Clock) -> R) -> R {
    if real_time {
        f(&SystemClock::starting_at(start_ms))
    } else {
        f(&VirtualClock::new(start_ms))
    }
}

/// Collector pacing and retry configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Milliseconds between consecutive requests (pacing; §3: "we kept a
    /// single connection to the LG server, to avoid overloading it").
    pub request_interval_ms: u64,
    /// Retries per failed request.
    pub max_retries: u32,
    /// Backoff after a failure or rate-limit response.
    pub retry_backoff_ms: u64,
    /// Verify that a routes response echoes the requested page index and
    /// retry on mismatch. Protects the dataset against duplicated or
    /// out-of-order responses from an unstable LG; disable only to
    /// demonstrate the resulting corruption (the chaos oracles catch it).
    pub validate_pages: bool,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            request_interval_ms: 60, // ~16 req/s, under the default limit
            max_retries: 3,
            retry_backoff_ms: 500,
            validate_pages: true,
        }
    }
}

/// Result of one collection run.
#[derive(Debug, Clone)]
pub struct CollectionReport {
    /// The snapshot (possibly partial).
    pub snapshot: Snapshot,
    /// Requests issued (including retries).
    pub requests: u64,
    /// Requests that failed (transient or final).
    pub failures: u64,
    /// Simulated wall-clock duration of the run, ms.
    pub duration_ms: u64,
}

/// The collector.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    config: CollectorConfig,
}

impl Collector {
    /// Collector with explicit configuration.
    pub fn new(config: CollectorConfig) -> Self {
        Collector { config }
    }

    /// Collect one (IXP, family, day) snapshot through `transport`,
    /// starting the simulated clock at `start_ms`.
    ///
    /// Picks the clock from the transport (see [`with_pacing_clock`]).
    pub fn collect<T: LgTransport>(
        &self,
        transport: &mut T,
        afi: Afi,
        day: u32,
        start_ms: u64,
    ) -> Result<CollectionReport, LgError> {
        with_pacing_clock(transport.is_real_time(), start_ms, |clock| {
            self.collect_with_clock(transport, afi, day, clock)
        })
    }

    /// Collect one snapshot, with every wait (pacing, retry backoff)
    /// routed through `clock`. Passing one shared [`VirtualClock`] makes
    /// a whole campaign — collector pacing, retry backoff, the server's
    /// rate-limiter buckets — advance on a single logical timeline.
    pub fn collect_with_clock<T: LgTransport>(
        &self,
        transport: &mut T,
        afi: Afi,
        day: u32,
        clock: &dyn Clock,
    ) -> Result<CollectionReport, LgError> {
        let start_ms = clock.now_ms();
        let mut requests = 0u64;
        let mut failures = 0u64;

        // 1. the summary file
        let summary = self.send(
            transport,
            &LgRequest::Summary { afi },
            clock,
            &mut requests,
            &mut failures,
        )?;
        let LgResponse::Summary { ixp, members } = summary else {
            return Err(LgError::Transport("summary: wrong response type".into()));
        };

        // 2. all accepted routes per peer
        let mut routes: Vec<(Asn, Route)> = Vec::new();
        let mut failed_peers = Vec::new();
        for m in &members {
            if m.accepted_routes == 0 {
                continue; // session without routes: nothing to fetch
            }
            match self.fetch_peer_routes(transport, m.asn, afi, clock, &mut requests, &mut failures)
            {
                Ok(peer_routes) => {
                    routes.extend(peer_routes.into_iter().map(|r| (m.asn, r)));
                }
                Err(_) => failed_peers.push(m.asn),
            }
        }

        let partial = !failed_peers.is_empty();
        let m = crate::metrics::handles();
        if partial {
            m.snapshots_partial.inc();
        } else {
            m.snapshots_complete.inc();
        }
        let duration_ms = clock.now_ms().saturating_sub(start_ms);
        m.collect_ms.record(duration_ms);
        Ok(CollectionReport {
            snapshot: Snapshot {
                ixp,
                day,
                afi,
                members: members.iter().map(|m| m.asn).collect(),
                routes,
                partial,
                failed_peers,
            },
            requests,
            failures,
            duration_ms,
        })
    }

    fn fetch_peer_routes<T: LgTransport>(
        &self,
        transport: &mut T,
        peer: Asn,
        afi: Afi,
        clock: &dyn Clock,
        requests: &mut u64,
        failures: &mut u64,
    ) -> Result<Vec<Route>, LgError> {
        let mut out = Vec::new();
        let mut page = 0usize;
        let mut echo_retries = 0u32;
        loop {
            let resp = self.send(
                transport,
                &LgRequest::Routes {
                    peer,
                    afi,
                    filtered: false,
                    page,
                },
                clock,
                requests,
                failures,
            )?;
            let LgResponse::Routes {
                routes,
                page: served,
                total_pages,
            } = resp
            else {
                return Err(LgError::Transport("routes: wrong response type".into()));
            };
            if self.config.validate_pages && served != page {
                // A duplicated or reordered response slipped through: drop
                // it and ask again for the page we actually wanted, within
                // the same bounded retry budget as transport failures.
                *failures += 1;
                crate::metrics::handles().client_retries.inc();
                echo_retries += 1;
                if echo_retries > self.config.max_retries {
                    return Err(LgError::Transport(format!(
                        "routes: page echo mismatch for AS{} (asked {page}, got {served})",
                        peer.0
                    )));
                }
                clock.sleep_ms(self.config.retry_backoff_ms);
                continue;
            }
            echo_retries = 0;
            out.extend(routes);
            page += 1;
            if page >= total_pages {
                return Ok(out);
            }
        }
    }

    /// [`request_with_retry`] under this collector's policy, counting
    /// attempts into `requests`/`failures` and the `lg.client.*` metrics.
    fn send<T: LgTransport>(
        &self,
        transport: &mut T,
        req: &LgRequest,
        clock: &dyn Clock,
        requests: &mut u64,
        failures: &mut u64,
    ) -> Result<LgResponse, LgError> {
        let policy = RetryPolicy {
            interval_ms: self.config.request_interval_ms,
            max_retries: self.config.max_retries,
            backoff_ms: self.config.retry_backoff_ms,
        };
        let m = crate::metrics::handles();
        request_with_retry(transport, req, clock, policy, |attempt| match attempt {
            Attempt::Sent => {
                *requests += 1;
                m.client_requests.inc();
            }
            Attempt::Failed => {
                *failures += 1;
                m.client_retries.inc();
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FailureModel, LgServer};
    use bgp_model::route::Route;
    use community_dict::ixp::IxpId;
    use parking_lot::RwLock;
    use route_server::server::RouteServer;
    use std::sync::Arc;

    fn lg(seed: u64, n_routes: usize) -> LgServer {
        let mut rs = RouteServer::for_ixp(IxpId::Linx);
        rs.add_member(Asn(39120), true, false);
        rs.add_member(Asn(6939), true, false);
        rs.add_member(Asn(13335), true, false); // session, no routes
        for i in 0..n_routes {
            let r = Route::builder(
                format!("193.{}.{}.0/24", i / 250, i % 250).parse().unwrap(),
                "198.32.0.7".parse().unwrap(),
            )
            .path([39120, 15169])
            .build();
            rs.announce(Asn(39120), r);
            let r = Route::builder(
                format!("81.{}.{}.0/24", i / 250, i % 250).parse().unwrap(),
                "198.32.0.8".parse().unwrap(),
            )
            .path([6939, 2906])
            .build();
            rs.announce(Asn(6939), r);
        }
        LgServer::new(Arc::new(RwLock::new(rs)), seed)
    }

    #[test]
    fn clean_collection() {
        let server = lg(1, 300); // forces two pages per peer
        let collector = Collector::default();
        let mut t = &server;
        let report = collector.collect(&mut t, Afi::Ipv4, 0, 0).unwrap();
        assert!(!report.snapshot.partial);
        assert_eq!(report.snapshot.member_count(), 3);
        assert_eq!(report.snapshot.route_count(), 600);
        assert_eq!(report.failures, 0);
        // summary + 2 peers × 2 pages
        assert_eq!(report.requests, 5);
        assert!(report.duration_ms >= 5 * 60);
    }

    #[test]
    fn retries_survive_flakiness() {
        let server = lg(2, 50);
        server.set_failures(FailureModel {
            error_rate: 0.5,
            truncate_rate: 0.0,
        });
        let collector = Collector::default();
        let mut t = &server;
        let report = collector.collect(&mut t, Afi::Ipv4, 0, 0).unwrap();
        // with 3 retries and p=0.5, all peers virtually always succeed
        assert!(!report.snapshot.partial);
        assert_eq!(report.snapshot.route_count(), 100);
        assert!(report.failures > 0, "flakiness should have caused retries");
    }

    #[test]
    fn outage_produces_partial_snapshot() {
        let server = lg(3, 50);
        server.set_failures(FailureModel {
            error_rate: 0.9,
            truncate_rate: 0.0,
        });
        let collector = Collector::new(CollectorConfig {
            max_retries: 1,
            ..CollectorConfig::default()
        });
        let mut t = &server;
        // the summary itself may fail; try a few starting offsets until it
        // goes through, as the paper's collector re-ran failed jobs
        let mut report = None;
        for attempt in 0..50 {
            if let Ok(r) = collector.collect(&mut t, Afi::Ipv4, 0, attempt * 100_000) {
                report = Some(r);
                break;
            }
        }
        let report = report.expect("one run should get a summary through");
        assert!(report.snapshot.partial);
        assert!(!report.snapshot.failed_peers.is_empty());
    }

    #[test]
    fn rate_limit_backoff_still_completes() {
        let server = lg(4, 20);
        server.set_limiter(crate::server::RateLimiter::new(1, 2.0)); // very tight
        let collector = Collector::default();
        let mut t = &server;
        let report = collector.collect(&mut t, Afi::Ipv4, 0, 0).unwrap();
        assert!(!report.snapshot.partial);
        assert!(report.failures > 0, "rate limiting should have been hit");
        assert_eq!(report.snapshot.route_count(), 40);
    }
}
