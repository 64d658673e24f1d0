//! The injecting transport: wraps an in-process [`LgServer`] and applies
//! a [`FaultPlan`] to every request/response that crosses it, on the
//! campaign's shared [`VirtualClock`]. All randomness comes from one
//! seeded RNG, so an identical `(seed, plan)` injects an identical fault
//! sequence.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use bgp_model::asn::Asn;
use bgp_model::prefix::Prefix;
use bgp_model::route::Route;
use looking_glass::api::{LgError, LgRequest, LgResponse};
use looking_glass::client::LgTransport;
use looking_glass::clock::{Clock, VirtualClock};
use looking_glass::server::LgServer;
use route_server::events::RibEvent;
use route_server::server::RouteServer;

use crate::plan::{FaultClass, FaultPlan};

/// What the injector observed and did, accumulated across a campaign.
/// The oracles read this to know which corruptions are *explained*.
#[derive(Debug, Clone, Default)]
pub struct InjectStats {
    /// Faults injected per class name.
    pub faults: BTreeMap<&'static str, u64>,
    /// Longest run of consecutive identical requests seen on the wire —
    /// the observable upper bound on the client's retry behaviour. A
    /// re-poll forced by a feed page cut to nothing starts a new run: it
    /// is progress, not a retry.
    pub max_consecutive_identical: u64,
    /// Per-(day, peer) accepted-route counts declared by the summary
    /// response that the injector saw pass through.
    pub declared: BTreeMap<(u32, Asn), usize>,
    /// Churn events actually applied, per (day, peer).
    pub churned: BTreeMap<(u32, Asn), u32>,
    /// The peer whose session flapped, per day (either variant).
    pub flapped: BTreeMap<u32, Asn>,
    /// Requests forwarded to the server.
    pub forwarded: u64,
}

impl InjectStats {
    /// Total injected faults across classes.
    pub fn total_faults(&self) -> u64 {
        self.faults.values().sum()
    }

    fn count(&mut self, class: FaultClass) {
        *self.faults.entry(class.name()).or_insert(0) += 1;
        crate::metrics::count_fault(class.name());
    }
}

/// A fault-injecting [`LgTransport`] for one campaign day.
pub(crate) struct ChaosTransport<'a> {
    lg: &'a LgServer,
    clock: &'a VirtualClock,
    plan: &'a FaultPlan,
    rs: Arc<RwLock<RouteServer>>,
    day: u32,
    rng: StdRng,
    stats: &'a mut InjectStats,
    // dup/reorder caches: the last and the first routes response per peer
    prev_page: BTreeMap<Asn, LgResponse>,
    first_page: BTreeMap<Asn, LgResponse>,
    last_request: Option<String>,
    identical_run: u64,
    repoll_forced: bool,
    churn_budget: u32,
    /// Churned (peer, prefix) announcements to withdraw at day end.
    pub churned_routes: Vec<(Asn, Prefix)>,
    /// Routes silently dropped by a mid-collection flap, to restore at
    /// day end (fixture mode).
    pub flap_dropped: Vec<(Asn, Route)>,
    mid_flap_done: bool,
}

impl<'a> ChaosTransport<'a> {
    /// A transport for `day` of the campaign. `seed` plus the day index
    /// derive the injection RNG, so each day's fault sequence is
    /// independent but fully determined.
    pub(crate) fn new(
        lg: &'a LgServer,
        clock: &'a VirtualClock,
        plan: &'a FaultPlan,
        rs: Arc<RwLock<RouteServer>>,
        day: u32,
        seed: u64,
        stats: &'a mut InjectStats,
    ) -> Self {
        let churn_budget = if plan.churn_days.contains(&day) {
            plan.churn_events_per_day
        } else {
            0
        };
        ChaosTransport {
            lg,
            clock,
            plan,
            rs,
            day,
            rng: StdRng::seed_from_u64(seed ^ ((day as u64) << 32) ^ 0x1A13C7),
            stats,
            prev_page: BTreeMap::new(),
            first_page: BTreeMap::new(),
            last_request: None,
            identical_run: 0,
            repoll_forced: false,
            churn_budget,
            churned_routes: Vec::new(),
            flap_dropped: Vec::new(),
            mid_flap_done: false,
        }
    }

    fn chance(&mut self, per_mille: u64) -> bool {
        per_mille > 0 && self.rng.random_range(0..1000u64) < per_mille
    }

    fn track_identical(&mut self, req: &LgRequest) {
        let key = serde_json::to_string(req).unwrap_or_default();
        // a feed page cut at position 0 comes back empty with a grown
        // backlog, so the collector's next poll repeats the request with
        // the same cursor: progress, not a retry, so it opens a new run
        let forced = std::mem::take(&mut self.repoll_forced);
        if !forced && self.last_request.as_deref() == Some(key.as_str()) {
            self.identical_run += 1;
        } else {
            self.identical_run = 1;
            self.last_request = Some(key);
        }
        if self.identical_run > self.stats.max_consecutive_identical {
            self.stats.max_consecutive_identical = self.identical_run;
        }
    }

    /// Announce one synthetic churn route to `peer`. Corpus churn appends
    /// at the tail of the peer's RIB (high prefixes: later pages only
    /// grow); the fixture's head-insert variant prepends (low prefixes),
    /// shifting every subsequent page — the pagination corruption the
    /// oracle must catch.
    fn apply_churn(&mut self, peer: Asn) {
        let i = self.churned_routes.len() as u32;
        let prefix: Result<Prefix, _> = if self.plan.churn_head_insert {
            format!("1.0.{}.0/24", i % 256).parse()
        } else {
            format!("196.0.{}.0/24", i % 256).parse()
        };
        let Ok(prefix) = prefix else { return };
        let Ok(next_hop) = "198.32.0.9".parse() else {
            return;
        };
        let route = Route::builder(prefix, next_hop)
            .path([peer.0, 3356])
            .build();
        let outcome = self.rs.write().announce(peer, route);
        if matches!(outcome, route_server::server::IngestOutcome::Accepted) {
            self.churned_routes.push((peer, prefix));
            *self.stats.churned.entry((self.day, peer)).or_insert(0) += 1;
            self.stats.count(FaultClass::Churn);
        }
        self.churn_budget = self.churn_budget.saturating_sub(1);
    }

    /// The fixture-only mid-collection flap: after the summary has been
    /// served, bounce a peer's session and silently lose one route on
    /// re-announce. The snapshot then disagrees with the summary without
    /// any flag being raised — exactly what the oracle must detect.
    fn apply_mid_flap(&mut self, requested: Asn) {
        let Some((&(_, target), _)) = self
            .stats
            .declared
            .iter()
            .find(|(&(d, peer), &count)| d == self.day && peer != requested && count > 1)
        else {
            return;
        };
        let mut rs = self.rs.write();
        let (v4, v6) = match rs.members().find(|m| m.asn == target) {
            Some(m) => (m.ipv4, m.ipv6),
            None => return,
        };
        let mut routes: Vec<Route> = Vec::new();
        if let Some(table) = rs.accepted().peer(target) {
            for afi in [bgp_model::prefix::Afi::Ipv4, bgp_model::prefix::Afi::Ipv6] {
                routes.extend(table.iter_afi(afi).cloned());
            }
        }
        if routes.is_empty() {
            return;
        }
        rs.remove_member(target);
        rs.add_member(target, v4, v6);
        let dropped = routes.pop();
        for r in routes {
            rs.announce(target, r);
        }
        if let Some(r) = dropped {
            self.flap_dropped.push((target, r));
        }
        self.mid_flap_done = true;
        self.stats.flapped.insert(self.day, target);
        self.stats.count(FaultClass::Flap);
    }

    /// Serve a realistically garbled frame: serialize the authentic
    /// response, truncate it mid-JSON, and surface the decode error the
    /// TCP transport would produce.
    fn garbage_error(&mut self, resp: &LgResponse) -> LgError {
        self.stats.count(FaultClass::Garbage);
        let framed = serde_json::to_string::<Result<&LgResponse, LgError>>(&Ok(resp))
            .unwrap_or_else(|_| String::from("{}"));
        let cut = framed.len() / 2;
        let mangled = framed.get(..cut).unwrap_or("");
        match serde_json::from_str::<Result<LgResponse, LgError>>(mangled) {
            Err(e) => LgError::Transport(format!("chaos: garbage frame: decode: {e}")),
            Ok(_) => LgError::Transport("chaos: garbage frame".into()),
        }
    }
}

impl LgTransport for ChaosTransport<'_> {
    fn request(&mut self, req: &LgRequest, now_ms: u64) -> Result<LgResponse, LgError> {
        self.track_identical(req);

        // injected latency: logical time passes, nothing blocks
        if self.plan.delay_ms > 0 {
            let per_mille = self.plan.delay_per_mille;
            if self.chance(per_mille) {
                self.clock.advance(self.plan.delay_ms);
                self.stats.count(FaultClass::Delay);
            }
        }
        // dropped response
        let drop_per_mille = self.plan.drop_per_mille;
        if self.chance(drop_per_mille) {
            self.stats.count(FaultClass::Drop);
            return Err(LgError::Transport("chaos: response dropped".into()));
        }
        // RIB churn between route pages
        if let LgRequest::Routes { peer, page, .. } = req {
            if *page >= 1 && self.churn_budget > 0 {
                self.apply_churn(*peer);
            }
            // fixture-only: flap a peer between summary and its fetch
            if self.plan.mid_collection_flap
                && !self.mid_flap_done
                && self.plan.flap_days.contains(&self.day)
            {
                self.apply_mid_flap(*peer);
            }
        }
        // monitoring-session reset: the server forgets the cursor and
        // replays the feed (frames keep their original seq numbers)
        if matches!(req, LgRequest::StreamPoll { .. }) {
            let reset_per_mille = self.plan.reset_per_mille;
            if self.chance(reset_per_mille) {
                self.lg.reset_stream();
                self.stats.count(FaultClass::Reset);
            }
        }

        // use the campaign clock, not the caller's idea of it, so
        // injected delays are visible to the server's rate limiter
        let now = now_ms.max(self.clock.now_ms());
        self.stats.forwarded += 1;
        let mut resp = self.lg.handle(req, now)?;

        if let LgResponse::Summary { members, .. } = &resp {
            for m in members {
                self.stats
                    .declared
                    .insert((self.day, m.asn), m.accepted_routes);
            }
        }

        // garbage frame: the response existed but cannot be decoded
        let garbage_per_mille = self.plan.garbage_per_mille;
        if self.chance(garbage_per_mille) {
            return Err(self.garbage_error(&resp));
        }

        // lost peer-down on the event feed
        if let LgResponse::StreamEvents {
            frames, backlog, ..
        } = &mut resp
        {
            if self.plan.lose_peer_down_silent {
                // fixture-only: the teardown is *masked* — served as a
                // peer-up glitch with the same seq, so the cursor moves
                // past it and the store keeps the dead peer's routes
                for frame in frames.iter_mut() {
                    if let RibEvent::PeerDown { peer } = frame.event {
                        frame.event = RibEvent::PeerUp {
                            peer,
                            ipv4: true,
                            ipv6: true,
                        };
                        self.stats.count(FaultClass::LostPeerDown);
                    }
                }
            } else if let Some(cut) = frames
                .iter()
                .position(|f| matches!(f.event, RibEvent::PeerDown { .. }))
            {
                // defended variant: the page is cut just before the
                // peer-down, as if the session died mid-transfer; the
                // reported backlog grows by the cut, so the collector
                // re-polls and the cursor re-serves the tail intact
                let lost_down_per_mille = self.plan.lost_down_per_mille;
                if self.chance(lost_down_per_mille) {
                    let dropped = (frames.len() - cut) as u64;
                    frames.truncate(cut);
                    *backlog += dropped;
                    self.repoll_forced = true;
                    self.stats.count(FaultClass::LostPeerDown);
                }
            }
        }

        // duplicated / reordered route pages
        if let LgRequest::Routes { peer, page, .. } = req {
            let reorder = self.plan.reorder_per_mille;
            let dup = self.plan.dup_per_mille;
            let out = if *page >= 1 && self.chance(reorder) {
                match self.first_page.get(peer) {
                    Some(first) => {
                        self.stats.count(FaultClass::Reorder);
                        first.clone()
                    }
                    None => resp.clone(),
                }
            } else if *page >= 1 && self.chance(dup) {
                match self.prev_page.get(peer) {
                    Some(prev) => {
                        self.stats.count(FaultClass::Duplicate);
                        prev.clone()
                    }
                    None => resp.clone(),
                }
            } else {
                resp.clone()
            };
            if *page == 0 {
                self.first_page.insert(*peer, resp.clone());
            }
            self.prev_page.insert(*peer, resp);
            return Ok(out);
        }
        Ok(resp)
    }
}
