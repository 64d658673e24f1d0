//! The route server itself (RFC 7947 style).
//!
//! Members announce routes (as parsed BGP UPDATEs or as model routes);
//! the server applies import filters (§3's accepted/filtered split), tags
//! informational communities, digests action communities, executes
//! blackhole next-hop rewrites, and computes per-peer export RIBs with
//! action semantics applied and communities scrubbed.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::community::well_known;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::rib::AdjRibIn;
use bgp_model::route::Route;
use bgp_wire::convert;
use bgp_wire::message::UpdateMessage;
use bgp_wire::WireError;

use community_dict::action::Target;
use community_dict::classify::{classify_extended, classify_large};
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;

use crate::config::{RsConfig, ScrubPolicy};
use crate::events::RibEvent;
use crate::filter::{check_import, is_blackhole_request, FilterReason};
use crate::metrics::RsMetrics;
use crate::policy::RoutePolicy;
use crate::stats::RsStats;

/// A member's session state at the RS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Member {
    /// Member ASN.
    pub asn: Asn,
    /// Has an IPv4 session with the RS.
    pub ipv4: bool,
    /// Has an IPv6 session with the RS.
    pub ipv6: bool,
}

impl Member {
    /// Session presence for one family.
    pub fn has_session(&self, afi: Afi) -> bool {
        match afi {
            Afi::Ipv4 => self.ipv4,
            Afi::Ipv6 => self.ipv6,
        }
    }
}

/// A route rejected on import, kept for the LG's "filtered" view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilteredRoute {
    /// Announcing member.
    pub peer: Asn,
    /// The rejected route (as announced).
    pub route: Route,
    /// Why it was rejected.
    pub reason: FilterReason,
}

/// Outcome of ingesting one route announcement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestOutcome {
    /// Accepted into the RIB.
    Accepted,
    /// Rejected by an import filter.
    Filtered(FilterReason),
    /// Announcer has no session for the route's family.
    NoSession,
}

/// The form an accepted route leaves the RS in. Scrubbing depends on the
/// route alone, never on the receiving peer, so it is computed once — by
/// the first export that allows the route — and kept beside the digest.
#[derive(Debug, Clone, Default)]
enum ExportForm {
    /// Not exported yet.
    #[default]
    Unknown,
    /// Scrubbing changes nothing: peers get the RIB's own `Arc<Route>`.
    Unchanged,
    /// The scrubbed route and how many community instances it lost.
    Scrubbed(Arc<Route>, u32),
}

/// What the RS keeps per accepted route. The entry is replaced on every
/// (re-)announcement and dropped on withdraw, so neither half can outlive
/// the route it was computed from.
#[derive(Debug, Clone, Default)]
struct Digested {
    policy: RoutePolicy,
    export: ExportForm,
}

/// The route server.
#[derive(Debug, Clone)]
pub struct RouteServer {
    config: RsConfig,
    dict: Dictionary,
    members: BTreeMap<Asn, Member>,
    rib: AdjRibIn,
    policies: HashMap<(Asn, Prefix), Digested>,
    filtered: Vec<FilteredRoute>,
    stats: RsStats,
    metrics: RsMetrics,
    /// BMP-style event log: `Some` while recording is enabled.
    events: Option<Vec<RibEvent>>,
}

impl RouteServer {
    /// Create a route server for one IXP with its standard configuration.
    pub fn for_ixp(ixp: IxpId) -> Self {
        RouteServer::new(RsConfig::for_ixp(ixp))
    }

    /// Create a route server with explicit configuration, recording
    /// telemetry to the process-wide [`obs::global()`] registry.
    pub fn new(config: RsConfig) -> Self {
        RouteServer::with_registry(config, obs::global())
    }

    /// Create a route server recording telemetry to an explicit registry
    /// (an isolated [`obs::Registry::new`] for tests and benchmarks, or
    /// [`obs::Registry::noop`] to disable recording entirely). The legacy
    /// [`RsStats`] bookkeeping is always kept regardless.
    pub fn with_registry(config: RsConfig, registry: &obs::Registry) -> Self {
        let dict = schemes::dictionary(config.ixp);
        RouteServer {
            config,
            dict,
            members: BTreeMap::new(),
            rib: AdjRibIn::new(),
            policies: HashMap::new(),
            filtered: Vec::new(),
            stats: RsStats::default(),
            metrics: RsMetrics::new(registry),
            events: None,
        }
    }

    /// Start recording [`RibEvent`]s for every subsequent RIB mutation.
    /// Idempotent; recording is off by default and costs nothing then.
    pub fn enable_events(&mut self) {
        if self.events.is_none() {
            self.events = Some(Vec::new());
        }
    }

    /// Drain the recorded events (empty when recording is disabled).
    pub fn take_events(&mut self) -> Vec<RibEvent> {
        match &mut self.events {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    fn emit(&mut self, event: impl FnOnce() -> RibEvent) {
        if let Some(log) = &mut self.events {
            log.push(event());
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RsConfig {
        &self.config
    }

    /// The community dictionary in force.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The IXP this server belongs to.
    pub fn ixp(&self) -> IxpId {
        self.config.ixp
    }

    /// Register a member session (idempotent; families are OR-ed in).
    pub fn add_member(&mut self, asn: Asn, ipv4: bool, ipv6: bool) {
        let m = self.members.entry(asn).or_insert(Member {
            asn,
            ipv4: false,
            ipv6: false,
        });
        m.ipv4 |= ipv4;
        m.ipv6 |= ipv6;
        let (v4, v6) = (m.ipv4, m.ipv6);
        self.rib.ensure_peer(asn);
        self.metrics.members.set(self.members.len() as i64);
        self.emit(|| RibEvent::PeerUp {
            peer: asn,
            ipv4: v4,
            ipv6: v6,
        });
    }

    /// Remove a member and all its routes (session down).
    pub fn remove_member(&mut self, asn: Asn) {
        let existed = self.members.remove(&asn).is_some();
        self.rib.remove_peer(asn);
        self.policies.retain(|(peer, _), _| *peer != asn);
        self.filtered.retain(|f| f.peer != asn);
        self.metrics.members.set(self.members.len() as i64);
        if existed {
            self.emit(|| RibEvent::PeerDown { peer: asn });
        }
    }

    /// Member table.
    pub fn members(&self) -> impl Iterator<Item = &Member> {
        self.members.values()
    }

    /// Members with a session for one family (Table 1's "members at RS").
    pub fn members_for(&self, afi: Afi) -> impl Iterator<Item = &Member> {
        self.members.values().filter(move |m| m.has_session(afi))
    }

    /// Is `asn` a member with any session? (The §5.5 membership test.)
    pub fn is_member(&self, asn: Asn) -> bool {
        self.members.contains_key(&asn)
    }

    /// Ingest a parsed BGP UPDATE from a member.
    pub fn ingest_update(
        &mut self,
        peer: Asn,
        update: &UpdateMessage,
    ) -> Result<Vec<IngestOutcome>, WireError> {
        let _timer = self.metrics.ingest_ns.start();
        self.stats.updates_processed += 1;
        self.metrics.updates_processed.inc();
        let content = convert::update_to_routes(update)?;
        for prefix in &content.withdrawn {
            if self.rib.withdraw(peer, prefix).is_some() {
                self.stats.routes_withdrawn += 1;
                self.metrics.routes_withdrawn.inc();
                self.policies.remove(&(peer, *prefix));
                let prefix = *prefix;
                self.emit(|| RibEvent::Withdraw { peer, prefix });
            }
        }
        Ok(content
            .announced
            .into_iter()
            .map(|r| self.announce(peer, r))
            .collect())
    }

    /// Ingest one model-level route announcement from a member.
    ///
    /// An announcement replaces the member's previous route for the prefix
    /// (RFC 4271 §3.1) whether or not it is accepted itself: one that the
    /// import filters or a `Reject` rule turn down withdraws that route.
    pub fn announce(&mut self, peer: Asn, mut route: Route) -> IngestOutcome {
        let Some(member) = self.members.get(&peer) else {
            return IngestOutcome::NoSession;
        };
        if !member.has_session(route.afi()) {
            return IngestOutcome::NoSession;
        }
        // per-peer prefix limit (counted per family, replacements exempt)
        if let Some(limit) = self.config.max_prefixes_per_peer {
            let held = self
                .rib
                .peer(peer)
                .map(|t| t.iter_afi(route.afi()).count())
                .unwrap_or(0);
            let replacing = self
                .rib
                .peer(peer)
                .and_then(|t| t.get(&route.prefix))
                .is_some();
            if held >= limit && !replacing {
                let reason = FilterReason::PrefixLimitExceeded;
                self.stats.record_filtered(reason);
                self.metrics.record_filtered(reason);
                self.filtered.push(FilteredRoute {
                    peer,
                    route,
                    reason,
                });
                return IngestOutcome::Filtered(reason);
            }
        }
        if let Err(reason) = check_import(&route, &self.config) {
            // the route this one replaces does not stay behind
            self.withdraw(peer, &route.prefix);
            self.stats.record_filtered(reason);
            self.metrics.record_filtered(reason);
            self.filtered.push(FilteredRoute {
                peer,
                route,
                reason,
            });
            return IngestOutcome::Filtered(reason);
        }

        // Declarative import rules: first match decides (crate::rules).
        // Accept proceeds unchanged; Apply injects an extra action into the
        // route's digested policy below.
        let mut injected_action = None;
        match crate::rules::evaluate(&self.config.import_rules, peer, &route).map(|r| r.action) {
            Some(crate::rules::RuleAction::Reject) => {
                let reason = FilterReason::PolicyRule;
                self.withdraw(peer, &route.prefix);
                self.stats.record_filtered(reason);
                self.metrics.record_filtered(reason);
                self.filtered.push(FilteredRoute {
                    peer,
                    route,
                    reason,
                });
                return IngestOutcome::Filtered(reason);
            }
            Some(crate::rules::RuleAction::Apply(action)) => injected_action = Some(action),
            Some(crate::rules::RuleAction::Accept) | None => {}
        }

        // Blackhole execution: rewrite the next hop to the discard address.
        if self.config.blackhole_enabled && is_blackhole_request(&route) {
            route.next_hop = match route.afi() {
                Afi::Ipv4 => self.config.blackhole_next_hop_v4,
                Afi::Ipv6 => self.config.blackhole_next_hop_v6,
            };
        }

        // Informational tagging: the RS adds its location/origin tags to
        // every accepted route (§5.1: "informational ones being added by
        // the IXP typically to every route").
        let slots = schemes::info_slots(self.ixp());
        for k in 0..self.config.info_tags {
            let slot = ((peer.value() as u16).wrapping_mul(7).wrapping_add(k as u16)) % slots;
            let c = schemes::info_community(self.ixp(), slot);
            if !route.standard_communities.contains(&c) {
                route.standard_communities.push(c);
            }
        }

        // Digest the action communities once, at ingestion.
        let mut policy = RoutePolicy::digest(&self.dict, &route);
        if let Some(action) = injected_action {
            // Config-injected actions count as action instances so the
            // effectiveness accounting below covers them too.
            policy.action_instances += 1;
            policy.apply_action(action);
        }
        self.stats.action_instances += policy.action_instances as u64;
        self.metrics
            .action_instances
            .add(policy.action_instances as u64);
        for target in policy.peer_targets() {
            if Target::Peer(target).is_ineffective(|asn| self.members.contains_key(&asn)) {
                self.stats.ineffective_action_instances += 1;
                self.metrics.ineffective_action_instances.inc();
            } else {
                self.stats.effective_action_instances += 1;
                self.metrics.effective_action_instances.inc();
            }
        }

        // a fresh entry: the previous route's export form goes with it
        let digested = Digested {
            policy,
            export: ExportForm::Unknown,
        };
        self.policies.insert((peer, route.prefix), digested);
        if self.events.is_some() {
            // the event carries the route exactly as stored
            let stored = route.clone();
            self.emit(|| RibEvent::Announce {
                peer,
                route: stored,
            });
        }
        self.rib.announce(peer, route);
        self.stats.routes_accepted += 1;
        self.metrics.routes_accepted.inc();
        IngestOutcome::Accepted
    }

    /// Withdraw one prefix from a member.
    pub fn withdraw(&mut self, peer: Asn, prefix: &Prefix) -> bool {
        let had = self.rib.withdraw(peer, prefix).is_some();
        if had {
            self.stats.routes_withdrawn += 1;
            self.metrics.routes_withdrawn.inc();
            self.policies.remove(&(peer, *prefix));
            let prefix = *prefix;
            self.emit(|| RibEvent::Withdraw { peer, prefix });
        }
        had
    }

    /// The accepted routes (what the LG snapshot exposes per peer).
    pub fn accepted(&self) -> &AdjRibIn {
        &self.rib
    }

    /// The filtered routes with reasons.
    pub fn filtered(&self) -> &[FilteredRoute] {
        &self.filtered
    }

    /// The digested policy for one accepted route.
    pub fn policy(&self, peer: Asn, prefix: &Prefix) -> Option<&RoutePolicy> {
        self.policies.get(&(peer, *prefix)).map(|d| &d.policy)
    }

    /// Processing statistics.
    pub fn stats(&self) -> &RsStats {
        &self.stats
    }

    /// Compute the export RIB towards one peer: every other member's
    /// accepted routes, with action semantics applied (deny / allow /
    /// prepend), blackhole next hops preserved, and communities scrubbed.
    ///
    /// Per (route, peer) this is a policy decision plus an `Arc` bump.
    /// What scrubbing does to a route does not depend on the peer, so the
    /// first export that allows a route settles its export form — the
    /// RIB's own `Arc<Route>` when scrubbing changes nothing, else the
    /// scrubbed route, built once — and every later peer shares that
    /// allocation. Only a prepend still copies per peer (from the export
    /// form). `export_routes_copied` counts the routes a call built,
    /// `export_routes_shared` the ones it handed out without building.
    pub fn export_to(&mut self, peer: Asn) -> Vec<Arc<Route>> {
        let Some(member) = self.members.get(&peer).copied() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let (mut evaluations, mut shared, mut copied, mut scrubbed) = (0u64, 0u64, 0u64, 0u64);
        for announcer in self.rib.peers().filter(|a| *a != peer) {
            let Some(table) = self.rib.peer(announcer) else {
                continue;
            };
            for route in table.iter_shared() {
                if !member.has_session(route.afi()) {
                    continue;
                }
                evaluations += 1;
                let digested = self.policies.entry((announcer, route.prefix)).or_default();
                let crate::policy::ExportDecision::Allow { prepend } = digested.policy.decide(peer)
                else {
                    continue;
                };
                let mut built = false;
                if matches!(digested.export, ExportForm::Unknown) {
                    let blackhole = digested.policy.blackhole;
                    digested.export = match scrub(&self.config, &self.dict, route, blackhole) {
                        Some((route, removed)) => {
                            built = true;
                            ExportForm::Scrubbed(Arc::new(route), removed)
                        }
                        None => ExportForm::Unchanged,
                    };
                }
                let form = match &digested.export {
                    ExportForm::Scrubbed(form, removed) => {
                        scrubbed += u64::from(*removed);
                        form
                    }
                    _ => route,
                };
                copied += u64::from(built);
                if prepend == 0 {
                    shared += u64::from(!built);
                    out.push(Arc::clone(form));
                } else {
                    let mut exported = Route::clone(form);
                    exported.as_path = exported.as_path.prepend(announcer, prepend as usize);
                    copied += 1;
                    out.push(Arc::new(exported));
                }
            }
        }
        self.stats.export_evaluations += evaluations;
        self.metrics.export_evaluations.add(evaluations);
        self.stats.export_routes_shared += shared;
        self.metrics.export_routes_shared.add(shared);
        self.stats.export_routes_copied += copied;
        self.metrics.export_routes_copied.add(copied);
        self.stats.scrubbed_communities += scrubbed;
        self.metrics.scrubbed_communities.add(scrubbed);
        out
    }
}

/// `route` as it leaves the RS under the config's scrub policy, with the
/// number of community instances removed; `None` when scrubbing leaves it
/// as it is. The kept communities are collected, not cloned and pruned:
/// the result is held for the route's lifetime, and on a heavily tagged
/// table most of a route's communities go.
fn scrub(
    config: &RsConfig,
    dict: &Dictionary,
    route: &Route,
    is_blackhole: bool,
) -> Option<(Route, u32)> {
    let (standard, extended, large, removed) = match config.scrub {
        ScrubPolicy::None => return None,
        // Scrubbing everything is a change whenever there is anything to
        // drop; re-adding the RFC 7999 signal peers still need is also a
        // change when the route had no communities at all.
        ScrubPolicy::All if route.community_count() == 0 && !is_blackhole => return None,
        ScrubPolicy::All => {
            let signal = is_blackhole.then_some(well_known::BLACKHOLE);
            let standard = signal.into_iter().collect();
            (standard, Vec::new(), Vec::new(), route.community_count())
        }
        ScrubPolicy::ActionsOnly => {
            let ixp = config.ixp;
            let standard: Vec<_> = route
                .standard_communities
                .iter()
                .copied()
                .filter(|c| {
                    (is_blackhole && c.is_blackhole()) || dict.classify(*c).action().is_none()
                })
                .collect();
            let extended: Vec<_> = route
                .extended_communities
                .iter()
                .copied()
                .filter(|c| classify_extended(ixp, *c).action().is_none())
                .collect();
            let large: Vec<_> = route
                .large_communities
                .iter()
                .copied()
                .filter(|c| classify_large(ixp, *c).action().is_none())
                .collect();
            let removed = route.community_count() - standard.len() - extended.len() - large.len();
            if removed == 0 {
                return None;
            }
            (standard, extended, large, removed)
        }
    };
    let scrubbed = Route {
        prefix: route.prefix,
        next_hop: route.next_hop,
        as_path: route.as_path.clone(),
        origin: route.origin,
        med: route.med,
        standard_communities: standard,
        extended_communities: extended,
        large_communities: large,
    };
    // u32 keeps the export form at 16 bytes; no route holds 2^32 communities
    Some((scrubbed, u32::try_from(removed).unwrap_or(u32::MAX)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_wire::convert::routes_to_update;

    const IXP: IxpId = IxpId::DeCixFra;

    fn rs() -> RouteServer {
        let mut rs = RouteServer::for_ixp(IXP);
        rs.add_member(Asn(39120), true, true);
        rs.add_member(Asn(6939), true, true); // Hurricane Electric
        rs.add_member(Asn(15169), true, false); // Google, v4-only
        rs
    }

    fn route(pfx: &str, cs: &[bgp_model::community::StandardCommunity]) -> Route {
        Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path([39120, 4200]) // wait: 4200 fine (not bogon)
            .standards(cs.iter().copied())
            .build()
    }

    #[test]
    fn accept_tag_and_export() {
        let mut server = rs();
        let r = route("193.0.10.0/24", &[]);
        assert_eq!(server.announce(Asn(39120), r), IngestOutcome::Accepted);
        // informational tags added
        let stored = server
            .accepted()
            .peer(Asn(39120))
            .unwrap()
            .get(&"193.0.10.0/24".parse().unwrap())
            .unwrap();
        assert_eq!(
            stored.standard_communities.len(),
            server.config().info_tags as usize
        );
        // exported to the other members
        let exp = server.export_to(Asn(6939));
        assert_eq!(exp.len(), 1);
        // info tags survive ActionsOnly scrubbing
        assert_eq!(exp[0].standard_communities.len(), 2);
    }

    #[test]
    fn unmodified_export_shares_the_stored_route() {
        let mut server = rs();
        // info tags only: ActionsOnly scrubbing is a no-op, no prepend
        let r = route("193.0.10.0/24", &[]);
        assert_eq!(server.announce(Asn(39120), r), IngestOutcome::Accepted);
        let exp = server.export_to(Asn(6939));
        assert_eq!(exp.len(), 1);
        let stored = server
            .accepted()
            .peer(Asn(39120))
            .unwrap()
            .get_shared(&"193.0.10.0/24".parse().unwrap())
            .unwrap();
        // same allocation, not a deep copy
        assert!(Arc::ptr_eq(&exp[0], stored));
        assert_eq!(server.stats().export_routes_shared, 1);
        assert_eq!(server.stats().export_routes_copied, 0);
    }

    #[test]
    fn mutated_export_copies_and_leaves_rib_intact() {
        let mut server = rs();
        // carries an action community targeting another member: exporting
        // to AS6939 is allowed but ActionsOnly scrubbing removes the tag
        let avoid = schemes::avoid_community(IXP, Asn(15169));
        let r = route("193.0.10.0/24", &[avoid]);
        assert_eq!(server.announce(Asn(39120), r), IngestOutcome::Accepted);
        let exp = server.export_to(Asn(6939));
        assert_eq!(exp.len(), 1);
        let prefix = "193.0.10.0/24".parse().unwrap();
        let stored = server.accepted().peer(Asn(39120)).unwrap();
        let stored = Arc::clone(stored.get_shared(&prefix).unwrap());
        assert!(!Arc::ptr_eq(&exp[0], &stored));
        // the scrub built a new route, it never touched the stored one
        assert!(exp[0].standard_communities.len() < stored.standard_communities.len());
        assert!(stored.has_standard(avoid));
        assert_eq!(server.stats().export_routes_copied, 1);
        assert_eq!(server.stats().scrubbed_communities, 1);
        // a second export hands out the kept form: nothing is built, and
        // the removed communities still count per (route, peer)
        let again = server.export_to(Asn(6939));
        assert!(Arc::ptr_eq(&again[0], &exp[0]));
        assert_eq!(server.stats().export_routes_copied, 1);
        assert_eq!(server.stats().export_routes_shared, 1);
        assert_eq!(server.stats().scrubbed_communities, 2);
    }

    #[test]
    fn scrubbed_form_is_one_allocation_for_every_peer() {
        let mut server = rs();
        server.add_member(Asn(13335), true, false);
        let avoid = schemes::avoid_community(IXP, Asn(15169));
        server.announce(Asn(39120), route("193.0.10.0/24", &[avoid]));
        let to_he = server.export_to(Asn(6939));
        let to_cf = server.export_to(Asn(13335));
        assert!(Arc::ptr_eq(&to_he[0], &to_cf[0]));
        assert!(!to_he[0].has_standard(avoid));
        // re-announcing replaces the route and drops the form built from it
        server.announce(Asn(39120), route("193.0.10.0/24", &[]));
        let fresh = server.export_to(Asn(6939));
        assert!(!Arc::ptr_eq(&fresh[0], &to_he[0]));
        assert_eq!(fresh[0].standard_communities.len(), 2);
    }

    #[test]
    fn second_export_builds_only_the_prepends() {
        let mut server = rs();
        let prepend = schemes::prepend_community(IXP, Asn(6939), 2).unwrap();
        let avoid = schemes::avoid_community(IXP, Asn(15169));
        server.announce(Asn(39120), route("193.0.10.0/24", &[prepend]));
        server.announce(Asn(39120), route("193.0.11.0/24", &[avoid]));
        server.announce(Asn(39120), route("193.0.12.0/24", &[]));
        let first = server.export_to(Asn(6939));
        // two scrubbed forms and one prepended copy
        assert_eq!(server.stats().export_routes_copied, 3);
        assert_eq!(server.stats().export_routes_shared, 1);
        let second = server.export_to(Asn(6939));
        assert_eq!(second, first);
        // only the prepend is built again
        assert_eq!(server.stats().export_routes_copied, 4);
        assert_eq!(server.stats().export_routes_shared, 3);
        assert_eq!(server.stats().export_evaluations, 6);
    }

    #[test]
    fn export_form_fits_its_budget() {
        // every accepted route pays this, exported or not
        assert!(std::mem::size_of::<ExportForm>() <= 16);
    }

    #[test]
    fn filtered_reannouncement_withdraws_the_old_route() {
        use crate::rules::{ImportRule, RuleAction, RuleMatch};
        let tagged = bgp_model::community::StandardCommunity::from_parts(64999, 1);
        let config = RsConfig::for_ixp(IXP).with_import_rules(vec![ImportRule {
            name: "no-64999:1".into(),
            matcher: RuleMatch {
                community: Some(community_dict::pattern::Pattern::Exact(tagged)),
                ..RuleMatch::default()
            },
            action: RuleAction::Reject,
        }]);
        let mut server = RouteServer::new(config);
        server.add_member(Asn(39120), true, true);
        server.add_member(Asn(6939), true, true);
        server.enable_events();
        let prefix: Prefix = "193.0.10.0/24".parse().unwrap();
        let long_path = Route::builder(prefix, "198.32.0.7".parse().unwrap())
            .path([39120; 40])
            .build();
        // one re-announcement per exit that rejects on the route's attributes
        let rejected = [
            (long_path, FilterReason::PathTooLong),
            (route("193.0.10.0/24", &[tagged]), FilterReason::PolicyRule),
        ];
        for (n, (bad, reason)) in rejected.into_iter().enumerate() {
            assert_eq!(
                server.announce(Asn(39120), route("193.0.10.0/24", &[])),
                IngestOutcome::Accepted
            );
            assert_eq!(server.export_to(Asn(6939)).len(), 1);
            server.take_events();
            assert_eq!(
                server.announce(Asn(39120), bad),
                IngestOutcome::Filtered(reason)
            );
            // RFC 4271 §3.1: the new announcement replaced the old route,
            // and the new one was not accepted
            assert_eq!(server.accepted().route_count(), 0, "{reason}");
            assert!(server.policy(Asn(39120), &prefix).is_none());
            assert!(server.export_to(Asn(6939)).is_empty());
            assert_eq!(server.stats().routes_withdrawn, n as u64 + 1);
            let peer = Asn(39120);
            assert_eq!(server.take_events(), [RibEvent::Withdraw { peer, prefix }]);
        }
        // a filtered announcement for a prefix the member never held is
        // no withdraw
        let bogon = route("10.0.0.0/16", &[]);
        assert!(matches!(
            server.announce(Asn(39120), bogon),
            IngestOutcome::Filtered(_)
        ));
        assert_eq!(server.stats().routes_withdrawn, 2);
        assert!(server.take_events().is_empty());
    }

    #[test]
    fn avoid_community_blocks_target_only() {
        let mut server = rs();
        let r = route("193.0.10.0/24", &[schemes::avoid_community(IXP, Asn(6939))]);
        server.announce(Asn(39120), r);
        assert!(server.export_to(Asn(6939)).is_empty());
        let to_google = server.export_to(Asn(15169));
        assert_eq!(to_google.len(), 1);
        // the action community was scrubbed on export
        assert!(to_google[0].standard_communities.iter().all(|c| server
            .dictionary()
            .classify(*c)
            .action()
            .is_none()));
    }

    #[test]
    fn effectiveness_accounting() {
        let mut server = rs();
        let r = route(
            "193.0.10.0/24",
            &[
                schemes::avoid_community(IXP, Asn(6939)), // member → effective
                schemes::avoid_community(IXP, Asn(16276)), // OVH not member → ineffective
            ],
        );
        server.announce(Asn(39120), r);
        assert_eq!(server.stats().effective_action_instances, 1);
        assert_eq!(server.stats().ineffective_action_instances, 1);
        assert_eq!(server.stats().action_instances, 2);
        assert!((server.stats().ineffective_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn filtered_routes_kept_with_reason() {
        let mut server = rs();
        let r = route("10.0.0.0/16", &[]);
        assert_eq!(
            server.announce(Asn(39120), r),
            IngestOutcome::Filtered(FilterReason::BogonPrefix)
        );
        assert_eq!(server.filtered().len(), 1);
        assert_eq!(server.stats().routes_accepted, 0);
        assert!(server.export_to(Asn(6939)).is_empty());
    }

    #[test]
    fn no_session_rejected() {
        let mut server = rs();
        // Google has no v6 session
        let r = Route::builder(
            "2a00:1450::/32".parse().unwrap(),
            "2001:7f8::1".parse().unwrap(),
        )
        .path([15169])
        .build();
        assert_eq!(server.announce(Asn(15169), r), IngestOutcome::NoSession);
        // unknown AS entirely
        let r = route("193.0.10.0/24", &[]);
        assert_eq!(server.announce(Asn(999), r), IngestOutcome::NoSession);
    }

    #[test]
    fn v6_routes_only_exported_to_v6_members() {
        let mut server = rs();
        let r = Route::builder(
            "2a00:1450::/32".parse().unwrap(),
            "2001:7f8::1".parse().unwrap(),
        )
        .path([39120])
        .build();
        assert_eq!(server.announce(Asn(39120), r), IngestOutcome::Accepted);
        assert_eq!(server.export_to(Asn(6939)).len(), 1);
        assert!(server.export_to(Asn(15169)).is_empty()); // v4-only member
    }

    #[test]
    fn prepend_executed_on_export() {
        let mut server = rs();
        let c = schemes::prepend_community(IXP, Asn(6939), 3).unwrap();
        let r = route("193.0.10.0/24", &[c]);
        server.announce(Asn(39120), r);
        let exp = server.export_to(Asn(6939));
        assert_eq!(exp.len(), 1);
        // path grew by 3 (prepends of the announcer's ASN)
        assert_eq!(exp[0].as_path.path_len(), 5);
        assert_eq!(exp[0].as_path.first_asn(), Some(Asn(39120)));
        // no prepend towards others
        let exp = server.export_to(Asn(15169));
        assert_eq!(exp[0].as_path.path_len(), 2);
    }

    #[test]
    fn blackhole_rewrites_next_hop_and_keeps_signal() {
        let mut server = rs();
        let r = route("193.0.10.66/32", &[well_known::BLACKHOLE]);
        assert_eq!(server.announce(Asn(39120), r), IngestOutcome::Accepted);
        let exp = server.export_to(Asn(6939));
        assert_eq!(exp.len(), 1);
        assert_eq!(exp[0].next_hop, server.config().blackhole_next_hop_v4);
        assert!(exp[0].has_standard(well_known::BLACKHOLE));
    }

    #[test]
    fn wire_updates_ingest() {
        let mut server = rs();
        let r = route("193.0.10.0/24", &[schemes::avoid_community(IXP, Asn(6939))]);
        let update = routes_to_update(std::slice::from_ref(&r));
        let outcomes = server.ingest_update(Asn(39120), &update).unwrap();
        assert_eq!(outcomes, vec![IngestOutcome::Accepted]);
        assert_eq!(server.stats().updates_processed, 1);
        // withdraw via wire
        let wd = UpdateMessage {
            withdrawn: vec!["193.0.10.0/24".parse().unwrap()],
            ..Default::default()
        };
        server.ingest_update(Asn(39120), &wd).unwrap();
        assert_eq!(server.stats().routes_withdrawn, 1);
        assert_eq!(server.accepted().route_count(), 0);
    }

    #[test]
    fn remove_member_cleans_up() {
        let mut server = rs();
        server.announce(Asn(39120), route("193.0.10.0/24", &[]));
        server.remove_member(Asn(39120));
        assert!(!server.is_member(Asn(39120)));
        assert_eq!(server.accepted().route_count(), 0);
        assert!(server.export_to(Asn(6939)).is_empty());
    }

    #[test]
    fn prefix_limit_drops_excess() {
        let mut server = RouteServer::new(RsConfig {
            max_prefixes_per_peer: Some(3),
            ..RsConfig::for_ixp(IXP)
        });
        server.add_member(Asn(39120), true, false);
        for i in 0..5u8 {
            let r = Route::builder(
                format!("193.0.{i}.0/24").parse().unwrap(),
                "198.32.0.7".parse().unwrap(),
            )
            .path([39120])
            .build();
            let outcome = server.announce(Asn(39120), r);
            if i < 3 {
                assert_eq!(outcome, IngestOutcome::Accepted, "route {i}");
            } else {
                assert_eq!(
                    outcome,
                    IngestOutcome::Filtered(FilterReason::PrefixLimitExceeded),
                    "route {i}"
                );
            }
        }
        assert_eq!(server.accepted().route_count(), 3);
        // replacing an existing prefix stays allowed at the limit
        let r = Route::builder(
            "193.0.1.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([39120, 15169])
        .build();
        assert_eq!(server.announce(Asn(39120), r), IngestOutcome::Accepted);
        assert_eq!(server.accepted().route_count(), 3);
    }

    #[test]
    fn import_rule_reject_surfaces_policy_reason() {
        use crate::rules::{ImportRule, RuleAction, RuleMatch};
        let config = RsConfig::for_ixp(IXP).with_import_rules(vec![ImportRule {
            name: "no-long-v4".into(),
            matcher: RuleMatch {
                prefix_len: Some((24, 24)),
                peer: Some(Asn(39120)),
                ..RuleMatch::default()
            },
            action: RuleAction::Reject,
        }]);
        let mut server = RouteServer::new(config);
        server.add_member(Asn(39120), true, true);
        server.add_member(Asn(6939), true, true);
        assert_eq!(
            server.announce(Asn(39120), route("193.0.10.0/24", &[])),
            IngestOutcome::Filtered(FilterReason::PolicyRule)
        );
        // other peers and other lengths pass
        let r = Route::builder(
            "193.0.0.0/20".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([39120, 4200])
        .build();
        assert_eq!(server.announce(Asn(39120), r), IngestOutcome::Accepted);
        assert_eq!(server.stats().routes_filtered[&FilterReason::PolicyRule], 1);
    }

    #[test]
    fn import_rule_apply_injects_action() {
        use crate::rules::{ImportRule, RuleAction, RuleMatch};
        use community_dict::action::Action;
        // every route from 39120 is treated as do-not-announce-to HE
        let config = RsConfig::for_ixp(IXP).with_import_rules(vec![ImportRule {
            name: "shield-he".into(),
            matcher: RuleMatch {
                peer: Some(Asn(39120)),
                ..RuleMatch::default()
            },
            action: RuleAction::Apply(Action::avoid(Asn(6939))),
        }]);
        let mut server = RouteServer::new(config);
        server.add_member(Asn(39120), true, true);
        server.add_member(Asn(6939), true, true);
        server.add_member(Asn(15169), true, false);
        assert_eq!(
            server.announce(Asn(39120), route("193.0.10.0/24", &[])),
            IngestOutcome::Accepted
        );
        assert!(server.export_to(Asn(6939)).is_empty());
        assert_eq!(server.export_to(Asn(15169)).len(), 1);
        // the injected action counts in the effectiveness books
        assert_eq!(server.stats().action_instances, 1);
        assert_eq!(server.stats().effective_action_instances, 1);
    }

    #[test]
    fn members_for_family() {
        let server = rs();
        assert_eq!(server.members_for(Afi::Ipv4).count(), 3);
        assert_eq!(server.members_for(Afi::Ipv6).count(), 2);
    }
}
