//! The action-community policy engine: given a route's IXP-defined action
//! communities, decide per target peer whether (and how) to export.
//!
//! Semantics follow the documented behaviour of the real schemes
//! (DE-CIX/BIRD-style):
//!
//! 1. an explicit `do-not-announce-to <peer>` always denies that peer;
//! 2. an explicit `announce-only-to <peer>` allows that peer, overriding
//!    a blanket `do-not-announce-to all`;
//! 3. if any announce-only communities are present, peers not named are
//!    denied (unless `announce to all` is also present);
//! 4. a blanket `do-not-announce-to all` denies everyone not re-added;
//! 5. otherwise export, applying any prepend actions for the peer.

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::route::Route;

use community_dict::action::{Action, ActionKind, Target};
use community_dict::classify::classify_route;
use community_dict::dictionary::Dictionary;

/// Export decision for one (route, peer) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExportDecision {
    /// Do not export to this peer.
    Deny,
    /// Export, prepending the announcing member's ASN `prepend` times.
    Allow {
        /// Extra prepend count requested via prepend-to communities.
        prepend: u8,
    },
}

/// The action communities of one route, digested for per-peer decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutePolicy {
    /// Peers explicitly denied.
    pub avoid_peers: Vec<Asn>,
    /// Deny everyone by default (avoid-all present).
    pub avoid_all: bool,
    /// Peers explicitly allowed (announce-only targets).
    pub only_peers: Vec<Asn>,
    /// Announce-to-all present (cancels the implicit only-deny).
    pub announce_all: bool,
    /// Per-peer prepend requests `(peer, count)`.
    pub prepend_peers: Vec<(Asn, u8)>,
    /// Prepend-to-all count.
    pub prepend_all: u8,
    /// Blackhole requested.
    pub blackhole: bool,
    /// Total action community instances seen (policy evaluations).
    pub action_instances: usize,
}

impl RoutePolicy {
    /// Digest a route's communities against the IXP dictionary.
    pub fn digest(dict: &Dictionary, route: &Route) -> Self {
        let mut p = RoutePolicy::default();
        for (_, classification) in classify_route(dict, route) {
            let Some(action) = classification.action() else {
                continue;
            };
            p.action_instances += 1;
            p.apply_action(action);
        }
        p
    }

    /// Fold one action into the digested policy. `digest` calls this for
    /// every action community on the route; config-level
    /// [`ImportRule`](crate::rules::ImportRule)s with a
    /// [`RuleAction::Apply`](crate::rules::RuleAction::Apply) arm call it
    /// for their injected action.
    pub fn apply_action(&mut self, action: Action) {
        match (action.kind, action.target) {
            (ActionKind::DoNotAnnounceTo, Target::AllPeers) => self.avoid_all = true,
            (ActionKind::DoNotAnnounceTo, Target::Peer(asn)) => self.avoid_peers.push(asn),
            (ActionKind::AnnounceOnlyTo, Target::AllPeers) => self.announce_all = true,
            (ActionKind::AnnounceOnlyTo, Target::Peer(asn)) => self.only_peers.push(asn),
            (ActionKind::PrependTo(n), Target::AllPeers) => {
                self.prepend_all = self.prepend_all.max(n)
            }
            (ActionKind::PrependTo(n), Target::Peer(asn)) => self.prepend_peers.push((asn, n)),
            (ActionKind::Blackhole, _) => self.blackhole = true,
            // region-targeted actions are modeled as no-ops for export
            // decisions (our synthetic world has a single facility per IXP)
            (_, Target::Region(_)) | (_, Target::TaggedPrefix) => {}
        }
    }

    /// Decide export towards `peer`.
    pub fn decide(&self, peer: Asn) -> ExportDecision {
        if self.avoid_peers.contains(&peer) {
            return ExportDecision::Deny;
        }
        let explicitly_only = self.only_peers.contains(&peer);
        if !explicitly_only {
            if !self.only_peers.is_empty() && !self.announce_all {
                return ExportDecision::Deny;
            }
            if self.avoid_all && !self.announce_all {
                return ExportDecision::Deny;
            }
        }
        let prepend = self
            .prepend_peers
            .iter()
            .filter(|(p, _)| *p == peer)
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0)
            .max(self.prepend_all);
        ExportDecision::Allow { prepend }
    }

    /// All single-AS targets referenced by this route's action communities
    /// (used by the §5.5 "targets not at the RS" analysis).
    pub fn peer_targets(&self) -> impl Iterator<Item = Asn> + '_ {
        self.avoid_peers
            .iter()
            .chain(self.only_peers.iter())
            .copied()
            .chain(self.prepend_peers.iter().map(|(a, _)| *a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use community_dict::ixp::IxpId;
    use community_dict::schemes;

    fn dict() -> Dictionary {
        schemes::dictionary(IxpId::DeCixFra)
    }

    fn route_with(communities: &[bgp_model::community::StandardCommunity]) -> Route {
        Route::builder(
            "203.0.113.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([64496, 15169])
        .standards(communities.iter().copied())
        .build()
    }

    const IXP: IxpId = IxpId::DeCixFra;

    #[test]
    fn no_actions_allows_everyone() {
        let p = RoutePolicy::digest(&dict(), &route_with(&[]));
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Allow { prepend: 0 });
        assert_eq!(p.action_instances, 0);
    }

    #[test]
    fn avoid_peer_denies_that_peer_only() {
        let r = route_with(&[schemes::avoid_community(IXP, Asn(6939))]);
        let p = RoutePolicy::digest(&dict(), &r);
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Deny);
        assert_eq!(p.decide(Asn(15169)), ExportDecision::Allow { prepend: 0 });
        assert_eq!(p.action_instances, 1);
    }

    #[test]
    fn announce_only_denies_everyone_else() {
        let r = route_with(&[schemes::only_community(IXP, Asn(1916))]);
        let p = RoutePolicy::digest(&dict(), &r);
        assert_eq!(p.decide(Asn(1916)), ExportDecision::Allow { prepend: 0 });
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Deny);
    }

    #[test]
    fn avoid_all_with_readd() {
        let r = route_with(&[
            schemes::avoid_all_community(IXP),
            schemes::only_community(IXP, Asn(1916)),
        ]);
        let p = RoutePolicy::digest(&dict(), &r);
        assert!(p.avoid_all);
        assert_eq!(p.decide(Asn(1916)), ExportDecision::Allow { prepend: 0 });
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Deny);
    }

    #[test]
    fn explicit_avoid_beats_only() {
        let r = route_with(&[
            schemes::avoid_community(IXP, Asn(1916)),
            schemes::only_community(IXP, Asn(1916)),
        ]);
        let p = RoutePolicy::digest(&dict(), &r);
        assert_eq!(p.decide(Asn(1916)), ExportDecision::Deny);
    }

    #[test]
    fn announce_all_cancels_only_set_for_others() {
        let r = route_with(&[
            schemes::only_community(IXP, Asn(1916)),
            schemes::announce_all_community(IXP),
        ]);
        let p = RoutePolicy::digest(&dict(), &r);
        assert_eq!(p.decide(Asn(1916)), ExportDecision::Allow { prepend: 0 });
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Allow { prepend: 0 });
    }

    #[test]
    fn prepend_applies_on_allow() {
        let c2 = schemes::prepend_community(IXP, Asn(6939), 2).unwrap();
        let p = RoutePolicy::digest(&dict(), &route_with(&[c2]));
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Allow { prepend: 2 });
        assert_eq!(p.decide(Asn(15169)), ExportDecision::Allow { prepend: 0 });
    }

    #[test]
    fn max_prepend_wins_on_duplicates() {
        let c1 = schemes::prepend_community(IXP, Asn(6939), 1).unwrap();
        let c3 = schemes::prepend_community(IXP, Asn(6939), 3).unwrap();
        let p = RoutePolicy::digest(&dict(), &route_with(&[c1, c3]));
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Allow { prepend: 3 });
    }

    #[test]
    fn blackhole_flag_set() {
        let r = route_with(&[bgp_model::community::well_known::BLACKHOLE]);
        let p = RoutePolicy::digest(&dict(), &r);
        assert!(p.blackhole);
    }

    #[test]
    fn peer_targets_collects_all() {
        let r = route_with(&[
            schemes::avoid_community(IXP, Asn(6939)),
            schemes::only_community(IXP, Asn(1916)),
        ]);
        let p = RoutePolicy::digest(&dict(), &r);
        let mut targets: Vec<Asn> = p.peer_targets().collect();
        targets.sort();
        assert_eq!(targets, vec![Asn(1916), Asn(6939)]);
    }

    #[test]
    fn unknown_communities_do_not_count_as_actions() {
        let r = route_with(&[bgp_model::community::StandardCommunity::from_parts(
            3356, 70,
        )]);
        let p = RoutePolicy::digest(&dict(), &r);
        assert_eq!(p.action_instances, 0);
        assert_eq!(p.decide(Asn(6939)), ExportDecision::Allow { prepend: 0 });
    }
}
