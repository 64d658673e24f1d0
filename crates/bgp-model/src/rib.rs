//! Routing Information Bases.
//!
//! A route server keeps one Adj-RIB-In per member (routes the member
//! announced, post-parse, pre-policy) and computes per-member export RIBs.
//! [`PeerRib`] is the per-peer table keyed by prefix; [`AdjRibIn`] maps
//! peers to their tables.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::prefix::{Afi, Prefix};
use crate::route::Route;

/// A per-peer route table keyed by prefix. One route per prefix per peer
/// (BGP semantics: a later announcement for the same NLRI replaces the
/// earlier one; an explicit withdraw removes it).
///
/// Routes are stored behind `Arc` so the export path can share an
/// unmodified route with every eligible peer instead of deep-cloning it
/// per (route, peer) pair; the table's own API still hands out `&Route`
/// unless a caller explicitly asks for the shared handle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PeerRib {
    routes: BTreeMap<Prefix, Arc<Route>>,
}

impl PeerRib {
    /// Empty table.
    pub fn new() -> Self {
        PeerRib::default()
    }

    /// Insert or replace the route for its prefix. Returns the replaced
    /// route, if any (implicit withdraw). Accepts an owned [`Route`] or
    /// an already-shared `Arc<Route>` (re-announcing an exported route
    /// costs no copy).
    pub fn announce(&mut self, route: impl Into<Arc<Route>>) -> Option<Arc<Route>> {
        let route = route.into();
        self.routes.insert(route.prefix, route)
    }

    /// Remove the route for `prefix`. Returns it if present.
    pub fn withdraw(&mut self, prefix: &Prefix) -> Option<Arc<Route>> {
        self.routes.remove(prefix)
    }

    /// Route for an exact prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&Route> {
        self.routes.get(prefix).map(Arc::as_ref)
    }

    /// Shared handle to the route for an exact prefix (for callers that
    /// want to keep or re-export the route without copying it).
    pub fn get_shared(&self, prefix: &Prefix) -> Option<&Arc<Route>> {
        self.routes.get(prefix)
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no routes are held.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterate routes in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.values().map(Arc::as_ref)
    }

    /// Iterate shared route handles in prefix order.
    pub fn iter_shared(&self) -> impl Iterator<Item = &Arc<Route>> {
        self.routes.values()
    }

    /// Routes of one address family.
    pub fn iter_afi(&self, afi: Afi) -> impl Iterator<Item = &Route> + '_ {
        self.iter().filter(move |r| r.afi() == afi)
    }

    /// Longest-prefix match for a host address.
    pub fn longest_match(&self, addr: std::net::IpAddr) -> Option<&Route> {
        self.iter()
            .filter(|r| r.prefix.contains_addr(addr))
            .max_by_key(|r| r.prefix.len())
    }
}

/// All members' announced routes: peer ASN → [`PeerRib`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdjRibIn {
    tables: BTreeMap<Asn, PeerRib>,
}

impl AdjRibIn {
    /// Empty RIB.
    pub fn new() -> Self {
        AdjRibIn::default()
    }

    /// Announce a route from `peer` (inserting the peer on first use).
    /// Returns the replaced route, if any.
    pub fn announce(&mut self, peer: Asn, route: impl Into<Arc<Route>>) -> Option<Arc<Route>> {
        self.tables.entry(peer).or_default().announce(route)
    }

    /// Withdraw `prefix` from `peer`.
    pub fn withdraw(&mut self, peer: Asn, prefix: &Prefix) -> Option<Arc<Route>> {
        match self.tables.entry(peer) {
            Entry::Occupied(mut e) => e.get_mut().withdraw(prefix),
            Entry::Vacant(_) => None,
        }
    }

    /// Drop a peer entirely (session down). Returns its table.
    pub fn remove_peer(&mut self, peer: Asn) -> Option<PeerRib> {
        self.tables.remove(&peer)
    }

    /// Register a peer with an empty table (session up, no routes yet —
    /// the paper §3 captures "peers with active BGP sessions ... regardless
    /// whether the AS shares routes or not").
    pub fn ensure_peer(&mut self, peer: Asn) {
        self.tables.entry(peer).or_default();
    }

    /// The table of one peer.
    pub fn peer(&self, peer: Asn) -> Option<&PeerRib> {
        self.tables.get(&peer)
    }

    /// All peers with sessions, in ASN order.
    pub fn peers(&self) -> impl Iterator<Item = Asn> + '_ {
        self.tables.keys().copied()
    }

    /// Total route count across peers.
    pub fn route_count(&self) -> usize {
        self.tables.values().map(PeerRib::len).sum()
    }

    /// Distinct prefixes across all peers.
    pub fn distinct_prefixes(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for t in self.tables.values() {
            set.extend(t.iter().map(|r| r.prefix));
        }
        set.len()
    }

    /// Iterate `(peer, route)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, &Route)> {
        self.tables
            .iter()
            .flat_map(|(asn, t)| t.iter().map(move |r| (*asn, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Origin;

    fn route(pfx: &str, origin_as: u32) -> Route {
        Route::builder(pfx.parse().unwrap(), "198.32.0.9".parse().unwrap())
            .path([origin_as])
            .origin(Origin::Igp)
            .build()
    }

    #[test]
    fn announce_replace_withdraw() {
        let mut rib = PeerRib::new();
        assert!(rib.announce(route("203.0.113.0/24", 100)).is_none());
        assert_eq!(rib.len(), 1);
        // implicit withdraw: replacement returns old route
        let old = rib.announce(route("203.0.113.0/24", 200)).unwrap();
        assert_eq!(old.origin_asn(), Some(Asn(100)));
        assert_eq!(rib.len(), 1);
        let gone = rib.withdraw(&"203.0.113.0/24".parse().unwrap()).unwrap();
        assert_eq!(gone.origin_asn(), Some(Asn(200)));
        assert!(rib.is_empty());
        assert!(rib.withdraw(&"203.0.113.0/24".parse().unwrap()).is_none());
    }

    #[test]
    fn longest_match_prefers_more_specific() {
        let mut rib = PeerRib::new();
        rib.announce(route("203.0.0.0/16", 1));
        rib.announce(route("203.0.113.0/24", 2));
        let m = rib.longest_match("203.0.113.9".parse().unwrap()).unwrap();
        assert_eq!(m.prefix.len(), 24);
        let m = rib.longest_match("203.0.1.9".parse().unwrap()).unwrap();
        assert_eq!(m.prefix.len(), 16);
        assert!(rib.longest_match("8.8.8.8".parse().unwrap()).is_none());
    }

    #[test]
    fn afi_filter() {
        let mut rib = PeerRib::new();
        rib.announce(route("203.0.113.0/24", 1));
        rib.announce(
            Route::builder(
                "2001:db8:100::/48".parse().unwrap(),
                "2001:7f8::1".parse().unwrap(),
            )
            .path([1])
            .build(),
        );
        assert_eq!(rib.iter_afi(Afi::Ipv4).count(), 1);
        assert_eq!(rib.iter_afi(Afi::Ipv6).count(), 1);
    }

    #[test]
    fn adj_rib_in_counts() {
        let mut rib = AdjRibIn::new();
        rib.ensure_peer(Asn(300)); // session without routes
        rib.announce(Asn(100), route("203.0.113.0/24", 100));
        rib.announce(Asn(100), route("198.51.100.0/24", 100));
        rib.announce(Asn(200), route("203.0.113.0/24", 200));
        assert_eq!(rib.peers().count(), 3);
        assert_eq!(rib.route_count(), 3);
        assert_eq!(rib.distinct_prefixes(), 2);
        assert_eq!(rib.iter().count(), 3);
        assert!(rib.peer(Asn(300)).unwrap().is_empty());
    }

    #[test]
    fn remove_peer_drops_routes() {
        let mut rib = AdjRibIn::new();
        rib.announce(Asn(100), route("203.0.113.0/24", 100));
        let table = rib.remove_peer(Asn(100)).unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(rib.peers().count(), 0);
        assert!(rib
            .withdraw(Asn(100), &"203.0.113.0/24".parse().unwrap())
            .is_none());
    }
}
