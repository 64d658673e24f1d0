//! Route records.
//!
//! A [`Route`] is what the paper's snapshots contain per entry: prefix,
//! next hop, AS path, origin attribute and the three community lists
//! ("The information, captured for every route, includes prefix, next-hop
//! address, AS-Path, and lists of BGP standard, extended, and large
//! communities", §3).

use std::fmt;
use std::net::IpAddr;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::aspath::AsPath;
use crate::community::{Community, ExtendedCommunity, LargeCommunity, StandardCommunity};
use crate::prefix::{Afi, Prefix};

/// BGP ORIGIN attribute (RFC 4271 §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// Learned from an IGP (0).
    Igp,
    /// Learned via EGP (1).
    Egp,
    /// Unknown provenance (2).
    Incomplete,
}

impl Origin {
    /// Wire code.
    pub const fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// From wire code.
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Igp => write!(f, "IGP"),
            Origin::Egp => write!(f, "EGP"),
            Origin::Incomplete => write!(f, "incomplete"),
        }
    }
}

/// A route as announced to / exported by a route server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Destination prefix (the NLRI).
    pub prefix: Prefix,
    /// Next hop address. At an IXP this is the announcing member's address
    /// on the peering LAN (the RS does not rewrite it, RFC 7947 §2.2.1).
    pub next_hop: IpAddr,
    /// AS path.
    pub as_path: AsPath,
    /// Origin attribute.
    pub origin: Origin,
    /// Multi-exit discriminator, if present.
    pub med: Option<u32>,
    /// RFC 1997 standard communities.
    pub standard_communities: Vec<StandardCommunity>,
    /// RFC 4360 extended communities.
    pub extended_communities: Vec<ExtendedCommunity>,
    /// RFC 8092 large communities.
    pub large_communities: Vec<LargeCommunity>,
}

impl Route {
    /// Start building a route.
    pub fn builder(prefix: Prefix, next_hop: IpAddr) -> RouteBuilder {
        RouteBuilder::new(prefix, next_hop)
    }

    /// Address family of the route (from its prefix).
    pub fn afi(&self) -> Afi {
        self.prefix.afi()
    }

    /// Origin AS, if determinable.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.as_path.origin_asn()
    }

    /// Total community instances of all three types — the paper's unit of
    /// counting ("over 4 billion community instances").
    pub fn community_count(&self) -> usize {
        self.standard_communities.len()
            + self.extended_communities.len()
            + self.large_communities.len()
    }

    /// Iterate all communities as the unified enum.
    pub fn communities(&self) -> impl Iterator<Item = Community> + '_ {
        self.standard_communities
            .iter()
            .copied()
            .map(Community::Standard)
            .chain(
                self.extended_communities
                    .iter()
                    .copied()
                    .map(Community::Extended),
            )
            .chain(self.large_communities.iter().copied().map(Community::Large))
    }

    /// True if the route carries the given standard community.
    pub fn has_standard(&self, c: StandardCommunity) -> bool {
        self.standard_communities.contains(&c)
    }

    /// Remove all communities (what the RS does before propagating a route
    /// whose action communities it has executed — "scrubbing").
    pub fn scrub_communities(&mut self) {
        self.standard_communities.clear();
        self.extended_communities.clear();
        self.large_communities.clear();
    }
}

/// Builder for [`Route`].
#[derive(Debug, Clone)]
pub struct RouteBuilder {
    prefix: Prefix,
    next_hop: IpAddr,
    as_path: AsPath,
    origin: Origin,
    standard: Vec<StandardCommunity>,
}

impl RouteBuilder {
    /// New builder with mandatory fields.
    pub(crate) fn new(prefix: Prefix, next_hop: IpAddr) -> Self {
        RouteBuilder {
            prefix,
            next_hop,
            as_path: AsPath::empty(),
            origin: Origin::Igp,
            standard: Vec::new(),
        }
    }

    /// Set the AS path.
    pub fn as_path(mut self, path: AsPath) -> Self {
        self.as_path = path;
        self
    }

    /// Set the AS path from an ordered ASN list.
    pub fn path<I: IntoIterator<Item = u32>>(mut self, asns: I) -> Self {
        self.as_path = AsPath::from_sequence(asns.into_iter().map(Asn));
        self
    }

    /// Set the origin attribute.
    pub fn origin(mut self, origin: Origin) -> Self {
        self.origin = origin;
        self
    }

    /// Add one standard community.
    pub fn standard(mut self, c: StandardCommunity) -> Self {
        self.standard.push(c);
        self
    }

    /// Add several standard communities.
    pub fn standards<I: IntoIterator<Item = StandardCommunity>>(mut self, cs: I) -> Self {
        self.standard.extend(cs);
        self
    }

    /// Finish.
    pub fn build(self) -> Route {
        Route {
            prefix: self.prefix,
            next_hop: self.next_hop,
            as_path: self.as_path,
            origin: self.origin,
            med: None,
            standard_communities: self.standard,
            extended_communities: Vec::new(),
            large_communities: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::well_known;

    fn sample() -> Route {
        let mut r = Route::builder(
            "203.0.113.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([64496, 15169])
        .origin(Origin::Igp)
        .standard(StandardCommunity::from_parts(0, 6939))
        .standard(well_known::NO_EXPORT)
        .build();
        r.large_communities
            .push(LargeCommunity::new(26162, 0, 6939));
        r
    }

    #[test]
    fn builder_sets_fields() {
        let r = sample();
        assert_eq!(r.prefix.to_string(), "203.0.113.0/24");
        assert_eq!(r.origin_asn(), Some(Asn(15169)));
        assert_eq!(r.afi(), Afi::Ipv4);
        assert_eq!(r.community_count(), 3);
        assert!(r.has_standard(well_known::NO_EXPORT));
        assert!(r.med.is_none());
    }

    #[test]
    fn communities_iterator_covers_all_types() {
        let r = sample();
        let mut std_n = 0;
        let mut lg_n = 0;
        for c in r.communities() {
            match c {
                Community::Standard(_) => std_n += 1,
                Community::Large(_) => lg_n += 1,
                Community::Extended(_) => {}
            }
        }
        assert_eq!((std_n, lg_n), (2, 1));
    }

    #[test]
    fn scrub_clears_everything() {
        let mut r = sample();
        r.scrub_communities();
        assert_eq!(r.community_count(), 0);
    }

    #[test]
    fn origin_codes_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(7), None);
    }

    #[test]
    fn serde_roundtrip() {
        let r = sample();
        let js = serde_json::to_string(&r).unwrap();
        let back: Route = serde_json::from_str(&js).unwrap();
        assert_eq!(back, r);
    }
}
