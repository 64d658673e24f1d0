//! Route-server configuration.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use serde::{Deserialize, Serialize};

use community_dict::ixp::IxpId;

use crate::rules::ImportRule;

/// What the RS scrubs from a route before exporting it to peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScrubPolicy {
    /// Remove IXP-defined action communities (they have been executed);
    /// keep informational and unknown ones. The typical behaviour the
    /// paper describes ("the RS scrubs the unnecessary BGP communities
    /// before propagating", §5.6).
    ActionsOnly,
    /// Remove every community.
    All,
    /// Keep everything (RFC 7947 permits transparency).
    None,
}

/// Configuration of one route server instance (one per IXP per our model;
/// real IXPs run redundant pairs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RsConfig {
    /// Which IXP this RS serves (fixes the community scheme and RS ASN).
    pub ixp: IxpId,
    /// Import filter: maximum AS-path length (hops, prepends included).
    pub max_path_len: usize,
    /// Import filter: maximum communities per route, if enabled
    /// (the DE-CIX "too many communities" filter of §5.6).
    pub max_communities: Option<usize>,
    /// Number of informational communities the RS tags onto every
    /// accepted route (location + origin class + optional notes).
    pub info_tags: u8,
    /// Scrub behaviour on export.
    pub scrub: ScrubPolicy,
    /// Whether blackholed routes are accepted at all (per the §5.3
    /// collection-window support matrix).
    pub blackhole_enabled: bool,
    /// Next hop installed on blackholed routes (the IXP discard address).
    pub blackhole_next_hop_v4: IpAddr,
    /// IPv6 discard next hop.
    pub blackhole_next_hop_v6: IpAddr,
    /// Per-peer prefix limit per family, if enforced (real route servers
    /// derive per-member limits from PeeringDB; we model one global cap).
    pub max_prefixes_per_peer: Option<usize>,
    /// Ordered declarative import rules, evaluated first-match-wins after
    /// the built-in filters (see [`crate::rules`]). Empty by default.
    #[serde(default)]
    pub import_rules: Vec<ImportRule>,
}

impl RsConfig {
    /// The standard configuration for one of the eight IXPs, with the
    /// paper's collection-window blackhole support.
    pub fn for_ixp(ixp: IxpId) -> Self {
        RsConfig {
            ixp,
            max_path_len: 32,
            // only DE-CIX runs the max-communities filter (§5.6); the
            // threshold sits above the defensive lists large ISPs tag
            max_communities: if ixp.is_decix() { Some(150) } else { None },
            info_tags: 2,
            scrub: ScrubPolicy::ActionsOnly,
            blackhole_enabled: community_dict::schemes::supports_blackhole(ixp),
            blackhole_next_hop_v4: IpAddr::V4(Ipv4Addr::new(198, 18, 255, 1)),
            blackhole_next_hop_v6: IpAddr::V6(Ipv6Addr::new(
                0x2001, 0xdb8, 0xffff, 0, 0, 0, 0, 0x666,
            )),
            max_prefixes_per_peer: None,
            import_rules: Vec::new(),
        }
    }

    /// Builder-style override of the informational tag count.
    pub fn with_info_tags(mut self, n: u8) -> Self {
        self.info_tags = n;
        self
    }

    /// Builder-style override of scrub policy.
    pub fn with_scrub(mut self, scrub: ScrubPolicy) -> Self {
        self.scrub = scrub;
        self
    }

    /// Builder-style override of the declarative import rules.
    pub fn with_import_rules(mut self, rules: Vec<ImportRule>) -> Self {
        self.import_rules = rules;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decix_has_max_communities_filter() {
        assert!(RsConfig::for_ixp(IxpId::DeCixFra).max_communities.is_some());
        assert!(RsConfig::for_ixp(IxpId::DeCixMad).max_communities.is_some());
        assert!(RsConfig::for_ixp(IxpId::Linx).max_communities.is_none());
        assert!(RsConfig::for_ixp(IxpId::IxBrSp).max_communities.is_none());
    }

    #[test]
    fn blackhole_support_follows_scheme() {
        assert!(RsConfig::for_ixp(IxpId::DeCixFra).blackhole_enabled);
        assert!(RsConfig::for_ixp(IxpId::AmsIx).blackhole_enabled);
        assert!(!RsConfig::for_ixp(IxpId::IxBrSp).blackhole_enabled);
        assert!(!RsConfig::for_ixp(IxpId::Linx).blackhole_enabled);
    }

    #[test]
    fn builders() {
        let c = RsConfig::for_ixp(IxpId::Linx)
            .with_info_tags(3)
            .with_scrub(ScrubPolicy::All);
        assert_eq!(c.info_tags, 3);
        assert_eq!(c.scrub, ScrubPolicy::All);
    }
}
