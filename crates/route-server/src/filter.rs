//! Import filtering (paper §3).
//!
//! "Filtered routes are rejected according to rules specified in the route
//! server configuration file. Reasons include bogon prefixes or ASNs, AS
//! paths too long, and prefixes too specific (>/24) or too broad (</8)."
//! Filtered routes are kept (the LG exposes both sets) but never exported.

use std::fmt;

use serde::{Deserialize, Serialize};

use bgp_model::community::well_known;
use bgp_model::route::Route;

use crate::config::RsConfig;

/// Why a route was filtered on import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FilterReason {
    /// Prefix is in the bogon space (RFC 1918 etc.).
    BogonPrefix,
    /// A bogon ASN appears in the AS path.
    BogonAsn,
    /// AS path longer than the configured maximum.
    PathTooLong,
    /// Prefix more specific than /24 (v4) or /48 (v6).
    TooSpecific,
    /// Prefix broader than /8 (v4) or /16 (v6), or a default route.
    TooBroad,
    /// The RS's own ASN appears in the path (loop).
    RsAsnInPath,
    /// Empty AS path (not valid over EBGP).
    EmptyPath,
    /// More communities than the configured maximum (the DE-CIX
    /// "too many communities" filter, §5.6).
    TooManyCommunities,
    /// Blackhole request at an IXP without blackhole support.
    BlackholeUnsupported,
    /// The member exceeded its per-peer prefix limit (RFC 7947 §4
    /// operational practice; modeled as drop-excess rather than session
    /// teardown).
    PrefixLimitExceeded,
    /// Rejected by a declarative [`ImportRule`](crate::rules::ImportRule)
    /// in the RS configuration.
    PolicyRule,
}

impl fmt::Display for FilterReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FilterReason::BogonPrefix => "bogon prefix",
            FilterReason::BogonAsn => "bogon ASN in path",
            FilterReason::PathTooLong => "AS path too long",
            FilterReason::TooSpecific => "prefix too specific",
            FilterReason::TooBroad => "prefix too broad",
            FilterReason::RsAsnInPath => "RS ASN in path",
            FilterReason::EmptyPath => "empty AS path",
            FilterReason::TooManyCommunities => "too many communities",
            FilterReason::BlackholeUnsupported => "blackhole not supported",
            FilterReason::PrefixLimitExceeded => "prefix limit exceeded",
            FilterReason::PolicyRule => "rejected by policy rule",
        };
        f.write_str(s)
    }
}

/// True if the route is a blackhole request (carries the RFC 7999
/// community).
pub(crate) fn is_blackhole_request(route: &Route) -> bool {
    route.has_standard(well_known::BLACKHOLE)
}

/// Apply the import filters. `Ok(())` means accepted.
pub(crate) fn check_import(route: &Route, config: &RsConfig) -> Result<(), FilterReason> {
    let blackhole = is_blackhole_request(route);
    if blackhole && !config.blackhole_enabled {
        return Err(FilterReason::BlackholeUnsupported);
    }
    if route.prefix.is_bogon() {
        return Err(FilterReason::BogonPrefix);
    }
    // Blackhole requests are exempt from the too-specific bound: they are
    // host routes by design (RFC 7999 §3.3).
    if !blackhole && route.prefix.is_too_specific() {
        return Err(FilterReason::TooSpecific);
    }
    if route.prefix.is_too_broad() || route.prefix.is_default_route() {
        return Err(FilterReason::TooBroad);
    }
    if route.as_path.is_empty() {
        return Err(FilterReason::EmptyPath);
    }
    if route.as_path.path_len() > config.max_path_len {
        return Err(FilterReason::PathTooLong);
    }
    if route.as_path.iter_asns().any(|a| a.is_bogon()) {
        return Err(FilterReason::BogonAsn);
    }
    if route.as_path.contains(config.ixp.rs_asn()) {
        return Err(FilterReason::RsAsnInPath);
    }
    if let Some(max) = config.max_communities {
        if route.community_count() > max {
            return Err(FilterReason::TooManyCommunities);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::community::StandardCommunity;
    use community_dict::ixp::IxpId;

    fn config() -> RsConfig {
        RsConfig::for_ixp(IxpId::DeCixFra)
    }

    fn route(pfx: &str, path: &[u32]) -> Route {
        Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path(path.iter().copied())
            .build()
    }

    #[test]
    fn accepts_normal_route() {
        assert_eq!(
            check_import(&route("193.0.10.0/24", &[39120, 15169]), &config()),
            Ok(())
        );
        assert_eq!(
            check_import(&route("2001:db8:40::/44", &[39120]), &config()),
            // 2001:db8::/32 is a documentation bogon, so pick another block
            Err(FilterReason::BogonPrefix)
        );
        assert_eq!(
            check_import(&route("2a00:1450::/32", &[39120]), &config()),
            Ok(())
        );
    }

    #[test]
    fn rejects_bogon_prefix() {
        assert_eq!(
            check_import(&route("10.1.0.0/16", &[39120]), &config()),
            Err(FilterReason::BogonPrefix)
        );
    }

    #[test]
    fn rejects_specificity_violations() {
        assert_eq!(
            check_import(&route("8.8.8.0/25", &[39120]), &config()),
            Err(FilterReason::TooSpecific)
        );
        assert_eq!(
            check_import(&route("8.0.0.0/7", &[39120]), &config()),
            Err(FilterReason::TooBroad)
        );
        assert_eq!(
            check_import(&route("0.0.0.0/0", &[39120]), &config()),
            Err(FilterReason::TooBroad)
        );
    }

    #[test]
    fn rejects_path_problems() {
        assert_eq!(
            check_import(&route("8.8.8.0/24", &[]), &config()),
            Err(FilterReason::EmptyPath)
        );
        let long: Vec<u32> = (1..=40).collect();
        assert_eq!(
            check_import(&route("8.8.8.0/24", &long), &config()),
            Err(FilterReason::PathTooLong)
        );
        assert_eq!(
            check_import(&route("8.8.8.0/24", &[39120, 0]), &config()),
            Err(FilterReason::BogonAsn)
        );
        assert_eq!(
            check_import(&route("8.8.8.0/24", &[39120, 6695, 15169]), &config()),
            Err(FilterReason::RsAsnInPath)
        );
    }

    #[test]
    fn max_communities_filter() {
        let mut r = route("8.8.8.0/24", &[39120]);
        for i in 0..151u16 {
            r.standard_communities
                .push(StandardCommunity::from_parts(39120, i));
        }
        assert_eq!(
            check_import(&r, &config()),
            Err(FilterReason::TooManyCommunities)
        );
        // LINX has no such filter
        assert_eq!(check_import(&r, &RsConfig::for_ixp(IxpId::Linx)), Ok(()));
    }

    #[test]
    fn blackhole_host_route_exemption() {
        let mut r = route("193.0.10.66/32", &[39120]);
        r.standard_communities.push(well_known::BLACKHOLE);
        // DE-CIX: accepted despite /32
        assert_eq!(check_import(&r, &config()), Ok(()));
        // IX.br: blackhole unsupported during the window
        assert_eq!(
            check_import(&r, &RsConfig::for_ixp(IxpId::IxBrSp)),
            Err(FilterReason::BlackholeUnsupported)
        );
        // without the community the /32 is just too specific
        r.standard_communities.clear();
        assert_eq!(check_import(&r, &config()), Err(FilterReason::TooSpecific));
    }
}
