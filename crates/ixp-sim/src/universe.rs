//! The global AS universe: which named networks sit at which IXP route
//! servers, and how popular each is as an avoid target (§5.4's
//! "favourite" avoided ASes differ per IXP: Hurricane Electric at
//! IX.br-SP, Google at LINX, OVHcloud at AMS-IX, Filanco for DE-CIX v6).

use bgp_model::asn::Asn;
use community_dict::ixp::IxpId;
use community_dict::known::{self, Category};

/// Well-known ASNs used throughout the simulation.
pub mod asns {
    use bgp_model::asn::Asn;
    /// Hurricane Electric.
    pub const HE: Asn = Asn(6939);
    /// Google.
    pub const GOOGLE: Asn = Asn(15169);
    /// Akamai.
    pub(crate) const AKAMAI: Asn = Asn(20940);
    /// Cloudflare.
    pub(crate) const CLOUDFLARE: Asn = Asn(13335);
    /// OVHcloud.
    pub const OVH: Asn = Asn(16276);
    /// Netflix.
    pub(crate) const NETFLIX: Asn = Asn(2906);
    /// Edgecast.
    pub(crate) const EDGECAST: Asn = Asn(15133);
    /// LeaseWeb.
    pub(crate) const LEASEWEB: Asn = Asn(60781);
    /// Filanco (the DE-CIX IPv6 top target).
    pub(crate) const FILANCO: Asn = Asn(29990);
    /// RNP (Brazilian education network).
    pub(crate) const RNP: Asn = Asn(1916);
    /// NIC-Simet.
    pub(crate) const NIC_SIMET: Asn = Asn(22548);
    /// Itau.
    pub(crate) const ITAU: Asn = Asn(28583);
    /// CDNetworks.
    pub(crate) const CDNETWORKS: Asn = Asn(36408);
}

/// Is this named network an RS member at this IXP in our world?
///
/// The table is engineered to reproduce the §5.4/§5.5 findings:
/// Hurricane Electric peers with every RS (and is the top §5.5 culprit);
/// Google left the LINX and AMS-IX route servers (making avoid-Google
/// ineffective there); OVHcloud is not at the AMS-IX or LINX RS; several
/// big CPs are PNI-only everywhere, which is exactly why members tag
/// against them.
pub(crate) fn famous_at_rs(ixp: IxpId, asn: Asn) -> bool {
    use asns::*;
    let cat = known::lookup(asn).map(|k| k.category);
    match cat {
        // large transit ISPs peer with every RS in our world
        Some(Category::LargeIsp) => true,
        Some(Category::RegionalIsp) => matches!(ixp, IxpId::IxBrSp),
        Some(Category::Educational) | Some(Category::Enterprise) => ixp == IxpId::IxBrSp,
        Some(Category::ContentProvider) => match asn {
            GOOGLE => matches!(ixp, IxpId::IxBrSp | IxpId::DeCixFra),
            AKAMAI => matches!(ixp, IxpId::IxBrSp | IxpId::DeCixFra | IxpId::AmsIx),
            CLOUDFLARE => true,
            OVH => matches!(ixp, IxpId::DeCixFra),
            NETFLIX => matches!(ixp, IxpId::IxBrSp),
            LEASEWEB => matches!(ixp, IxpId::AmsIx),
            EDGECAST | FILANCO => false,
            CDNETWORKS => matches!(ixp, IxpId::IxBrSp),
            _ => {
                // remaining CPs: at the two biggest European RSes only
                matches!(ixp, IxpId::DeCixFra | IxpId::AmsIx)
            }
        },
        None => false,
    }
}

/// Popularity weights for avoid targets at one IXP. Higher weight ⇒ more
/// members include the AS in their avoid list. Only CPs and a couple of
/// ISPs are popular targets (§5.4); everything else enters lists via the
/// defensive non-member pool.
pub(crate) fn avoid_weights(ixp: IxpId) -> Vec<(Asn, f64)> {
    use asns::*;
    let mut w: Vec<(Asn, f64)> = match ixp {
        IxpId::IxBrSp => vec![
            (HE, 34.0),
            (GOOGLE, 11.0),
            (AKAMAI, 9.0),
            (CLOUDFLARE, 7.0),
            (NETFLIX, 7.0),
            (OVH, 5.0),
            (LEASEWEB, 5.0),
            (EDGECAST, 4.0),
            (Asn(28329), 4.0), // PROLINK
            (Asn(28571), 3.5), // Syntegra
        ],
        // DE-CIX: no single AS dominates — the deny-all + re-add idiom
        // tops the chart instead (Fig. 5: `0:6695` at 2.8%)
        IxpId::DeCixFra | IxpId::DeCixMad | IxpId::DeCixNyc => vec![
            (FILANCO, 2.0),
            (GOOGLE, 1.8),
            (AKAMAI, 1.5),
            (LEASEWEB, 1.8),
            (OVH, 1.5),
            (HE, 1.2),
            (CLOUDFLARE, 1.2),
            (NETFLIX, 1.8),
            (EDGECAST, 1.5),
        ],
        IxpId::Linx => vec![
            (GOOGLE, 60.0),
            (OVH, 9.0),
            (AKAMAI, 8.0),
            (NETFLIX, 6.0),
            (LEASEWEB, 5.0),
            (EDGECAST, 5.0),
            (CLOUDFLARE, 2.0),
        ],
        IxpId::AmsIx => vec![
            (OVH, 35.0),
            (GOOGLE, 9.0),
            (LEASEWEB, 8.0),
            (AKAMAI, 7.0),
            (HE, 6.0),
            (NETFLIX, 5.0),
            (CLOUDFLARE, 5.0),
            (EDGECAST, 4.0),
        ],
        IxpId::Bcix | IxpId::Netnod => vec![
            (GOOGLE, 8.0),
            (AKAMAI, 7.0),
            (HE, 6.0),
            (OVH, 6.0),
            (CLOUDFLARE, 5.0),
            (LEASEWEB, 4.0),
        ],
    };
    // the long tail: every other known CP with a small weight
    let tail = if ixp.is_decix() { 1.0 } else { 1.5 };
    for k in known::of_category(Category::ContentProvider) {
        if !w.iter().any(|(a, _)| *a == k.asn) {
            w.push((k.asn, tail));
        }
    }
    w
}

/// The announce-only target pool at one IXP (IX.br's educational /
/// enterprise re-add targets, §5.4; elsewhere generic members are used).
pub(crate) fn only_targets(ixp: IxpId) -> Vec<Asn> {
    use asns::*;
    match ixp {
        IxpId::IxBrSp => vec![NIC_SIMET, RNP, ITAU, CDNETWORKS, HE, GOOGLE],
        _ => vec![HE, GOOGLE, AKAMAI, CLOUDFLARE],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asns::*;

    #[test]
    fn he_is_everywhere() {
        for ixp in IxpId::ALL {
            assert!(famous_at_rs(ixp, HE), "{ixp}");
        }
    }

    #[test]
    fn top_targets_are_non_members_where_paper_says() {
        // Google left the LINX/AMS-IX route servers
        assert!(!famous_at_rs(IxpId::Linx, GOOGLE));
        assert!(!famous_at_rs(IxpId::AmsIx, GOOGLE));
        assert!(famous_at_rs(IxpId::IxBrSp, GOOGLE));
        // OVH is not at the AMS-IX RS (top avoided there, §5.4)
        assert!(!famous_at_rs(IxpId::AmsIx, OVH));
        // Edgecast and Filanco are PNI-only everywhere
        for ixp in IxpId::ALL {
            assert!(!famous_at_rs(ixp, EDGECAST));
            assert!(!famous_at_rs(ixp, FILANCO));
        }
    }

    #[test]
    fn weights_lead_with_paper_targets() {
        let top = |ixp: IxpId| avoid_weights(ixp)[0].0;
        assert_eq!(top(IxpId::IxBrSp), HE);
        assert_eq!(top(IxpId::Linx), GOOGLE);
        assert_eq!(top(IxpId::AmsIx), OVH);
        assert_eq!(top(IxpId::DeCixFra), FILANCO);
    }

    #[test]
    fn weights_cover_all_cps() {
        let w = avoid_weights(IxpId::Linx);
        let n_cps = known::of_category(Category::ContentProvider).count();
        assert!(w.len() >= n_cps);
        assert!(w.iter().all(|(_, wt)| *wt > 0.0));
    }

    #[test]
    fn ixbr_only_targets_include_educational() {
        let t = only_targets(IxpId::IxBrSp);
        assert!(t.contains(&RNP));
        assert!(t.contains(&NIC_SIMET));
        assert!(t.contains(&ITAU));
    }
}
