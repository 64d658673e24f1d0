//! Route-level classification across all three community types.
//!
//! Standard communities classify against the per-IXP [`Dictionary`].
//! Large and extended communities classify by rule: IXPs define their
//! large/extended values under their own route-server ASN as the global
//! administrator (the IX.br large-community table and AMS-IX fine-grained
//! extended prepends are the real-world models). Anything else is unknown
//! — exactly the paper's Fig. 1 split.

use bgp_model::asn::Asn;
use bgp_model::community::{Community, ExtendedCommunity, ExtendedKind, LargeCommunity};
use bgp_model::route::Route;

use crate::action::{Action, ActionKind, Target};
use crate::dictionary::Dictionary;
use crate::ixp::IxpId;
use crate::semantics::{Classification, InfoKind, Semantics};

/// Large-community function codes under the RS ASN (`rs:fn:arg`).
pub mod large_fn {
    /// `rs:0:target` — do not announce to target (0 = all peers).
    pub const AVOID: u32 = 0;
    /// `rs:1:target` — announce only to target (0 = all peers).
    pub(crate) const ONLY: u32 = 1;
    /// `rs:2..=4:target` — prepend 1–3× to target.
    pub(crate) const PREPEND1: u32 = 2;
    /// Prepend 2×.
    pub(crate) const PREPEND2: u32 = 3;
    /// Prepend 3×.
    pub(crate) const PREPEND3: u32 = 4;
    /// `rs:10:code` — informational location tag.
    pub(crate) const INFO_LEARNED: u32 = 10;
    /// `rs:11:code` — informational origin class.
    pub const INFO_ORIGIN: u32 = 11;
}

fn large_target(arg: u32) -> Target {
    if arg == 0 {
        Target::AllPeers
    } else {
        Target::Peer(Asn(arg))
    }
}

/// Classify a large community against an IXP's rule-based large scheme.
pub fn classify_large(ixp: IxpId, c: LargeCommunity) -> Classification {
    if c.global != ixp.rs_asn().value() {
        return Classification::Unknown;
    }
    let sem = match c.data1 {
        large_fn::AVOID => Semantics::Action(Action::new(
            ActionKind::DoNotAnnounceTo,
            large_target(c.data2),
        )),
        large_fn::ONLY => Semantics::Action(Action::new(
            ActionKind::AnnounceOnlyTo,
            large_target(c.data2),
        )),
        large_fn::PREPEND1 => {
            Semantics::Action(Action::new(ActionKind::PrependTo(1), large_target(c.data2)))
        }
        large_fn::PREPEND2 => {
            Semantics::Action(Action::new(ActionKind::PrependTo(2), large_target(c.data2)))
        }
        large_fn::PREPEND3 => {
            Semantics::Action(Action::new(ActionKind::PrependTo(3), large_target(c.data2)))
        }
        large_fn::INFO_LEARNED => Semantics::Informational(InfoKind::LearnedAt(c.data2 as u16)),
        large_fn::INFO_ORIGIN => Semantics::Informational(InfoKind::OriginClass(c.data2 as u16)),
        _ => return Classification::Unknown,
    };
    Classification::IxpDefined(sem)
}

/// Extended-community subtypes under the RS ASN (two-octet-AS-specific).
pub mod ext_subtype {
    /// Do not announce to the local-administrator target AS.
    pub const AVOID: u8 = 0x41;
    /// Announce only to the target AS.
    pub(crate) const ONLY: u8 = 0x42;
    /// Prepend 1× to the target AS (AMS-IX fine-grained prepending).
    pub const PREPEND1: u8 = 0x43;
    /// Prepend 2×.
    pub(crate) const PREPEND2: u8 = 0x44;
    /// Prepend 3×.
    pub(crate) const PREPEND3: u8 = 0x45;
}

/// Classify an extended community against an IXP's rule-based scheme.
pub fn classify_extended(ixp: IxpId, c: ExtendedCommunity) -> Classification {
    let ExtendedKind::TwoOctetAsSpecific {
        subtype,
        asn,
        local,
        ..
    } = c.kind()
    else {
        return Classification::Unknown;
    };
    if asn != ixp.rs_asn() {
        return Classification::Unknown;
    }
    let target = if local == 0 {
        Target::AllPeers
    } else {
        Target::Peer(Asn(local))
    };
    let kind = match subtype {
        ext_subtype::AVOID => ActionKind::DoNotAnnounceTo,
        ext_subtype::ONLY => ActionKind::AnnounceOnlyTo,
        ext_subtype::PREPEND1 => ActionKind::PrependTo(1),
        ext_subtype::PREPEND2 => ActionKind::PrependTo(2),
        ext_subtype::PREPEND3 => ActionKind::PrependTo(3),
        _ => return Classification::Unknown,
    };
    Classification::IxpDefined(Semantics::Action(Action::new(kind, target)))
}

/// Classify any community for the dictionary's IXP.
pub(crate) fn classify_community(dict: &Dictionary, c: &Community) -> Classification {
    match c {
        Community::Standard(sc) => dict.classify(*sc),
        Community::Large(lc) => classify_large(dict.ixp(), *lc),
        Community::Extended(ec) => classify_extended(dict.ixp(), *ec),
    }
}

/// Classify every community instance on a route.
pub fn classify_route<'a>(
    dict: &'a Dictionary,
    route: &'a Route,
) -> impl Iterator<Item = (Community, Classification)> + 'a {
    route
        .communities()
        .map(move |c| (c, classify_community(dict, &c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes;
    use bgp_model::community::StandardCommunity;

    #[test]
    fn large_scheme_classification() {
        let ixp = IxpId::IxBrSp;
        let rs = ixp.rs_asn().value();
        assert_eq!(
            classify_large(ixp, LargeCommunity::new(rs, large_fn::AVOID, 6939))
                .action()
                .unwrap(),
            Action::avoid(Asn(6939))
        );
        assert_eq!(
            classify_large(ixp, LargeCommunity::new(rs, large_fn::AVOID, 0))
                .action()
                .unwrap()
                .target,
            Target::AllPeers
        );
        assert_eq!(
            classify_large(ixp, LargeCommunity::new(rs, large_fn::PREPEND2, 15169))
                .action()
                .unwrap()
                .kind,
            ActionKind::PrependTo(2)
        );
        assert!(matches!(
            classify_large(ixp, LargeCommunity::new(rs, large_fn::INFO_LEARNED, 7)),
            Classification::IxpDefined(Semantics::Informational(InfoKind::LearnedAt(7)))
        ));
        // wrong global admin → unknown
        assert_eq!(
            classify_large(ixp, LargeCommunity::new(3356, 0, 6939)),
            Classification::Unknown
        );
        // unknown function code → unknown
        assert_eq!(
            classify_large(ixp, LargeCommunity::new(rs, 99, 6939)),
            Classification::Unknown
        );
    }

    #[test]
    fn extended_scheme_classification() {
        let ixp = IxpId::AmsIx;
        let rs = ixp.rs_asn().value() as u16;
        let c = ExtendedCommunity::two_octet_as(ext_subtype::PREPEND2, rs, 15169);
        assert_eq!(
            classify_extended(ixp, c).action().unwrap(),
            Action::new(ActionKind::PrependTo(2), Target::Peer(Asn(15169)))
        );
        let c = ExtendedCommunity::two_octet_as(ext_subtype::AVOID, rs, 0);
        assert_eq!(
            classify_extended(ixp, c).action().unwrap().target,
            Target::AllPeers
        );
        // route-target of some other AS → unknown
        let c = ExtendedCommunity::two_octet_as(0x02, 3356, 100);
        assert_eq!(classify_extended(ixp, c), Classification::Unknown);
    }

    #[test]
    fn route_level_classification() {
        let ixp = IxpId::DeCixFra;
        let dict = schemes::dictionary(ixp);
        let mut route = Route::builder(
            "203.0.113.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([64496, 15169])
        .standard(schemes::avoid_community(ixp, Asn(6939)))
        .standard(StandardCommunity::from_parts(3356, 70)) // private/unknown
        .build();
        route.large_communities = vec![LargeCommunity::new(
            ixp.rs_asn().value(),
            large_fn::INFO_LEARNED,
            3,
        )];
        let cls: Vec<_> = classify_route(&dict, &route).collect();
        assert_eq!(cls.len(), 3);
        let defined = cls.iter().filter(|(_, c)| c.is_ixp_defined()).count();
        assert_eq!(defined, 2);
        let has_action =
            |route: &Route| classify_route(&dict, route).any(|(_, cl)| cl.action().is_some());
        assert!(has_action(&route));
        route.standard_communities.clear();
        assert!(!has_action(&route)); // info-only now
    }
}
