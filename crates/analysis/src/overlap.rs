//! §5.4's cross-IXP intersection analysis.
//!
//! "There is a considerable intersection among the ASes targeted by
//! action communities in the top 20 of all IXPs. LINX and IX.br, for
//! example, have 14 of the most popular communities aiming to avoid the
//! same ASes. [...] When considering the intersection between the four
//! largest IXPs regarding IPv4, we observe communities to avoid the same
//! six ASes."

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use community_dict::action::ActionGroup;
use community_dict::ixp::IxpId;
use community_dict::known;

use crate::tops::TopCommunities;

/// The avoided-AS sets behind each IXP's top-20 communities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetOverlap {
    /// Family analysed.
    pub afi: Afi,
    /// Per IXP: the single-AS avoid targets among its top-20 communities.
    pub per_ixp: Vec<(IxpId, BTreeSet<Asn>)>,
}

impl TargetOverlap {
    /// The targets shared between two IXPs' top-20 sets.
    pub fn pairwise(&self, a: IxpId, b: IxpId) -> BTreeSet<Asn> {
        let find = |ixp| {
            self.per_ixp
                .iter()
                .find(|(i, _)| *i == ixp)
                .map(|(_, s)| s.clone())
                .unwrap_or_default()
        };
        find(a).intersection(&find(b)).copied().collect()
    }

    /// The targets shared by every analysed IXP (the paper: six ASes for
    /// IPv4, nine for IPv6, among them Google, LeaseWeb, Akamai and
    /// OVHcloud).
    pub fn common(&self) -> BTreeSet<Asn> {
        let mut iter = self.per_ixp.iter().map(|(_, s)| s.clone());
        let Some(mut acc) = iter.next() else {
            return BTreeSet::new();
        };
        for s in iter {
            acc = acc.intersection(&s).copied().collect();
        }
        acc
    }

    /// Names of the common targets.
    pub fn common_names(&self) -> Vec<String> {
        self.common().into_iter().map(known::name_of).collect()
    }
}

/// Compute the overlap from ranked Fig. 5 results (one per IXP, same
/// family) — every caller has the per-IXP top-20 in hand by the time the
/// overlap is needed.
pub fn target_overlap_from_tops(tops: &[&TopCommunities]) -> TargetOverlap {
    let afi = tops.first().map(|t| t.afi).unwrap_or(Afi::Ipv4);
    let per_ixp = tops
        .iter()
        .map(|top20| {
            let targets: BTreeSet<Asn> = top20
                .top
                .iter()
                .filter(|r| r.action.kind.group() == ActionGroup::DoNotAnnounceTo)
                .filter_map(|r| r.action.target.peer_asn())
                .collect();
            (top20.ixp, targets)
        })
        .collect();
    TargetOverlap { afi, per_ixp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::View;
    use crate::tops::fig5;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::Snapshot;

    fn snap(ixp: IxpId, targets: &[u32]) -> Snapshot {
        let routes = targets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (
                    Asn(39120),
                    Route::builder(
                        format!("193.0.{i}.0/24").parse().unwrap(),
                        "198.32.0.7".parse().unwrap(),
                    )
                    .path([39120])
                    .standard(schemes::avoid_community(ixp, Asn(*t)))
                    .build(),
                )
            })
            .collect();
        Snapshot {
            ixp,
            day: 0,
            afi: Afi::Ipv4,
            members: vec![Asn(39120)],
            routes,
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn overlap_computation() {
        let d_linx = schemes::dictionary(IxpId::Linx);
        let d_ams = schemes::dictionary(IxpId::AmsIx);
        let s_linx = snap(IxpId::Linx, &[15169, 16276, 20940]);
        let s_ams = snap(IxpId::AmsIx, &[16276, 20940, 13335]);
        let tops = [
            fig5(&View::new(&s_linx, &d_linx)),
            fig5(&View::new(&s_ams, &d_ams)),
        ];
        let ov = target_overlap_from_tops(&tops.iter().collect::<Vec<_>>());
        let shared = ov.pairwise(IxpId::Linx, IxpId::AmsIx);
        assert_eq!(
            shared,
            [Asn(16276), Asn(20940)]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        assert_eq!(ov.common().len(), 2);
        let names = ov.common_names();
        assert!(names.contains(&"OVHcloud".to_string()));
        assert!(names.contains(&"Akamai".to_string()));
    }

    #[test]
    fn empty_views() {
        let ov = target_overlap_from_tops(&[]);
        assert!(ov.common().is_empty());
        assert!(ov.pairwise(IxpId::Linx, IxpId::AmsIx).is_empty());
    }
}
