//! §5.3: ASes' favourite actions.
//!
//! Table 2 — how many ASes use each action type;
//! type counts — how many instances of each type occur.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bgp_model::prefix::Afi;
use community_dict::action::ActionGroup;
use community_dict::ixp::IxpId;

use crate::core::{pct, View};

/// Table 2 result for one (IXP, family): per action group, the ASes
/// tagging at least one route with it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Members at the RS (the percentage denominator).
    pub members_at_rs: usize,
    /// AS counts per group, in [`ActionGroup::ALL`] order.
    pub ases_per_group: BTreeMap<ActionGroup, usize>,
}

impl Table2 {
    /// Derive the table from accumulated per-group AS counts. Groups
    /// with zero users are dropped: the serialized table lists only
    /// groups that occur.
    pub(crate) fn from_counts(
        ixp: IxpId,
        afi: Afi,
        members_at_rs: usize,
        ases_per_group: BTreeMap<ActionGroup, usize>,
    ) -> Self {
        Table2 {
            ixp,
            afi,
            members_at_rs,
            ases_per_group: ases_per_group.into_iter().filter(|(_, n)| *n > 0).collect(),
        }
    }

    /// AS count for one group.
    pub fn count(&self, group: ActionGroup) -> usize {
        self.ases_per_group.get(&group).copied().unwrap_or(0)
    }

    /// Percentage of RS members using one group.
    pub fn pct(&self, group: ActionGroup) -> f64 {
        pct(self.count(group) as u64, self.members_at_rs as u64)
    }
}

/// Compute Table 2.
pub fn table2(view: &View) -> Table2 {
    let users = |g: ActionGroup| {
        view.per_as()
            .filter(|(_, p)| p.groups[g.index()] > 0)
            .count()
    };
    Table2::from_counts(
        view.ixp,
        view.afi,
        view.member_count(),
        ActionGroup::ALL.iter().map(|g| (*g, users(*g))).collect(),
    )
}

/// §5.3 "Number of action communities per type": instance counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeCounts {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Total action instances.
    pub total: u64,
    /// Instance counts per group.
    pub per_group: BTreeMap<ActionGroup, u64>,
}

impl TypeCounts {
    /// Derive the counts from accumulated per-group instance totals;
    /// zero-count groups are dropped, as in [`Table2::from_counts`].
    pub(crate) fn from_counts(ixp: IxpId, afi: Afi, per_group: BTreeMap<ActionGroup, u64>) -> Self {
        let per_group: BTreeMap<ActionGroup, u64> =
            per_group.into_iter().filter(|(_, n)| *n > 0).collect();
        TypeCounts {
            ixp,
            afi,
            total: per_group.values().sum(),
            per_group,
        }
    }

    /// Instance count for one group.
    pub(crate) fn count(&self, group: ActionGroup) -> u64 {
        self.per_group.get(&group).copied().unwrap_or(0)
    }

    /// Percentage of action instances in one group (paper: do-not-announce
    /// 66.6–92.0%, announce-only 17.7–31.4%, prepend <1.9%, blackhole
    /// <0.4% for IPv4).
    pub fn pct(&self, group: ActionGroup) -> f64 {
        pct(self.count(group), self.total)
    }
}

/// Compute the §5.3 per-type instance counts.
pub fn type_counts(view: &View) -> TypeCounts {
    let per_group = ActionGroup::ALL
        .iter()
        .map(|g| (*g, view.insts_per_group[g.index()]))
        .collect();
    TypeCounts::from_counts(view.ixp, view.afi, per_group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use bgp_model::community::well_known;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::Snapshot;

    fn snapshot() -> Snapshot {
        let ixp = IxpId::DeCixFra;
        let mk = |pfx: &str, tagger: u32, cs: Vec<bgp_model::community::StandardCommunity>| {
            (
                Asn(tagger),
                Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
                    .path([tagger])
                    .standards(cs)
                    .build(),
            )
        };
        Snapshot {
            ixp,
            day: 0,
            afi: Afi::Ipv4,
            members: vec![Asn(39120), Asn(6939), Asn(13335), Asn(20940)],
            routes: vec![
                mk(
                    "193.0.10.0/24",
                    39120,
                    vec![
                        schemes::avoid_community(ixp, Asn(6939)),
                        schemes::avoid_community(ixp, Asn(15169)),
                        schemes::only_community(ixp, Asn(13335)),
                    ],
                ),
                mk(
                    "193.0.11.0/24",
                    6939,
                    vec![
                        schemes::avoid_community(ixp, Asn(15169)),
                        schemes::prepend_community(ixp, Asn(13335), 2).unwrap(),
                    ],
                ),
                mk("193.0.12.66/32", 13335, vec![well_known::BLACKHOLE]),
            ],
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn table2_counts_ases_per_group() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let t = table2(&view);
        assert_eq!(t.count(ActionGroup::DoNotAnnounceTo), 2);
        assert_eq!(t.count(ActionGroup::AnnounceOnlyTo), 1);
        assert_eq!(t.count(ActionGroup::PrependTo), 1);
        assert_eq!(t.count(ActionGroup::Blackhole), 1);
        assert_eq!(t.pct(ActionGroup::DoNotAnnounceTo), 50.0);
    }

    #[test]
    fn type_counts_instances() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let t = type_counts(&view);
        assert_eq!(t.total, 6);
        assert_eq!(t.count(ActionGroup::DoNotAnnounceTo), 3);
        assert_eq!(t.count(ActionGroup::AnnounceOnlyTo), 1);
        assert_eq!(t.count(ActionGroup::PrependTo), 1);
        assert_eq!(t.count(ActionGroup::Blackhole), 1);
        assert!((t.pct(ActionGroup::DoNotAnnounceTo) - 50.0).abs() < 1e-9);
    }
}
