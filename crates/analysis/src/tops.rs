//! §5.4–§5.5: the most-used communities, the ineffective ones, and the
//! ASes responsible.
//!
//! Fig. 5 — top-20 action communities per IXP;
//! Fig. 6 — top-20 action communities targeting non-RS members;
//! §5.5   — the ineffective share;
//! Fig. 7 — top-10 ASes tagging non-member targets ("culprits").

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::community::StandardCommunity;
use bgp_model::prefix::Afi;
use community_dict::action::{Action, ActionGroup};
use community_dict::ixp::IxpId;
use community_dict::known;

use crate::core::{pct, View};

/// One ranked community.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedCommunity {
    /// The community value.
    pub community: StandardCommunity,
    /// Its resolved action.
    pub action: Action,
    /// Occurrences in routes.
    pub count: u64,
    /// Share of all action instances (percent).
    pub share_pct: f64,
    /// Human-readable meaning ("do not announce to Google").
    pub label: String,
}

/// Fig. 5 / Fig. 6 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopCommunities {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Total action instances in scope (all for Fig. 5; non-member-target
    /// only for Fig. 6).
    pub total_in_scope: u64,
    /// The ranked communities, descending.
    pub top: Vec<RankedCommunity>,
}

impl TopCommunities {
    /// Rank and label accumulated per-community counts (ties rank by
    /// ascending value). `counts` holds only the in-scope communities
    /// (already filtered for Fig. 6); `total_all` is the count of *all*
    /// action instances, the paper's share denominator for both figures.
    pub fn from_counts(
        ixp: IxpId,
        afi: Afi,
        counts: BTreeMap<StandardCommunity, (Action, u64)>,
        total_all: u64,
        limit: usize,
    ) -> Self {
        let total_scope: u64 = counts.values().map(|(_, n)| n).sum();
        let mut ranked: Vec<(StandardCommunity, Action, u64)> =
            counts.into_iter().map(|(c, (a, n))| (c, a, n)).collect();
        ranked.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        ranked.truncate(limit);
        let top = ranked
            .into_iter()
            .map(|(community, action, count)| {
                let target_name = action
                    .target
                    .peer_asn()
                    .map(known::name_of)
                    .unwrap_or_else(|| action.target.to_string());
                let verb = match action.kind.group() {
                    ActionGroup::DoNotAnnounceTo => "do not announce to",
                    ActionGroup::AnnounceOnlyTo => "announce only to",
                    ActionGroup::PrependTo => "prepend to",
                    ActionGroup::Blackhole => "blackhole",
                };
                RankedCommunity {
                    community,
                    action,
                    count,
                    // Fig. 5's shares are relative to ALL action instances
                    share_pct: pct(count, total_all),
                    label: if action.kind.group() == ActionGroup::Blackhole {
                        verb.to_string()
                    } else {
                        format!("{verb} {target_name}")
                    },
                }
            })
            .collect();
        TopCommunities {
            ixp,
            afi,
            total_in_scope: total_scope,
            top,
        }
    }
}

/// The top-20 of the action communities `in_scope` keeps.
fn top20(view: &View, in_scope: impl Fn(&Action) -> bool) -> TopCommunities {
    let counts = view
        .action_communities()
        .filter(|(_, action, _)| in_scope(action))
        .map(|(community, action, n)| (community, (action, n)))
        .collect();
    TopCommunities::from_counts(view.ixp, view.afi, counts, view.std_action, 20)
}

/// Fig. 5: the top-20 action communities.
pub fn fig5(view: &View) -> TopCommunities {
    top20(view, |_| true)
}

/// Fig. 6: the top-20 action communities targeting non-RS members.
pub fn fig6(view: &View) -> TopCommunities {
    top20(view, |action| view.is_ineffective(action))
}

/// §5.5 headline: the ineffective share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ineffective {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// All action instances.
    pub total_actions: u64,
    /// Action instances targeting a single AS not at the RS.
    pub ineffective: u64,
    /// How many of Fig. 5's top-20 communities target non-members
    /// (paper: six at IX.br-SP, four at DE-CIX, ten at LINX, eight at
    /// AMS-IX for IPv4).
    pub top20_nonmember_count: usize,
}

impl Ineffective {
    /// The ineffective percentage (31.8–64.3% for IPv4 in the paper).
    pub fn pct(&self) -> f64 {
        pct(self.ineffective, self.total_actions)
    }
}

/// Compute the §5.5 shares.
pub fn ineffective(view: &View) -> Ineffective {
    ineffective_given(view, &fig5(view))
}

/// [`ineffective`] for a caller that already holds `view`'s Fig. 5
/// ranking (the report assembly), sparing a second sort.
pub(crate) fn ineffective_given(view: &View, fig5: &TopCommunities) -> Ineffective {
    Ineffective {
        ixp: view.ixp,
        afi: view.afi,
        total_actions: view.std_action,
        ineffective: view
            .action_communities()
            .filter(|(_, action, _)| view.is_ineffective(action))
            .map(|(_, _, n)| n)
            .sum(),
        top20_nonmember_count: fig5
            .top
            .iter()
            .filter(|r| view.is_ineffective(&r.action))
            .count(),
    }
}

/// One Fig. 7 culprit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Culprit {
    /// The tagging AS.
    pub asn: Asn,
    /// Its name, when known.
    pub name: String,
    /// Ineffective instances it is responsible for.
    pub count: u64,
    /// Share of all ineffective instances (percent).
    pub share_pct: f64,
}

/// Fig. 7 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7 {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Total ineffective instances.
    pub total_ineffective: u64,
    /// The top taggers, descending.
    pub top: Vec<Culprit>,
}

impl Fig7 {
    /// Rank and label accumulated per-AS ineffective-instance counts
    /// (ties rank by ascending ASN).
    pub fn from_per_as(ixp: IxpId, afi: Afi, per_as: BTreeMap<Asn, u64>, limit: usize) -> Self {
        let total: u64 = per_as.values().sum();
        let mut ranked: Vec<(Asn, u64)> = per_as.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(limit);
        Fig7 {
            ixp,
            afi,
            total_ineffective: total,
            top: ranked
                .into_iter()
                .map(|(asn, count)| Culprit {
                    asn,
                    name: known::name_of(asn),
                    count,
                    share_pct: pct(count, total),
                })
                .collect(),
        }
    }
}

/// Compute Fig. 7 (top `limit` culprits).
pub fn fig7(view: &View, limit: usize) -> Fig7 {
    let mut per_as: BTreeMap<Asn, u64> = BTreeMap::new();
    for (asn, action, n) in view.tagger_actions() {
        if view.is_ineffective(&action) {
            *per_as.entry(asn).or_insert(0) += n;
        }
    }
    Fig7::from_per_as(view.ixp, view.afi, per_as, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::Snapshot;

    /// Two members; AS 39120 tags avoid-HE (member) on two routes and
    /// avoid-OVH (non-member) on one; AS 6939 tags avoid-Google
    /// (non-member) on one.
    fn snapshot() -> Snapshot {
        let ixp = IxpId::Linx;
        let mk = |pfx: &str, tagger: u32, cs: Vec<StandardCommunity>| {
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
            members: vec![Asn(39120), Asn(6939)],
            routes: vec![
                mk(
                    "193.0.10.0/24",
                    39120,
                    vec![
                        schemes::avoid_community(ixp, Asn(6939)),
                        schemes::avoid_community(ixp, Asn(16276)),
                    ],
                ),
                mk(
                    "193.0.11.0/24",
                    39120,
                    vec![schemes::avoid_community(ixp, Asn(6939))],
                ),
                mk(
                    "81.0.0.0/24",
                    6939,
                    vec![schemes::avoid_community(ixp, Asn(15169))],
                ),
            ],
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn fig5_ranks_by_count() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig5(&view);
        assert_eq!(f.total_in_scope, 4);
        assert_eq!(f.top.len(), 3);
        assert_eq!(f.top[0].count, 2);
        assert_eq!(f.top[0].label, "do not announce to Hurricane Electric");
        assert!((f.top[0].share_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fig6_restricts_to_nonmembers() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig6(&view);
        assert_eq!(f.total_in_scope, 2); // OVH + Google instances
        assert_eq!(f.top.len(), 2);
        for r in &f.top {
            assert!(view.is_ineffective(&r.action));
        }
        // shares remain relative to ALL action instances
        assert!((f.top[0].share_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn ineffective_share() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let i = ineffective(&view);
        assert_eq!(i.total_actions, 4);
        assert_eq!(i.ineffective, 2);
        assert_eq!(i.pct(), 50.0);
        assert_eq!(i.top20_nonmember_count, 2);
    }

    #[test]
    fn fig7_culprits() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig7(&view, 10);
        assert_eq!(f.total_ineffective, 2);
        assert_eq!(f.top.len(), 2);
        // both culprits have one instance each; ties break by ASN
        assert_eq!(f.top[0].asn, Asn(6939));
        assert_eq!(f.top[0].name, "Hurricane Electric");
        assert!((f.top[0].share_pct - 50.0).abs() < 1e-9);
    }
}
