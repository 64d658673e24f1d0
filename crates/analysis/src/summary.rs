//! The whole evaluation as one serializable report: every per-snapshot
//! analysis for every (IXP, family) in a store. This is the
//! machine-readable counterpart of the `repro` binary's tables, meant for
//! downstream tooling (plotting, regression tracking).

use serde::{Deserialize, Serialize};

use bgp_model::prefix::Afi;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use looking_glass::snapshot::SnapshotStore;

use crate::actions::{table2, type_counts, Table2, TypeCounts};
use crate::core::View;
use crate::fig4::{fig4a, fig4b, fig4c, Fig4a};
use crate::figs_overview::{fig1, fig2, fig3, Fig1, Fig2, Fig3};
use crate::overlap::{target_overlap_from_tops, TargetOverlap};
use crate::tops::{fig5, fig6, fig7, ineffective_given, Fig7, Ineffective, TopCommunities};

/// Everything computed for one (IXP, family) snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReport {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Day index of the snapshot analysed.
    pub day: u32,
    /// Fig. 1.
    pub fig1: Fig1,
    /// Fig. 2.
    pub fig2: Fig2,
    /// Fig. 3.
    pub fig3: Fig3,
    /// Fig. 4a.
    pub fig4a: Fig4a,
    /// Fig. 4b reduced to the headline shares (the full curve is large).
    pub fig4b_top1pct: f64,
    /// Fig. 4b: share of the top 10% of ASes.
    pub fig4b_top10pct: f64,
    /// Fig. 4c reduced to the correlation and asymmetry.
    pub fig4c_log_correlation: f64,
    /// Fig. 4c: (upper-left, bottom-right) outlier counts.
    pub fig4c_asymmetry: (usize, usize),
    /// Table 2.
    pub table2: Table2,
    /// §5.3 instance mix.
    pub type_counts: TypeCounts,
    /// Fig. 5.
    pub fig5: TopCommunities,
    /// Fig. 6.
    pub fig6: TopCommunities,
    /// §5.5.
    pub ineffective: Ineffective,
    /// Fig. 7.
    pub fig7: Fig7,
}

impl SnapshotReport {
    /// Every figure and table of one unit, read off its aggregates —
    /// the one assembly behind [`full_report`] and the incremental
    /// engine's [`unit_report`](crate::incremental::IxpEngine::unit_report).
    pub fn from_view(view: &View, day: u32) -> Self {
        let b = fig4b(view);
        let c = fig4c(view);
        let fig5 = fig5(view);
        SnapshotReport {
            ixp: view.ixp,
            afi: view.afi,
            day,
            fig1: fig1(view),
            fig2: fig2(view),
            fig3: fig3(view),
            fig4a: fig4a(view),
            fig4b_top1pct: b.share_of_top(0.01),
            fig4b_top10pct: b.share_of_top(0.10),
            fig4c_log_correlation: c.log_correlation(),
            fig4c_asymmetry: c.asymmetry(),
            table2: table2(view),
            type_counts: type_counts(view),
            fig6: fig6(view),
            ineffective: ineffective_given(view, &fig5),
            fig7: fig7(view, 10),
            fig5,
        }
    }
}

/// The full evaluation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FullReport {
    /// One report per (IXP, family) present in the store.
    pub snapshots: Vec<SnapshotReport>,
    /// §5.4 cross-IXP overlap (IPv4).
    pub overlap_v4: Option<TargetOverlap>,
}

/// Compute the full report for the latest snapshot of every (IXP, family)
/// in the store. `dicts` must contain the dictionary for every IXP
/// present.
pub fn full_report(store: &SnapshotStore, dicts: &[(IxpId, Dictionary)]) -> FullReport {
    let _span = obs::span!(obs::names::ANALYSIS_FULL_REPORT);
    // Fan out per (IXP, family) snapshot: each task folds its snapshot
    // into its own View (own interners, nothing shared) and reads every
    // figure and table off it. The ordered join keeps the units in the
    // same (dict order × family) order as a serial loop.
    let units: Vec<(usize, Afi)> = (0..dicts.len())
        .flat_map(|i| [(i, Afi::Ipv4), (i, Afi::Ipv6)])
        .collect();
    let computed = par::map_indexed(&units, |_, &(i, afi)| {
        let _span = obs::span!(obs::names::ANALYSIS_REPORT_UNIT);
        let (ixp, dict) = &dicts[i];
        let snap = store.latest(*ixp, afi)?;
        Some(SnapshotReport::from_view(&View::new(snap, dict), snap.day))
    });
    FullReport::from_units(computed.into_iter().flatten().collect())
}

impl FullReport {
    /// Wrap finished unit reports, adding the §5.4 overlap from the
    /// Fig. 5 rankings they already hold (when ≥ 2 IPv4 units exist).
    pub(crate) fn from_units(snapshots: Vec<SnapshotReport>) -> Self {
        let v4_tops: Vec<&TopCommunities> = snapshots
            .iter()
            .filter(|s| s.afi == Afi::Ipv4)
            .map(|s| &s.fig5)
            .collect();
        let overlap_v4 = (v4_tops.len() >= 2).then(|| target_overlap_from_tops(&v4_tops));
        FullReport {
            snapshots,
            overlap_v4,
        }
    }

    /// The report for one (IXP, family).
    pub fn get(&self, ixp: IxpId, afi: Afi) -> Option<&SnapshotReport> {
        self.snapshots.iter().find(|r| r.ixp == ixp && r.afi == afi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::Snapshot;

    fn store() -> (SnapshotStore, Vec<(IxpId, Dictionary)>) {
        let mut store = SnapshotStore::new();
        for ixp in [IxpId::Linx, IxpId::Bcix] {
            for afi in [Afi::Ipv4, Afi::Ipv6] {
                let (pfx, nh) = match afi {
                    Afi::Ipv4 => ("193.0.10.0/24", "198.32.0.7"),
                    Afi::Ipv6 => ("2a00:1450::/32", "2001:7f8::1"),
                };
                let route = Route::builder(pfx.parse().unwrap(), nh.parse().unwrap())
                    .path([39120])
                    .standard(schemes::avoid_community(ixp, Asn(6939)))
                    .standard(schemes::avoid_community(ixp, Asn(16276)))
                    .build();
                store.insert(Snapshot {
                    ixp,
                    day: 83,
                    afi,
                    members: vec![Asn(39120), Asn(6939)],
                    routes: vec![(Asn(39120), route)],
                    partial: false,
                    failed_peers: vec![],
                });
            }
        }
        let dicts = [IxpId::Linx, IxpId::Bcix]
            .iter()
            .map(|i| (*i, schemes::dictionary(*i)))
            .collect();
        (store, dicts)
    }

    #[test]
    fn full_report_covers_everything_and_serializes() {
        let (store, dicts) = store();
        let report = full_report(&store, &dicts);
        assert_eq!(report.snapshots.len(), 4);
        let linx_v4 = report.get(IxpId::Linx, Afi::Ipv4).unwrap();
        assert_eq!(linx_v4.ineffective.total_actions, 2);
        assert_eq!(linx_v4.ineffective.ineffective, 1); // OVH not a member
        assert_eq!(linx_v4.fig4a.ases_using_actions, 1);
        let overlap = report.overlap_v4.as_ref().unwrap();
        // HE and OVH are targeted at both IXPs
        assert_eq!(overlap.common().len(), 2);

        // JSON round trip
        let js = serde_json::to_string(&report).unwrap();
        let back: FullReport = serde_json::from_str(&js).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn route_order_does_not_change_the_report() {
        let scenario = ixp_sim::scenario::run(&ixp_sim::scenario::ScenarioConfig {
            world: ixp_sim::world::WorldConfig {
                seed: 7,
                scale: 0.02,
            },
            ixps: vec![IxpId::Netnod],
            ..Default::default()
        });
        let dicts = vec![(IxpId::Netnod, schemes::dictionary(IxpId::Netnod))];
        let mut reversed = SnapshotStore::new();
        for snap in scenario.store.iter() {
            assert!(snap.routes.len() > 1);
            let mut snap = snap.clone();
            snap.routes.reverse();
            reversed.insert(snap);
        }
        assert_eq!(
            serde_json::to_string(&full_report(&scenario.store, &dicts)).unwrap(),
            serde_json::to_string(&full_report(&reversed, &dicts)).unwrap()
        );
    }

    #[test]
    fn missing_ixp_is_skipped() {
        let (store, _) = store();
        let dicts = vec![(IxpId::AmsIx, schemes::dictionary(IxpId::AmsIx))];
        let report = full_report(&store, &dicts);
        assert!(report.snapshots.is_empty());
        assert!(report.overlap_v4.is_none());
    }
}
