//! Figure 4: who uses action communities.
//!
//! 4a — members using actions and routes carrying them;
//! 4b — the cumulative skew of action instances over ASes;
//! 4c — per-AS correlation of route share vs action-instance share.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;

use crate::core::{pct, View};

/// Fig. 4a result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4a {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Members at the RS.
    pub members_at_rs: usize,
    /// Members with at least one route carrying an action community.
    pub ases_using_actions: usize,
    /// Total routes in the snapshot.
    pub routes_total: usize,
    /// Routes carrying at least one action community.
    pub routes_with_actions: usize,
}

impl Fig4a {
    /// Fraction of members using actions (the 35.5–54% headline).
    pub fn ases_pct(&self) -> f64 {
        pct(self.ases_using_actions as u64, self.members_at_rs as u64)
    }

    /// Fraction of routes carrying actions (61.7–76.6% for IPv4).
    pub fn routes_pct(&self) -> f64 {
        pct(self.routes_with_actions as u64, self.routes_total as u64)
    }
}

/// Compute Fig. 4a.
pub fn fig4a(view: &View) -> Fig4a {
    let tagged: Vec<u64> = view
        .per_as()
        .map(|(_, p)| p.tagged)
        .filter(|n| *n > 0)
        .collect();
    Fig4a {
        ixp: view.ixp,
        afi: view.afi,
        members_at_rs: view.member_count(),
        ases_using_actions: tagged.len(),
        routes_total: view.routes_total as usize,
        routes_with_actions: tagged.iter().sum::<u64>() as usize,
    }
}

/// Fig. 4b result: the distribution of action instances over ASes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4b {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Total action instances (the figure's per-IXP totals, e.g. 2.98M).
    pub total_instances: u64,
    /// Per-AS instance counts, descending.
    pub per_as_desc: Vec<(Asn, u64)>,
    /// Members at the RS (the x-axis denominator).
    pub members_at_rs: usize,
}

impl Fig4b {
    /// Derive the figure from accumulated per-AS action-instance counts
    /// (ties rank by ascending ASN).
    pub fn from_per_as(
        ixp: IxpId,
        afi: Afi,
        per_as: BTreeMap<Asn, u64>,
        members_at_rs: usize,
    ) -> Self {
        let total: u64 = per_as.values().sum();
        let mut per_as_desc: Vec<(Asn, u64)> = per_as.into_iter().collect();
        per_as_desc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Fig4b {
            ixp,
            afi,
            total_instances: total,
            per_as_desc,
            members_at_rs,
        }
    }

    /// Share of all action instances held by the top `fraction` of RS
    /// members (paper: top 1% hold 50–60% at the European IXPs, 86% at
    /// IX.br-SP).
    pub fn share_of_top(&self, fraction: f64) -> f64 {
        let k = ((self.members_at_rs as f64 * fraction).ceil() as usize).max(1);
        let top: u64 = self.per_as_desc.iter().take(k).map(|(_, n)| n).sum();
        pct(top, self.total_instances) / 100.0
    }

    /// The cumulative curve as (fraction_of_ases, fraction_of_instances)
    /// points, one per AS.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.per_as_desc.len());
        let mut cum = 0u64;
        for (i, (_, n)) in self.per_as_desc.iter().enumerate() {
            cum += n;
            out.push((
                (i + 1) as f64 / self.members_at_rs.max(1) as f64,
                cum as f64 / self.total_instances.max(1) as f64,
            ));
        }
        out
    }
}

/// Action instances per tagging AS; ASes with none are absent.
fn instances_per_as(view: &View) -> BTreeMap<Asn, u64> {
    view.per_as()
        .filter(|(_, p)| p.instances > 0)
        .map(|(asn, p)| (asn, p.instances))
        .collect()
}

/// Compute Fig. 4b.
pub fn fig4b(view: &View) -> Fig4b {
    Fig4b::from_per_as(
        view.ixp,
        view.afi,
        instances_per_as(view),
        view.member_count(),
    )
}

/// Fig. 4c result: one point per AS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4c {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Per AS: (fraction of action instances, fraction of announced
    /// prefixes), both in (0, 1].
    pub points: Vec<(Asn, f64, f64)>,
}

impl Fig4c {
    /// Pearson correlation between log-fractions (the figure is log-log;
    /// paper: points hug the diagonal).
    pub fn log_correlation(&self) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|(_, x, y)| *x > 0.0 && *y > 0.0)
            .map(|(_, x, y)| (x.ln(), y.ln()))
            .collect();
        if pts.len() < 2 {
            return 0.0;
        }
        let n = pts.len() as f64;
        let (mx, my) = (
            pts.iter().map(|p| p.0).sum::<f64>() / n,
            pts.iter().map(|p| p.1).sum::<f64>() / n,
        );
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (x, y) in &pts {
            cov += (x - mx) * (y - my);
            vx += (x - mx).powi(2);
            vy += (y - my).powi(2);
        }
        if vx == 0.0 || vy == 0.0 {
            0.0
        } else {
            cov / (vx.sqrt() * vy.sqrt())
        }
    }

    /// The paper's asymmetry: ASes announcing many routes but tagging few
    /// communities exist ("upper left"), the reverse does not ("bottom
    /// right"). Returns (upper_left_count, bottom_right_count) with a
    /// 10× disparity threshold.
    pub fn asymmetry(&self) -> (usize, usize) {
        let mut upper_left = 0;
        let mut bottom_right = 0;
        for (_, frac_comm, frac_routes) in &self.points {
            if *frac_routes > frac_comm * 10.0 && *frac_routes > 1e-4 {
                upper_left += 1;
            }
            if *frac_comm > frac_routes * 10.0 && *frac_comm > 1e-4 {
                bottom_right += 1;
            }
        }
        (upper_left, bottom_right)
    }
}

impl Fig4c {
    /// Derive the figure from accumulated per-AS route and
    /// action-instance counts. The float divisions happen here and only
    /// here, so every caller gets bit-identical points.
    pub fn from_counts(
        ixp: IxpId,
        afi: Afi,
        routes: &BTreeMap<Asn, u64>,
        comm: &BTreeMap<Asn, u64>,
    ) -> Self {
        let total_routes: u64 = routes.values().sum();
        let total_comm: u64 = comm.values().sum();
        let points = routes
            .iter()
            .map(|(asn, r)| {
                let c = comm.get(asn).copied().unwrap_or(0);
                (
                    *asn,
                    c as f64 / total_comm.max(1) as f64,
                    *r as f64 / total_routes.max(1) as f64,
                )
            })
            .collect();
        Fig4c { ixp, afi, points }
    }
}

/// Compute Fig. 4c.
pub fn fig4c(view: &View) -> Fig4c {
    let routes: BTreeMap<Asn, u64> = view
        .per_as()
        .filter(|(_, p)| p.routes > 0)
        .map(|(asn, p)| (asn, p.routes))
        .collect();
    Fig4c::from_counts(view.ixp, view.afi, &routes, &instances_per_as(view))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::Snapshot;

    fn snapshot() -> Snapshot {
        let ixp = IxpId::AmsIx;
        let mut routes = Vec::new();
        // AS 39120: 8 routes, all tagged with 2 avoid communities
        for i in 0..8 {
            routes.push((
                Asn(39120),
                Route::builder(
                    format!("193.0.{i}.0/24").parse().unwrap(),
                    "198.32.0.7".parse().unwrap(),
                )
                .path([39120])
                .standards(vec![
                    schemes::avoid_community(ixp, Asn(16276)),
                    schemes::avoid_community(ixp, Asn(15169)),
                ])
                .build(),
            ));
        }
        // AS 6939: 8 routes, none tagged
        for i in 0..8 {
            routes.push((
                Asn(6939),
                Route::builder(
                    format!("81.0.{i}.0/24").parse().unwrap(),
                    "198.32.0.8".parse().unwrap(),
                )
                .path([6939])
                .build(),
            ));
        }
        Snapshot {
            ixp,
            day: 0,
            afi: Afi::Ipv4,
            members: vec![Asn(39120), Asn(6939), Asn(13335), Asn(20940)],
            routes,
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn fig4a_counts() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig4a(&view);
        assert_eq!(f.members_at_rs, 4);
        assert_eq!(f.ases_using_actions, 1);
        assert_eq!(f.routes_total, 16);
        assert_eq!(f.routes_with_actions, 8);
        assert_eq!(f.ases_pct(), 25.0);
        assert_eq!(f.routes_pct(), 50.0);
    }

    #[test]
    fn fig4b_skew() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig4b(&view);
        assert_eq!(f.total_instances, 16);
        assert_eq!(f.per_as_desc, vec![(Asn(39120), 16)]);
        // top 25% of 4 members = 1 AS = all instances
        assert!((f.share_of_top(0.25) - 1.0).abs() < 1e-12);
        let curve = f.curve();
        assert_eq!(curve.len(), 1);
        assert!((curve[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig4c_points_and_asymmetry() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig4c(&view);
        assert_eq!(f.points.len(), 2);
        // AS 6939: half the routes, zero communities → upper-left point
        let (ul, br) = f.asymmetry();
        assert_eq!(ul, 1);
        assert_eq!(br, 0);
    }

    #[test]
    fn correlation_on_diagonal_data() {
        // synthetic points exactly on the diagonal → correlation 1
        let f = Fig4c {
            ixp: IxpId::Linx,
            afi: Afi::Ipv4,
            points: (1..20)
                .map(|i| (Asn(i), i as f64 / 100.0, i as f64 / 100.0))
                .collect(),
        };
        assert!((f.log_correlation() - 1.0).abs() < 1e-9);
    }
}
