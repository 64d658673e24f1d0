//! Figures 1–3: the overview breakdowns.
//!
//! Fig. 1 — IXP-defined vs unknown communities (all three types).
//! Fig. 2 — standard vs extended vs large, among the IXP-defined.
//! Fig. 3 — action vs informational, among the standard IXP-defined.

use serde::{Deserialize, Serialize};

use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;

use crate::core::{pct, View};

/// Fig. 1 result for one (IXP, family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1 {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// All community instances (standard + extended + large).
    pub total: u64,
    /// Instances the IXP dictionary defines.
    pub ixp_defined: u64,
    /// Instances with no IXP meaning.
    pub unknown: u64,
}

impl Fig1 {
    /// Derive the figure from accumulated counts.
    pub fn from_counts(ixp: IxpId, afi: Afi, ixp_defined: u64, unknown: u64) -> Self {
        Fig1 {
            ixp,
            afi,
            total: ixp_defined + unknown,
            ixp_defined,
            unknown,
        }
    }

    /// Percentage defined (the paper's ">80%" headline).
    pub fn defined_pct(&self) -> f64 {
        pct(self.ixp_defined, self.total)
    }

    /// Percentage unknown.
    pub fn unknown_pct(&self) -> f64 {
        pct(self.unknown, self.total)
    }
}

/// Compute Fig. 1 for one view.
pub fn fig1(view: &View) -> Fig1 {
    let defined = view.std_defined() + view.ext_defined + view.large_defined;
    Fig1::from_counts(view.ixp, view.afi, defined, view.unknown)
}

/// Fig. 2 result: IXP-defined instances by structural type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2 {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// IXP-defined instances (Fig. 1's defined count).
    pub total_defined: u64,
    /// RFC 1997 standard.
    pub standard: u64,
    /// RFC 4360 extended.
    pub extended: u64,
    /// RFC 8092 large.
    pub large: u64,
}

impl Fig2 {
    /// Derive the figure from accumulated per-type defined counts.
    pub fn from_counts(ixp: IxpId, afi: Afi, standard: u64, extended: u64, large: u64) -> Self {
        Fig2 {
            ixp,
            afi,
            total_defined: standard + extended + large,
            standard,
            extended,
            large,
        }
    }

    /// Percentage standard (the paper: consistently >80%).
    pub fn standard_pct(&self) -> f64 {
        pct(self.standard, self.total_defined)
    }

    /// Percentage extended.
    pub fn extended_pct(&self) -> f64 {
        pct(self.extended, self.total_defined)
    }

    /// Percentage large.
    pub fn large_pct(&self) -> f64 {
        pct(self.large, self.total_defined)
    }
}

/// Compute Fig. 2 for one view.
pub fn fig2(view: &View) -> Fig2 {
    Fig2::from_counts(
        view.ixp,
        view.afi,
        view.std_defined(),
        view.ext_defined,
        view.large_defined,
    )
}

/// Fig. 3 result: standard IXP-defined split into action/informational.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3 {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Standard IXP-defined instances.
    pub total: u64,
    /// Action instances.
    pub action: u64,
    /// Informational instances.
    pub informational: u64,
}

impl Fig3 {
    /// Derive the figure from accumulated action/informational counts.
    pub fn from_counts(ixp: IxpId, afi: Afi, action: u64, informational: u64) -> Self {
        Fig3 {
            ixp,
            afi,
            total: action + informational,
            action,
            informational,
        }
    }

    /// Percentage action — the paper's "at least 66.6%".
    pub fn action_pct(&self) -> f64 {
        pct(self.action, self.total)
    }

    /// Percentage informational.
    pub fn informational_pct(&self) -> f64 {
        pct(self.informational, self.total)
    }
}

/// Compute Fig. 3 for one view.
pub fn fig3(view: &View) -> Fig3 {
    Fig3::from_counts(view.ixp, view.afi, view.std_action, view.std_info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use bgp_model::community::{LargeCommunity, StandardCommunity};
    use bgp_model::route::Route;
    use community_dict::classify::large_fn;
    use community_dict::schemes;
    use looking_glass::snapshot::Snapshot;

    fn snapshot() -> Snapshot {
        let ixp = IxpId::IxBrSp;
        let rs = ixp.rs_asn().value();
        let mut r1 = Route::builder(
            "193.0.10.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([39120])
        .standards(vec![
            schemes::avoid_community(ixp, Asn(6939)), // action
            schemes::info_community(ixp, 1),          // info
            StandardCommunity::from_parts(3356, 70),  // unknown
        ])
        .build();
        r1.large_communities = vec![
            LargeCommunity::new(rs, large_fn::AVOID, 6939), // defined large
            LargeCommunity::new(3356, 1, 2),                // unknown large
        ];
        Snapshot {
            ixp,
            day: 0,
            afi: Afi::Ipv4,
            members: vec![Asn(39120)],
            routes: vec![(Asn(39120), r1)],
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn fig1_counts_all_types() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig1(&view);
        assert_eq!(f.total, 5);
        assert_eq!(f.ixp_defined, 3);
        assert_eq!(f.unknown, 2);
        assert!((f.defined_pct() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_splits_by_type() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig2(&view);
        assert_eq!(f.total_defined, 3);
        assert_eq!(f.standard, 2);
        assert_eq!(f.large, 1);
        assert_eq!(f.extended, 0);
    }

    #[test]
    fn fig3_splits_standard_defined() {
        let snap = snapshot();
        let dict = schemes::dictionary(snap.ixp);
        let view = View::new(&snap, &dict);
        let f = fig3(&view);
        assert_eq!(f.total, 2);
        assert_eq!(f.action, 1);
        assert_eq!(f.informational, 1);
        assert_eq!(f.action_pct(), 50.0);
    }
}
