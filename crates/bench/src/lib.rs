//! Shared helpers for the `repro` binary and its golden tests: build the
//! world once, collect snapshots, and hold the paper's published numbers
//! for side-by-side comparison. Performance is measured by the separate
//! `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use bgp_model::prefix::Afi;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use ixp_sim::scenario::{self, ScenarioConfig};
use ixp_sim::world::WorldConfig;
use looking_glass::snapshot::SnapshotStore;

/// Paper values used in the side-by-side output of `repro`.
pub mod paper {
    use community_dict::ixp::IxpId;

    /// Fig. 1, IPv4: (defined %, unknown %) per big-four IXP.
    pub fn fig1_v4(ixp: IxpId) -> Option<(f64, f64)> {
        match ixp {
            IxpId::IxBrSp => Some((83.3, 16.7)),
            IxpId::DeCixFra => Some((80.2, 19.8)),
            IxpId::Linx => Some((86.1, 13.9)),
            IxpId::AmsIx => Some((86.8, 13.2)),
            _ => None,
        }
    }

    /// Fig. 2, IPv4: standard % of the IXP-defined instances.
    pub fn fig2_standard_v4(ixp: IxpId) -> Option<f64> {
        match ixp {
            IxpId::IxBrSp => Some(84.9),
            IxpId::DeCixFra => Some(90.9),
            IxpId::Linx => Some(85.0),
            IxpId::AmsIx => Some(96.5),
            _ => None,
        }
    }

    /// Fig. 3, IPv4: (action %, informational %).
    pub fn fig3_v4(ixp: IxpId) -> Option<(f64, f64)> {
        match ixp {
            IxpId::IxBrSp => Some((70.5, 29.5)),
            IxpId::DeCixFra => Some((70.4, 29.6)),
            IxpId::Linx => Some((83.6, 16.4)),
            IxpId::AmsIx => Some((83.4, 16.6)),
            _ => None,
        }
    }

    /// Fig. 4a: (% ASes using actions v4, % v6, % routes with actions v4).
    pub fn fig4a(ixp: IxpId) -> Option<(f64, f64, f64)> {
        match ixp {
            IxpId::IxBrSp => Some((51.9, 29.3, 73.7)),
            IxpId::DeCixFra => Some((54.0, 33.6, 61.7)),
            IxpId::Linx => Some((40.4, 28.5, 76.6)),
            IxpId::AmsIx => Some((35.5, 24.1, 68.1)),
            _ => None,
        }
    }

    /// Fig. 4b: share of action instances held by the top 1% of ASes (v4).
    pub fn fig4b_top1pct(ixp: IxpId) -> Option<f64> {
        match ixp {
            IxpId::IxBrSp => Some(0.86),
            IxpId::DeCixFra | IxpId::Linx | IxpId::AmsIx => Some(0.55), // "50–60%"
            _ => None,
        }
    }

    /// Table 2, IPv4: % of RS members using
    /// (do-not-announce, announce-only, prepend, blackhole).
    pub fn table2_v4(ixp: IxpId) -> Option<(f64, f64, f64, f64)> {
        match ixp {
            IxpId::IxBrSp => Some((48.3, 6.1, 5.7, 0.0)),
            IxpId::DeCixFra => Some((38.1, 24.4, 8.3, 15.7)),
            IxpId::Linx => Some((27.6, 20.9, 1.5, 0.0)),
            IxpId::AmsIx => Some((28.3, 12.6, 0.0, 1.4)),
            _ => None,
        }
    }

    /// §5.3 instance mix, IPv4 ranges across IXPs:
    /// (avoid, only, prepend, blackhole) upper bounds as printed.
    pub const TYPE_MIX_V4: (&str, &str, &str, &str) =
        ("66.6–92.0%", "17.7–31.4%", "<1.9%", "<0.4%");

    /// §5.5, IPv4: ineffective share (%).
    pub fn ineffective_v4(ixp: IxpId) -> Option<f64> {
        match ixp {
            IxpId::IxBrSp => Some(31.8),
            IxpId::DeCixFra => Some(49.5),
            IxpId::Linx => Some(64.3),
            IxpId::AmsIx => Some(54.3),
            _ => None,
        }
    }

    /// §5.5, IPv6: ineffective share (%).
    pub fn ineffective_v6(ixp: IxpId) -> Option<f64> {
        match ixp {
            IxpId::IxBrSp => Some(40.3),
            IxpId::DeCixFra => Some(40.4),
            IxpId::Linx => Some(52.6),
            IxpId::AmsIx => Some(45.9),
            _ => None,
        }
    }

    /// Fig. 5's top community label per IXP (IPv4) and its share (%).
    pub fn fig5_top_v4(ixp: IxpId) -> Option<(&'static str, f64)> {
        match ixp {
            IxpId::IxBrSp => Some(("do not announce to Hurricane Electric", 4.27)),
            IxpId::DeCixFra => Some(("do not announce to all peers", 2.8)),
            IxpId::Linx => Some(("do not announce to Google", 3.10)),
            IxpId::AmsIx => Some(("do not announce to OVHcloud", 2.83)),
            _ => None,
        }
    }

    /// Fig. 6: number of Fig. 5 top-20 communities that target non-RS
    /// members (IPv4): six at IX.br-SP, four at DE-CIX, ten at LINX,
    /// eight at AMS-IX.
    pub fn fig6_in_top20_v4(ixp: IxpId) -> Option<usize> {
        match ixp {
            IxpId::IxBrSp => Some(6),
            IxpId::DeCixFra => Some(4),
            IxpId::Linx => Some(10),
            IxpId::AmsIx => Some(8),
            _ => None,
        }
    }

    /// Fig. 7: Hurricane Electric's share of ineffective instances is
    /// 24.2–59.4% across the big four (IPv4).
    pub const FIG7_HE_SHARE_RANGE: (f64, f64) = (24.2, 59.4);

    /// §3: sanitation removed 13.5% of snapshots.
    pub const SANITATION_REMOVED_PCT: f64 = 13.5;
}

/// Build the standard evaluation scenario and return the snapshot store
/// plus the dictionaries (one per IXP in scope).
pub fn standard_scenario(
    seed: u64,
    scale: f64,
    ixps: &[IxpId],
) -> (SnapshotStore, Vec<Dictionary>) {
    let config = ScenarioConfig {
        world: WorldConfig { seed, scale },
        ixps: ixps.to_vec(),
        failures: looking_glass::server::FailureModel::NONE,
        day: 83,
        mode: ixp_sim::timeline::CollectionMode::Snapshot,
    };
    let scenario = scenario::run(&config);
    let dicts = ixps.iter().map(|i| schemes::dictionary(*i)).collect();
    (scenario.store, dicts)
}

/// Both address families, in presentation order.
pub const AFIS: [Afi; 2] = [Afi::Ipv4, Afi::Ipv6];
