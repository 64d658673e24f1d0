//! Snapshots: the dataset unit of the paper.
//!
//! One snapshot = one IXP, one address family, one day: the member list
//! plus every accepted route per member (with communities). Snapshots
//! serialize to JSON (the LG-facing shape) and to the MRT RIB-dump binary
//! (the archive shape); a [`SnapshotStore`] holds the full 12-week series.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;
use bgp_wire::mrt::MrtRibDump;
use community_dict::ixp::IxpId;

/// One daily snapshot of one IXP RS for one family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The IXP.
    pub ixp: IxpId,
    /// Day index since the start of the collection window (0-based).
    pub day: u32,
    /// Address family.
    pub afi: Afi,
    /// Members with an active session (route announcers or not, §3).
    pub members: Vec<Asn>,
    /// Accepted routes per announcing member.
    pub routes: Vec<(Asn, Route)>,
    /// True when collection lost data (failed peers after retries).
    pub partial: bool,
    /// Peers whose routes could not be fetched.
    pub failed_peers: Vec<Asn>,
}

impl Snapshot {
    /// Number of members with sessions.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Total accepted routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Distinct announced prefixes.
    pub fn prefix_count(&self) -> usize {
        self.routes
            .iter()
            .map(|(_, r)| r.prefix)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Total community instances across all routes — the paper's headline
    /// counting unit.
    pub fn community_instances(&self) -> usize {
        self.routes.iter().map(|(_, r)| r.community_count()).sum()
    }

    /// Members that announced at least one route.
    pub fn announcing_members(&self) -> BTreeSet<Asn> {
        self.routes.iter().map(|(a, _)| *a).collect()
    }

    /// Serialize to the MRT RIB-dump binary.
    pub fn to_mrt(&self) -> Result<bytes::Bytes, bgp_wire::WireError> {
        MrtRibDump::from_routes(self.day, self.routes.iter().map(|(a, r)| (*a, r))).encode()
    }

    /// Restore routes from an MRT RIB dump (members defaults to the
    /// announcing set — session-only members are not in MRT).
    pub fn from_mrt(
        ixp: IxpId,
        afi: Afi,
        bytes: bytes::Bytes,
    ) -> Result<Self, bgp_wire::WireError> {
        let dump = MrtRibDump::decode(bytes)?;
        let routes = dump.to_routes();
        let members = routes
            .iter()
            .map(|(a, _)| *a)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Ok(Snapshot {
            ixp,
            day: dump.timestamp,
            afi,
            members,
            routes,
            partial: false,
            failed_peers: Vec::new(),
        })
    }
}

/// The full collection: snapshots keyed by (IXP, family, day).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SnapshotStore {
    snapshots: BTreeMap<(IxpId, Afi, u32), Snapshot>,
}

impl SnapshotStore {
    /// Empty store.
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// Insert a snapshot (replacing any same-key one).
    pub fn insert(&mut self, s: Snapshot) {
        self.snapshots.insert((s.ixp, s.afi, s.day), s);
    }

    /// Fetch one snapshot.
    pub fn get(&self, ixp: IxpId, afi: Afi, day: u32) -> Option<&Snapshot> {
        self.snapshots.get(&(ixp, afi, day))
    }

    /// Remove one snapshot (sanitation).
    pub(crate) fn remove(&mut self, ixp: IxpId, afi: Afi, day: u32) -> Option<Snapshot> {
        self.snapshots.remove(&(ixp, afi, day))
    }

    /// The day-ordered series for one (IXP, family).
    pub fn series(&self, ixp: IxpId, afi: Afi) -> Vec<&Snapshot> {
        self.snapshots
            .range((ixp, afi, 0)..=(ixp, afi, u32::MAX))
            .map(|(_, s)| s)
            .collect()
    }

    /// The latest snapshot for one (IXP, family) — the paper's §4 choice
    /// for the headline analyses.
    pub fn latest(&self, ixp: IxpId, afi: Afi) -> Option<&Snapshot> {
        self.series(ixp, afi).into_iter().next_back()
    }

    /// Total snapshots held.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Iterate all snapshots.
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> {
        self.snapshots.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(day: u32, n_routes: usize) -> Snapshot {
        let routes = (0..n_routes)
            .map(|i| {
                let r = Route::builder(
                    format!("193.{}.{}.0/24", i / 256, i % 256).parse().unwrap(),
                    "198.32.0.7".parse().unwrap(),
                )
                .path([39120, 15169])
                .standard(bgp_model::community::StandardCommunity::from_parts(0, 6939))
                .build();
                (Asn(39120), r)
            })
            .collect();
        Snapshot {
            ixp: IxpId::Linx,
            day,
            afi: Afi::Ipv4,
            members: vec![Asn(39120), Asn(6939)],
            routes,
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn counts() {
        let s = snap(0, 10);
        assert_eq!(s.member_count(), 2);
        assert_eq!(s.route_count(), 10);
        assert_eq!(s.prefix_count(), 10);
        assert_eq!(s.community_instances(), 10);
        assert_eq!(s.announcing_members().len(), 1);
    }

    #[test]
    fn store_series_and_latest() {
        let mut store = SnapshotStore::new();
        for day in [2u32, 0, 1] {
            store.insert(snap(day, day as usize + 1));
        }
        let series = store.series(IxpId::Linx, Afi::Ipv4);
        assert_eq!(
            series.iter().map(|s| s.day).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(store.latest(IxpId::Linx, Afi::Ipv4).unwrap().day, 2);
        assert!(store.series(IxpId::AmsIx, Afi::Ipv4).is_empty());
        assert_eq!(store.len(), 3);
        store.remove(IxpId::Linx, Afi::Ipv4, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let s = snap(3, 4);
        let js = serde_json::to_string(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&js).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn mrt_roundtrip() {
        let s = snap(5, 6);
        let bytes = s.to_mrt().unwrap();
        let back = Snapshot::from_mrt(IxpId::Linx, Afi::Ipv4, bytes).unwrap();
        assert_eq!(back.day, 5);
        assert_eq!(back.route_count(), 6);
        assert_eq!(back.community_instances(), s.community_instances());
        // session-only members are lost in MRT, announcers survive
        assert_eq!(back.members, vec![Asn(39120)]);
    }
}
