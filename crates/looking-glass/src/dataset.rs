//! On-disk dataset layout.
//!
//! The paper releases "a twelve-week dataset containing daily snapshots
//! with over 4 billion community instances and a dictionary containing
//! more than 3000 communities, allowing our results to be fully
//! reproduced". This module writes and reads that artifact:
//!
//! ```text
//! dataset/
//!   index.json                  # what is in here
//!   dictionaries/<ixp>.conf     # RS-config text (community-dict format)
//!   snapshots/<ixp>/<afi>/day-<n>.mrt    # MRT RIB dump
//!   snapshots/<ixp>/<afi>/day-<n>.json   # full snapshot (incl. members)
//! ```

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use bgp_model::prefix::Afi;
use community_dict::config_text;
use community_dict::ixp::IxpId;
use community_dict::schemes;

use crate::snapshot::{Snapshot, SnapshotStore};

/// The dataset index (`index.json`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DatasetIndex {
    /// Human-readable description.
    pub description: String,
    /// Master seed used to generate the world.
    pub seed: u64,
    /// World scale relative to the paper's Table 1.
    pub scale: f64,
    /// Snapshots present, as (ixp, afi, day).
    pub snapshots: Vec<(IxpId, Afi, u32)>,
    /// Total community instances across all snapshots.
    pub community_instances: u64,
}

fn afi_dir(afi: Afi) -> &'static str {
    match afi {
        Afi::Ipv4 => "ipv4",
        Afi::Ipv6 => "ipv6",
    }
}

fn snapshot_paths(root: &Path, ixp: IxpId, afi: Afi, day: u32) -> (PathBuf, PathBuf) {
    let dir = root
        .join("snapshots")
        .join(ixp.short_name())
        .join(afi_dir(afi));
    (
        dir.join(format!("day-{day}.mrt")),
        dir.join(format!("day-{day}.json")),
    )
}

/// Write a snapshot store (plus all eight dictionaries) as a dataset.
pub fn export(
    root: &Path,
    store: &SnapshotStore,
    seed: u64,
    scale: f64,
) -> io::Result<DatasetIndex> {
    fs::create_dir_all(root.join("dictionaries"))?;
    // dictionaries, in the RS-config text format
    for ixp in IxpId::ALL {
        let entries = schemes::rs_config_entries(ixp);
        let text = config_text::render(ixp.rs_asn(), ixp.short_name(), &entries);
        fs::write(
            root.join("dictionaries")
                .join(format!("{}.conf", ixp.short_name())),
            text,
        )?;
    }
    // snapshots, twice: MRT for tooling, JSON for completeness
    let mut index = DatasetIndex {
        description: "Synthetic reproduction dataset for 'Light, Camera, Actions' (CoNEXT'22)"
            .into(),
        seed,
        scale,
        snapshots: Vec::new(),
        community_instances: 0,
    };
    for snap in store.iter() {
        let (mrt_path, json_path) = snapshot_paths(root, snap.ixp, snap.afi, snap.day);
        if let Some(parent) = mrt_path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mrt = snap
            .to_mrt()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(&mrt_path, &mrt)?;
        fs::write(&json_path, serde_json::to_vec(snap)?)?;
        index.snapshots.push((snap.ixp, snap.afi, snap.day));
        index.community_instances += snap.community_instances() as u64;
    }
    fs::write(root.join("index.json"), serde_json::to_vec_pretty(&index)?)?;
    Ok(index)
}

/// Read the dataset index.
pub(crate) fn read_index(root: &Path) -> io::Result<DatasetIndex> {
    let bytes = fs::read(root.join("index.json"))?;
    serde_json::from_slice(&bytes).map_err(io::Error::from)
}

/// Load one snapshot back (from its JSON form, which is lossless).
pub(crate) fn load_snapshot(root: &Path, ixp: IxpId, afi: Afi, day: u32) -> io::Result<Snapshot> {
    let (_, json_path) = snapshot_paths(root, ixp, afi, day);
    let bytes = fs::read(json_path)?;
    serde_json::from_slice(&bytes).map_err(io::Error::from)
}

/// Load the full store back.
pub fn import(root: &Path) -> io::Result<SnapshotStore> {
    let index = read_index(root)?;
    let mut store = SnapshotStore::new();
    for (ixp, afi, day) in index.snapshots {
        store.insert(load_snapshot(root, ixp, afi, day)?);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use bgp_model::route::Route;

    fn sample_store() -> SnapshotStore {
        let mut store = SnapshotStore::new();
        for (ixp, day) in [(IxpId::Linx, 0u32), (IxpId::Linx, 1), (IxpId::Bcix, 0)] {
            let routes = (0..5u8)
                .map(|i| {
                    (
                        Asn(39120),
                        Route::builder(
                            format!("193.0.{i}.0/24").parse().unwrap(),
                            "198.32.0.7".parse().unwrap(),
                        )
                        .path([39120])
                        .standard(schemes::avoid_community(ixp, Asn(6939)))
                        .build(),
                    )
                })
                .collect();
            store.insert(Snapshot {
                ixp,
                day,
                afi: Afi::Ipv4,
                members: vec![Asn(39120), Asn(6939)],
                routes,
                partial: false,
                failed_peers: vec![],
            });
        }
        store
    }

    #[test]
    fn export_import_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ixp-dataset-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = sample_store();
        let index = export(&dir, &store, 7, 0.05).unwrap();
        assert_eq!(index.snapshots.len(), 3);
        assert_eq!(index.community_instances, 15);

        // dictionaries written for all eight IXPs, parseable
        for ixp in IxpId::ALL {
            let text = fs::read_to_string(
                dir.join("dictionaries")
                    .join(format!("{}.conf", ixp.short_name())),
            )
            .unwrap();
            let entries = config_text::parse(&text).unwrap();
            assert!(!entries.is_empty(), "{ixp}");
        }

        // full round trip
        let back = import(&dir).unwrap();
        assert_eq!(back.len(), store.len());
        assert_eq!(
            back.get(IxpId::Linx, Afi::Ipv4, 1),
            store.get(IxpId::Linx, Afi::Ipv4, 1)
        );

        // MRT sidecar decodes too
        let (mrt_path, _) = snapshot_paths(&dir, IxpId::Linx, Afi::Ipv4, 0);
        let mrt = fs::read(mrt_path).unwrap();
        let snap = Snapshot::from_mrt(IxpId::Linx, Afi::Ipv4, mrt.into()).unwrap();
        assert_eq!(snap.route_count(), 5);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dataset_errors() {
        let dir = std::env::temp_dir().join("ixp-dataset-missing");
        assert!(read_index(&dir).is_err());
        assert!(import(&dir).is_err());
    }
}
