//! Snapshot sanitation (§3).
//!
//! "We inspect all downloaded data and remove from our dataset the
//! snapshots where we found clear 'valleys' in the number of members
//! and/or prefixes, i.e. dropped at least 30% from the previous day and
//! returned to previous values in subsequent days."

use serde::{Deserialize, Serialize};

use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;

use crate::snapshot::{Snapshot, SnapshotStore};

/// The per-day metrics the valley detector inspects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Day index.
    pub day: u32,
    /// Members with sessions.
    pub members: usize,
    /// Distinct prefixes.
    pub prefixes: usize,
    /// Accepted routes.
    pub routes: usize,
    /// Community instances.
    pub communities: usize,
}

impl SeriesPoint {
    /// Extract the metrics from one snapshot.
    pub(crate) fn from_snapshot(s: &Snapshot) -> Self {
        SeriesPoint {
            day: s.day,
            members: s.member_count(),
            prefixes: s.prefix_count(),
            routes: s.route_count(),
            communities: s.community_instances(),
        }
    }
}

/// Sanitation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SanitizeConfig {
    /// Minimum relative drop that opens a valley (paper: 0.30).
    pub drop_threshold: f64,
    /// Fraction of the pre-drop value that counts as "returned to
    /// previous values".
    pub recovery_threshold: f64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            drop_threshold: 0.30,
            recovery_threshold: 0.90,
        }
    }
}

/// Detect valley days in one metric series. Returns the day indices that
/// sit inside a valley (dropped ≥ threshold vs. the pre-valley level and
/// later recovered).
fn valley_days(values: &[(u32, usize)], config: &SanitizeConfig) -> Vec<u32> {
    let mut bad = Vec::new();
    let mut i = 1;
    while i < values.len() {
        let (_, prev) = values[i - 1];
        let (_, cur) = values[i];
        let dropped = prev > 0 && (cur as f64) < (1.0 - config.drop_threshold) * prev as f64;
        if dropped {
            // find recovery
            if let Some(j) = (i + 1..values.len())
                .find(|&j| values[j].1 as f64 >= config.recovery_threshold * prev as f64)
            {
                for v in &values[i..j] {
                    bad.push(v.0);
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    bad
}

/// Detect the days whose snapshots must be removed for one
/// (IXP, family) series: a valley in members **or** prefixes (§3:
/// "members and/or prefixes").
pub fn detect_bad_days(points: &[SeriesPoint], config: &SanitizeConfig) -> Vec<u32> {
    let members: Vec<(u32, usize)> = points.iter().map(|p| (p.day, p.members)).collect();
    let prefixes: Vec<(u32, usize)> = points.iter().map(|p| (p.day, p.prefixes)).collect();
    let mut bad = valley_days(&members, config);
    bad.extend(valley_days(&prefixes, config));
    bad.sort_unstable();
    bad.dedup();
    bad
}

/// Result of sanitizing a store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SanitationReport {
    /// Snapshots inspected.
    pub inspected: usize,
    /// Snapshots removed, as (ixp, afi, day).
    pub removed: Vec<(IxpId, Afi, u32)>,
}

/// Sanitize a snapshot store in place: remove every valley snapshot.
pub fn sanitize_store(store: &mut SnapshotStore, config: &SanitizeConfig) -> SanitationReport {
    let mut report = SanitationReport {
        inspected: store.len(),
        removed: Vec::new(),
    };
    for ixp in IxpId::ALL {
        for afi in [Afi::Ipv4, Afi::Ipv6] {
            let points: Vec<SeriesPoint> = store
                .series(ixp, afi)
                .iter()
                .map(|s| SeriesPoint::from_snapshot(s))
                .collect();
            if points.len() < 3 {
                continue;
            }
            for day in detect_bad_days(&points, config) {
                store.remove(ixp, afi, day);
                report.removed.push((ixp, afi, day));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(members: &[usize]) -> Vec<SeriesPoint> {
        members
            .iter()
            .enumerate()
            .map(|(i, &m)| SeriesPoint {
                day: i as u32,
                members: m,
                prefixes: 1000,
                routes: 1000,
                communities: 1000,
            })
            .collect()
    }

    #[test]
    fn clean_series_keeps_everything() {
        let p = points(&[100, 98, 101, 99, 100]);
        assert!(detect_bad_days(&p, &SanitizeConfig::default()).is_empty());
    }

    #[test]
    fn single_day_valley_detected() {
        let p = points(&[100, 100, 60, 100, 100]);
        assert_eq!(detect_bad_days(&p, &SanitizeConfig::default()), vec![2]);
    }

    #[test]
    fn multi_day_valley_detected() {
        let p = points(&[100, 55, 58, 99, 100]);
        assert_eq!(detect_bad_days(&p, &SanitizeConfig::default()), vec![1, 2]);
    }

    #[test]
    fn permanent_drop_is_not_a_valley() {
        // real member loss, never recovers: keep the data (§3 requires a
        // return to previous values)
        let p = points(&[100, 60, 58, 59, 61]);
        assert!(detect_bad_days(&p, &SanitizeConfig::default()).is_empty());
    }

    #[test]
    fn shallow_dip_below_threshold_kept() {
        let p = points(&[100, 80, 100]); // 20% < 30%
        assert!(detect_bad_days(&p, &SanitizeConfig::default()).is_empty());
    }

    #[test]
    fn prefix_valley_also_triggers() {
        let mut p = points(&[100, 100, 100, 100]);
        p[1].prefixes = 500; // 50% prefix drop, members steady
        assert_eq!(detect_bad_days(&p, &SanitizeConfig::default()), vec![1]);
    }

    #[test]
    fn sanitize_store_removes_valley_snapshots() {
        use crate::snapshot::Snapshot;
        use bgp_model::asn::Asn;

        let mut store = SnapshotStore::new();
        for day in 0..5u32 {
            let n_members = if day == 2 { 3 } else { 10 };
            store.insert(Snapshot {
                ixp: IxpId::Linx,
                day,
                afi: Afi::Ipv4,
                members: (0..n_members).map(|i| Asn(39000 + i)).collect(),
                routes: vec![],
                partial: day == 2,
                failed_peers: vec![],
            });
        }
        let report = sanitize_store(&mut store, &SanitizeConfig::default());
        assert_eq!(report.inspected, 5);
        assert_eq!(report.removed, vec![(IxpId::Linx, Afi::Ipv4, 2)]);
        assert!(store.get(IxpId::Linx, Afi::Ipv4, 2).is_none());
        assert_eq!(store.len(), 4);
    }
}
