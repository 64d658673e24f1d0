//! Route-server processing statistics.
//!
//! §5.5's punchline is overhead: action communities targeting ASes not at
//! the RS "are achieving no goal other than unnecessary overheads on the
//! RS". These counters make that overhead measurable.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::filter::FilterReason;

/// Cumulative counters for one route server.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RsStats {
    /// UPDATE messages ingested.
    pub updates_processed: u64,
    /// Routes accepted by the import filters.
    pub routes_accepted: u64,
    /// Routes rejected, by reason.
    pub routes_filtered: BTreeMap<FilterReason, u64>,
    /// Routes withdrawn.
    pub routes_withdrawn: u64,
    /// Action community instances digested on accepted routes.
    pub action_instances: u64,
    /// Action instances whose single-AS target has a session at the RS
    /// (these can change routing).
    pub effective_action_instances: u64,
    /// Action instances whose single-AS target is NOT at the RS — the
    /// §5.5 pure-overhead case.
    pub ineffective_action_instances: u64,
    /// Per-(route, peer) export policy evaluations performed.
    pub export_evaluations: u64,
    /// Communities removed by scrubbing on export, counted per
    /// (route, peer): a route's kept scrubbed form adds its removed count
    /// every time it is handed out.
    pub scrubbed_communities: u64,
    /// Exported routes handed out without building anything: the RIB's
    /// own route, or the scrubbed form an earlier export kept.
    pub export_routes_shared: u64,
    /// Routes built during an export: the first scrub of a route (kept
    /// and shared from then on) and every prepended copy.
    pub export_routes_copied: u64,
}

impl RsStats {
    /// Record one filtered route.
    pub(crate) fn record_filtered(&mut self, reason: FilterReason) {
        *self.routes_filtered.entry(reason).or_insert(0) += 1;
    }

    /// Total filtered routes.
    pub fn filtered_total(&self) -> u64 {
        self.routes_filtered.values().sum()
    }

    /// Fraction of single-AS-targeted action instances that are
    /// ineffective (the §5.5 headline number, from the RS's perspective).
    pub fn ineffective_fraction(&self) -> f64 {
        let total = self.effective_action_instances + self.ineffective_action_instances;
        if total == 0 {
            0.0
        } else {
            self.ineffective_action_instances as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = RsStats::default();
        s.record_filtered(FilterReason::BogonPrefix);
        s.record_filtered(FilterReason::BogonPrefix);
        s.record_filtered(FilterReason::TooSpecific);
        assert_eq!(s.filtered_total(), 3);
        assert_eq!(s.routes_filtered[&FilterReason::BogonPrefix], 2);
    }

    #[test]
    fn ineffective_fraction() {
        let mut s = RsStats::default();
        assert_eq!(s.ineffective_fraction(), 0.0);
        s.effective_action_instances = 60;
        s.ineffective_action_instances = 40;
        assert!((s.ineffective_fraction() - 0.4).abs() < 1e-12);
    }
}
