//! Route-server telemetry: every [`RsStats`](crate::stats::RsStats) counter
//! mirrored onto an [`obs::Registry`], plus ingest/export latency histograms
//! and a member-count gauge.
//!
//! The legacy `RsStats` struct stays the public API (`RouteServer::stats`
//! returns it by reference); this module records the same increments through
//! shared registry handles so the whole pipeline can be observed through one
//! snapshot. `tests/obs_regression.rs` in the workspace root asserts the two
//! bookkeeping paths agree on an identical scenario.

use obs::{names, Counter, Gauge, Histogram, Registry};

use crate::filter::FilterReason;

/// Metric-name slug for one filter reason
/// (`rs.routes_filtered.<slug>` counters).
pub fn filter_reason_slug(reason: FilterReason) -> &'static str {
    match reason {
        FilterReason::BogonPrefix => "bogon_prefix",
        FilterReason::BogonAsn => "bogon_asn",
        FilterReason::PathTooLong => "path_too_long",
        FilterReason::TooSpecific => "too_specific",
        FilterReason::TooBroad => "too_broad",
        FilterReason::RsAsnInPath => "rs_asn_in_path",
        FilterReason::EmptyPath => "empty_path",
        FilterReason::TooManyCommunities => "too_many_communities",
        FilterReason::BlackholeUnsupported => "blackhole_unsupported",
        FilterReason::PrefixLimitExceeded => "prefix_limit_exceeded",
        FilterReason::PolicyRule => "policy_rule",
    }
}

const ALL_REASONS: [FilterReason; 11] = [
    FilterReason::BogonPrefix,
    FilterReason::BogonAsn,
    FilterReason::PathTooLong,
    FilterReason::TooSpecific,
    FilterReason::TooBroad,
    FilterReason::RsAsnInPath,
    FilterReason::EmptyPath,
    FilterReason::TooManyCommunities,
    FilterReason::BlackholeUnsupported,
    FilterReason::PrefixLimitExceeded,
    FilterReason::PolicyRule,
];

const fn reason_index(reason: FilterReason) -> usize {
    // Keep in ALL_REASONS order; the test below cross-checks both stay in sync.
    match reason {
        FilterReason::BogonPrefix => 0,
        FilterReason::BogonAsn => 1,
        FilterReason::PathTooLong => 2,
        FilterReason::TooSpecific => 3,
        FilterReason::TooBroad => 4,
        FilterReason::RsAsnInPath => 5,
        FilterReason::EmptyPath => 6,
        FilterReason::TooManyCommunities => 7,
        FilterReason::BlackholeUnsupported => 8,
        FilterReason::PrefixLimitExceeded => 9,
        FilterReason::PolicyRule => 10,
    }
}

/// Pre-minted registry handles for everything the route server records.
#[derive(Debug, Clone)]
pub(crate) struct RsMetrics {
    pub updates_processed: Counter,
    pub routes_accepted: Counter,
    pub routes_withdrawn: Counter,
    pub routes_filtered_total: Counter,
    pub action_instances: Counter,
    pub effective_action_instances: Counter,
    pub ineffective_action_instances: Counter,
    pub export_evaluations: Counter,
    pub scrubbed_communities: Counter,
    pub export_routes_shared: Counter,
    pub export_routes_copied: Counter,
    pub members: Gauge,
    pub ingest_ns: Histogram,
    filtered: Vec<Counter>,
}

impl RsMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        RsMetrics {
            updates_processed: registry.counter(names::RS_UPDATES_PROCESSED),
            routes_accepted: registry.counter(names::RS_ROUTES_ACCEPTED),
            routes_withdrawn: registry.counter(names::RS_ROUTES_WITHDRAWN),
            routes_filtered_total: registry.counter(names::RS_ROUTES_FILTERED),
            action_instances: registry.counter(names::RS_ACTION_INSTANCES),
            effective_action_instances: registry.counter(names::RS_EFFECTIVE_ACTION_INSTANCES),
            ineffective_action_instances: registry.counter(names::RS_INEFFECTIVE_ACTION_INSTANCES),
            export_evaluations: registry.counter(names::RS_EXPORT_EVALUATIONS),
            scrubbed_communities: registry.counter(names::RS_SCRUBBED_COMMUNITIES),
            export_routes_shared: registry.counter(names::RS_EXPORT_ROUTES_SHARED),
            export_routes_copied: registry.counter(names::RS_EXPORT_ROUTES_COPIED),
            members: registry.gauge(names::RS_MEMBERS),
            ingest_ns: registry.histogram(names::RS_INGEST_UPDATE),
            filtered: ALL_REASONS
                .iter()
                .map(|r| {
                    registry.counter(&names::rs_routes_filtered_reason(filter_reason_slug(*r)))
                })
                .collect(),
        }
    }

    /// Record one filtered route (total + per-reason counters).
    pub(crate) fn record_filtered(&self, reason: FilterReason) {
        self.routes_filtered_total.inc();
        self.filtered[reason_index(reason)].inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_index_matches_all_reasons_order() {
        for (i, reason) in ALL_REASONS.iter().enumerate() {
            assert_eq!(reason_index(*reason), i, "{reason:?}");
        }
    }

    #[test]
    fn every_reason_has_a_distinct_slug_and_counter() {
        let mut slugs: Vec<&str> = ALL_REASONS.iter().map(|r| filter_reason_slug(*r)).collect();
        slugs.sort();
        slugs.dedup();
        assert_eq!(slugs.len(), ALL_REASONS.len());

        let registry = Registry::new();
        let metrics = RsMetrics::new(&registry);
        for reason in ALL_REASONS {
            metrics.record_filtered(reason);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["rs.routes_filtered"],
            ALL_REASONS.len() as u64
        );
        for reason in ALL_REASONS {
            let name = names::rs_routes_filtered_reason(filter_reason_slug(reason));
            assert_eq!(snap.counters[&name], 1, "{name}");
        }
    }
}
