//! The central registry of every metric and span name in the workspace.
//!
//! Instrument names are part of the telemetry contract: dashboards, the
//! `telemetry.json` report and `tests/obs_regression.rs` all key on them.
//! Scattering string literals across crates made renames silently break
//! that contract, so every name lives here as a constant and call sites
//! mint handles through these constants only. The `staticheck` workspace
//! linter (diagnostic `SC103`) rejects any string literal passed directly
//! to [`Registry::counter`](crate::Registry::counter) /
//! [`gauge`](crate::Registry::gauge) / [`histogram`](crate::Registry::histogram)
//! / [`span`](crate::Registry::span) outside this crate.
//!
//! Naming convention: `<subsystem>.<noun>[.<qualifier>]`, lowercase with
//! underscores inside segments (`rs.routes_filtered.bogon_prefix`). The
//! [`ALL`] index lists every static name; dynamic families (per-reason
//! filter counters, per-experiment repro stages) are derived through the
//! helper functions below so their prefixes stay registered.
//!
//! Units: a histogram records nanoseconds unless its name ends in `_ms`;
//! then it records milliseconds, e.g. the virtual-clock durations
//! [`LG_CLIENT_COLLECT_MS`] and [`CHAOS_VIRTUAL_MS`]. Reports take the
//! unit from the name ([`records_ms`]), so a span — always nanoseconds —
//! must never be opened under an `_ms` name.

// --- bgp-wire: codec hot paths ---

/// Complete messages encoded to wire bytes.
pub const WIRE_MSGS_ENCODED: &str = "wire.msgs_encoded";
/// Wire bytes produced by encoding (headers included).
pub const WIRE_BYTES_ENCODED: &str = "wire.bytes_encoded";
/// Complete messages decoded from wire bytes.
pub const WIRE_MSGS_DECODED: &str = "wire.msgs_decoded";
/// Wire bytes consumed by successful decodes.
pub const WIRE_BYTES_DECODED: &str = "wire.bytes_decoded";
/// Decode attempts that failed with a `WireError`.
pub const WIRE_DECODE_ERRORS: &str = "wire.decode_errors";
/// RIB entries written into MRT-style snapshots.
pub const WIRE_MRT_ENTRIES_ENCODED: &str = "wire.mrt_entries_encoded";
/// RIB entries read back out of MRT-style snapshots.
pub const WIRE_MRT_ENTRIES_DECODED: &str = "wire.mrt_entries_decoded";

// --- route-server ---

/// UPDATE messages ingested.
pub const RS_UPDATES_PROCESSED: &str = "rs.updates_processed";
/// Routes accepted by the import filters.
pub const RS_ROUTES_ACCEPTED: &str = "rs.routes_accepted";
/// Routes withdrawn.
pub const RS_ROUTES_WITHDRAWN: &str = "rs.routes_withdrawn";
/// Routes rejected on import (total across reasons).
pub const RS_ROUTES_FILTERED: &str = "rs.routes_filtered";
/// Action community instances digested on accepted routes.
pub const RS_ACTION_INSTANCES: &str = "rs.action_instances";
/// Action instances whose single-AS target has a session at the RS.
pub const RS_EFFECTIVE_ACTION_INSTANCES: &str = "rs.effective_action_instances";
/// Action instances whose single-AS target is NOT at the RS (§5.5).
pub const RS_INEFFECTIVE_ACTION_INSTANCES: &str = "rs.ineffective_action_instances";
/// Per-(route, peer) export policy evaluations performed.
pub const RS_EXPORT_EVALUATIONS: &str = "rs.export_evaluations";
/// Communities removed by scrubbing on export, per (route, peer).
pub const RS_SCRUBBED_COMMUNITIES: &str = "rs.scrubbed_communities";
/// Exported routes handed out without building anything (the stored
/// route, or the scrubbed form an earlier export kept).
pub const RS_EXPORT_ROUTES_SHARED: &str = "rs.export_routes_shared";
/// Routes built during an export (a route's first scrub, every prepend).
pub const RS_EXPORT_ROUTES_COPIED: &str = "rs.export_routes_copied";
/// Member sessions currently registered.
pub const RS_MEMBERS: &str = "rs.members";
/// Ingest latency histogram / span.
pub const RS_INGEST_UPDATE: &str = "rs.ingest_update";

/// Per-reason filtered-route counter: `rs.routes_filtered.<slug>`.
pub fn rs_routes_filtered_reason(slug: &str) -> String {
    format!("{RS_ROUTES_FILTERED}.{slug}")
}

// --- looking-glass ---

/// Requests handled by the LG server (any outcome).
pub const LG_REQUESTS: &str = "lg.requests";
/// Requests rejected by the token-bucket rate limiter.
pub const LG_RATE_LIMITED: &str = "lg.rate_limited";
/// Requests failed by the injected failure model.
pub const LG_FAILURES_INJECTED: &str = "lg.failures_injected";
/// Routes pages silently truncated by the failure model.
pub const LG_PAGES_TRUNCATED: &str = "lg.pages_truncated";
/// Wall-clock time to serve one request, nanoseconds.
pub const LG_HANDLE: &str = "lg.handle";
/// Span: serve one TCP-framed request (trace-adopted on the server).
pub const LG_SERVE: &str = "lg.serve";
/// Requests issued by the collector (including retries).
pub const LG_CLIENT_REQUESTS: &str = "lg.client.requests";
/// Transient request failures absorbed by retrying.
pub const LG_CLIENT_RETRIES: &str = "lg.client.retries";
/// Collections that completed with every peer present.
pub const LG_CLIENT_SNAPSHOTS_COMPLETE: &str = "lg.client.snapshots_complete";
/// Collections that completed missing at least one peer.
pub const LG_CLIENT_SNAPSHOTS_PARTIAL: &str = "lg.client.snapshots_partial";
/// Simulated duration of one collection run, milliseconds.
pub const LG_CLIENT_COLLECT_MS: &str = "lg.client.collect_ms";

// --- ixp-sim ---

/// Span: build one IXP world.
pub const SIM_BUILD_IXP: &str = "sim.build_ixp";
/// Span: build all worlds for a scenario.
pub const SIM_BUILD_WORLD: &str = "sim.build_world";
/// Span: run one scenario end to end.
pub const SIM_SCENARIO: &str = "sim.scenario";
/// Span: collect one IXP's snapshots within a scenario.
pub const SIM_COLLECT_IXP: &str = "sim.collect_ixp";
/// Span: generate a full timeline series.
pub const SIM_GENERATE_SERIES: &str = "sim.generate_series";
/// Gauge: the scenario's collection day.
pub const SIM_DAY: &str = "sim.day";
/// Gauge: the day currently being generated in a timeline.
pub const SIM_TIMELINE_DAY: &str = "sim.timeline_day";
/// Timeline data points generated.
pub const SIM_SERIES_POINTS: &str = "sim.series_points";
/// Timeline days skipped by simulated collection outages.
pub const SIM_OUTAGE_DAYS: &str = "sim.outage_days";
/// Span: generate one (IXP, AFI) unit of a timeline series.
pub const SIM_SERIES_UNIT: &str = "sim.series_unit";
/// Snapshots collected by scenario runs.
pub const SIM_SNAPSHOTS_COLLECTED: &str = "sim.snapshots_collected";
/// Collection attempts that failed entirely.
pub const SIM_COLLECTIONS_FAILED: &str = "sim.collections_failed";

// --- chaos: deterministic simulation testing ---

/// Chaotic campaigns run to completion (any verdict).
pub const CHAOS_CAMPAIGNS: &str = "chaos.campaigns";
/// Span: one chaotic campaign (collect → sanitize → analyze → oracles).
pub const CHAOS_CAMPAIGN: &str = "chaos.campaign";
/// Faults injected across all campaigns (all classes).
pub const CHAOS_FAULTS_INJECTED: &str = "chaos.faults_injected";
/// Invariant-oracle violations detected.
pub const CHAOS_ORACLE_VIOLATIONS: &str = "chaos.oracle_violations";
/// Logical milliseconds elapsed on a campaign's virtual clock.
pub const CHAOS_VIRTUAL_MS: &str = "chaos.virtual_ms";
/// Span: one whole chaos corpus (the par fan-out over seeds).
pub const CHAOS_CORPUS: &str = "chaos.corpus";

/// Per-fault-class injection counter: `chaos.faults_injected.<class>`.
pub fn chaos_fault(class: &str) -> String {
    format!("{CHAOS_FAULTS_INJECTED}.{class}")
}

/// Per-seed campaign span: `chaos.seed.<n>`.
pub fn chaos_seed_span(seed: u64) -> String {
    format!("chaos.seed.{seed}")
}

// --- par: deterministic parallel executor ---

/// Tasks executed by `par::map_indexed` (serial fallback included).
pub const PAR_TASKS: &str = "par.tasks";
/// Tasks a worker claimed from another worker's block.
pub const PAR_STEALS: &str = "par.steals";
/// Tasks not yet completed in the current `map_indexed` call.
pub const PAR_QUEUE_DEPTH: &str = "par.queue_depth";
/// Per-task wall time, nanoseconds (aggregate across call sites).
pub const PAR_TASK_NS: &str = "par.task_ns";

/// Per-call-site task-time histogram: `par.task_ns/<enclosing span name>`,
/// e.g. `par.task_ns/sim.scenario`. The site is the span active on the
/// submitting thread, so pool overhead attributes to the pipeline stage
/// that paid it rather than one undifferentiated bucket.
pub fn par_task_site(site: &str) -> String {
    format!("{PAR_TASK_NS}/{site}")
}

// --- stream: BMP-style live collection ---

/// Update events applied to the incremental state store (post-dedup).
pub const STREAM_UPDATES: &str = "stream.updates";
/// Monitoring-session resyncs the collector performed (reset + replay).
pub const STREAM_RESYNCS: &str = "stream.resyncs";
/// Withdraws synthesized by the state store on peer-down events.
pub const STREAM_SYNTH_WITHDRAWS: &str = "stream.synth_withdraws";
/// Replayed frames skipped by sequence-number dedup.
pub const STREAM_DUPES_DROPPED: &str = "stream.dupes_dropped";
/// Gauge: server-side frames still queued past the collector's cursor.
pub const STREAM_QUEUE_DEPTH: &str = "stream.queue_depth";
/// Poll requests the stream collector issued (retries included).
pub const STREAM_POLLS: &str = "stream.polls";
/// Span: drain one monitoring session to quiescence.
pub const STREAM_DRAIN: &str = "stream.drain";

// --- analysis ---

/// Span: build the full table/figure report.
pub const ANALYSIS_FULL_REPORT: &str = "analysis.full_report";
/// Span: one (IXP, AFI) unit of the report fan-out.
pub const ANALYSIS_REPORT_UNIT: &str = "analysis.report_unit";
/// Span: finalize the incremental engine's aggregates into a report.
pub const ANALYSIS_INCREMENTAL_REPORT: &str = "analysis.incremental.report";
/// Deltas the incremental engine consumed from the stream store.
pub const ANALYSIS_INCREMENTAL_DELTAS: &str = "analysis.incremental.deltas";
/// Retracts the incremental engine was asked to take below zero — 0
/// unless a route was retracted without having been applied.
pub const ANALYSIS_INCREMENTAL_UNDERFLOW: &str = "analysis.incremental.underflow";
/// Histogram: nanoseconds to advance the engine by one day of churn and
/// finalize (recorded by the chaos stream campaign).
pub const ANALYSIS_INCREMENTAL_DAY_NS: &str = "analysis.incremental.day_ns";
/// Histogram: nanoseconds for the batch `full_report` recompute of the
/// same day (the comparison `repro stream` prints).
pub const ANALYSIS_BATCH_DAY_NS: &str = "analysis.batch.day_ns";

// --- repro binary ---

/// Span: build the world inside `repro`.
pub const REPRO_BUILD_WORLD: &str = "repro.build_world";

/// Per-experiment repro stage histogram: `repro.<experiment>`.
pub fn repro_stage(experiment: &str) -> String {
    format!("repro.{experiment}")
}

/// Every statically-named instrument, for exhaustiveness checks.
pub(crate) const ALL: &[&str] = &[
    WIRE_MSGS_ENCODED,
    WIRE_BYTES_ENCODED,
    WIRE_MSGS_DECODED,
    WIRE_BYTES_DECODED,
    WIRE_DECODE_ERRORS,
    WIRE_MRT_ENTRIES_ENCODED,
    WIRE_MRT_ENTRIES_DECODED,
    RS_UPDATES_PROCESSED,
    RS_ROUTES_ACCEPTED,
    RS_ROUTES_WITHDRAWN,
    RS_ROUTES_FILTERED,
    RS_ACTION_INSTANCES,
    RS_EFFECTIVE_ACTION_INSTANCES,
    RS_INEFFECTIVE_ACTION_INSTANCES,
    RS_EXPORT_EVALUATIONS,
    RS_SCRUBBED_COMMUNITIES,
    RS_EXPORT_ROUTES_SHARED,
    RS_EXPORT_ROUTES_COPIED,
    RS_MEMBERS,
    RS_INGEST_UPDATE,
    LG_REQUESTS,
    LG_RATE_LIMITED,
    LG_FAILURES_INJECTED,
    LG_PAGES_TRUNCATED,
    LG_HANDLE,
    LG_SERVE,
    LG_CLIENT_REQUESTS,
    LG_CLIENT_RETRIES,
    LG_CLIENT_SNAPSHOTS_COMPLETE,
    LG_CLIENT_SNAPSHOTS_PARTIAL,
    LG_CLIENT_COLLECT_MS,
    SIM_BUILD_IXP,
    SIM_BUILD_WORLD,
    SIM_SCENARIO,
    SIM_COLLECT_IXP,
    SIM_GENERATE_SERIES,
    SIM_SERIES_UNIT,
    SIM_DAY,
    SIM_TIMELINE_DAY,
    SIM_SERIES_POINTS,
    SIM_OUTAGE_DAYS,
    SIM_SNAPSHOTS_COLLECTED,
    SIM_COLLECTIONS_FAILED,
    CHAOS_CAMPAIGNS,
    CHAOS_CAMPAIGN,
    CHAOS_FAULTS_INJECTED,
    CHAOS_ORACLE_VIOLATIONS,
    CHAOS_VIRTUAL_MS,
    CHAOS_CORPUS,
    STREAM_UPDATES,
    STREAM_RESYNCS,
    STREAM_SYNTH_WITHDRAWS,
    STREAM_DUPES_DROPPED,
    STREAM_QUEUE_DEPTH,
    STREAM_POLLS,
    STREAM_DRAIN,
    PAR_TASKS,
    PAR_STEALS,
    PAR_QUEUE_DEPTH,
    PAR_TASK_NS,
    ANALYSIS_FULL_REPORT,
    ANALYSIS_REPORT_UNIT,
    ANALYSIS_INCREMENTAL_REPORT,
    ANALYSIS_INCREMENTAL_DELTAS,
    ANALYSIS_INCREMENTAL_UNDERFLOW,
    ANALYSIS_INCREMENTAL_DAY_NS,
    ANALYSIS_BATCH_DAY_NS,
    REPRO_BUILD_WORLD,
];

/// Dynamic name-family prefixes (everything minted at runtime starts with
/// one of these followed by a `.`-separated suffix).
pub(crate) const DYNAMIC_PREFIXES: &[&str] = &[
    RS_ROUTES_FILTERED,
    "repro",
    CHAOS_FAULTS_INJECTED,
    "chaos.seed",
];

/// True when histogram `name` records milliseconds, not nanoseconds.
pub(crate) fn records_ms(name: &str) -> bool {
    name.ends_with("_ms")
}

/// True when `name` is registered: a static [`ALL`] entry, an extension
/// of a [`DYNAMIC_PREFIXES`] family, or a [`par_task_site`] name whose
/// site suffix is itself registered.
pub fn is_registered(name: &str) -> bool {
    if ALL.contains(&name)
        || DYNAMIC_PREFIXES.iter().any(|p| {
            name.len() > p.len() + 1 && name.starts_with(p) && name.as_bytes()[p.len()] == b'.'
        })
    {
        return true;
    }
    // the per-site task family: par.task_ns/<registered site name>
    match name.strip_prefix(PAR_TASK_NS) {
        Some(rest) => match rest.strip_prefix('/') {
            Some(site) => !site.is_empty() && is_registered(site),
            None => false,
        },
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_unique() {
        let mut names = ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn all_names_follow_convention() {
        for name in ALL {
            assert!(
                name.split('.').count() >= 2
                    && name.chars().all(|c| c.is_ascii_lowercase()
                        || c.is_ascii_digit()
                        || c == '.'
                        || c == '_'),
                "bad metric name {name:?}"
            );
        }
    }

    #[test]
    fn dynamic_families_register() {
        assert!(is_registered(RS_INGEST_UPDATE));
        assert!(is_registered(&rs_routes_filtered_reason("bogon_prefix")));
        assert!(is_registered(&repro_stage("fig4a")));
        assert!(is_registered(&chaos_fault("drop")));
        assert!(is_registered(&chaos_seed_span(17)));
        // the aggregate itself is a static name...
        assert!(is_registered("rs.routes_filtered"));
        // ...but a bare dynamic prefix or an unknown family is not
        assert!(!is_registered("repro"));
        assert!(!is_registered("repro."));
        assert!(!is_registered("made.up"));
    }

    #[test]
    fn par_task_site_family_registers() {
        assert!(is_registered(&par_task_site(SIM_SCENARIO)));
        assert!(is_registered(&par_task_site(ANALYSIS_FULL_REPORT)));
        // even a dynamic site name is fine, as long as it is registered
        assert!(is_registered(&par_task_site(&chaos_seed_span(3))));
        // ...but an unregistered site, empty site, or bare prefix is not
        assert!(!is_registered(&par_task_site("made.up")));
        assert!(!is_registered(&par_task_site("")));
        assert!(!is_registered("par.task_ns/"));
    }
}
