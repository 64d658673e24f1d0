//! Every metric the benchmark reports, by name, with its unit. The
//! lists here and in `/BENCHMARK.json` are the same (the smoke test
//! compares them).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the baseline's median by which
/// it may worsen before `compare` calls it `worse`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Listed under `end_to_end` in `/BENCHMARK.json`. The other two are
    /// reported by `all` and judged by `compare` only: `day_ms_p95`
    /// exists on the two timelines alone and `failed_frac` is 0 on a
    /// healthy run, and the driver wants every end-to-end metric on every
    /// workload and never 0.
    pub gated_by_driver: bool,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "day_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        gated_by_driver: false,
    },
    EndToEnd {
        name: "failed_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        gated_by_driver: false,
    },
];

/// Per-layer metrics: `_s` busy seconds per repetition (set-up spans
/// added once), `_n` counts per repetition. 0 where a workload does not
/// touch the layer.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("ixp-sim.build_world_s", "s"),
    ("ixp-sim.routes_built_n", "count"),
    ("community-dict.dictionary_build_s", "s"),
    ("community-dict.classify_ns_per_community", "ns"),
    ("bgp-wire.decode_s", "s"),
    ("bgp-wire.encode_s", "s"),
    ("bgp-wire.mrt_encode_s", "s"),
    ("bgp-wire.mrt_decode_s", "s"),
    ("bgp-wire.bytes_n", "count"),
    ("bgp-wire.updates_n", "count"),
    ("bgp-wire.decode_err_n", "count"),
    ("route-server.ingest_s", "s"),
    ("route-server.ingest_routes_n", "count"),
    ("route-server.rejected_n", "count"),
    ("route-server.export_s", "s"),
    ("route-server.export_routes_n", "count"),
    ("route-server.churn_s", "s"),
    ("route-server.churn_events_n", "count"),
    ("looking-glass.collect_s", "s"),
    ("looking-glass.serve_s", "s"),
    ("looking-glass.collector_self_s", "s"),
    ("looking-glass.requests_n", "count"),
    ("looking-glass.retries_n", "count"),
    ("looking-glass.partial_n", "count"),
    ("looking-glass.tcp_req_ms_p50", "ms"),
    ("looking-glass.tcp_req_ms_p99", "ms"),
    ("looking-glass.sanitize_s", "s"),
    ("looking-glass.sanitize_removed_n", "count"),
    ("stream.drain_s", "s"),
    ("stream.serve_s", "s"),
    ("stream.apply_self_s", "s"),
    ("stream.events_n", "count"),
    ("stream.polls_n", "count"),
    ("stream.resyncs_n", "count"),
    ("stream.dupes_n", "count"),
    ("stream.to_snapshot_s", "s"),
    ("stream.feed_frames_n", "count"),
    ("analysis.batch_report_s", "s"),
    ("analysis.batch_ns_per_route", "ns"),
    ("analysis.incremental_apply_s", "s"),
    ("analysis.incremental_deltas_n", "count"),
    ("analysis.incremental_finalize_s", "s"),
    ("analysis.incremental_finalize_ms_p50", "ms"),
    ("render.report_json_s", "s"),
    ("render.report_json_bytes_n", "count"),
    ("par.threads_n", "count"),
    ("par.speedup", "ratio"),
    ("proc.cpu_s", "s"),
    ("proc.trace_overhead_frac", "ratio"),
    ("proc.unattributed_frac", "ratio"),
    ("day_ms_p95", "ms"),
    ("proc.wall_traced_s", "s"),
];

/// Work counts and `par.speedup` are better higher; times, failure
/// counts, overheads and residuals better lower.
pub fn layer_better(name: &str) -> Better {
    const FAILURES: [&str; 7] = [
        "bgp-wire.decode_err_n",
        "route-server.rejected_n",
        "looking-glass.retries_n",
        "looking-glass.partial_n",
        "looking-glass.sanitize_removed_n",
        "stream.resyncs_n",
        "stream.dupes_n",
    ];
    if name == "par.speedup" || (name.ends_with("_n") && !FAILURES.contains(&name)) {
        Better::Higher
    } else {
        Better::Lower
    }
}
