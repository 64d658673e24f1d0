//! `longitudinal_stream` — the same timeline shape through the other
//! path: every day the feed is drained into a `RouterState` with the
//! incremental engine attached, and the day's report is finalized from
//! the engine. The batch analysis does nothing here. Items are feed
//! events applied.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use analysis::incremental::IncrementalReport;
use analysis::summary::full_report;
use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;
use looking_glass::clock::VirtualClock;
use looking_glass::server::LgServer;
use looking_glass::snapshot::{Snapshot, SnapshotStore};
use route_server::server::RouteServer;
use stream::collector::StreamCollector;
use stream::state::RouterState;

use super::{
    classify_probe, fnv1a, Ops, Params, Summary, TimedConsumer, TimedTransport, Timeline, Workload,
    DAY_MS, FNV_OFFSET,
};
use crate::trace::Tracer;

pub const NAME: &str = "longitudinal_stream";

pub struct LongitudinalStream;

pub struct Artifacts {
    /// Kept so that tearing them down is not inside the timed region.
    _teardown: (LgServer, RouterState, IncrementalReport),
    last_report_json: String,
    snapshots: Vec<Snapshot>,
    /// Every day's report JSON, chained.
    fingerprint: u64,
}

impl Workload for LongitudinalStream {
    type Inputs = Timeline;
    type Staged = Arc<RwLock<RouteServer>>;
    type Artifacts = Artifacts;

    fn params(tiny: bool) -> Params {
        Params {
            ixps: vec![IxpId::DeCixFra.short_name().to_string()],
            scale: if tiny { 0.002 } else { 0.03 },
            days: if tiny { 12 } else { 84 },
            churn_per_day: 0.05,
            rounds: 0,
            item: "feed events applied".into(),
        }
    }

    fn prepare(params: &Params, seed: u64, tr: &Tracer) -> Timeline {
        Timeline::prepare(params, seed, tr)
    }

    fn stage(inputs: &Timeline) -> Arc<RwLock<RouteServer>> {
        Arc::new(RwLock::new(inputs.rs.clone()))
    }

    fn run(
        inputs: &Timeline,
        rs: Arc<RwLock<RouteServer>>,
        tr: &Tracer,
        ops: &mut Ops,
    ) -> (Summary, Artifacts) {
        let lg = LgServer::new(Arc::clone(&rs), inputs.seed ^ 0x16_5EED);
        let collector = StreamCollector::default();
        let clock = VirtualClock::new(0);
        let mut state = RouterState::new(inputs.ixp);
        let mut engine = IncrementalReport::new(&inputs.dicts);
        let units = [(inputs.ixp, Afi::Ipv4), (inputs.ixp, Afi::Ipv6)];
        let mut day_ms = Vec::with_capacity(inputs.days as usize);
        let mut finalize_ms = Vec::with_capacity(inputs.days as usize);
        let mut fingerprint = FNV_OFFSET;
        let (mut polls, mut churn_events, mut json_bytes) = (0u64, 0u64, 0u64);
        let mut last_report_json = String::new();

        for day in 0..inputs.days {
            churn_events += tr.span("route-server.churn", || {
                inputs.plan.apply(&mut rs.write(), day as usize)
            });
            let day_start = Instant::now();
            clock.advance_to(u64::from(day) * DAY_MS);
            let mut plain = &lg;
            let mut transport = TimedTransport::new(&mut plain, tr, "stream.serve");
            let mut consumer = TimedConsumer {
                inner: &mut engine,
                tr,
                name: "analysis.incremental_apply",
            };
            let drained = tr.span("stream.drain", || {
                collector.drain_with_clock_into(&mut state, &mut transport, &clock, &mut consumer)
            });
            ops.attempt(1);
            match drained {
                Ok(d) => polls += d.polls,
                Err(e) => ops.fail(format!("day {day}: drain failed: {e:?}")),
            }
            let finalize_start = Instant::now();
            let report = tr.span("analysis.incremental_finalize", || {
                engine.report_units(&units, day)
            });
            finalize_ms.push(finalize_start.elapsed().as_secs_f64() * 1000.0);
            let json = tr.span("render.report_json", || {
                serde_json::to_string(&report).expect("a report serializes")
            });
            day_ms.push(day_start.elapsed().as_secs_f64() * 1000.0);
            json_bytes += json.len() as u64;
            fingerprint = fnv1a(json.as_bytes(), fingerprint);
            last_report_json = json;
        }

        // the dataset the timeline leaves behind
        let last_day = inputs.days - 1;
        let snapshots = tr.span("stream.to_snapshot", || {
            vec![
                state.to_snapshot(Afi::Ipv4, last_day),
                state.to_snapshot(Afi::Ipv6, last_day),
            ]
        });

        let stats = state.stats();
        let summary = Summary {
            items: stats.applied,
            day_ms,
            counts: vec![
                (
                    "ixp-sim.routes_built_n",
                    inputs.rs.accepted().route_count() as f64,
                ),
                ("route-server.churn_events_n", churn_events as f64),
                ("stream.events_n", stats.applied as f64),
                ("stream.polls_n", polls as f64),
                ("stream.resyncs_n", stats.resyncs as f64),
                ("stream.dupes_n", stats.dupes_dropped as f64),
                ("stream.feed_frames_n", lg.stream_frames_minted() as f64),
                (
                    "analysis.incremental_deltas_n",
                    engine.deltas_applied() as f64,
                ),
                (
                    "analysis.incremental_finalize_ms_p50",
                    crate::stats::median(&finalize_ms),
                ),
                ("render.report_json_bytes_n", json_bytes as f64),
            ],
        };
        (
            summary,
            Artifacts {
                _teardown: (lg, state, engine),
                last_report_json,
                snapshots,
                fingerprint,
            },
        )
    }

    /// The last day's incremental report must byte-equal the batch
    /// `full_report` over the streamed state's snapshots.
    fn verify(inputs: &Timeline, a: &Artifacts, ops: &mut Ops) {
        let mut store = SnapshotStore::new();
        for snapshot in &a.snapshots {
            store.insert(snapshot.clone());
        }
        let batch = serde_json::to_string(&full_report(&store, &inputs.dicts))
            .expect("a report serializes");
        ops.check(batch == a.last_report_json, || {
            "last day's incremental report differs from the batch report".into()
        });
    }

    fn fingerprint(a: &Artifacts) -> u64 {
        a.fingerprint
    }

    fn probe(inputs: &Timeline, a: &Artifacts) -> Vec<(&'static str, f64)> {
        let routes = a.snapshots[0].routes.iter().map(|(_, r)| r);
        vec![classify_probe(&inputs.dicts[0].1, routes)]
    }
}
