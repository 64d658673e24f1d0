//! `longitudinal_poll` — the paper's twelve-week methodology: every day
//! the route server churns, both families are polled through a flaky
//! Looking Glass on one virtual clock, a batch report is computed and
//! rendered, and at the end the dataset is sanitized. Items are
//! route-days.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use analysis::summary::full_report;
use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;
use looking_glass::client::{Collector, CollectorConfig};
use looking_glass::clock::VirtualClock;
use looking_glass::sanitize::{sanitize_store, SanitizeConfig};
use looking_glass::server::{FailureModel, LgServer};
use looking_glass::snapshot::SnapshotStore;
use route_server::server::RouteServer;

use super::{
    classify_probe, fnv1a, CollectTally, Ops, Params, Summary, TimedTransport, Timeline, Workload,
    DAY_MS, FNV_OFFSET,
};
use crate::trace::Tracer;

pub const NAME: &str = "longitudinal_poll";

pub struct LongitudinalPoll;

pub struct Artifacts {
    store: SnapshotStore,
    rs: Arc<RwLock<RouteServer>>,
    route_days: u64,
    /// Every day's report JSON and the sanitation verdicts, chained.
    fingerprint: u64,
}

impl Workload for LongitudinalPoll {
    type Inputs = Timeline;
    type Staged = Arc<RwLock<RouteServer>>;
    type Artifacts = Artifacts;

    fn params(tiny: bool) -> Params {
        Params {
            ixps: vec![IxpId::DeCixFra.short_name().to_string()],
            scale: if tiny { 0.002 } else { 0.004 },
            days: if tiny { 12 } else { 84 },
            churn_per_day: 0.02,
            rounds: 0,
            item: "route-days".into(),
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
        lg.set_failures(FailureModel::FLAKY);
        // deep enough that a 2% error rate never exhausts the retries
        let collector = Collector::new(CollectorConfig {
            max_retries: 8,
            ..CollectorConfig::default()
        });
        let clock = VirtualClock::new(0);
        let mut store = SnapshotStore::new();
        let mut day_ms = Vec::with_capacity(inputs.days as usize);
        let mut fingerprint = FNV_OFFSET;
        let mut tally = CollectTally::default();
        let (mut churn_events, mut json_bytes) = (0u64, 0u64);

        for day in 0..inputs.days {
            churn_events += tr.span("route-server.churn", || {
                inputs.plan.apply(&mut rs.write(), day as usize)
            });
            let day_start = Instant::now();
            clock.advance_to(u64::from(day) * DAY_MS);
            for afi in [Afi::Ipv4, Afi::Ipv6] {
                let mut plain = &lg;
                let mut transport = TimedTransport::new(&mut plain, tr, "looking-glass.serve");
                let collected = tr.span("looking-glass.collect", || {
                    collector.collect_with_clock(&mut transport, afi, day, &clock)
                });
                if let Some(snapshot) =
                    tally.record(format_args!("day {day}/{afi}"), collected, ops)
                {
                    store.insert(snapshot);
                }
            }
            // `full_report` analyses the latest snapshot per family: today's
            let report = tr.span("analysis.batch_report", || {
                full_report(&store, &inputs.dicts)
            });
            let json = tr.span("render.report_json", || {
                serde_json::to_string(&report).expect("a report serializes")
            });
            day_ms.push(day_start.elapsed().as_secs_f64() * 1000.0);
            json_bytes += json.len() as u64;
            fingerprint = fnv1a(json.as_bytes(), fingerprint);
        }

        let sanitation = tr.span("looking-glass.sanitize", || {
            sanitize_store(&mut store, &SanitizeConfig::default())
        });
        for removed in &sanitation.removed {
            fingerprint = fnv1a(format!("{removed:?}").as_bytes(), fingerprint);
        }

        let mut counts = vec![
            (
                "ixp-sim.routes_built_n",
                inputs.rs.accepted().route_count() as f64,
            ),
            ("route-server.churn_events_n", churn_events as f64),
            (
                "looking-glass.sanitize_removed_n",
                sanitation.removed.len() as f64,
            ),
            ("render.report_json_bytes_n", json_bytes as f64),
        ];
        counts.extend(tally.counts());
        let summary = Summary {
            items: tally.routes,
            day_ms,
            counts,
        };
        (
            summary,
            Artifacts {
                store,
                rs,
                route_days: tally.routes,
                fingerprint,
            },
        )
    }

    /// Churn keeps the table's size, so no day may hold more routes than
    /// the route server does, and sanitation must keep most of a series
    /// that has no outage in it.
    fn verify(inputs: &Timeline, a: &Artifacts, ops: &mut Ops) {
        let held = a.rs.read().accepted().route_count() as u64;
        ops.check(a.route_days <= held * u64::from(inputs.days), || {
            format!(
                "{} route-days exceed {held} routes × {} days",
                a.route_days, inputs.days
            )
        });
        ops.check(
            a.store.series(inputs.ixp, Afi::Ipv4).len() * 2 > inputs.days as usize,
            || "sanitation removed most of the IPv4 series".into(),
        );
    }

    fn fingerprint(a: &Artifacts) -> u64 {
        a.fingerprint
    }

    fn probe(inputs: &Timeline, a: &Artifacts) -> Vec<(&'static str, f64)> {
        let routes = a
            .store
            .latest(inputs.ixp, Afi::Ipv4)
            .into_iter()
            .flat_map(|s| s.routes.iter().map(|(_, r)| r));
        vec![classify_probe(&inputs.dicts[0].1, routes)]
    }
}
