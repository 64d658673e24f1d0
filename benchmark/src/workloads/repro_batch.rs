//! `repro_batch` — the paper's one-shot evaluation. Everything is inside
//! the timed region: dictionaries, `build_world` for the big four,
//! in-process collection of both families, the batch `full_report`, and
//! the JSON render. Items are routes analysed.

use std::sync::Arc;

use parking_lot::RwLock;

use analysis::summary::{full_report, FullReport};
use bgp_model::prefix::Afi;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use ixp_sim::world::{build_world, WorldConfig};
use looking_glass::client::Collector;
use looking_glass::server::LgServer;
use looking_glass::snapshot::SnapshotStore;
use route_server::server::RouteServer;

use super::{
    classify_probe, fnv1a, shuffled, CollectTally, Ops, Params, Summary, TimedTransport, Workload,
    FNV_OFFSET, WORLD_SEED,
};
use crate::trace::Tracer;

pub const NAME: &str = "repro_batch";

pub struct ReproBatch;

pub struct Inputs {
    seed: u64,
    ixps: Vec<IxpId>,
    config: WorldConfig,
}

pub struct Artifacts {
    dicts: Vec<(IxpId, Dictionary)>,
    servers: Vec<Arc<RwLock<RouteServer>>>,
    store: SnapshotStore,
    report: FullReport,
    json: String,
}

impl Workload for ReproBatch {
    type Inputs = Inputs;
    type Staged = ();
    type Artifacts = Artifacts;

    fn params(tiny: bool) -> Params {
        Params {
            ixps: IxpId::BIG_FOUR
                .iter()
                .map(|i| i.short_name().to_string())
                .collect(),
            scale: if tiny { 0.004 } else { 0.04 },
            days: 0,
            churn_per_day: 0.0,
            rounds: 0,
            item: "routes analysed".into(),
        }
    }

    fn prepare(params: &Params, seed: u64, _tr: &Tracer) -> Inputs {
        Inputs {
            seed,
            ixps: params.ixps.iter().map(|n| super::ixp_by_name(n)).collect(),
            config: WorldConfig {
                seed: WORLD_SEED,
                scale: params.scale,
            },
        }
    }

    fn stage(_inputs: &Inputs) {}

    fn run(inputs: &Inputs, _staged: (), tr: &Tracer, ops: &mut Ops) -> (Summary, Artifacts) {
        let dicts: Vec<(IxpId, Dictionary)> = tr.span("community-dict.dictionary_build", || {
            inputs
                .ixps
                .iter()
                .map(|&ixp| (ixp, schemes::dictionary(ixp)))
                .collect()
        });
        let worlds = tr.span("ixp-sim.build_world", || {
            build_world(&inputs.ixps, &inputs.config)
        });
        let routes_built: usize = worlds.iter().map(|w| w.rs.accepted().route_count()).sum();

        let collector = Collector::default();
        let mut store = SnapshotStore::new();
        let mut servers = Vec::with_capacity(worlds.len());
        let mut tally = CollectTally::default();
        // the seed picks the order the LGs and their families are polled in
        for world in shuffled(worlds, inputs.seed) {
            let ixp = world.ixp;
            let rs = Arc::new(RwLock::new(world.rs));
            let lg = LgServer::new(Arc::clone(&rs), inputs.seed ^ (ixp as u64));
            for afi in shuffled(vec![Afi::Ipv4, Afi::Ipv6], inputs.seed ^ (ixp as u64)) {
                // start far enough apart that the LG's bucket refills
                let start = (ixp as u64) * 100_000_000 + (afi as u64) * 50_000_000;
                let mut plain = &lg;
                let mut transport = TimedTransport::new(&mut plain, tr, "looking-glass.serve");
                let collected = tr.span("looking-glass.collect", || {
                    collector.collect(&mut transport, afi, 83, start)
                });
                if let Some(snapshot) = tally.record(format_args!("{ixp}/{afi}"), collected, ops) {
                    store.insert(snapshot);
                }
            }
            servers.push(rs);
        }

        let report = tr.span("analysis.batch_report", || full_report(&store, &dicts));
        let json = tr.span("render.report_json", || {
            serde_json::to_string(&report).expect("a report serializes")
        });

        let mut counts = vec![
            ("ixp-sim.routes_built_n", routes_built as f64),
            ("render.report_json_bytes_n", json.len() as f64),
        ];
        counts.extend(tally.counts());
        let summary = Summary {
            items: tally.routes,
            day_ms: Vec::new(),
            counts,
        };
        (
            summary,
            Artifacts {
                dicts,
                servers,
                store,
                report,
                json,
            },
        )
    }

    /// The collected dataset must be the route servers' ground truth:
    /// every accepted route, under its announcer, in both families.
    fn verify(_inputs: &Inputs, a: &Artifacts, ops: &mut Ops) {
        for rs in &a.servers {
            let rs = rs.read();
            for afi in [Afi::Ipv4, Afi::Ipv6] {
                let truth = rs.accepted().iter().filter(|(_, r)| r.afi() == afi).count();
                let got = a.store.get(rs.ixp(), afi, 83).map(|s| s.route_count());
                ops.check(got == Some(truth), || {
                    format!(
                        "{}/{afi}: snapshot has {got:?} routes, RS {truth}",
                        rs.ixp()
                    )
                });
            }
        }
        ops.check(a.report.snapshots.len() == a.servers.len() * 2, || {
            "report does not cover every (IXP, family)".into()
        });
    }

    fn fingerprint(a: &Artifacts) -> u64 {
        fnv1a(a.json.as_bytes(), FNV_OFFSET)
    }

    fn probe(_inputs: &Inputs, a: &Artifacts) -> Vec<(&'static str, f64)> {
        let (ixp, dict) = &a.dicts[0];
        let routes = a
            .store
            .iter()
            .filter(|s| s.ixp == *ixp)
            .flat_map(|s| s.routes.iter().map(|(_, r)| r));
        vec![classify_probe(dict, routes)]
    }
}
