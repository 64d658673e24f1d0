//! `lg_tcp_collect` — collection over the real transport: a LINX world
//! served by `TcpLgServer` on loopback, several rounds of both families
//! over one `TcpLgClient` (one connection, as in the paper's §3) with
//! pacing and the rate limiter opened up, so the time is LG serve + JSON
//! + loopback + parse. Items are routes collected.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::RwLock;

use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;
use looking_glass::client::{Collector, CollectorConfig};
use looking_glass::server::{LgServer, RateLimiter};
use looking_glass::snapshot::Snapshot;
use looking_glass::transport::{TcpLgClient, TcpLgServer};

use super::{
    build_pinned_world, classify_probe, fnv1a, shuffled, CollectTally, Ops, Params, Summary,
    TimedTransport, Workload, FNV_OFFSET,
};
use crate::stats::percentile;
use crate::trace::Tracer;

pub const NAME: &str = "lg_tcp_collect";

pub struct LgTcpCollect;

pub struct Inputs {
    seed: u64,
    rounds: u32,
    routes_built: u64,
    lg: Arc<LgServer>,
    /// Kept for its `Drop`, which stops and joins the server threads.
    _server: TcpLgServer,
    client: RefCell<TcpLgClient>,
}

pub struct Artifacts {
    /// Per round, both families' snapshots in the order collected.
    snapshots: Vec<Snapshot>,
}

fn collector() -> Collector {
    Collector::new(CollectorConfig {
        request_interval_ms: 0,
        ..CollectorConfig::default()
    })
}

/// `Hasher` over FNV-1a, so a snapshot hashes the same in every process.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(bytes, self.0);
    }
}

impl Workload for LgTcpCollect {
    type Inputs = Inputs;
    type Staged = ();
    type Artifacts = Artifacts;

    fn params(tiny: bool) -> Params {
        Params {
            ixps: vec![IxpId::Linx.short_name().to_string()],
            scale: if tiny { 0.005 } else { 0.05 },
            days: 0,
            churn_per_day: 0.0,
            rounds: 2,
            item: "routes collected".into(),
        }
    }

    fn prepare(params: &Params, seed: u64, tr: &Tracer) -> Inputs {
        let ixp = super::ixp_by_name(&params.ixps[0]);
        let world = build_pinned_world(ixp, params.scale, tr);
        let routes_built = world.rs.accepted().route_count() as u64;
        let lg = Arc::new(LgServer::new(Arc::new(RwLock::new(world.rs)), seed));
        lg.set_limiter(RateLimiter::new(u32::MAX, 1e12));
        let server = TcpLgServer::spawn(Arc::clone(&lg)).expect("loopback bind succeeds");
        let client = TcpLgClient::connect(server.addr()).expect("loopback connect succeeds");
        Inputs {
            seed,
            rounds: params.rounds,
            routes_built,
            lg,
            _server: server,
            client: RefCell::new(client),
        }
    }

    fn stage(_inputs: &Inputs) {}

    fn run(inputs: &Inputs, _staged: (), tr: &Tracer, ops: &mut Ops) -> (Summary, Artifacts) {
        let collector = collector();
        let mut client = inputs.client.borrow_mut();
        let mut transport = TimedTransport::new(&mut *client, tr, "looking-glass.serve");
        let mut snapshots = Vec::with_capacity(inputs.rounds as usize * 2);
        let mut tally = CollectTally::default();
        for round in 0..inputs.rounds {
            let families = vec![Afi::Ipv4, Afi::Ipv6];
            for afi in shuffled(families, inputs.seed ^ u64::from(round)) {
                let collected = tr.span("looking-glass.collect", || {
                    collector.collect(&mut transport, afi, round, 0)
                });
                snapshots.extend(tally.record(format_args!("round {round}/{afi}"), collected, ops));
            }
        }
        let mut counts = vec![
            ("ixp-sim.routes_built_n", inputs.routes_built as f64),
            (
                "looking-glass.tcp_req_ms_p50",
                percentile(&transport.latencies_ms, 50.0),
            ),
            (
                "looking-glass.tcp_req_ms_p99",
                percentile(&transport.latencies_ms, 99.0),
            ),
        ];
        counts.extend(tally.counts());
        let summary = Summary {
            items: tally.routes,
            day_ms: Vec::new(),
            counts,
        };
        (summary, Artifacts { snapshots })
    }

    /// Every round's snapshots must equal an in-process collection of
    /// the same server (apart from the day stamp, which is the round).
    fn verify(inputs: &Inputs, a: &Artifacts, ops: &mut Ops) {
        let collector = collector();
        let reference: Vec<Option<Snapshot>> = [Afi::Ipv4, Afi::Ipv6]
            .into_iter()
            .map(|afi| {
                let mut transport = &*inputs.lg;
                collector
                    .collect(&mut transport, afi, 0, 0)
                    .ok()
                    .map(|c| c.snapshot)
            })
            .collect();
        ops.check(a.snapshots.len() == inputs.rounds as usize * 2, || {
            format!("{} snapshots collected", a.snapshots.len())
        });
        for snapshot in &a.snapshots {
            let expected = reference[usize::from(snapshot.afi == Afi::Ipv6)].as_ref();
            let same = expected.is_some_and(|e| {
                e.members == snapshot.members && e.routes == snapshot.routes && !snapshot.partial
            });
            ops.check(same, || {
                format!(
                    "round {}/{}: differs from the in-process collection",
                    snapshot.day, snapshot.afi
                )
            });
        }
    }

    fn fingerprint(a: &Artifacts) -> u64 {
        let mut h = Fnv(FNV_OFFSET);
        for snapshot in &a.snapshots {
            snapshot.members.hash(&mut h);
            for (peer, route) in &snapshot.routes {
                peer.hash(&mut h);
                route.prefix.hash(&mut h);
                route.community_count().hash(&mut h);
            }
        }
        h.finish()
    }

    fn probe(inputs: &Inputs, a: &Artifacts) -> Vec<(&'static str, f64)> {
        let rs = inputs.lg.route_server();
        let rs = rs.read();
        let routes = a
            .snapshots
            .first()
            .into_iter()
            .flat_map(|s| s.routes.iter().map(|(_, r)| r));
        vec![classify_probe(rs.dictionary(), routes)]
    }
}
