//! `wire_ingest` — routes enter the route server as bytes. Set-up builds
//! an IX.br world and encodes every member's routes as one UPDATE
//! stream per member, adding for one route in 64 a too-specific
//! more-specific the import filter must reject (the simulated world
//! announces nothing that is filtered); the timed region decodes and
//! ingests them into a fresh route server, exports to the first eight
//! members, re-encodes one export, and round-trips the RIB through MRT.
//! Items are UPDATEs ingested.

use bytes::{Bytes, BytesMut};

use bgp_model::asn::Asn;
use bgp_model::prefix::Prefix;
use bgp_model::route::Route;
use bgp_wire::convert::{routes_to_updates, update_to_routes};
use bgp_wire::message::{Message, UpdateMessage};
use bgp_wire::mrt::MrtRibDump;
use community_dict::ixp::IxpId;
use route_server::server::{IngestOutcome, Member, RouteServer};

use super::{
    build_pinned_world, classify_probe, fnv1a, rib_keys, Ops, Params, Summary, Workload, FNV_OFFSET,
};
use crate::trace::Tracer;

pub const NAME: &str = "wire_ingest";

/// One route in this many is also sent as a too-specific more-specific.
const LEAK_EVERY: usize = 64;

/// Members the export RIB is computed for.
const EXPORT_PEERS: usize = 8;

pub struct WireIngest;

pub struct Inputs {
    ixp: IxpId,
    members: Vec<Member>,
    /// Per member, its UPDATEs before encoding (the reference feeds
    /// these through `announce`) and the same UPDATEs as one byte stream.
    streams: Vec<(Asn, Vec<UpdateMessage>, Bytes)>,
    routes_sent: u64,
    routes_built: u64,
}

pub struct Artifacts {
    rs: RouteServer,
    accepted: u64,
    rejected: u64,
    /// The first member's export, re-encoded.
    export_frames: Vec<Bytes>,
    mrt: Bytes,
    mrt_routes: u64,
}

fn fresh_rs(ixp: IxpId, members: &[Member]) -> RouteServer {
    let mut rs = RouteServer::for_ixp(ixp);
    for m in members {
        rs.add_member(m.asn, m.ipv4, m.ipv6);
    }
    rs
}

impl Workload for WireIngest {
    type Inputs = Inputs;
    type Staged = ();
    type Artifacts = Artifacts;

    fn params(tiny: bool) -> Params {
        Params {
            ixps: vec![IxpId::IxBrSp.short_name().to_string()],
            scale: if tiny { 0.005 } else { 0.12 },
            days: 0,
            churn_per_day: 0.0,
            rounds: 0,
            item: "UPDATEs ingested".into(),
        }
    }

    fn prepare(params: &Params, seed: u64, tr: &Tracer) -> Inputs {
        let ixp = super::ixp_by_name(&params.ixps[0]);
        let world = build_pinned_world(ixp, params.scale, tr);
        let members: Vec<Member> = world.rs.members().copied().collect();
        let mut routes_sent = 0u64;
        // Sessions deliver in member order: a seeded order moved `wall_s`
        // by 4.5% between seeds (allocation order decides how the export
        // walk hits the cache). The seed picks the leaks.
        let streams = tr.span("bgp-wire.encode", || {
            members
                .iter()
                .filter_map(|m| {
                    let mut routes: Vec<Route> = world
                        .rs
                        .accepted()
                        .peer(m.asn)
                        .map(|t| t.iter().cloned().collect())
                        .unwrap_or_default();
                    let leaks: Vec<Route> = routes
                        .iter()
                        .skip((seed ^ u64::from(m.asn.value())) as usize % LEAK_EVERY)
                        .step_by(LEAK_EVERY)
                        .map(|r| Route {
                            prefix: Prefix::new_clamped(r.prefix.addr(), r.prefix.len() + 4),
                            ..r.clone()
                        })
                        .collect();
                    routes.extend(leaks);
                    if routes.is_empty() {
                        return None;
                    }
                    routes_sent += routes.len() as u64;
                    let updates = routes_to_updates(&routes);
                    let mut wire = BytesMut::new();
                    for update in &updates {
                        let frame = Message::Update(update.clone())
                            .encode()
                            .expect("routes_to_updates keeps every UPDATE within 4096 bytes");
                        wire.extend_from_slice(&frame);
                    }
                    Some((m.asn, updates, wire.freeze()))
                })
                .collect()
        });
        Inputs {
            ixp,
            members,
            streams,
            routes_sent,
            routes_built: world.rs.accepted().route_count() as u64,
        }
    }

    fn stage(_inputs: &Inputs) {}

    fn run(inputs: &Inputs, _staged: (), tr: &Tracer, ops: &mut Ops) -> (Summary, Artifacts) {
        let mut rs = tr.span("route-server.ingest", || {
            fresh_rs(inputs.ixp, &inputs.members)
        });
        let (mut updates, mut bytes, mut decode_errors) = (0u64, 0u64, 0u64);
        let (mut accepted, mut rejected) = (0u64, 0u64);
        for (peer, _, wire) in &inputs.streams {
            bytes += wire.len() as u64;
            let mut buf = tr.busy("bgp-wire.decode", || BytesMut::from(&wire[..]));
            loop {
                let update = match tr.busy("bgp-wire.decode", || Message::decode(&mut buf)) {
                    Ok(None) => break,
                    Ok(Some(Message::Update(update))) => update,
                    Ok(Some(_)) => continue,
                    Err(e) => {
                        ops.attempt(1);
                        decode_errors += 1;
                        ops.fail(format!("AS{}: decode failed: {e:?}", peer.value()));
                        break;
                    }
                };
                ops.attempt(1);
                updates += 1;
                // the UPDATE is consumed: its drop is part of the ingest
                match tr.busy("route-server.ingest", || {
                    let update = update;
                    rs.ingest_update(*peer, &update)
                }) {
                    Ok(outcomes) => {
                        for outcome in outcomes {
                            match outcome {
                                IngestOutcome::Accepted => accepted += 1,
                                _ => rejected += 1,
                            }
                        }
                    }
                    Err(e) => ops.fail(format!("AS{}: ingest failed: {e:?}", peer.value())),
                }
            }
        }

        let mut exported = 0u64;
        let mut first_export = Vec::new();
        for member in inputs.members.iter().take(EXPORT_PEERS) {
            tr.span("route-server.export", || {
                let routes = rs.export_to(member.asn);
                exported += routes.len() as u64;
                if first_export.is_empty() {
                    first_export = routes;
                }
            });
        }
        let export_frames: Vec<Bytes> = tr.span("bgp-wire.encode", || {
            let routes: Vec<Route> = first_export.iter().map(|r| Route::clone(r)).collect();
            drop(first_export);
            let mut frames = Vec::new();
            for update in routes_to_updates(&routes) {
                ops.attempt(1);
                match Message::Update(update).encode() {
                    Ok(frame) => frames.push(frame),
                    Err(e) => ops.fail(format!("export re-encode failed: {e:?}")),
                }
            }
            frames
        });
        bytes += export_frames.iter().map(|f| f.len() as u64).sum::<u64>();

        ops.attempt(2);
        let mrt = tr
            .span("bgp-wire.mrt_encode", || {
                MrtRibDump::from_routes(83, rs.accepted().iter()).encode()
            })
            .unwrap_or_else(|e| {
                ops.fail(format!("MRT encode failed: {e:?}"));
                Bytes::new()
            });
        bytes += mrt.len() as u64;
        let decoded = tr.span("bgp-wire.mrt_decode", || {
            MrtRibDump::decode(mrt.clone()).map(|dump| dump.entry_count() as u64)
        });
        let mrt_routes = match decoded {
            Ok(routes) => routes,
            Err(e) => {
                ops.fail(format!("MRT decode failed: {e:?}"));
                0
            }
        };

        let summary = Summary {
            items: updates,
            day_ms: Vec::new(),
            counts: vec![
                ("ixp-sim.routes_built_n", inputs.routes_built as f64),
                ("bgp-wire.bytes_n", bytes as f64),
                ("bgp-wire.updates_n", updates as f64),
                ("bgp-wire.decode_err_n", decode_errors as f64),
                ("route-server.ingest_routes_n", (accepted + rejected) as f64),
                ("route-server.rejected_n", rejected as f64),
                ("route-server.export_routes_n", exported as f64),
            ],
        };
        (
            summary,
            Artifacts {
                rs,
                accepted,
                rejected,
                export_frames,
                mrt,
                mrt_routes,
            },
        )
    }

    /// Every route sent was accepted or rejected; the RIB holds the same
    /// (peer, prefix) set as a reference route server fed the same routes
    /// through `announce`; the MRT dump carries the whole RIB.
    fn verify(inputs: &Inputs, a: &Artifacts, ops: &mut Ops) {
        ops.check(a.accepted + a.rejected == inputs.routes_sent, || {
            format!(
                "{} accepted + {} rejected != {} routes sent",
                a.accepted, a.rejected, inputs.routes_sent
            )
        });
        let mut reference = fresh_rs(inputs.ixp, &inputs.members);
        for (peer, updates, _) in &inputs.streams {
            for update in updates {
                let content = update_to_routes(update).expect("set-up built this UPDATE");
                for route in content.announced {
                    reference.announce(*peer, route);
                }
            }
        }
        ops.check(rib_keys(&a.rs) == rib_keys(&reference), || {
            "RIB differs from the reference fed through announce".into()
        });
        let held = a.rs.accepted().route_count() as u64;
        ops.check(a.mrt_routes == held, || {
            format!("MRT dump has {} routes, RIB {held}", a.mrt_routes)
        });
    }

    fn fingerprint(a: &Artifacts) -> u64 {
        let frames = a.export_frames.iter().fold(FNV_OFFSET, |h, f| fnv1a(f, h));
        fnv1a(&a.mrt, frames)
    }

    fn probe(_inputs: &Inputs, a: &Artifacts) -> Vec<(&'static str, f64)> {
        let routes = a.rs.accepted().iter().map(|(_, r)| r);
        vec![classify_probe(a.rs.dictionary(), routes)]
    }
}
