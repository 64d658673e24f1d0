//! Property tests for the action-policy engine: the route server must
//! honour every combination of action communities.

use std::sync::Arc;

use bgp_model::asn::Asn;
use bgp_model::community::well_known;
use bgp_model::route::Route;
use community_dict::classify::{classify_extended, classify_large};
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use prop::{assert_holds, CheckConfig, Choices};
use route_server::prelude::*;

/// Every property here runs 128 cases.
const CASES: CheckConfig = CheckConfig::new(0x9011, 128);

const IXP: IxpId = IxpId::DeCixFra;

/// A pool of candidate peers (all 16-bit, non-bogon, mutually distinct).
const PEERS: [u32; 6] = [39120, 6939, 15169, 13335, 20940, 2906];

#[derive(Debug, Clone, Default)]
struct ActionSpec {
    avoid: Vec<usize>, // indexes into PEERS
    only: Vec<usize>,  // indexes into PEERS
    avoid_all: bool,
    announce_all: bool,
    prepend: Option<(usize, u8)>,
}

fn gen_spec(c: &mut Choices) -> ActionSpec {
    // 0..4 indexes into PEERS each
    let gen_peer = |c: &mut Choices| c.draw(PEERS.len() as u64 - 1) as usize;
    ActionSpec {
        avoid: c.draw_list(3, 600, gen_peer),
        only: c.draw_list(3, 600, gen_peer),
        avoid_all: c.draw_bool(500),
        announce_all: c.draw_bool(500),
        // prepend 1..=3 times
        prepend: c.draw_bool(500).then(|| (gen_peer(c), 1 + c.draw(2) as u8)),
    }
}

fn build_route(announcer: Asn, spec: &ActionSpec) -> Route {
    let mut b = Route::builder(
        "193.0.10.0/24".parse().unwrap(),
        "198.32.0.7".parse().unwrap(),
    )
    .path([announcer.value(), 50_000]);
    for &i in &spec.avoid {
        b = b.standard(schemes::avoid_community(IXP, Asn(PEERS[i])));
    }
    for &i in &spec.only {
        b = b.standard(schemes::only_community(IXP, Asn(PEERS[i])));
    }
    if spec.avoid_all {
        b = b.standard(schemes::avoid_all_community(IXP));
    }
    if spec.announce_all {
        b = b.standard(schemes::announce_all_community(IXP));
    }
    if let Some((i, n)) = spec.prepend {
        b = b.standard(schemes::prepend_community(IXP, Asn(PEERS[i]), n).unwrap());
    }
    b.build()
}

fn server_with_peers(announcer: Asn) -> RouteServer {
    server_with_config(RsConfig::for_ixp(IXP), &[announcer])
}

fn server_with_config(config: RsConfig, announcers: &[Asn]) -> RouteServer {
    let mut rs = RouteServer::new(config);
    for a in announcers.iter().copied().chain(PEERS.map(Asn)) {
        rs.add_member(a, true, false);
    }
    rs
}

/// What `export_to(peer)` must return, worked out from the RIB alone and
/// the slow way: per stored route a fresh digest, a clone, the prepend,
/// then an in-place scrub that drops every community classified as an
/// action (all of them under `All`) and keeps BLACKHOLE on blackhole
/// routes. Shares no code with the server's export forms.
fn reference_export(rs: &RouteServer, peer: Asn) -> Vec<Route> {
    let dict: &Dictionary = rs.dictionary();
    let mut out = Vec::new();
    for (announcer, stored) in rs.accepted().iter() {
        if announcer == peer {
            continue;
        }
        let policy = RoutePolicy::digest(dict, stored);
        let ExportDecision::Allow { prepend } = policy.decide(peer) else {
            continue;
        };
        let mut r = stored.clone();
        r.as_path = r.as_path.prepend(announcer, prepend as usize);
        match rs.config().scrub {
            ScrubPolicy::None => {}
            ScrubPolicy::All => {
                r.scrub_communities();
                if policy.blackhole {
                    r.standard_communities.push(well_known::BLACKHOLE);
                }
            }
            ScrubPolicy::ActionsOnly => {
                r.standard_communities.retain(|c| {
                    (policy.blackhole && c.is_blackhole()) || dict.classify(*c).action().is_none()
                });
                r.extended_communities
                    .retain(|c| classify_extended(IXP, *c).action().is_none());
                r.large_communities
                    .retain(|c| classify_large(IXP, *c).action().is_none());
            }
        }
        out.push(r);
    }
    out
}

/// Every member's export equals the reference, and equals it again when
/// asked a second time (the second answer comes from the kept forms).
fn assert_exports_match_reference(rs: &mut RouteServer) {
    let members: Vec<Asn> = rs.members().map(|m| m.asn).collect();
    for peer in members {
        let expected = reference_export(rs, peer);
        for pass in ["first", "second"] {
            let got: Vec<Route> = rs.export_to(peer).iter().map(|r| Route::clone(r)).collect();
            assert_eq!(got, expected, "{pass} export to {peer}");
        }
    }
}

/// The ground rules, for every combination of actions:
/// 1. an explicitly avoided peer never receives the route;
/// 2. with an only-set and no announce-all, unlisted peers never do;
/// 3. with avoid-all and no announce-all, only only-listed peers do;
/// 4. exported routes carry no action communities (ActionsOnly scrub);
/// 5. prepends grow the path for the target only, never change origin.
#[test]
fn export_respects_all_action_combinations() {
    assert_holds(&CASES, gen_spec, |spec| {
        let announcer = Asn(64000);
        let mut rs = server_with_peers(announcer);
        let route = build_route(announcer, spec);
        assert_eq!(rs.announce(announcer, route), IngestOutcome::Accepted);

        let dict = schemes::dictionary(IXP);
        let avoided: Vec<Asn> = spec.avoid.iter().map(|&i| Asn(PEERS[i])).collect();
        let onlyed: Vec<Asn> = spec.only.iter().map(|&i| Asn(PEERS[i])).collect();

        for p in PEERS {
            let peer = Asn(p);
            let exported = rs.export_to(peer);
            let got = !exported.is_empty();

            // the reference semantics, straight from the docs
            let expected = if avoided.contains(&peer) {
                false
            } else if onlyed.contains(&peer) {
                true
            } else if !onlyed.is_empty() && !spec.announce_all {
                false
            } else {
                // blocked only by an avoid-all with no announce-all override
                !spec.avoid_all || spec.announce_all
            };
            assert_eq!(got, expected, "peer {} spec {:?}", peer, spec);

            if let Some(r) = exported.first() {
                // scrubbed: no action communities survive
                for c in &r.standard_communities {
                    assert!(
                        dict.classify(*c).action().is_none(),
                        "action community {} leaked to {}",
                        c,
                        peer
                    );
                }
                // prepend accounting
                let base_len = 2;
                let expected_prepend = match spec.prepend {
                    Some((i, n)) if Asn(PEERS[i]) == peer => n as usize,
                    _ => 0,
                };
                assert_eq!(
                    r.as_path.path_len(),
                    base_len + expected_prepend,
                    "peer {}",
                    peer
                );
                assert_eq!(r.as_path.first_asn(), Some(announcer));
                assert_eq!(r.as_path.origin_asn(), Some(Asn(50_000)));
            }
        }
        true
    });
}

/// The export plane against its reference, through a route's whole
/// life: two members announce the same prefix, one of them replaces
/// its route with differently tagged ones, withdraws, and leaves. At
/// every step each member's export is the reference's — in
/// particular never a form kept from a route that is gone.
#[test]
fn export_equals_reference_through_replacement_and_withdraw() {
    let gen = |c: &mut Choices| {
        let specs = [gen_spec(c), gen_spec(c), gen_spec(c)];
        let scrubs = [
            ScrubPolicy::ActionsOnly,
            ScrubPolicy::All,
            ScrubPolicy::None,
        ];
        (specs, c.draw_bool(500), scrubs[c.draw(2) as usize])
    };
    assert_holds(
        &CASES,
        gen,
        |([first, other, replacement], blackhole, scrub)| {
            let (a, b) = (Asn(64000), Asn(64001));
            let mut rs = server_with_config(RsConfig::for_ixp(IXP).with_scrub(*scrub), &[a, b]);
            let mut route = build_route(a, first);
            if *blackhole {
                route.standard_communities.push(well_known::BLACKHOLE);
            }
            let prefix = route.prefix;
            assert_eq!(rs.announce(a, route), IngestOutcome::Accepted);
            assert_eq!(
                rs.announce(b, build_route(b, other)),
                IngestOutcome::Accepted
            );
            assert_exports_match_reference(&mut rs);

            assert_eq!(
                rs.announce(a, build_route(a, replacement)),
                IngestOutcome::Accepted
            );
            assert_exports_match_reference(&mut rs);
            // and back, through the wire path
            let update = bgp_wire::convert::routes_to_update(&[build_route(a, first)]);
            assert_eq!(
                rs.ingest_update(a, &update).unwrap(),
                vec![IngestOutcome::Accepted]
            );
            assert_exports_match_reference(&mut rs);

            assert!(rs.withdraw(a, &prefix));
            assert_exports_match_reference(&mut rs);
            assert!(rs.export_to(b).is_empty());
            rs.remove_member(b);
            for p in PEERS {
                assert!(rs.export_to(Asn(p)).is_empty());
            }
            true
        },
    );
}

/// Withdraw after announce always leaves the RS empty for that peer,
/// no matter the communities involved.
#[test]
fn announce_withdraw_is_clean() {
    assert_holds(&CASES, gen_spec, |spec| {
        let announcer = Asn(64000);
        let mut rs = server_with_peers(announcer);
        let route = build_route(announcer, spec);
        let prefix = route.prefix;
        rs.announce(announcer, route);
        assert!(rs.withdraw(announcer, &prefix));
        for p in PEERS {
            assert!(rs.export_to(Asn(p)).is_empty());
        }
        assert_eq!(rs.accepted().route_count(), 0);
        true
    });
}

/// The policy digest is a pure function: digesting the same route
/// twice gives the same decisions.
#[test]
fn digest_is_deterministic() {
    assert_holds(&CASES, gen_spec, |spec| {
        let dict = schemes::dictionary(IXP);
        let route = build_route(Asn(64000), spec);
        let a = RoutePolicy::digest(&dict, &route);
        let b = RoutePolicy::digest(&dict, &route);
        assert_eq!(&a, &b);
        for p in PEERS {
            assert_eq!(a.decide(Asn(p)), b.decide(Asn(p)));
        }
        true
    });
}

/// The two sides of the scrub function's `None`/`Some` edge under
/// `ScrubPolicy::All`, with no informational tags in the way: a route
/// without communities is exported as the RIB holds it, a blackhole route
/// whose only community is BLACKHOLE is rebuilt around the RFC 7999 signal
/// and reads the same.
#[test]
fn scrub_all_edge_between_unchanged_and_rebuilt() {
    let announcer = Asn(64000);
    let config = RsConfig::for_ixp(IXP)
        .with_scrub(ScrubPolicy::All)
        .with_info_tags(0);
    let spec = ActionSpec::default();

    let mut rs = server_with_config(config.clone(), &[announcer]);
    let plain = build_route(announcer, &spec);
    assert_eq!(
        rs.announce(announcer, plain.clone()),
        IngestOutcome::Accepted
    );
    let exported = rs.export_to(Asn(PEERS[0]));
    let stored = rs.accepted().peer(announcer).unwrap();
    assert!(Arc::ptr_eq(
        &exported[0],
        stored.get_shared(&plain.prefix).unwrap()
    ));
    assert_exports_match_reference(&mut rs);

    let mut rs = server_with_config(config, &[announcer]);
    let mut blackhole = plain;
    blackhole.standard_communities.push(well_known::BLACKHOLE);
    assert_eq!(rs.announce(announcer, blackhole), IngestOutcome::Accepted);
    let exported = rs.export_to(Asn(PEERS[0]));
    assert_eq!(exported[0].standard_communities, [well_known::BLACKHOLE]);
    assert_eq!(exported[0].next_hop, rs.config().blackhole_next_hop_v4);
    assert_exports_match_reference(&mut rs);
}
