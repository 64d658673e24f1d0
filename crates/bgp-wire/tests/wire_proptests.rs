//! Round-trip property tests for the wire codec: arbitrary routes must
//! survive UPDATE encode/decode, UPDATE batching and MRT dump
//! encode/decode bit-exactly, and no byte string may panic a decoder.
//!
//! Generators draw from the `prop` engine's recorded choice streams, so a
//! failure — a `false`, a failed assertion or a decoder panic — shrinks
//! to a minimal route or frame, and its printed choices replay it.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bgp_model::prelude::*;
use bgp_wire::convert::{routes_to_update, routes_to_updates, update_to_routes};
use bgp_wire::message::Message;
use bgp_wire::mrt::MrtRibDump;
use bytes::BytesMut;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use prop::{assert_holds, check, CheckConfig, Choices};

/// Single-route round trips run 192 cases, everything else 128.
const ROUTES: CheckConfig = CheckConfig::new(0x4117E, 192);
const CASES: CheckConfig = CheckConfig::new(0xBA7C4, 128);

/// `Prefix::new` zeroes the host bits, so any address will do.
fn gen_v4_prefix(c: &mut Choices) -> Prefix {
    let len = c.draw(32) as u8;
    Prefix::new(IpAddr::V4(Ipv4Addr::from(gen_u32(c))), len).expect("v4 length in 0..=32")
}

fn gen_v6_prefix(c: &mut Choices) -> Prefix {
    let len = c.draw(128) as u8;
    Prefix::new(IpAddr::V6(Ipv6Addr::from(gen_u128(c))), len).expect("v6 length in 0..=128")
}

fn gen_u128(c: &mut Choices) -> u128 {
    let hi = u128::from(c.draw(u64::MAX)) << 64;
    hi | u128::from(c.draw(u64::MAX))
}

fn gen_u32(c: &mut Choices) -> u32 {
    c.draw(u64::from(u32::MAX)) as u32
}

/// A standard community: mostly arbitrary values, with the interesting
/// corners — action communities (avoid / only / prepend), BLACKHOLE and
/// the other well-known values — drawn explicitly so every run covers
/// them.
fn gen_standard(c: &mut Choices) -> StandardCommunity {
    match c.draw(5) {
        0 => StandardCommunity::from_parts(c.draw(0xFFFF) as u16, c.draw(0xFFFF) as u16),
        1 => schemes::avoid_community(IxpId::DeCixFra, Asn(c.draw(0xFFFF) as u32)),
        2 => schemes::only_community(IxpId::Linx, Asn(c.draw(0xFFFF) as u32)),
        3 => schemes::prepend_community(IxpId::DeCixFra, Asn(c.draw(0xFFFF) as u32), 2)
            .unwrap_or(well_known::NO_EXPORT),
        4 => well_known::BLACKHOLE,
        _ => well_known::GRACEFUL_SHUTDOWN,
    }
}

fn gen_large(c: &mut Choices) -> LargeCommunity {
    LargeCommunity::new(gen_u32(c), gen_u32(c), gen_u32(c))
}

fn gen_extended(c: &mut Choices) -> ExtendedCommunity {
    ExtendedCommunity::two_octet_as(c.draw(0xFF) as u8, c.draw(0xFFFF) as u16, gen_u32(c))
}

fn gen_route(c: &mut Choices, v6: bool) -> Route {
    let (prefix, next_hop) = if v6 {
        let nh = gen_u128(c);
        (gen_v6_prefix(c), IpAddr::V6(Ipv6Addr::from(nh)))
    } else {
        (gen_v4_prefix(c), IpAddr::V4(Ipv4Addr::from(gen_u32(c))))
    };
    // 1..=6 ASNs, each in 1..4_000_000
    let gen_asn = |c: &mut Choices| 1 + c.draw(3_999_998) as u32;
    let mut path = vec![gen_asn(c)];
    path.extend(c.draw_list(5, 500, gen_asn));
    let origin = Origin::from_code(c.draw(2) as u8).expect("0..=2 is a valid origin");
    let mut route = Route::builder(prefix, next_hop)
        .path(path)
        .origin(origin)
        .standards(c.draw_list(11, 700, gen_standard))
        .build();
    if !v6 {
        // extended communities ride the v4 attribute path in this codec
        route.extended_communities = c.draw_list(3, 400, gen_extended);
    }
    route.large_communities = c.draw_list(3, 400, gen_large);
    if c.draw(1) == 1 {
        route.med = Some(gen_u32(c));
    }
    route
}

fn wire_roundtrip(route: &Route) -> Route {
    let update = routes_to_update(std::slice::from_ref(route));
    let wire = Message::Update(update).encode().expect("encodes");
    let mut buf = BytesMut::from(&wire[..]);
    let Some(Message::Update(decoded)) = Message::decode(&mut buf).expect("decodes") else {
        panic!("not an update");
    };
    assert!(buf.is_empty(), "decoder left trailing bytes");
    update_to_routes(&decoded)
        .expect("valid update")
        .announced
        .remove(0)
}

#[test]
fn v4_route_survives_wire() {
    let gen = |c: &mut Choices| gen_route(c, false);
    assert_holds(&ROUTES, gen, |route| {
        assert_eq!(wire_roundtrip(route), *route);
        true
    });
}

#[test]
fn v6_route_survives_wire() {
    let gen = |c: &mut Choices| gen_route(c, true);
    assert_holds(&ROUTES, gen, |route| {
        assert_eq!(wire_roundtrip(route), *route);
        true
    });
}

#[test]
fn update_batching_preserves_all_routes() {
    // 1..40 routes
    let gen = |c: &mut Choices| {
        let mut routes = vec![gen_route(c, false)];
        routes.extend(c.draw_list(38, 950, |c| gen_route(c, false)));
        routes
    };
    assert_holds(&CASES, gen, |routes: &Vec<Route>| {
        let updates = routes_to_updates(routes);
        let mut recovered: Vec<Route> = updates
            .iter()
            .flat_map(|u| update_to_routes(u).expect("valid update").announced)
            .collect();
        let mut expected = routes.clone();
        // order is not preserved across attribute groups; compare as multisets
        recovered.sort_by_key(|r| (r.prefix, format!("{:?}", r.as_path)));
        expected.sort_by_key(|r| (r.prefix, format!("{:?}", r.as_path)));
        // routes with identical prefix+attrs dedupe into the same NLRI slot,
        // but both copies still appear since NLRI lists repeat prefixes
        assert_eq!(recovered, expected);
        true
    });
}

#[test]
fn mrt_dump_roundtrip() {
    // 0..12 v4 routes, 0..6 v6 routes, any timestamp
    let gen = |c: &mut Choices| {
        let v4 = c.draw_list(11, 850, |c| gen_route(c, false));
        let v6 = c.draw_list(5, 700, |c| gen_route(c, true));
        (v4, v6, gen_u32(c))
    };
    assert_holds(&CASES, gen, |(v4, v6, ts)| {
        let pairs: Vec<(Asn, &Route)> = v4
            .iter()
            .chain(v6.iter())
            .enumerate()
            .map(|(i, r)| (Asn(64496 + (i as u32 % 5)), r))
            .collect();
        let dump = MrtRibDump::from_routes(*ts, pairs.iter().map(|(a, r)| (*a, *r)));
        let wire = dump.encode().expect("dump encodes");
        let back = MrtRibDump::decode(wire).expect("dump decodes");
        assert_eq!(&back, &dump);
        // multiset of (peer, route) pairs is preserved
        let mut got = back.to_routes();
        let mut want: Vec<(Asn, Route)> = pairs.iter().map(|(a, r)| (*a, (*r).clone())).collect();
        let key = |p: &(Asn, Route)| (p.0, p.1.prefix, format!("{:?}", p.1));
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
        true
    });
}

#[test]
fn decoder_never_panics_on_noise() {
    // 0..256 arbitrary bytes
    let gen = |c: &mut Choices| c.draw_list(255, 992, |c| c.draw(0xFF) as u8);
    assert_holds(&CASES, gen, |bytes: &Vec<u8>| {
        let mut buf = BytesMut::from(&bytes[..]);
        let _ = Message::decode(&mut buf); // must not panic
        let _ = MrtRibDump::decode(bytes::Bytes::from(bytes.clone())); // must not panic
        true
    });
}

#[test]
fn decoder_never_panics_on_corrupted_frame() {
    // a valid UPDATE with one of its first 64 bytes overwritten
    let gen = |c: &mut Choices| {
        let route = gen_route(c, false);
        let update = routes_to_update(std::slice::from_ref(&route));
        let mut frame = Message::Update(update).encode().expect("encodes").to_vec();
        let idx = c.draw(63) as usize % frame.len();
        frame[idx] = c.draw(0xFF) as u8;
        frame
    };
    assert_holds(&CASES, gen, |frame: &Vec<u8>| {
        let _ = Message::decode(&mut BytesMut::from(&frame[..])); // any result is fine, no panic
        true
    });
}

/// The shrinking demonstration: force a failure on any route carrying a
/// BLACKHOLE community and confirm the engine minimizes the whole route
/// down to the single load-bearing draw.
#[test]
fn shrinking_minimizes_to_the_load_bearing_community() {
    let config = CheckConfig {
        max_shrink_attempts: 4_000,
        ..CheckConfig::new(0x5412, 400)
    };
    let result = check(
        &config,
        |c| gen_route(c, false),
        |r| !r.standard_communities.iter().any(|s| s.is_blackhole()),
    );
    let ce = result.expect_err("blackhole communities are reachable by the generator");
    let route = &ce.value;
    // everything incidental has shrunk away...
    assert_eq!(route.prefix.len(), 0, "prefix did not shrink: {route:?}");
    assert!(route.large_communities.is_empty());
    assert!(route.extended_communities.is_empty());
    assert_eq!(route.med, None);
    // ...leaving exactly one community: the one that fails the property
    let standards = &route.standard_communities;
    assert_eq!(standards.len(), 1, "list did not shrink: {standards:?}");
    assert!(standards[0].is_blackhole());
    // and the counterexample replays
    let mut replay = Choices::replay(ce.choices.clone());
    assert_eq!(&gen_route(&mut replay, false), route);
}
