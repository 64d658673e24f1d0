//! Property-based tests for the core data model invariants.

use std::net::IpAddr;

use bgp_model::prelude::*;
use prop::{assert_holds, CheckConfig, Choices};

/// Every property here runs 256 cases.
const CASES: CheckConfig = CheckConfig::new(0xB9_0DE1, 256);

/// A v4 or v6 prefix; `Prefix::new` zeroes the host bits.
fn gen_prefix(c: &mut Choices) -> Prefix {
    let (addr, max_len) = match c.draw(1) {
        0 => (IpAddr::V4(gen_u32(c).into()), 32),
        _ => {
            let hi = u128::from(c.draw(u64::MAX)) << 64;
            (IpAddr::V6((hi | u128::from(c.draw(u64::MAX))).into()), 128)
        }
    };
    Prefix::new(addr, c.draw(max_len) as u8).expect("length fits the family")
}

/// 1..8 ASNs, each in 1..400_000.
fn gen_aspath(c: &mut Choices) -> AsPath {
    let gen_asn = |c: &mut Choices| Asn(1 + c.draw(399_998) as u32);
    let mut asns = vec![gen_asn(c)];
    asns.extend(c.draw_list(6, 600, gen_asn));
    AsPath::from_sequence(asns)
}

fn gen_u16(c: &mut Choices) -> u16 {
    c.draw(u64::from(u16::MAX)) as u16
}

fn gen_u32(c: &mut Choices) -> u32 {
    c.draw(u64::from(u32::MAX)) as u32
}

/// An ASN in 1..100_000.
fn gen_origin(c: &mut Choices) -> u32 {
    1 + c.draw(99_998) as u32
}

#[test]
fn prefix_display_parse_roundtrip() {
    assert_holds(&CASES, gen_prefix, |p| {
        let back: Prefix = p.to_string().parse().expect("displayed prefix parses");
        assert_eq!(back, *p);
        true
    });
}

#[test]
fn prefix_canonical_idempotent() {
    assert_holds(&CASES, gen_prefix, |p| {
        // re-canonicalizing an already-canonical prefix changes nothing
        let again = Prefix::new(p.addr(), p.len()).expect("canonical prefix is valid");
        assert_eq!(again, *p);
        true
    });
}

#[test]
fn prefix_contains_reflexive() {
    assert_holds(&CASES, gen_prefix, |p| {
        assert!(p.contains(p));
        true
    });
}

#[test]
fn prefix_containment_antisymmetric() {
    let gen = |c: &mut Choices| (gen_prefix(c), gen_prefix(c));
    assert_holds(&CASES, gen, |(a, b)| {
        if a.contains(b) && b.contains(a) {
            assert_eq!(a, b);
        }
        true
    });
}

#[test]
fn prefix_contains_implies_shorter() {
    let gen = |c: &mut Choices| (gen_prefix(c), gen_prefix(c));
    assert_holds(&CASES, gen, |(a, b)| {
        if a.contains(b) {
            assert!(a.len() <= b.len());
            assert_eq!(a.afi(), b.afi());
        }
        true
    });
}

#[test]
fn standard_community_parts_roundtrip() {
    let gen = |c: &mut Choices| (gen_u16(c), gen_u16(c));
    assert_holds(&CASES, gen, |&(hi, lo)| {
        let c = StandardCommunity::from_parts(hi, lo);
        assert_eq!(c.high(), hi);
        assert_eq!(c.low(), lo);
        let parsed: StandardCommunity = c.to_string().parse().expect("community parses");
        assert_eq!(parsed, c);
        true
    });
}

#[test]
fn large_community_text_roundtrip() {
    let gen = |c: &mut Choices| (gen_u32(c), gen_u32(c), gen_u32(c));
    assert_holds(&CASES, gen, |&(g, a, b)| {
        let c = LargeCommunity::new(g, a, b);
        let parsed: LargeCommunity = c.to_string().parse().expect("large community parses");
        assert_eq!(parsed, c);
        true
    });
}

#[test]
fn extended_two_octet_kind_roundtrip() {
    let gen = |c: &mut Choices| (c.draw(0xFF) as u8, gen_u16(c), gen_u32(c));
    assert_holds(&CASES, gen, |&(st, asn, local)| {
        let e = ExtendedCommunity::two_octet_as(st, asn, local);
        match e.kind() {
            bgp_model::community::ExtendedKind::TwoOctetAsSpecific {
                subtype,
                asn: a,
                local: l,
                transitive,
            } => {
                assert!(transitive);
                assert_eq!(subtype, st);
                assert_eq!(a, Asn(asn as u32));
                assert_eq!(l, local);
            }
            k => panic!("unexpected kind {k:?}"),
        }
        true
    });
}

#[test]
fn aspath_prepend_extends_length() {
    // n in 1..6
    let gen = |c: &mut Choices| (gen_aspath(c), gen_origin(c), 1 + c.draw(4) as usize);
    assert_holds(&CASES, gen, |(p, asn, n)| {
        let q = p.prepend(Asn(*asn), *n);
        assert_eq!(q.path_len(), p.path_len() + n);
        assert_eq!(q.first_asn(), Some(Asn(*asn)));
        // origin unchanged by prepending
        assert_eq!(q.origin_asn(), p.origin_asn());
        true
    });
}

#[test]
fn aspath_prepend_preserves_contains() {
    let gen = |c: &mut Choices| (gen_aspath(c), gen_origin(c));
    assert_holds(&CASES, gen, |(p, asn)| {
        let q = p.prepend(Asn(*asn), 2);
        assert!(q.contains(Asn(*asn)));
        for a in p.iter_asns() {
            assert!(q.contains(a));
        }
        true
    });
}

#[test]
fn community_serde_roundtrip() {
    let gen = |c: &mut Choices| (gen_u16(c), gen_u16(c), gen_u32(c));
    assert_holds(&CASES, gen, |&(hi, lo, g)| {
        let cs = vec![
            Community::Standard(StandardCommunity::from_parts(hi, lo)),
            Community::Large(LargeCommunity::new(g, hi as u32, lo as u32)),
            Community::Extended(ExtendedCommunity::two_octet_as(2, hi, g)),
        ];
        let js = serde_json::to_string(&cs).expect("communities serialize");
        let back: Vec<Community> = serde_json::from_str(&js).expect("communities deserialize");
        assert_eq!(back, cs);
        true
    });
}

#[test]
fn rib_announce_then_withdraw_is_noop() {
    let gen = |c: &mut Choices| (gen_prefix(c), gen_origin(c));
    assert_holds(&CASES, gen, |&(p, origin)| {
        let mut rib = PeerRib::new();
        let nh: IpAddr = "198.32.0.9".parse().expect("literal next hop");
        let route = Route::builder(p, nh).path([origin]).build();
        rib.announce(route);
        assert_eq!(rib.len(), 1);
        rib.withdraw(&p);
        assert!(rib.is_empty());
        true
    });
}

#[test]
fn rib_replace_keeps_single_entry() {
    let gen = |c: &mut Choices| (gen_prefix(c), gen_origin(c), gen_origin(c));
    assert_holds(&CASES, gen, |&(p, o1, o2)| {
        let mut rib = PeerRib::new();
        let nh: IpAddr = "198.32.0.9".parse().expect("literal next hop");
        rib.announce(Route::builder(p, nh).path([o1]).build());
        rib.announce(Route::builder(p, nh).path([o2]).build());
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.get(&p).expect("announced").origin_asn(), Some(Asn(o2)));
        true
    });
}

#[test]
fn asn_parse_display_roundtrip() {
    assert_holds(&CASES, gen_u32, |&v| {
        let a = Asn(v);
        let parsed: Asn = a.to_string().parse().expect("displayed ASN parses");
        assert_eq!(parsed, a);
        true
    });
}
