//! Property tests for dictionary classification invariants.

use bgp_model::asn::Asn;
use bgp_model::community::{LargeCommunity, StandardCommunity};
use community_dict::classify::{classify_large, large_fn};
use community_dict::prelude::*;
use prop::{assert_holds, CheckConfig, Choices};

/// Every property here runs 64 cases.
const CASES: CheckConfig = CheckConfig::new(0xD1C7, 64);

fn gen_ixp(c: &mut Choices) -> IxpId {
    IxpId::ALL[c.draw(IxpId::ALL.len() as u64 - 1) as usize]
}

/// An IXP and a standard community's two halves.
fn gen_ixp_community(c: &mut Choices) -> (IxpId, u16, u16) {
    (gen_ixp(c), c.draw(0xFFFF) as u16, c.draw(0xFFFF) as u16)
}

/// The reference lookup: an exhaustive linear scan in which the most
/// specific matching pattern wins (the first one on a tie).
fn classify_linear(dict: &Dictionary, c: StandardCommunity) -> Classification {
    dict.entries()
        .iter()
        .filter(|e| e.pattern.matches(c))
        .min_by_key(|e| e.pattern.specificity())
        .map_or(Classification::Unknown, |e| {
            Classification::IxpDefined(e.pattern.resolve(e.semantics, c))
        })
}

/// The indexed lookup must agree with an exhaustive linear scan for
/// every community value, on every scheme.
#[test]
fn indexed_matches_linear() {
    assert_holds(&CASES, gen_ixp_community, |&(ixp, hi, lo)| {
        let dict = schemes::dictionary(ixp);
        let c = StandardCommunity::from_parts(hi, lo);
        assert_eq!(dict.classify(c), classify_linear(&dict, c));
        true
    });
}

/// The same agreement on a dictionary whose patterns overlap on
/// purpose: an exact entry inside a template, and a range inside one.
#[test]
fn linear_agrees_with_indexed() {
    let c = StandardCommunity::from_parts;
    let dict = Dictionary::new(
        IxpId::DeCixFra,
        vec![
            DictionaryEntry::new(
                Pattern::Exact(c(0, 6695)),
                Semantics::Action(Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers)),
                "do not announce to any peer",
            ),
            DictionaryEntry::new(
                Pattern::PeerAsnLow { high: 0 },
                Semantics::Action(Action::avoid(Asn(0))),
                "do not announce to <peer-as>",
            ),
            DictionaryEntry::new(
                Pattern::LowRange {
                    high: 6695,
                    lo: 800,
                    hi: 899,
                },
                Semantics::Informational(InfoKind::LearnedAt(0)),
                "learned at location",
            ),
            DictionaryEntry::new(
                Pattern::PeerAsnLow { high: 6695 },
                Semantics::Action(Action::only(Asn(0))),
                "announce only to <peer-as>",
            ),
        ],
    );
    for community in [
        c(0, 6695),
        c(0, 6939),
        c(6695, 850),
        c(6695, 15169),
        c(3356, 100),
        c(65535, 666),
    ] {
        assert_eq!(
            dict.classify(community),
            classify_linear(&dict, community),
            "community {community}"
        );
    }
}

/// Classification is a pure function of the dictionary: rebuilding the
/// dictionary from its own entries changes nothing.
#[test]
fn rebuild_is_stable() {
    assert_holds(&CASES, gen_ixp_community, |&(ixp, hi, lo)| {
        let dict = schemes::dictionary(ixp);
        let rebuilt = Dictionary::new(ixp, dict.entries().to_vec());
        assert_eq!(rebuilt.len(), dict.len());
        let c = StandardCommunity::from_parts(hi, lo);
        assert_eq!(rebuilt.classify(c), dict.classify(c));
        true
    });
}

/// The union of the two sources classifies at least everything the
/// RS-config alone classifies (monotonicity of union).
#[test]
fn union_is_monotone() {
    assert_holds(&CASES, gen_ixp_community, |&(ixp, hi, lo)| {
        let full = schemes::dictionary(ixp);
        let rs_only = full.restricted_to(|s| s.rs_config);
        let c = StandardCommunity::from_parts(hi, lo);
        if rs_only.classify(c).is_ixp_defined() {
            assert!(full.classify(c).is_ixp_defined());
        }
        true
    });
}

/// Every avoid/only community constructed by the scheme helpers must
/// classify to exactly the action it was constructed for.
#[test]
fn constructed_actions_classify_back() {
    // target in 1..64000
    let gen = |c: &mut Choices| (gen_ixp(c), 1 + c.draw(63_998) as u32);
    assert_holds(&CASES, gen, |&(ixp, target)| {
        let dict = schemes::dictionary(ixp);
        let asn = bgp_model::asn::Asn(target);
        let c = schemes::avoid_community(ixp, asn);
        let a = dict.classify(c).action().expect("avoid classifies");
        // exact "all peers" values shadow a handful of target ASNs (e.g.
        // 0:6695 means "all" at DE-CIX) — that is the documented scheme
        if c != schemes::avoid_all_community(ixp) {
            assert_eq!(a, Action::avoid(asn));
        }
        let c = schemes::only_community(ixp, asn);
        if c != schemes::announce_all_community(ixp) && dict.classify(c).action().is_some() {
            let a = dict.classify(c).action().unwrap();
            // informational exacts at 64000+ shadow the only-template there
            if target < 64000 {
                assert_eq!(a, Action::only(asn));
            }
        }
        true
    });
}

/// Large-community classification only ever fires for the RS ASN as
/// global administrator.
#[test]
fn large_requires_rs_admin() {
    let gen_u32 = |c: &mut Choices| c.draw(u64::from(u32::MAX)) as u32;
    let gen = |c: &mut Choices| (gen_ixp(c), gen_u32(c), gen_u32(c));
    assert_holds(&CASES, gen, |&(ixp, g, arg)| {
        let c = LargeCommunity::new(g, large_fn::AVOID, arg);
        let cl = classify_large(ixp, c);
        if g != ixp.rs_asn().value() {
            assert_eq!(cl, Classification::Unknown);
        } else {
            assert!(cl.is_ixp_defined());
        }
        true
    });
}
