//! Property test for SC004: whenever two dictionary entries with
//! *different* action semantics can match the same concrete community
//! value — established with the production `Pattern::matches`, not the
//! verifier's own interval math — the verifier must flag the pair.

mod common;

use bgp_model::asn::Asn;
use community_dict::action::Action;
use community_dict::dictionary::Dictionary;
use community_dict::entry::DictionaryEntry;
use community_dict::ixp::IxpId;
use community_dict::pattern::Pattern;
use community_dict::semantics::Semantics;
use prop::{assert_holds, CheckConfig, Choices};

use route_server::config::RsConfig;
use staticheck::policy;
use staticheck::Severity;

use common::{common_match, gen_pattern};

/// Every property here runs 512 cases.
const CASES: CheckConfig = CheckConfig::new(0x5C04, 512);

/// Two entries with distinct action groups that share any matching
/// community value must produce an SC004 finding.
#[test]
fn overlapping_distinct_actions_are_flagged() {
    let gen = |c: &mut Choices| (gen_pattern(c, true), gen_pattern(c, true));
    assert_holds(&CASES, gen, |&(p1, p2)| {
        // identical patterns are merged by Dictionary::new (sources union,
        // first semantics wins) before the verifier ever sees them
        if p1 == p2 {
            return true;
        }
        // avoid/blackhole resolve differently at every witness value, so
        // any common match is genuine ambiguity
        let e1 = DictionaryEntry::new(p1, Semantics::Action(Action::avoid(Asn(64500))), "avoid");
        let e2 = DictionaryEntry::new(p2, Semantics::Action(Action::blackhole()), "blackhole");
        let dict = Dictionary::new(IxpId::DeCixFra, vec![e1, e2]);
        let config = RsConfig::for_ixp(IxpId::DeCixFra);
        let diags = policy::verify(&config, &dict, None);
        let flagged = diags.iter().filter(|d| d.code == "SC004").count();
        match common_match(&p1, &p2) {
            Some(c) => assert!(
                flagged > 0,
                "patterns {:?} / {:?} share {} but were not flagged",
                p1,
                p2,
                c
            ),
            None => assert!(
                flagged == 0,
                "patterns {:?} / {:?} are disjoint but were flagged: {:?}",
                p1,
                p2,
                diags
            ),
        }
        true
    });
}

/// Identical semantics never count as ambiguity, whatever the
/// overlap — for patterns that don't rewrite their semantics per
/// matched value. (A `PeerAsnLow` template rewrites the action
/// target to the matched low bits, so even identical *stored*
/// semantics resolve differently under it; blackhole's TaggedPrefix
/// target is untouched by Exact and LowRange.)
#[test]
fn agreeing_semantics_are_never_flagged() {
    // patterns whose `resolve` is the identity for non-Region action
    // semantics: everything but the `PeerAsnLow` target template
    let gen = |c: &mut Choices| (gen_pattern(c, false), gen_pattern(c, false));
    assert_holds(&CASES, gen, |&(p1, p2)| {
        let sem = Semantics::Action(Action::blackhole());
        let e1 = DictionaryEntry::new(p1, sem, "bh a");
        let e2 = DictionaryEntry::new(p2, sem, "bh b");
        let dict = Dictionary::new(IxpId::DeCixFra, vec![e1, e2]);
        let config = RsConfig::for_ixp(IxpId::DeCixFra);
        let diags = policy::verify(&config, &dict, None);
        assert!(diags.iter().all(|d| d.code != "SC004"), "{diags:?}");
        true
    });
}

/// Severity calibration: strict containment warns (precedence picks a
/// winner), while partial or equal overlap errors.
#[test]
fn containment_warns_partial_overlap_errors() {
    // high in 0..4, any two low halves
    let gen = |c: &mut Choices| {
        (
            c.draw(3) as u16,
            c.draw(0xFFFF) as u16,
            c.draw(0xFFFF) as u16,
        )
    };
    assert_holds(&CASES, gen, |&(high, a, b)| {
        let (lo, hi) = (a.min(b), a.max(b));
        let outer = Pattern::PeerAsnLow { high };
        let inner = Pattern::LowRange { high, lo, hi };
        let e1 = DictionaryEntry::new(outer, Semantics::Action(Action::avoid(Asn(64500))), "avoid");
        let e2 = DictionaryEntry::new(inner, Semantics::Action(Action::blackhole()), "blackhole");
        let dict = Dictionary::new(IxpId::DeCixFra, vec![e1, e2]);
        let diags = policy::verify(&RsConfig::for_ixp(IxpId::DeCixFra), &dict, None);
        let sc004: Vec<_> = diags.iter().filter(|d| d.code == "SC004").collect();
        assert_eq!(sc004.len(), 1);
        // full-range LowRange equals the template's match set: error;
        // anything narrower is strict containment: warning
        let expected = if (lo, hi) == (0, u16::MAX) {
            Severity::Error
        } else {
            Severity::Warning
        };
        assert_eq!(sc004[0].severity, expected);
        true
    });
}
