//! Property test for SC006: the cross-dictionary drift verdicts must
//! agree with the production `Pattern::resolve` at the witness value
//! the diagnostic reports — the verifier's interval math can never
//! flag a pair the real resolver considers equivalent, nor stay silent
//! on a pair it considers conflicting.

mod common;

use bgp_model::asn::Asn;
use bgp_model::community::StandardCommunity;
use community_dict::action::Action;
use community_dict::dictionary::Dictionary;
use community_dict::entry::DictionaryEntry;
use community_dict::ixp::IxpId;
use community_dict::pattern::Pattern;
use community_dict::semantics::Semantics;
use prop::{assert_holds, CheckConfig, Choices};

use staticheck::policy;
use staticheck::Severity;

use common::{common_match, gen_pattern};

/// Every property here runs 512 cases.
const CASES: CheckConfig = CheckConfig::new(0x5C06, 512);

/// Two single-entry dictionaries at different IXPs.
fn dicts(e1: DictionaryEntry, e2: DictionaryEntry) -> [Dictionary; 2] {
    [
        Dictionary::new(IxpId::DeCixFra, vec![e1]),
        Dictionary::new(IxpId::Linx, vec![e2]),
    ]
}

/// Parse the "community H:V" witness out of an SC006 message.
fn witness_of(message: &str) -> Option<StandardCommunity> {
    let rest = message.split("community ").nth(1)?;
    let (pair, _) = rest.split_once(' ')?;
    let (h, v) = pair.split_once(':')?;
    Some(StandardCommunity::from_parts(
        h.parse().ok()?,
        v.parse().ok()?,
    ))
}

fn gen_pair(c: &mut Choices) -> (Pattern, Pattern) {
    (gen_pattern(c, true), gen_pattern(c, true))
}

/// Avoid vs blackhole resolve to different action kinds at *every*
/// value, so SC006 must fire exactly when a common match exists —
/// error-grade — and the reported witness must disagree under the
/// production resolver.
#[test]
fn cross_group_conflicts_agree_with_resolve() {
    assert_holds(&CASES, gen_pair, |&(p1, p2)| {
        let e1 = DictionaryEntry::new(p1, Semantics::Action(Action::avoid(Asn(64500))), "avoid");
        let e2 = DictionaryEntry::new(p2, Semantics::Action(Action::blackhole()), "blackhole");
        let diags = policy::verify_cross_dictionaries(&dicts(e1.clone(), e2.clone()));
        match common_match(&p1, &p2) {
            Some(c) => {
                assert_eq!(
                    diags.len(),
                    1,
                    "patterns {:?} / {:?} share {} but were not flagged",
                    p1,
                    p2,
                    c
                );
                assert_eq!(diags[0].severity, Severity::Error);
                let w = witness_of(&diags[0].message).expect("witness in message");
                assert!(
                    p1.matches(w) && p2.matches(w),
                    "witness {} matches neither",
                    w
                );
                let a1 = e1.pattern.resolve(e1.semantics, w).action();
                let a2 = e2.pattern.resolve(e2.semantics, w).action();
                assert!(
                    a1.is_some() && a2.is_some() && a1 != a2,
                    "witness {} does not disagree under resolve: {:?} vs {:?}",
                    w,
                    a1,
                    a2
                );
            }
            None => assert!(diags.is_empty(), "disjoint but flagged: {diags:?}"),
        }
        true
    });
}

/// The same stored avoid action on both sides can differ only in
/// resolved *scope* (a `PeerAsnLow` template rewrites the target per
/// value): findings stay warning-grade, and every reported witness
/// resolves to two same-group actions that genuinely differ.
#[test]
fn same_group_drift_is_warning_grade() {
    assert_holds(&CASES, gen_pair, |&(p1, p2)| {
        let sem = Semantics::Action(Action::avoid(Asn(64500)));
        let e1 = DictionaryEntry::new(p1, sem, "avoid a");
        let e2 = DictionaryEntry::new(p2, sem, "avoid b");
        let diags = policy::verify_cross_dictionaries(&dicts(e1.clone(), e2.clone()));
        for d in &diags {
            assert_eq!(d.severity, Severity::Warning, "{:?}", d);
            let w = witness_of(&d.message).expect("witness in message");
            let a1 = e1
                .pattern
                .resolve(e1.semantics, w)
                .action()
                .expect("action");
            let a2 = e2
                .pattern
                .resolve(e2.semantics, w)
                .action()
                .expect("action");
            assert!(a1 != a2, "witness {} resolves equal under resolve", w);
            assert_eq!(a1.kind.group(), a2.kind.group());
        }
        true
    });
}

/// One dictionary is never in drift with itself: same-IXP pairs are
/// skipped entirely, whatever the entries.
#[test]
fn same_ixp_pairs_are_skipped() {
    assert_holds(&CASES, gen_pair, |&(p1, p2)| {
        let e1 = DictionaryEntry::new(p1, Semantics::Action(Action::avoid(Asn(64500))), "avoid");
        let e2 = DictionaryEntry::new(p2, Semantics::Action(Action::blackhole()), "blackhole");
        let ds = [
            Dictionary::new(IxpId::AmsIx, vec![e1]),
            Dictionary::new(IxpId::AmsIx, vec![e2]),
        ];
        assert!(policy::verify_cross_dictionaries(&ds).is_empty());
        true
    });
}
