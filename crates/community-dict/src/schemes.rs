//! Concrete community schemes for the eight IXPs, modeled on their public
//! documentation, with dictionary sizes matching the paper's §3 counts:
//! 649 (IX.br-SP), 774 (DE-CIX, shared by Frankfurt/Madrid/New York),
//! 58 (LINX), 37 (AMS-IX), 50 (BCIX) and 67 (Netnod) — 3,183 total when
//! the DE-CIX scheme is counted once per DE-CIX IXP, as the paper does.
//!
//! Scheme shapes follow the real ones: DE-CIX uses `0:<peer-as>` /
//! `6695:<peer-as>` with `0:6695` / `6695:6695` for "all" and RFC 7999
//! blackholing; IX.br uses a 65000-series block; AMS-IX only supports
//! prepend-to-all via exact values (the paper's §5.3 note that
//! fine-grained prepending needs extended communities there); LINX gained
//! prepend communities in June 2021.

use bgp_model::asn::Asn;
use bgp_model::community::{well_known, StandardCommunity};

use crate::action::{Action, ActionKind, Target};
use crate::dictionary::Dictionary;
use crate::entry::{DictionaryEntry, SourceSet};
use crate::ixp::IxpId;
use crate::known;
use crate::pattern::Pattern;
use crate::semantics::{InfoKind, Semantics};

const C: fn(u16, u16) -> StandardCommunity = StandardCommunity::from_parts;

/// Expected dictionary sizes from the paper (§3).
pub const fn expected_len(ixp: IxpId) -> usize {
    match ixp {
        IxpId::IxBrSp => 649,
        IxpId::DeCixFra | IxpId::DeCixMad | IxpId::DeCixNyc => 774,
        IxpId::Linx => 58,
        IxpId::AmsIx => 37,
        IxpId::Bcix => 50,
        IxpId::Netnod => 67,
    }
}

/// Whether the IXP's dictionary defines a blackhole community during the
/// paper's collection window (Jul–Oct 2021): DE-CIX prominently, AMS-IX
/// via the RFC 7999 well-known value; IX.br, LINX, BCIX and Netnod not.
pub const fn supports_blackhole(ixp: IxpId) -> bool {
    matches!(
        ixp,
        IxpId::DeCixFra | IxpId::DeCixMad | IxpId::DeCixNyc | IxpId::AmsIx
    )
}

/// Whether the scheme defines per-peer prepend communities (standard).
/// AMS-IX only prepends to all peers with standard communities; BCIX has
/// no prepend communities at all in our model.
pub const fn supports_peer_prepend(ixp: IxpId) -> bool {
    !matches!(ixp, IxpId::AmsIx | IxpId::Bcix)
}

fn action_entry(pattern: Pattern, action: Action, desc: String) -> DictionaryEntry {
    DictionaryEntry::new(pattern, Semantics::Action(action), desc)
}

fn info_entry(c: StandardCommunity, kind: InfoKind, desc: String) -> DictionaryEntry {
    DictionaryEntry::new(Pattern::Exact(c), Semantics::Informational(kind), desc)
}

/// The high values used for the action templates of one scheme.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SchemeHighs {
    /// `high:<peer-as>` → do not announce to the peer.
    pub avoid: u16,
    /// `high:<peer-as>` → announce only to the peer.
    pub only: u16,
    /// `high:<peer-as>` → prepend 1/2/3×, when per-peer prepend exists.
    pub prepend: Option<[u16; 3]>,
}

/// The template high values for each scheme, used by the tagging model to
/// *construct* communities the dictionary will then classify.
pub(crate) const fn scheme_highs(ixp: IxpId) -> SchemeHighs {
    match ixp {
        IxpId::IxBrSp => SchemeHighs {
            avoid: 65000,
            only: 65001,
            prepend: Some([65002, 65003, 65004]),
        },
        IxpId::DeCixFra | IxpId::DeCixMad | IxpId::DeCixNyc => SchemeHighs {
            avoid: 0,
            only: 6695,
            prepend: Some([65501, 65502, 65503]),
        },
        IxpId::Linx => SchemeHighs {
            avoid: 0,
            only: 8714,
            prepend: Some([65511, 65512, 65513]),
        },
        IxpId::AmsIx => SchemeHighs {
            avoid: 0,
            only: 6777,
            prepend: None,
        },
        IxpId::Bcix => SchemeHighs {
            avoid: 0,
            only: 16374,
            prepend: None,
        },
        IxpId::Netnod => SchemeHighs {
            avoid: 0,
            only: 8674,
            prepend: Some([65521, 65522, 65523]),
        },
    }
}

/// The exact community meaning "do not announce to any peer".
pub fn avoid_all_community(ixp: IxpId) -> StandardCommunity {
    let rs = ixp.rs_asn().value() as u16;
    match ixp {
        IxpId::IxBrSp => C(65000, 0),
        _ => C(0, rs),
    }
}

/// The exact community meaning "announce to all peers".
pub fn announce_all_community(ixp: IxpId) -> StandardCommunity {
    let rs = ixp.rs_asn().value() as u16;
    match ixp {
        IxpId::IxBrSp => C(65001, 0),
        _ => C(rs, rs),
    }
}

/// The community an AS tags to avoid a specific peer.
pub fn avoid_community(ixp: IxpId, target: Asn) -> StandardCommunity {
    C(scheme_highs(ixp).avoid, target.value() as u16)
}

/// The community an AS tags to export only to a specific peer.
pub fn only_community(ixp: IxpId, target: Asn) -> StandardCommunity {
    C(scheme_highs(ixp).only, target.value() as u16)
}

/// The community requesting an `n`× prepend towards `target`, if the
/// scheme supports per-peer prepending.
pub fn prepend_community(ixp: IxpId, target: Asn, n: u8) -> Option<StandardCommunity> {
    let highs = scheme_highs(ixp).prepend?;
    let idx = (n.clamp(1, 3) - 1) as usize;
    Some(C(highs[idx], target.value() as u16))
}

/// The prepend-to-all community. Only AMS-IX defines one with standard
/// communities (§5.3: fine-grained prepending there needs extended
/// communities, which are out of the standard-community scope).
pub fn prepend_all_community(ixp: IxpId, n: u8) -> Option<StandardCommunity> {
    if ixp == IxpId::AmsIx {
        let rs = ixp.rs_asn().value() as u16;
        Some(C(rs, 65000 + n.clamp(1, 3) as u16))
    } else {
        None
    }
}

/// Number of informational exact entries per scheme, chosen so the total
/// dictionary sizes match the paper.
const fn info_count(ixp: IxpId) -> u16 {
    match ixp {
        IxpId::IxBrSp => 142,
        IxpId::DeCixFra | IxpId::DeCixMad | IxpId::DeCixNyc => 166,
        IxpId::Linx => 51,
        IxpId::AmsIx => 29,
        IxpId::Bcix => 46,
        IxpId::Netnod => 60,
    }
}

/// Number of enumerated per-AS documentation examples (each contributing
/// an avoid and an announce-only entry).
const fn example_count(ixp: IxpId) -> usize {
    match ixp {
        IxpId::IxBrSp => 250,
        IxpId::DeCixFra | IxpId::DeCixMad | IxpId::DeCixNyc => 300,
        _ => 0,
    }
}

/// Number of informational slots the scheme defines (public so the RS
/// tagging logic can pick valid codes).
pub const fn info_slots(ixp: IxpId) -> u16 {
    info_count(ixp)
}

/// The `slot`-th informational community of the scheme (wraps around).
pub fn info_community(ixp: IxpId, slot: u16) -> StandardCommunity {
    let rs16 = ixp.rs_asn().value() as u16;
    C(rs16, 64000 + slot % info_count(ixp))
}

/// Build the full, merged entry list for one IXP, with per-entry
/// provenance assigned (a deterministic ~14% of entries are website-only
/// — the documentation gap the paper discovered — and ~9% RS-config-only).
pub(crate) fn scheme_entries(ixp: IxpId) -> Vec<DictionaryEntry> {
    let highs = scheme_highs(ixp);
    let rs_name = ixp.short_name();
    let mut entries: Vec<DictionaryEntry> = Vec::new();

    // --- action templates ---
    entries.push(action_entry(
        Pattern::PeerAsnLow { high: highs.avoid },
        Action::avoid(Asn(0)),
        format!(
            "{rs_name}: {}:<peer-as> = do not announce to <peer-as>",
            highs.avoid
        ),
    ));
    entries.push(action_entry(
        Pattern::PeerAsnLow { high: highs.only },
        Action::only(Asn(0)),
        format!(
            "{rs_name}: {}:<peer-as> = announce only to <peer-as>",
            highs.only
        ),
    ));
    if let Some(prepend_highs) = highs.prepend {
        for (i, high) in prepend_highs.iter().enumerate() {
            let n = (i + 1) as u8;
            entries.push(action_entry(
                Pattern::PeerAsnLow { high: *high },
                Action::new(ActionKind::PrependTo(n), Target::Peer(Asn(0))),
                format!("{rs_name}: {high}:<peer-as> = prepend {n}x to <peer-as>"),
            ));
        }
    }

    // --- exact action values ---
    entries.push(action_entry(
        Pattern::Exact(avoid_all_community(ixp)),
        Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers),
        format!(
            "{rs_name}: {} = do not announce to any peer",
            avoid_all_community(ixp)
        ),
    ));
    entries.push(action_entry(
        Pattern::Exact(announce_all_community(ixp)),
        Action::new(ActionKind::AnnounceOnlyTo, Target::AllPeers),
        format!(
            "{rs_name}: {} = announce to all peers",
            announce_all_community(ixp)
        ),
    ));
    if ixp == IxpId::AmsIx {
        for n in 1u8..=3 {
            let Some(c) = prepend_all_community(ixp, n) else {
                continue;
            };
            entries.push(action_entry(
                Pattern::Exact(c),
                Action::new(ActionKind::PrependTo(n), Target::AllPeers),
                format!("{rs_name}: {c} = prepend {n}x to all peers"),
            ));
        }
    }
    if supports_blackhole(ixp) {
        entries.push(action_entry(
            Pattern::Exact(well_known::BLACKHOLE),
            Action::blackhole(),
            format!("{rs_name}: 65535:666 = blackhole (RFC 7999)"),
        ));
    }

    // --- informational exact values added by the RS ---
    // Informational lows live at 64000+, safely above every known ASN and
    // the synthetic-fill ceiling, so they never collide with the
    // enumerated `<rs-as>:<target-as>` announce-only example entries.
    let rs16 = ixp.rs_asn().value() as u16;
    let info_base = 64000u16;
    for i in 0..info_count(ixp) {
        let c = C(rs16, info_base + i);
        let kind = match i % 3 {
            0 => InfoKind::LearnedAt(i / 3),
            1 => InfoKind::OriginClass(i / 3),
            _ => InfoKind::RsNote(i / 3),
        };
        entries.push(info_entry(c, kind, format!("{rs_name}: {c} = {kind}")));
    }

    // --- enumerated per-AS documentation examples (large dictionaries) ---
    let n_examples = example_count(ixp);
    if n_examples > 0 {
        let mut targets: Vec<Asn> = known::KNOWN.iter().map(|k| k.asn).collect();
        targets.truncate(n_examples);
        if targets.len() < n_examples {
            let fill = known::synthetic_fill(n_examples - targets.len(), &targets);
            targets.extend(fill);
        }
        for asn in targets {
            entries.push(action_entry(
                Pattern::Exact(avoid_community(ixp, asn)),
                Action::avoid(asn),
                format!("{rs_name}: do not announce to {}", known::name_of(asn)),
            ));
            entries.push(action_entry(
                Pattern::Exact(only_community(ixp, asn)),
                Action::only(asn),
                format!("{rs_name}: announce only to {}", known::name_of(asn)),
            ));
        }
    }

    // --- provenance: deterministic gaps between the two sources (§3) ---
    let n = entries.len();
    for (i, e) in entries.iter_mut().enumerate() {
        e.sources = if i % 7 == 3 {
            SourceSet::WEBSITE_ONLY
        } else if i % 11 == 5 {
            SourceSet::RS_ONLY
        } else {
            SourceSet::BOTH
        };
    }
    debug_assert_eq!(n, entries.len());
    entries
}

/// The entries as they appear in the RS configuration file (LG API source).
pub fn rs_config_entries(ixp: IxpId) -> Vec<DictionaryEntry> {
    scheme_entries(ixp)
        .into_iter()
        .filter(|e| e.sources.rs_config)
        .map(|e| e.with_sources(SourceSet::RS_ONLY))
        .collect()
}

/// The entries as published in the IXP website documentation.
pub(crate) fn website_entries(ixp: IxpId) -> Vec<DictionaryEntry> {
    scheme_entries(ixp)
        .into_iter()
        .filter(|e| e.sources.website)
        .map(|e| e.with_sources(SourceSet::WEBSITE_ONLY))
        .collect()
}

/// The full dictionary for one IXP: the union of the two sources, exactly
/// as the paper constructs it.
pub fn dictionary(ixp: IxpId) -> Dictionary {
    Dictionary::union(ixp, rs_config_entries(ixp), website_entries(ixp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::Classification;

    #[test]
    fn dictionary_sizes_match_paper() {
        for ixp in IxpId::ALL {
            let d = dictionary(ixp);
            assert_eq!(d.len(), expected_len(ixp), "{ixp}: got {} entries", d.len());
        }
    }

    #[test]
    fn grand_total_is_3183() {
        let total: usize = IxpId::ALL.iter().map(|i| expected_len(*i)).sum();
        assert_eq!(total, 3183);
    }

    #[test]
    fn union_recovers_full_scheme() {
        for ixp in [IxpId::DeCixFra, IxpId::Linx] {
            let rs = rs_config_entries(ixp);
            let web = website_entries(ixp);
            assert!(
                rs.len() < expected_len(ixp),
                "{ixp} rs-config must have gaps"
            );
            assert!(
                web.len() < expected_len(ixp),
                "{ixp} website must have gaps"
            );
            let d = Dictionary::union(ixp, rs, web);
            assert_eq!(d.len(), expected_len(ixp));
        }
    }

    #[test]
    fn avoid_and_only_classify_correctly() {
        for ixp in IxpId::ALL {
            let d = dictionary(ixp);
            let he = Asn(6939);
            let c = avoid_community(ixp, he);
            assert_eq!(
                d.classify(c).action().unwrap(),
                Action::avoid(he),
                "{ixp}: {c}"
            );
            let c = only_community(ixp, he);
            assert_eq!(d.classify(c).action().unwrap(), Action::only(he));
        }
    }

    #[test]
    fn all_peer_exacts_beat_templates() {
        for ixp in IxpId::ALL {
            let d = dictionary(ixp);
            let avoid_all = d.classify(avoid_all_community(ixp)).action().unwrap();
            assert_eq!(avoid_all.target, Target::AllPeers, "{ixp}");
            assert_eq!(avoid_all.kind, ActionKind::DoNotAnnounceTo);
            let ann_all = d.classify(announce_all_community(ixp)).action().unwrap();
            assert_eq!(ann_all.target, Target::AllPeers, "{ixp}");
            assert_eq!(ann_all.kind, ActionKind::AnnounceOnlyTo);
        }
    }

    #[test]
    fn blackhole_support_matches_collection_window() {
        for ixp in IxpId::ALL {
            let d = dictionary(ixp);
            let got = d.classify(well_known::BLACKHOLE);
            if supports_blackhole(ixp) {
                assert_eq!(
                    got.action().unwrap().kind,
                    ActionKind::Blackhole,
                    "{ixp} should define blackhole"
                );
            } else {
                assert_eq!(
                    got,
                    Classification::Unknown,
                    "{ixp} should not define blackhole"
                );
            }
        }
    }

    #[test]
    fn prepend_communities_where_supported() {
        for ixp in IxpId::ALL {
            let d = dictionary(ixp);
            match prepend_community(ixp, Asn(15169), 2) {
                Some(c) => {
                    assert!(supports_peer_prepend(ixp));
                    let a = d.classify(c).action().unwrap();
                    assert_eq!(a.kind, ActionKind::PrependTo(2), "{ixp}");
                    assert_eq!(a.target, Target::Peer(Asn(15169)));
                }
                None => assert!(!supports_peer_prepend(ixp), "{ixp}"),
            }
        }
        // AMS-IX prepend-to-all via exacts
        let d = dictionary(IxpId::AmsIx);
        let c = prepend_all_community(IxpId::AmsIx, 3).unwrap();
        let a = d.classify(c).action().unwrap();
        assert_eq!(a.kind, ActionKind::PrependTo(3));
        assert_eq!(a.target, Target::AllPeers);
    }

    #[test]
    fn informational_entries_classify() {
        for ixp in IxpId::ALL {
            let d = dictionary(ixp);
            let rs16 = ixp.rs_asn().value() as u16;
            let c = C(rs16, 64000);
            match d.classify(c) {
                Classification::IxpDefined(Semantics::Informational(_)) => {}
                got => panic!("{ixp}: {c} classified as {got:?}"),
            }
        }
    }

    #[test]
    fn foreign_communities_unknown() {
        let d = dictionary(IxpId::Linx);
        // an operator-private community of some transit provider
        assert_eq!(d.classify(C(3356, 70)), Classification::Unknown);
        // another IXP's informational value
        assert_eq!(d.classify(C(26162, 1000)), Classification::Unknown);
    }

    #[test]
    fn decix_family_schemes_identical() {
        let fra = dictionary(IxpId::DeCixFra);
        let mad = dictionary(IxpId::DeCixMad);
        assert_eq!(fra.len(), mad.len());
        for (a, b) in fra.entries().iter().zip(mad.entries()) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.semantics, b.semantics);
        }
    }

    #[test]
    fn rs_config_restriction_loses_coverage() {
        // the §3 discovery: classifying with the RS config alone misses
        // website-only entries
        let ixp = IxpId::DeCixFra;
        let full = dictionary(ixp);
        let rs_only = full.restricted_to(|s| s.rs_config);
        assert!(rs_only.len() < full.len());
        let missing = full
            .entries()
            .iter()
            .find(|e| e.sources == SourceSet::WEBSITE_ONLY)
            .expect("some website-only entry");
        if let Pattern::Exact(c) = missing.pattern {
            assert!(full.classify(c).is_ixp_defined());
            assert_eq!(rs_only.classify(c), Classification::Unknown);
        }
    }
}
