//! Engine 1: the static policy verifier.
//!
//! Consumes a [`RsConfig`] plus a community [`Dictionary`] — no simulation
//! run — and reports, with stable diagnostic codes:
//!
//! * **SC001** — shadowed import rules (can never match);
//! * **SC002** — contradictory actions on intersecting rule matchers;
//! * **SC003** — statically ineffective action targets (the paper's §5.3
//!   pre-flight: the target AS has no session at the route server);
//! * **SC004** — ambiguous dictionary patterns (one community value, two
//!   semantics);
//! * **SC005** — import-rule actions that can never take effect: a
//!   symbolic route is pushed through import→action→export and the
//!   export outcome compared with and without the applied action
//!   (abstract interpretation of action *composition*, generalizing
//!   SC003's per-target check);
//! * **SC006** — cross-dictionary drift: the same community pattern
//!   mapped to conflicting action semantics at different IXPs, the
//!   static analogue of the paper's cross-IXP characterization
//!   ([`verify_cross_dictionaries`]).
//!
//! See the crate-level docs for the range-intersection model behind
//! SC001/SC004.

use std::collections::{BTreeMap, BTreeSet};

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;

use community_dict::action::{Action, ActionKind};
use community_dict::classify::classify_route;
use community_dict::dictionary::Dictionary;
use community_dict::entry::DictionaryEntry;
use community_dict::pattern::Pattern;
use community_dict::semantics::Semantics;

use route_server::config::RsConfig;
use route_server::policy::RoutePolicy;
use route_server::rules::{ImportRule, RuleAction, RuleMatch};

use crate::diag::{Diagnostic, Severity};

/// Run every policy check. `members` is the configured member set when
/// known (enables SC003); `None` skips membership-dependent checks.
pub fn verify(
    config: &RsConfig,
    dict: &Dictionary,
    members: Option<&BTreeSet<Asn>>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_shadowed_rules(&config.import_rules, &mut out);
    check_contradictory_rules(&config.import_rules, &mut out);
    if let Some(members) = members {
        check_ineffective_rules(&config.import_rules, members, &mut out);
        check_ineffective_entries(dict, members, &mut out);
    }
    check_ambiguous_patterns(dict, &mut out);
    check_composed_actions(config, dict, &mut out);
    out
}

/// The single-AS action targets on `routes` (classified against `dict`)
/// that have no session at the RS — the static side of the §5.5
/// effectiveness split. The dynamic side (`examples/ineffective_audit`)
/// must compute the identical set from the route server's digested
/// policies.
pub fn ineffective_targets<'a>(
    dict: &Dictionary,
    members: &BTreeSet<Asn>,
    routes: impl Iterator<Item = &'a Route>,
) -> BTreeSet<Asn> {
    let mut out = BTreeSet::new();
    for route in routes {
        for (_, classification) in classify_route(dict, route) {
            let Some(action) = classification.action() else {
                continue;
            };
            if action.target.is_ineffective(|a| members.contains(&a)) {
                out.extend(action.target.peer_asn());
            }
        }
    }
    out
}

// --- match-set model ---------------------------------------------------

/// A rule matcher as closed sets per dimension (`None` = everything).
/// Prefix length is the one interval-valued dimension.
#[derive(Debug, Clone, Copy)]
struct Dims {
    afi: Option<Afi>,
    len: (u8, u8),
    peer: Option<Asn>,
    community: Option<Pattern>,
}

fn dims(m: &RuleMatch) -> Dims {
    Dims {
        afi: m.afi,
        len: m.prefix_len.unwrap_or((0, 128)),
        peer: m.peer,
        community: m.community,
    }
}

fn afi_covers(a: Option<Afi>, b: Option<Afi>) -> bool {
    match (a, b) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(x), Some(y)) => x == y,
    }
}

fn peer_covers(a: Option<Asn>, b: Option<Asn>) -> bool {
    match (a, b) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(x), Some(y)) => x == y,
    }
}

/// `(high, lo, hi)` of the community values a pattern matches.
fn pattern_interval(p: &Pattern) -> (u16, u16, u16) {
    match *p {
        Pattern::Exact(c) => (c.high(), c.low(), c.low()),
        Pattern::PeerAsnLow { high } => (high, 0, u16::MAX),
        Pattern::LowRange { high, lo, hi } => (high, lo, hi),
    }
}

/// Does `a`'s community constraint cover `b`'s? A route satisfying
/// "has a community matching `b`" then also satisfies `a`.
fn community_covers(a: Option<Pattern>, b: Option<Pattern>) -> bool {
    match (a, b) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(pa), Some(pb)) => {
            let (ha, la, ra) = pattern_interval(&pa);
            let (hb, lb, rb) = pattern_interval(&pb);
            ha == hb && la <= lb && rb <= ra
        }
    }
}

fn len_covers(a: (u8, u8), b: (u8, u8)) -> bool {
    a.0 <= b.0 && b.1 <= a.1
}

fn covers_except_len(a: &Dims, b: &Dims) -> bool {
    afi_covers(a.afi, b.afi)
        && peer_covers(a.peer, b.peer)
        && community_covers(a.community, b.community)
}

/// Can some route match both rules? Communities never exclude each
/// other here: a route may carry one community matching each pattern.
fn intersects(a: &Dims, b: &Dims) -> bool {
    let afi_ok = match (a.afi, b.afi) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    };
    let peer_ok = match (a.peer, b.peer) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    };
    let len_ok = a.len.0 <= b.len.1 && b.len.0 <= a.len.1;
    afi_ok && peer_ok && len_ok
}

// --- SC001: shadowed rules ---------------------------------------------

fn check_shadowed_rules(rules: &[ImportRule], out: &mut Vec<Diagnostic>) {
    let all: Vec<Dims> = rules.iter().map(|r| dims(&r.matcher)).collect();
    for (j, rule) in rules.iter().enumerate() {
        let late = &all[j];
        // single-rule coverage
        if let Some((i, earlier)) = rules[..j]
            .iter()
            .enumerate()
            .find(|(i, _)| covers_except_len(&all[*i], late) && len_covers(all[*i].len, late.len))
        {
            out.push(Diagnostic::new(
                "SC001",
                Severity::Error,
                format!("import_rules[{j}] '{}'", rule.name),
                format!(
                    "rule can never match: every route it matches is already \
                     decided by earlier rule '{}' (#{i})",
                    earlier.name
                ),
            ));
            continue;
        }
        // multi-rule coverage: rules covering all dimensions except
        // prefix length, whose length intervals union-cover this rule's.
        let mut intervals: Vec<(u8, u8)> = rules[..j]
            .iter()
            .enumerate()
            .filter(|(i, _)| covers_except_len(&all[*i], late))
            .map(|(i, _)| all[i].len)
            .collect();
        if intervals.len() < 2 {
            continue;
        }
        intervals.sort_unstable();
        let mut covered_to: Option<u8> = None; // highest length covered so far, from late.len.0
        for (lo, hi) in intervals {
            let reach = match covered_to {
                None => {
                    if lo > late.len.0 {
                        break;
                    }
                    hi
                }
                Some(c) => {
                    if lo > c.saturating_add(1) {
                        break;
                    }
                    c.max(hi)
                }
            };
            covered_to = Some(reach);
            if reach >= late.len.1 {
                break;
            }
        }
        if covered_to.is_some_and(|c| c >= late.len.1) {
            out.push(Diagnostic::new(
                "SC001",
                Severity::Error,
                format!("import_rules[{j}] '{}'", rule.name),
                "rule can never match: earlier rules jointly cover its entire \
                 prefix-length range"
                    .to_string(),
            ));
        }
    }
}

// --- SC002: contradictory actions --------------------------------------

fn contradictory(a: Action, b: Action) -> bool {
    let pair = |x: &Action, y: &Action| match (x.kind, y.kind) {
        (ActionKind::AnnounceOnlyTo, ActionKind::DoNotAnnounceTo) => x.target == y.target,
        (ActionKind::Blackhole, ActionKind::PrependTo(_)) => true,
        _ => false,
    };
    pair(&a, &b) || pair(&b, &a)
}

fn check_contradictory_rules(rules: &[ImportRule], out: &mut Vec<Diagnostic>) {
    let all: Vec<Dims> = rules.iter().map(|r| dims(&r.matcher)).collect();
    for i in 0..rules.len() {
        let RuleAction::Apply(a) = rules[i].action else {
            continue;
        };
        for j in (i + 1)..rules.len() {
            let RuleAction::Apply(b) = rules[j].action else {
                continue;
            };
            if intersects(&all[i], &all[j]) && contradictory(a, b) {
                out.push(Diagnostic::new(
                    "SC002",
                    Severity::Error,
                    format!(
                        "import_rules[{i}] '{}' vs import_rules[{j}] '{}'",
                        rules[i].name, rules[j].name
                    ),
                    format!(
                        "rules with intersecting matchers apply contradictory \
                         actions ({:?} vs {:?})",
                        a.kind, b.kind
                    ),
                ));
            }
        }
    }
}

// --- SC003: statically ineffective targets ------------------------------

fn check_ineffective_rules(
    rules: &[ImportRule],
    members: &BTreeSet<Asn>,
    out: &mut Vec<Diagnostic>,
) {
    for (i, rule) in rules.iter().enumerate() {
        let RuleAction::Apply(action) = rule.action else {
            continue;
        };
        if action.target.is_ineffective(|a| members.contains(&a)) {
            out.push(Diagnostic::new(
                "SC003",
                Severity::Error,
                format!("import_rules[{i}] '{}'", rule.name),
                format!(
                    "action targets {} which has no session at the \
                     route server — the rule is statically ineffective",
                    action.target
                ),
            ));
        }
    }
}

fn check_ineffective_entries(
    dict: &Dictionary,
    members: &BTreeSet<Asn>,
    out: &mut Vec<Diagnostic>,
) {
    for entry in dict.entries() {
        // Templated patterns hold a placeholder target resolved per
        // matched community; only concrete targets are statically known.
        if matches!(entry.pattern, Pattern::PeerAsnLow { .. }) {
            continue;
        }
        let Semantics::Action(action) = entry.semantics else {
            continue;
        };
        if action.target.is_ineffective(|a| members.contains(&a)) {
            // Warning, not error: the paper (§5.5) shows operators tag
            // absent targets defensively on purpose; this must not
            // block collection pre-flight.
            out.push(Diagnostic::new(
                "SC003",
                Severity::Warning,
                format!("dict({:?}) {:?}", dict.ixp(), entry.pattern),
                format!(
                    "dictionary action '{}' targets {} which has no \
                     session at the route server",
                    entry.description, action.target
                ),
            ));
        }
    }
}

// --- SC004: ambiguous dictionary patterns -------------------------------

/// The community values matched by both patterns, if any.
fn overlap(p1: &Pattern, p2: &Pattern) -> Option<(u16, u16, u16)> {
    let (h1, l1, r1) = pattern_interval(p1);
    let (h2, l2, r2) = pattern_interval(p2);
    if h1 != h2 {
        return None;
    }
    let lo = l1.max(l2);
    let hi = r1.min(r2);
    if lo <= hi {
        Some((h1, lo, hi))
    } else {
        None
    }
}

fn resolved(e: &DictionaryEntry, high: u16, low: u16) -> Semantics {
    let c = bgp_model::community::StandardCommunity::from_parts(high, low);
    e.pattern.resolve(e.semantics, c)
}

fn check_ambiguous_patterns(dict: &Dictionary, out: &mut Vec<Diagnostic>) {
    // group by the fixed high bits: patterns with different highs are
    // disjoint by construction
    let mut by_high: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
    let entries = dict.entries();
    for (i, e) in entries.iter().enumerate() {
        by_high.entry(e.pattern.high()).or_default().push(i);
    }
    for group in by_high.values() {
        for (gi, &i) in group.iter().enumerate() {
            for &j in &group[gi + 1..] {
                let (e1, e2) = (&entries[i], &entries[j]);
                let Some((high, lo, hi)) = overlap(&e1.pattern, &e2.pattern) else {
                    continue;
                };
                // sample the overlap: a finding requires a concrete value
                // that genuinely resolves to two different meanings
                let mid = lo + (hi - lo) / 2;
                let witness = [lo, mid, hi]
                    .into_iter()
                    .find(|&v| resolved(e1, high, v) != resolved(e2, high, v));
                let Some(v) = witness else {
                    continue;
                };
                // containment is deterministically resolved by the
                // specificity precedence (smaller pattern wins) — still
                // ambiguous on paper, but only warning-grade. Partial or
                // exact overlap has no such tiebreak: error.
                let (_, l1, r1) = pattern_interval(&e1.pattern);
                let (_, l2, r2) = pattern_interval(&e2.pattern);
                let strict_containment =
                    (l1, r1) != (l2, r2) && ((l1 <= l2 && r2 <= r1) || (l2 <= l1 && r1 <= r2));
                let severity = if strict_containment {
                    Severity::Warning
                } else {
                    Severity::Error
                };
                out.push(Diagnostic::new(
                    "SC004",
                    severity,
                    format!(
                        "dict({:?}) {:?} vs {:?}",
                        dict.ixp(),
                        e1.pattern,
                        e2.pattern
                    ),
                    format!(
                        "community {high}:{v} parses under two semantics \
                         ('{}' vs '{}')",
                        e1.description, e2.description
                    ),
                ));
            }
        }
    }
}

// --- SC005: actions that can never take effect ---------------------------

/// Export-visible outcome equality of two digested policies under
/// `config`. Probes [`RoutePolicy::decide`] at every ASN either policy
/// names plus one fresh sentinel (decisions are constant over unnamed
/// peers, so the sentinel stands for all of them), and the blackhole
/// flag only where the IXP honors it.
fn same_outcome(config: &RsConfig, a: &RoutePolicy, b: &RoutePolicy) -> bool {
    let mut peers: BTreeSet<Asn> = a.peer_targets().chain(b.peer_targets()).collect();
    let mut sentinel = 64512u32;
    while peers.contains(&Asn(sentinel)) {
        sentinel += 1;
    }
    peers.insert(Asn(sentinel));
    peers.iter().all(|&p| a.decide(p) == b.decide(p))
        && (!config.blackhole_enabled || a.blackhole == b.blackhole)
}

/// The minimal-carrier base policy for one witness: a route carrying
/// exactly the matcher's community, digested against the dictionary.
fn base_policy(dict: &Dictionary, witness: Option<(u16, u16)>) -> RoutePolicy {
    let mut p = RoutePolicy::default();
    if let Some((high, low)) = witness {
        let c = bgp_model::community::StandardCommunity::from_parts(high, low);
        if let Some(action) = dict.classify(c).action() {
            p.apply_action(action);
        }
    }
    p
}

/// SC005: abstract-interpret each `Apply` rule along import→action→
/// export. The symbolic route carries exactly what the matcher requires
/// (its community pattern, sampled at `[lo, mid, hi]`); if composing the
/// applied action changes the export outcome for no witness, the action
/// can never take effect.
fn check_composed_actions(config: &RsConfig, dict: &Dictionary, out: &mut Vec<Diagnostic>) {
    for (i, rule) in config.import_rules.iter().enumerate() {
        let RuleAction::Apply(applied) = rule.action else {
            continue;
        };
        // witness communities the matched route must carry
        let witnesses: Vec<Option<(u16, u16)>> = match rule.matcher.community {
            Some(p) => {
                let (high, lo, hi) = pattern_interval(&p);
                let mid = lo + (hi - lo) / 2;
                let mut vs: Vec<u16> = vec![lo, mid, hi];
                vs.dedup();
                vs.into_iter().map(|v| Some((high, v))).collect()
            }
            None => vec![None],
        };
        let ineffective = witnesses.iter().all(|&w| {
            let base = base_policy(dict, w);
            let mut composed = base.clone();
            composed.apply_action(applied);
            same_outcome(config, &base, &composed)
        });
        if !ineffective {
            continue;
        }
        let witness_text = match witnesses[0] {
            Some((h, v)) => format!("witness community {h}:{v}"),
            None => "witness route with no communities".to_string(),
        };
        let message = if applied.kind == ActionKind::Blackhole && !config.blackhole_enabled {
            format!(
                "applied action '{applied}' can never take effect: this IXP \
                 does not honor blackhole requests ({witness_text})"
            )
        } else {
            format!(
                "applied action '{applied}' can never take effect: the export \
                 outcome is identical with and without it ({witness_text})"
            )
        };
        out.push(Diagnostic::new(
            "SC005",
            Severity::Error,
            format!("import_rules[{i}] '{}'", rule.name),
            message,
        ));
    }
}

// --- SC006: cross-dictionary semantic drift -------------------------------

/// SC006: the same community pattern mapped to conflicting action
/// semantics at different IXPs. For every overlapping action-entry pair
/// across two dictionaries, witness values from the overlap are resolved
/// through the production [`Pattern::resolve`]; actions in a different
/// [`ActionGroup`](community_dict::action::ActionGroup) are error-grade
/// conflicts, same-group disagreements (e.g. avoid-all vs avoid-peer)
/// are warning-grade scope drift.
pub fn verify_cross_dictionaries(dicts: &[Dictionary]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (di, d1) in dicts.iter().enumerate() {
        for d2 in &dicts[di + 1..] {
            if d1.ixp() == d2.ixp() {
                continue;
            }
            for e1 in d1.entries() {
                if !e1.semantics.is_action() {
                    continue;
                }
                for e2 in d2.entries() {
                    if !e2.semantics.is_action() {
                        continue;
                    }
                    let Some((high, lo, hi)) = overlap(&e1.pattern, &e2.pattern) else {
                        continue;
                    };
                    let mid = lo + (hi - lo) / 2;
                    let conflict = [lo, mid, hi].into_iter().find_map(|v| {
                        let a1 = resolved(e1, high, v).action()?;
                        let a2 = resolved(e2, high, v).action()?;
                        (a1 != a2).then_some((v, a1, a2))
                    });
                    let Some((v, a1, a2)) = conflict else {
                        continue;
                    };
                    let severity = if a1.kind.group() == a2.kind.group() {
                        Severity::Warning
                    } else {
                        Severity::Error
                    };
                    let drift = if severity == Severity::Warning {
                        "scope drift"
                    } else {
                        "conflicting actions"
                    };
                    out.push(Diagnostic::new(
                        "SC006",
                        severity,
                        format!(
                            "dict({:?}) {:?} vs dict({:?}) {:?}",
                            d1.ixp(),
                            e1.pattern,
                            d2.ixp(),
                            e2.pattern
                        ),
                        format!(
                            "{drift}: community {high}:{v} means '{a1}' at {:?} \
                             but '{a2}' at {:?}",
                            d1.ixp(),
                            d2.ixp()
                        ),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use community_dict::action::Target;
    use community_dict::entry::DictionaryEntry;
    use community_dict::ixp::IxpId;
    use community_dict::semantics::InfoKind;

    use bgp_model::community::StandardCommunity;

    const C: fn(u16, u16) -> StandardCommunity = StandardCommunity::from_parts;

    fn rule(name: &str, matcher: RuleMatch, action: RuleAction) -> ImportRule {
        ImportRule {
            name: name.into(),
            matcher,
            action,
        }
    }

    fn config_with(rules: Vec<ImportRule>) -> RsConfig {
        RsConfig::for_ixp(IxpId::DeCixFra).with_import_rules(rules)
    }

    fn empty_dict() -> Dictionary {
        Dictionary::new(IxpId::DeCixFra, Vec::new())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_config_is_clean() {
        let diags = verify(&config_with(Vec::new()), &empty_dict(), None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn catch_all_shadows_later_rule() {
        let diags = verify(
            &config_with(vec![
                rule("all", RuleMatch::default(), RuleAction::Accept),
                rule(
                    "narrow",
                    RuleMatch {
                        prefix_len: Some((24, 24)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Reject,
                ),
            ]),
            &empty_dict(),
            None,
        );
        assert_eq!(codes(&diags), vec!["SC001"]);
        assert!(diags[0].location.contains("narrow"));
    }

    #[test]
    fn narrower_first_is_not_shadowed() {
        let diags = verify(
            &config_with(vec![
                rule(
                    "narrow",
                    RuleMatch {
                        prefix_len: Some((24, 24)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Reject,
                ),
                rule("all", RuleMatch::default(), RuleAction::Accept),
            ]),
            &empty_dict(),
            None,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn union_of_length_ranges_shadows() {
        let diags = verify(
            &config_with(vec![
                rule(
                    "short",
                    RuleMatch {
                        prefix_len: Some((0, 20)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Accept,
                ),
                rule(
                    "long",
                    RuleMatch {
                        prefix_len: Some((21, 128)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Accept,
                ),
                rule("dead", RuleMatch::default(), RuleAction::Reject),
            ]),
            &empty_dict(),
            None,
        );
        assert_eq!(codes(&diags), vec!["SC001"]);
        assert!(diags[0].message.contains("jointly"));
    }

    #[test]
    fn gap_in_union_means_no_shadow() {
        let diags = verify(
            &config_with(vec![
                rule(
                    "short",
                    RuleMatch {
                        prefix_len: Some((0, 19)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Accept,
                ),
                rule(
                    "long",
                    RuleMatch {
                        prefix_len: Some((21, 128)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Accept,
                ),
                rule("alive", RuleMatch::default(), RuleAction::Reject),
            ]),
            &empty_dict(),
            None,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn community_pattern_containment_shadows() {
        let broad = Pattern::PeerAsnLow { high: 0 };
        let narrow = Pattern::Exact(C(0, 6939));
        let diags = verify(
            &config_with(vec![
                rule(
                    "broad",
                    RuleMatch {
                        community: Some(broad),
                        ..RuleMatch::default()
                    },
                    RuleAction::Reject,
                ),
                rule(
                    "narrow",
                    RuleMatch {
                        community: Some(narrow),
                        ..RuleMatch::default()
                    },
                    RuleAction::Accept,
                ),
            ]),
            &empty_dict(),
            None,
        );
        assert_eq!(codes(&diags), vec!["SC001"]);
    }

    #[test]
    fn contradictory_apply_rules_flagged() {
        let diags = verify(
            &config_with(vec![
                rule(
                    "only-he",
                    RuleMatch {
                        afi: Some(Afi::Ipv4),
                        ..RuleMatch::default()
                    },
                    RuleAction::Apply(Action::only(Asn(6939))),
                ),
                rule(
                    "avoid-he",
                    RuleMatch {
                        prefix_len: Some((24, 24)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Apply(Action::avoid(Asn(6939))),
                ),
            ]),
            &empty_dict(),
            None,
        );
        // the narrow rule is also shadow-free and target-checks are off
        assert_eq!(codes(&diags), vec!["SC002"]);
    }

    #[test]
    fn blackhole_plus_prepend_flagged() {
        let diags = verify(
            &config_with(vec![
                rule(
                    "bh",
                    RuleMatch {
                        afi: Some(Afi::Ipv4),
                        ..RuleMatch::default()
                    },
                    RuleAction::Apply(Action::blackhole()),
                ),
                rule(
                    "pp",
                    RuleMatch {
                        peer: Some(Asn(64500)),
                        ..RuleMatch::default()
                    },
                    RuleAction::Apply(Action::new(
                        ActionKind::PrependTo(2),
                        Target::Peer(Asn(6939)),
                    )),
                ),
            ]),
            &empty_dict(),
            None,
        );
        assert_eq!(codes(&diags), vec!["SC002"]);
    }

    #[test]
    fn disjoint_matchers_do_not_contradict() {
        let diags = verify(
            &config_with(vec![
                rule(
                    "v4",
                    RuleMatch {
                        afi: Some(Afi::Ipv4),
                        ..RuleMatch::default()
                    },
                    RuleAction::Apply(Action::only(Asn(6939))),
                ),
                rule(
                    "v6",
                    RuleMatch {
                        afi: Some(Afi::Ipv6),
                        ..RuleMatch::default()
                    },
                    RuleAction::Apply(Action::avoid(Asn(6939))),
                ),
            ]),
            &empty_dict(),
            None,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn ineffective_rule_target_flagged_with_members() {
        let members: BTreeSet<Asn> = [Asn(39120), Asn(6939)].into_iter().collect();
        let config = config_with(vec![rule(
            "avoid-ovh",
            RuleMatch::default(),
            RuleAction::Apply(Action::avoid(Asn(16276))),
        )]);
        let diags = verify(&config, &empty_dict(), Some(&members));
        assert_eq!(codes(&diags), vec!["SC003"]);
        assert_eq!(diags[0].severity, Severity::Error);
        // without a member set the check is skipped
        assert!(verify(&config, &empty_dict(), None).is_empty());
    }

    #[test]
    fn ineffective_dict_entry_is_warning() {
        let members: BTreeSet<Asn> = [Asn(39120)].into_iter().collect();
        let dict = Dictionary::new(
            IxpId::DeCixFra,
            vec![DictionaryEntry::new(
                Pattern::Exact(C(65001, 16276)),
                Semantics::Action(Action::avoid(Asn(16276))),
                "avoid OVH",
            )],
        );
        let diags = verify(&config_with(Vec::new()), &dict, Some(&members));
        assert_eq!(codes(&diags), vec!["SC003"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn ambiguous_partial_overlap_is_error() {
        let dict = Dictionary::new(
            IxpId::DeCixFra,
            vec![
                DictionaryEntry::new(
                    Pattern::LowRange {
                        high: 65100,
                        lo: 0,
                        hi: 10,
                    },
                    Semantics::Informational(InfoKind::LearnedAt(0)),
                    "learned at",
                ),
                DictionaryEntry::new(
                    Pattern::LowRange {
                        high: 65100,
                        lo: 5,
                        hi: 20,
                    },
                    Semantics::Action(Action::blackhole()),
                    "blackhole block",
                ),
            ],
        );
        let diags = verify(&config_with(Vec::new()), &dict, None);
        assert_eq!(codes(&diags), vec!["SC004"]);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn containment_with_distinct_semantics_is_warning() {
        let dict = Dictionary::new(
            IxpId::DeCixFra,
            vec![
                DictionaryEntry::new(
                    Pattern::Exact(C(0, 6695)),
                    Semantics::Action(Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers)),
                    "avoid all",
                ),
                DictionaryEntry::new(
                    Pattern::PeerAsnLow { high: 0 },
                    Semantics::Action(Action::avoid(Asn(0))),
                    "avoid peer",
                ),
            ],
        );
        let diags = verify(&config_with(Vec::new()), &dict, None);
        assert_eq!(codes(&diags), vec!["SC004"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn containment_with_agreeing_semantics_is_silent() {
        // an exact entry that documents exactly what the template resolves
        // to is redundancy, not ambiguity
        let dict = Dictionary::new(
            IxpId::DeCixFra,
            vec![
                DictionaryEntry::new(
                    Pattern::Exact(C(0, 6939)),
                    Semantics::Action(Action::avoid(Asn(6939))),
                    "avoid HE",
                ),
                DictionaryEntry::new(
                    Pattern::PeerAsnLow { high: 0 },
                    Semantics::Action(Action::avoid(Asn(0))),
                    "avoid peer",
                ),
            ],
        );
        let diags = verify(&config_with(Vec::new()), &dict, None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sc005_action_already_implied_by_matched_community() {
        // the matcher requires the avoid-all community; composing an
        // avoid-HE on top changes nothing: HE is already denied
        let avoid_all = Pattern::Exact(C(65001, 49999));
        let dict = Dictionary::new(
            IxpId::DeCixFra,
            vec![DictionaryEntry::new(
                avoid_all,
                Semantics::Action(Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers)),
                "avoid all",
            )],
        );
        let config = config_with(vec![rule(
            "redundant-avoid",
            RuleMatch {
                community: Some(avoid_all),
                ..RuleMatch::default()
            },
            RuleAction::Apply(Action::avoid(Asn(6939))),
        )]);
        let diags = verify(&config, &dict, None);
        assert_eq!(codes(&diags), vec!["SC005"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("witness community 65001:49999"));
        assert!(diags[0].location.contains("redundant-avoid"));
    }

    #[test]
    fn sc005_effective_action_is_silent() {
        let config = config_with(vec![rule(
            "avoid-he",
            RuleMatch::default(),
            RuleAction::Apply(Action::avoid(Asn(6939))),
        )]);
        assert!(verify(&config, &empty_dict(), None).is_empty());
    }

    #[test]
    fn sc005_region_target_is_a_noop() {
        // region-targeted actions never influence export in this model
        let config = config_with(vec![rule(
            "regional",
            RuleMatch::default(),
            RuleAction::Apply(Action::new(ActionKind::DoNotAnnounceTo, Target::Region(3))),
        )]);
        let diags = verify(&config, &empty_dict(), None);
        assert_eq!(codes(&diags), vec!["SC005"]);
    }

    #[test]
    fn sc005_blackhole_where_unsupported_names_the_reason() {
        // LINX does not honor blackhole requests (§5.3 support matrix)
        let config = RsConfig::for_ixp(IxpId::Linx).with_import_rules(vec![rule(
            "bh",
            RuleMatch::default(),
            RuleAction::Apply(Action::blackhole()),
        )]);
        assert!(!config.blackhole_enabled);
        let dict = Dictionary::new(IxpId::Linx, Vec::new());
        let diags = verify(&config, &dict, None);
        assert_eq!(codes(&diags), vec!["SC005"]);
        assert!(diags[0].message.contains("blackhole"), "{diags:?}");
        // where blackhole IS honored the same rule is effective
        let config = config_with(vec![rule(
            "bh",
            RuleMatch::default(),
            RuleAction::Apply(Action::blackhole()),
        )]);
        assert!(config.blackhole_enabled);
        assert!(verify(&config, &empty_dict(), None).is_empty());
    }

    #[test]
    fn sc006_conflicting_kinds_are_error() {
        let d1 = Dictionary::new(
            IxpId::DeCixFra,
            vec![DictionaryEntry::new(
                Pattern::Exact(C(65100, 10)),
                Semantics::Action(Action::avoid(Asn(6939))),
                "avoid HE",
            )],
        );
        let d2 = Dictionary::new(
            IxpId::AmsIx,
            vec![DictionaryEntry::new(
                Pattern::LowRange {
                    high: 65100,
                    lo: 0,
                    hi: 20,
                },
                Semantics::Action(Action::blackhole()),
                "blackhole block",
            )],
        );
        let diags = verify_cross_dictionaries(&[d1, d2]);
        assert_eq!(codes(&diags), vec!["SC006"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("65100:10"), "{diags:?}");
    }

    #[test]
    fn sc006_same_group_is_scope_drift_warning() {
        let d1 = Dictionary::new(
            IxpId::DeCixFra,
            vec![DictionaryEntry::new(
                Pattern::Exact(C(0, 7)),
                Semantics::Action(Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers)),
                "avoid all",
            )],
        );
        let d2 = Dictionary::new(
            IxpId::AmsIx,
            vec![DictionaryEntry::new(
                Pattern::PeerAsnLow { high: 0 },
                Semantics::Action(Action::avoid(Asn(0))),
                "avoid peer",
            )],
        );
        let diags = verify_cross_dictionaries(&[d1, d2]);
        assert_eq!(codes(&diags), vec!["SC006"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("scope drift"));
    }

    #[test]
    fn sc006_agreeing_semantics_are_silent() {
        // two IXPs documenting the same avoid-peer template do not drift
        let mk = |ixp| {
            Dictionary::new(
                ixp,
                vec![DictionaryEntry::new(
                    Pattern::PeerAsnLow { high: 0 },
                    Semantics::Action(Action::avoid(Asn(0))),
                    "avoid peer",
                )],
            )
        };
        let diags = verify_cross_dictionaries(&[mk(IxpId::DeCixFra), mk(IxpId::AmsIx)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn scheme_cross_dictionary_drift_is_warning_grade_only() {
        // the real 8 schemes share the avoid/only templates at high 0;
        // their drift must be scope-level, never conflicting kinds
        let dicts: Vec<Dictionary> = IxpId::ALL
            .iter()
            .map(|&ixp| community_dict::schemes::dictionary(ixp))
            .collect();
        let errors: Vec<Diagnostic> = verify_cross_dictionaries(&dicts)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn scheme_dictionaries_have_no_error_grade_findings() {
        // the committed tree must pass the gate: the real per-IXP schemes
        // may carry containment warnings but no errors
        for ixp in IxpId::ALL {
            let config = RsConfig::for_ixp(ixp);
            let dict = community_dict::schemes::dictionary(ixp);
            let errors: Vec<Diagnostic> = verify(&config, &dict, None)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{ixp:?}: {errors:?}");
        }
    }

    #[test]
    fn ineffective_targets_pure_function() {
        let dict = community_dict::schemes::dictionary(IxpId::DeCixFra);
        let members: BTreeSet<Asn> = [Asn(39120), Asn(6939)].into_iter().collect();
        let route = Route::builder(
            "193.0.10.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([39120])
        .standard(community_dict::schemes::avoid_community(
            IxpId::DeCixFra,
            Asn(6939),
        ))
        .standard(community_dict::schemes::avoid_community(
            IxpId::DeCixFra,
            Asn(16276),
        ))
        .build();
        let set = ineffective_targets(&dict, &members, std::iter::once(&route));
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![Asn(16276)]);
    }
}
