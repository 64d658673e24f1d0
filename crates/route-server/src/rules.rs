//! Declarative per-route import rules.
//!
//! Real route servers let operators express policy beyond the built-in
//! sanity filters: "reject /25-and-longer from AS64500", "treat anything
//! tagged `65000:0` as do-not-announce-to-all". [`RsConfig`] carries an
//! ordered list of [`ImportRule`]s; after a route clears the built-in
//! [`check_import`](crate::filter::check_import) filters, the **first**
//! rule whose [`RuleMatch`] covers the route decides: accept it as-is,
//! reject it (surfaced as
//! [`PolicyRule`](crate::filter::FilterReason::PolicyRule)), or apply an
//! extra [`Action`] on top of whatever the route's own communities request.
//!
//! First-match-wins makes rule order significant — which is exactly what
//! the `staticheck` policy verifier analyses statically: a rule whose
//! match set is fully covered by earlier rules can never fire (SC001),
//! and Apply rules with contradictory actions on intersecting match sets
//! fight each other (SC002).

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;

use community_dict::action::Action;
use community_dict::pattern::Pattern;

/// What a matching rule does to the route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RuleAction {
    /// Accept the route unchanged (stop evaluating further rules).
    Accept,
    /// Reject the route
    /// ([`PolicyRule`](crate::filter::FilterReason::PolicyRule)).
    Reject,
    /// Accept and additionally apply this action, as if the route had
    /// carried the corresponding community.
    Apply(Action),
}

/// The match side of one rule. Every field is optional; `None` matches
/// anything, so the empty matcher is a catch-all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RuleMatch {
    /// Restrict to one address family.
    #[serde(default)]
    pub afi: Option<Afi>,
    /// Restrict to prefix lengths in `lo..=hi` (inclusive).
    #[serde(default)]
    pub prefix_len: Option<(u8, u8)>,
    /// Restrict to routes announced by this member.
    #[serde(default)]
    pub peer: Option<Asn>,
    /// Require at least one standard community matching this pattern.
    #[serde(default)]
    pub community: Option<Pattern>,
}

impl RuleMatch {
    /// Does this matcher cover `route` as announced by `peer`?
    pub(crate) fn matches(&self, peer: Asn, route: &Route) -> bool {
        if let Some(afi) = self.afi {
            if route.afi() != afi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.prefix_len {
            if !(lo..=hi).contains(&route.prefix.len()) {
                return false;
            }
        }
        if let Some(p) = self.peer {
            if peer != p {
                return false;
            }
        }
        if let Some(pattern) = self.community {
            if !route
                .standard_communities
                .iter()
                .any(|c| pattern.matches(*c))
            {
                return false;
            }
        }
        true
    }
}

/// One named, ordered import rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportRule {
    /// Operator-facing name (diagnostic locations point at it).
    pub name: String,
    /// Match side.
    #[serde(default)]
    pub matcher: RuleMatch,
    /// Action on match.
    pub action: RuleAction,
}

/// Evaluate an ordered rule list: the first match decides.
/// `None` means no rule matched (the implicit default is accept).
pub(crate) fn evaluate<'a>(
    rules: &'a [ImportRule],
    peer: Asn,
    route: &Route,
) -> Option<&'a ImportRule> {
    rules.iter().find(|r| r.matcher.matches(peer, route))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::community::StandardCommunity;

    fn route(pfx: &str, cs: &[StandardCommunity]) -> Route {
        Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path([64500])
            .standards(cs.iter().copied())
            .build()
    }

    fn rule(name: &str, matcher: RuleMatch, action: RuleAction) -> ImportRule {
        ImportRule {
            name: name.into(),
            matcher,
            action,
        }
    }

    #[test]
    fn empty_matcher_is_catch_all() {
        let m = RuleMatch::default();
        assert!(m.matches(Asn(1), &route("193.0.10.0/24", &[])));
    }

    #[test]
    fn dimensions_restrict_independently() {
        let r = route("193.0.10.0/24", &[StandardCommunity::from_parts(65000, 7)]);
        let hit = RuleMatch {
            afi: Some(Afi::Ipv4),
            prefix_len: Some((20, 24)),
            peer: Some(Asn(64500)),
            community: Some(Pattern::Exact(StandardCommunity::from_parts(65000, 7))),
        };
        assert!(hit.matches(Asn(64500), &r));
        assert!(!RuleMatch {
            afi: Some(Afi::Ipv6),
            ..hit
        }
        .matches(Asn(64500), &r));
        assert!(!RuleMatch {
            prefix_len: Some((25, 32)),
            ..hit
        }
        .matches(Asn(64500), &r));
        assert!(!hit.matches(Asn(64501), &r));
        assert!(!RuleMatch {
            community: Some(Pattern::Exact(StandardCommunity::from_parts(65000, 8))),
            ..hit
        }
        .matches(Asn(64500), &r));
    }

    #[test]
    fn first_match_wins() {
        let rules = vec![
            rule(
                "narrow",
                RuleMatch {
                    prefix_len: Some((24, 24)),
                    ..RuleMatch::default()
                },
                RuleAction::Reject,
            ),
            rule("all", RuleMatch::default(), RuleAction::Accept),
        ];
        let hit = evaluate(&rules, Asn(1), &route("193.0.10.0/24", &[])).unwrap();
        assert_eq!(hit.name, "narrow");
        let hit = evaluate(&rules, Asn(1), &route("193.0.0.0/16", &[])).unwrap();
        assert_eq!(hit.name, "all");
    }

    #[test]
    fn no_match_returns_none() {
        let rules = vec![rule(
            "v6-only",
            RuleMatch {
                afi: Some(Afi::Ipv6),
                ..RuleMatch::default()
            },
            RuleAction::Reject,
        )];
        assert!(evaluate(&rules, Asn(1), &route("193.0.10.0/24", &[])).is_none());
    }
}
