//! The action taxonomy of the paper (§5.3): every action BGP community an
//! IXP defines falls into one of four groups — *do-not-announce-to*,
//! *announce-only-to*, *prepend-to* and *blackholing* — and targets either
//! all peers, one AS, or a region/facility.

use std::fmt;

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;

/// The four action groups of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActionKind {
    /// Do not export the route to the target.
    DoNotAnnounceTo,
    /// Export the route only to the target.
    AnnounceOnlyTo,
    /// Prepend the announcing AS `n` times before exporting to the target.
    PrependTo(u8),
    /// Drop traffic towards the tagged prefix (RFC 7999).
    Blackhole,
}

impl ActionKind {
    /// Collapse prepend counts: the paper's Table 2 groups all prepend
    /// variants into one "Prepend to" row.
    pub const fn group(self) -> ActionGroup {
        match self {
            ActionKind::DoNotAnnounceTo => ActionGroup::DoNotAnnounceTo,
            ActionKind::AnnounceOnlyTo => ActionGroup::AnnounceOnlyTo,
            ActionKind::PrependTo(_) => ActionGroup::PrependTo,
            ActionKind::Blackhole => ActionGroup::Blackhole,
        }
    }
}

/// The four groups with prepend counts collapsed (Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActionGroup {
    /// "Do not announce to".
    DoNotAnnounceTo,
    /// "Announce only to".
    AnnounceOnlyTo,
    /// "Prepend to".
    PrependTo,
    /// "Blackholing".
    Blackhole,
}

impl ActionGroup {
    /// All groups, in the paper's Table 2 row order.
    pub const ALL: [ActionGroup; 4] = [
        ActionGroup::DoNotAnnounceTo,
        ActionGroup::AnnounceOnlyTo,
        ActionGroup::PrependTo,
        ActionGroup::Blackhole,
    ];

    /// Position of this group in [`ActionGroup::ALL`] — the index of its
    /// slot in per-group counter arrays. An exhaustive `match`, so a new
    /// group cannot compile without choosing its slot.
    pub const fn index(self) -> usize {
        match self {
            ActionGroup::DoNotAnnounceTo => 0,
            ActionGroup::AnnounceOnlyTo => 1,
            ActionGroup::PrependTo => 2,
            ActionGroup::Blackhole => 3,
        }
    }
}

impl fmt::Display for ActionGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionGroup::DoNotAnnounceTo => write!(f, "Do not announce to"),
            ActionGroup::AnnounceOnlyTo => write!(f, "Announce only to"),
            ActionGroup::PrependTo => write!(f, "Prepend to"),
            ActionGroup::Blackhole => write!(f, "Blackholing"),
        }
    }
}

/// Whom an action applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Target {
    /// Every RS peer ("redistribute to all" / "do not redistribute to all").
    AllPeers,
    /// One specific AS.
    Peer(Asn),
    /// A region or facility code (DE-CIX style metro communities).
    Region(u16),
    /// The tagged prefix itself (blackholing has no AS target).
    TaggedPrefix,
}

impl Target {
    /// The targeted ASN, when the target is a single AS.
    pub const fn peer_asn(self) -> Option<Asn> {
        match self {
            Target::Peer(asn) => Some(asn),
            _ => None,
        }
    }

    /// The paper's §5.5 "ineffective": a single-AS target is ineffective
    /// when that AS has no session at the route server (`is_member` says
    /// which ASes do). All-peers, region and tagged-prefix targets never
    /// are. The one definition the route server's accounting, the batch
    /// and incremental analyses and the static verifier share.
    pub fn is_ineffective(self, is_member: impl Fn(Asn) -> bool) -> bool {
        match self {
            Target::Peer(asn) => !is_member(asn),
            _ => false,
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::AllPeers => write!(f, "all peers"),
            Target::Peer(asn) => write!(f, "{asn}"),
            Target::Region(code) => write!(f, "region {code}"),
            Target::TaggedPrefix => write!(f, "tagged prefix"),
        }
    }
}

/// A fully-resolved action: what to do, and to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Action {
    /// What to do.
    pub kind: ActionKind,
    /// To whom.
    pub target: Target,
}

impl Action {
    /// Convenience constructor.
    pub const fn new(kind: ActionKind, target: Target) -> Self {
        Action { kind, target }
    }

    /// Do-not-announce to one AS.
    pub const fn avoid(asn: Asn) -> Self {
        Action::new(ActionKind::DoNotAnnounceTo, Target::Peer(asn))
    }

    /// Announce only to one AS.
    pub const fn only(asn: Asn) -> Self {
        Action::new(ActionKind::AnnounceOnlyTo, Target::Peer(asn))
    }

    /// Blackhole the tagged prefix.
    pub const fn blackhole() -> Self {
        Action::new(ActionKind::Blackhole, Target::TaggedPrefix)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ActionKind::DoNotAnnounceTo => write!(f, "do not announce to {}", self.target),
            ActionKind::AnnounceOnlyTo => write!(f, "announce only to {}", self.target),
            ActionKind::PrependTo(n) => write!(f, "prepend {n}x to {}", self.target),
            ActionKind::Blackhole => write!(f, "blackhole"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_collapses_prepend_counts() {
        assert_eq!(ActionKind::PrependTo(1).group(), ActionGroup::PrependTo);
        assert_eq!(ActionKind::PrependTo(3).group(), ActionGroup::PrependTo);
        assert_eq!(
            ActionKind::DoNotAnnounceTo.group(),
            ActionGroup::DoNotAnnounceTo
        );
        assert_eq!(ActionKind::Blackhole.group(), ActionGroup::Blackhole);
    }

    #[test]
    fn target_peer_extraction() {
        assert_eq!(Target::Peer(Asn(6939)).peer_asn(), Some(Asn(6939)));
        assert_eq!(Target::AllPeers.peer_asn(), None);
        assert_eq!(Target::Region(100).peer_asn(), None);
    }

    #[test]
    fn only_a_single_absent_as_is_ineffective() {
        let members = |asn: Asn| asn == Asn(6939);
        assert!(!Target::Peer(Asn(6939)).is_ineffective(members));
        assert!(Target::Peer(Asn(1916)).is_ineffective(members));
        assert!(!Target::AllPeers.is_ineffective(|_| false));
        assert!(!Target::Region(100).is_ineffective(|_| false));
        assert!(!Target::TaggedPrefix.is_ineffective(|_| false));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            Action::avoid(Asn(6939)).to_string(),
            "do not announce to AS6939"
        );
        assert_eq!(
            Action::new(ActionKind::PrependTo(2), Target::AllPeers).to_string(),
            "prepend 2x to all peers"
        );
        assert_eq!(Action::blackhole().to_string(), "blackhole");
        assert_eq!(
            ActionGroup::DoNotAnnounceTo.to_string(),
            "Do not announce to"
        );
    }

    #[test]
    fn all_groups_order_matches_table2() {
        assert_eq!(
            ActionGroup::ALL,
            [
                ActionGroup::DoNotAnnounceTo,
                ActionGroup::AnnounceOnlyTo,
                ActionGroup::PrependTo,
                ActionGroup::Blackhole,
            ]
        );
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, g) in ActionGroup::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
            assert_eq!(ActionGroup::ALL[g.index()], *g);
        }
    }
}
