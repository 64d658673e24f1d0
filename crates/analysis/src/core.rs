//! The one aggregation core. [`View::update_route`] owns "a route
//! contributes to the aggregates"; the per-figure functions
//! ([`fig1`](crate::figs_overview::fig1) … [`fig7`](crate::tops::fig7))
//! own "aggregates become figures" and read nothing but a [`View`].
//!
//! Both analysis paths are this code: the batch path folds a whole
//! snapshot into a fresh `View` with `Dir::Apply` ([`View::new`]); the
//! incremental engine ([`crate::incremental`]) keeps one `View` per
//! family alive and applies/retracts one route per store delta. Neither
//! ever walks routes again after the fold.
//!
//! # Interning
//!
//! The per-route path never scans the dictionary: community values and
//! ASNs are interned to dense `u32` row ids on first sight (a community
//! pays its one dictionary classification there), and every repeat is a
//! `Vec` index. The intern maps are lookup-only — nothing iterates them;
//! every figure is rebuilt through `BTreeMap`s keyed by the real values,
//! so row ids never reach the output.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bgp_model::asn::Asn;
use bgp_model::community::StandardCommunity;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;
use community_dict::action::Action;
use community_dict::classify::{classify_extended, classify_large};
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::semantics::{Classification, Semantics};
use looking_glass::snapshot::Snapshot;

/// Direction of a route update: the two halves of the counter monoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Add the route's contribution.
    Apply,
    /// Subtract it again.
    Retract,
}

/// Step a counter in `dir`. A retract undoes exactly one earlier apply,
/// so under a correct apply/retract pairing no counter is ever asked to
/// go below zero. When one is (a route retracted twice, or never
/// applied), the counter stays at zero and the event is counted in
/// `underflows` — reported, not hidden behind a saturating subtract.
fn step(counter: &mut u64, dir: Dir, underflows: &mut u64) {
    match dir {
        Dir::Apply => *counter = counter.saturating_add(1),
        Dir::Retract => match counter.checked_sub(1) {
            Some(n) => *counter = n,
            None => *underflows = underflows.saturating_add(1),
        },
    }
}

/// Interner: key → dense row id, the row created once on first sight.
/// `ids` is lookup-only; iteration happens over the dense `rows`.
#[derive(Debug, Clone)]
struct Interned<T> {
    ids: HashMap<u32, u32>,
    rows: Vec<(u32, T)>,
}

impl<T> Interned<T> {
    fn new() -> Self {
        Interned {
            ids: HashMap::new(),
            rows: Vec::new(),
        }
    }

    fn intern(&mut self, key: u32, new_row: impl FnOnce() -> T) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.rows.len() as u32;
        self.ids.insert(key, id);
        self.rows.push((key, new_row()));
        id
    }
}

/// Per-AS counters (one row per interned announcer).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PerAs {
    /// Routes announced by this AS.
    pub(crate) routes: u64,
    /// Routes carrying at least one action community.
    pub(crate) tagged: u64,
    /// Action instances across this AS's routes.
    pub(crate) instances: u64,
    /// Action instances per `ActionGroup::index()`.
    pub(crate) groups: [u64; 4],
}

/// One interned standard community: its classification, paid once, and
/// how many action instances of it are in the unit (Figs. 5–6).
#[derive(Debug, Clone, Copy)]
struct CommRow {
    class: Classification,
    instances: u64,
}

/// The aggregates of one (IXP, family) unit — every counter behind one
/// [`SnapshotReport`](crate::summary::SnapshotReport), and the only
/// input the figure functions take.
#[derive(Debug, Clone)]
pub struct View {
    pub(crate) ixp: IxpId,
    pub(crate) afi: Afi,
    /// Peers holding a session for this family (the figures'
    /// denominators and the §5.5 membership test).
    pub(crate) members: BTreeSet<Asn>,
    /// Community instances with no IXP meaning, all three types (Fig. 1).
    pub(crate) unknown: u64,
    /// IXP-defined extended instances (Figs. 1–2).
    pub(crate) ext_defined: u64,
    /// IXP-defined large instances (Figs. 1–2).
    pub(crate) large_defined: u64,
    /// Standard IXP-defined action instances (Figs. 3–7, Table 2, §5.5).
    pub(crate) std_action: u64,
    /// Standard IXP-defined informational instances (Figs. 1–3).
    pub(crate) std_info: u64,
    /// Routes (Fig. 4a).
    pub(crate) routes_total: u64,
    /// Action instances per group index (§5.3).
    pub(crate) insts_per_group: [u64; 4],
    /// Retracts that found their counter already at zero (see [`step`]).
    pub(crate) underflows: u64,
    asns: Interned<PerAs>,
    comms: Interned<CommRow>,
    /// Action instances per (ASN row, community row) — Fig. 7's
    /// tagger×community matrix. Entries are removed when they retract to
    /// zero, keeping the map churn-bounded.
    per_as_comm: BTreeMap<(u32, u32), u64>,
}

impl View {
    /// The aggregates of a snapshot: one pass over its routes, each
    /// distinct community value classified against `dict` exactly once.
    pub fn new(snap: &Snapshot, dict: &Dictionary) -> Self {
        debug_assert_eq!(snap.ixp, dict.ixp());
        let mut view = View::empty(snap.ixp, snap.afi);
        view.members.extend(snap.members.iter().copied());
        for (peer, route) in &snap.routes {
            view.update_route(dict, *peer, route, Dir::Apply);
        }
        view
    }

    /// A unit with no members and no routes.
    pub(crate) fn empty(ixp: IxpId, afi: Afi) -> Self {
        View {
            ixp,
            afi,
            members: BTreeSet::new(),
            unknown: 0,
            ext_defined: 0,
            large_defined: 0,
            std_action: 0,
            std_info: 0,
            routes_total: 0,
            insts_per_group: [0; 4],
            underflows: 0,
            asns: Interned::new(),
            comms: Interned::new(),
            per_as_comm: BTreeMap::new(),
        }
    }

    /// One route's full contribution, applied or retracted. The caller
    /// has already established that the route belongs to this unit.
    pub(crate) fn update_route(&mut self, dict: &Dictionary, peer: Asn, route: &Route, dir: Dir) {
        let under = &mut self.underflows;
        let aid = self.asns.intern(peer.value(), PerAs::default);
        step(&mut self.routes_total, dir, under);
        let mut has_action = false;
        for c in &route.standard_communities {
            let cid = self.comms.intern(c.0, || CommRow {
                class: dict.classify(*c),
                instances: 0,
            });
            let row = &mut self.comms.rows[cid as usize].1;
            match row.class {
                Classification::Unknown => step(&mut self.unknown, dir, under),
                Classification::IxpDefined(Semantics::Informational(_)) => {
                    step(&mut self.std_info, dir, under)
                }
                Classification::IxpDefined(Semantics::Action(action)) => {
                    has_action = true;
                    let gi = action.kind.group().index();
                    let per_as = &mut self.asns.rows[aid as usize].1;
                    step(&mut self.std_action, dir, under);
                    step(&mut self.insts_per_group[gi], dir, under);
                    step(&mut row.instances, dir, under);
                    step(&mut per_as.instances, dir, under);
                    step(&mut per_as.groups[gi], dir, under);
                    let pair = self.per_as_comm.entry((aid, cid)).or_insert(0);
                    step(pair, dir, under);
                    if *pair == 0 {
                        self.per_as_comm.remove(&(aid, cid));
                    }
                }
            }
        }
        for lc in &route.large_communities {
            match classify_large(self.ixp, *lc) {
                Classification::IxpDefined(_) => step(&mut self.large_defined, dir, under),
                Classification::Unknown => step(&mut self.unknown, dir, under),
            }
        }
        for ec in &route.extended_communities {
            match classify_extended(self.ixp, *ec) {
                Classification::IxpDefined(_) => step(&mut self.ext_defined, dir, under),
                Classification::Unknown => step(&mut self.unknown, dir, under),
            }
        }
        let per_as = &mut self.asns.rows[aid as usize].1;
        step(&mut per_as.routes, dir, under);
        if has_action {
            step(&mut per_as.tagged, dir, under);
        }
    }

    /// Fold `other` (built over a disjoint peer set) into `self`. Every
    /// counter is a sum and members a set union, so the fold is
    /// associative and commutative; `other`'s rows are re-keyed through
    /// `self`'s interners, carrying classifications over rather than
    /// re-deriving them.
    pub(crate) fn merge(&mut self, other: &View) {
        self.members.extend(other.members.iter().copied());
        for (mine, theirs) in [
            (&mut self.unknown, other.unknown),
            (&mut self.ext_defined, other.ext_defined),
            (&mut self.large_defined, other.large_defined),
            (&mut self.std_action, other.std_action),
            (&mut self.std_info, other.std_info),
            (&mut self.routes_total, other.routes_total),
            (&mut self.underflows, other.underflows),
        ] {
            *mine = mine.saturating_add(theirs);
        }
        for (mine, theirs) in self.insts_per_group.iter_mut().zip(other.insts_per_group) {
            *mine = mine.saturating_add(theirs);
        }
        let mut asn_map = Vec::with_capacity(other.asns.rows.len());
        for (asn, theirs) in &other.asns.rows {
            let id = self.asns.intern(*asn, PerAs::default);
            let mine = &mut self.asns.rows[id as usize].1;
            mine.routes = mine.routes.saturating_add(theirs.routes);
            mine.tagged = mine.tagged.saturating_add(theirs.tagged);
            mine.instances = mine.instances.saturating_add(theirs.instances);
            for (g, o) in mine.groups.iter_mut().zip(theirs.groups) {
                *g = g.saturating_add(o);
            }
            asn_map.push(id);
        }
        let mut comm_map = Vec::with_capacity(other.comms.rows.len());
        for (value, theirs) in &other.comms.rows {
            let id = self.comms.intern(*value, || CommRow {
                class: theirs.class,
                instances: 0,
            });
            let mine = &mut self.comms.rows[id as usize].1;
            mine.instances = mine.instances.saturating_add(theirs.instances);
            comm_map.push(id);
        }
        for (&(aid, cid), &n) in &other.per_as_comm {
            let pair = self
                .per_as_comm
                .entry((asn_map[aid as usize], comm_map[cid as usize]))
                .or_insert(0);
            *pair = pair.saturating_add(n);
        }
    }

    /// Is `asn` connected to the RS (the §5.5 membership test)?
    pub fn is_member(&self, asn: Asn) -> bool {
        self.members.contains(&asn)
    }

    /// Number of members with sessions.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// An action instance is *ineffective* when it targets a single AS
    /// that has no session at this RS (§5.5). Evaluated against the
    /// current member set, so a member joining or leaving re-scopes
    /// Figs. 6–7 without touching any counter.
    pub fn is_ineffective(&self, action: &Action) -> bool {
        match action.target.peer_asn() {
            Some(asn) => !self.is_member(asn),
            None => false,
        }
    }

    /// Standard IXP-defined instances (Fig. 2's standard bar, Fig. 3's
    /// total).
    pub(crate) fn std_defined(&self) -> u64 {
        self.std_action + self.std_info
    }

    /// The counters of every AS seen announcing. Rows whose routes were
    /// all retracted are all-zero; readers filter on the counter they
    /// use.
    pub(crate) fn per_as(&self) -> impl Iterator<Item = (Asn, &PerAs)> + '_ {
        self.asns.rows.iter().map(|(asn, p)| (Asn(*asn), p))
    }

    /// Every action community with at least one instance, with its
    /// resolved action and instance count (Figs. 5–6, §5.5).
    pub(crate) fn action_communities(
        &self,
    ) -> impl Iterator<Item = (StandardCommunity, Action, u64)> + '_ {
        self.comms
            .rows
            .iter()
            .filter(|(_, row)| row.instances > 0)
            .filter_map(|(value, row)| {
                let action = row.class.action()?;
                Some((StandardCommunity(*value), action, row.instances))
            })
    }

    /// Action instances per (tagging AS, action) pair (Fig. 7).
    pub(crate) fn tagger_actions(&self) -> impl Iterator<Item = (Asn, Action, u64)> + '_ {
        self.per_as_comm.iter().filter_map(|(&(aid, cid), &n)| {
            let action = self.comms.rows[cid as usize].1.class.action()?;
            Some((Asn(self.asns.rows[aid as usize].0), action, n))
        })
    }
}

/// Percentage helper: `part / whole * 100`, 0 when whole is 0.
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use community_dict::schemes;

    const IXP: IxpId = IxpId::Linx;

    fn route(tagger: u32, cs: Vec<StandardCommunity>) -> Route {
        Route::builder(
            "193.0.10.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([tagger, 15169])
        .standards(cs)
        .build()
    }

    fn snapshot() -> Snapshot {
        Snapshot {
            ixp: IXP,
            day: 0,
            afi: Afi::Ipv4,
            members: vec![Asn(39120), Asn(6939)],
            routes: vec![
                (
                    Asn(39120),
                    route(
                        39120,
                        vec![
                            schemes::avoid_community(IXP, Asn(6939)),  // member target
                            schemes::avoid_community(IXP, Asn(16276)), // non-member
                            schemes::info_community(IXP, 0),
                            StandardCommunity::from_parts(3356, 70), // unknown
                        ],
                    ),
                ),
                (Asn(6939), route(6939, vec![])),
            ],
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn fold_counts_and_classifies_every_instance() {
        let snap = snapshot();
        let view = View::new(&snap, &schemes::dictionary(IXP));
        assert_eq!(view.routes_total, 2);
        assert_eq!((view.std_info, view.std_action, view.unknown), (1, 2, 1));
        let actions: Vec<_> = view.action_communities().collect();
        assert_eq!(actions.len(), 2);
        let ineffective = actions
            .iter()
            .filter(|(_, a, _)| view.is_ineffective(a))
            .count();
        assert_eq!(ineffective, 1); // OVH is not a member
        assert_eq!(view.tagger_actions().count(), 2);
        assert_eq!(view.underflows, 0);
    }

    #[test]
    fn membership() {
        let snap = snapshot();
        let view = View::new(&snap, &schemes::dictionary(IXP));
        assert!(view.is_member(Asn(6939)));
        assert!(!view.is_member(Asn(16276)));
        assert_eq!(view.member_count(), 2);
    }

    #[test]
    fn retract_restores_the_counters_and_a_second_retract_is_counted() {
        let dict = schemes::dictionary(IXP);
        let r = route(39120, vec![schemes::avoid_community(IXP, Asn(6939))]);
        let mut view = View::empty(IXP, Afi::Ipv4);
        view.update_route(&dict, Asn(39120), &r, Dir::Apply);
        view.update_route(&dict, Asn(39120), &r, Dir::Retract);
        assert_eq!((view.routes_total, view.std_action), (0, 0));
        assert_eq!(view.action_communities().count(), 0);
        assert_eq!(view.tagger_actions().count(), 0);
        assert_eq!(view.underflows, 0);
        // the same withdraw again: every counter the route touched is
        // already zero — routes_total, std_action, the group, the
        // community, per-AS instances/group/routes/tagged, the pair
        view.update_route(&dict, Asn(39120), &r, Dir::Retract);
        assert_eq!(view.underflows, 9);
        assert_eq!((view.routes_total, view.std_action), (0, 0));
    }

    #[test]
    fn pct_helper() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
    }
}
