//! The incremental report engine: one [`View`] per (IXP, family) kept
//! alive across days and updated per applied
//! [`RibEvent`](route_server::events::RibEvent) as the stream path
//! mutates its [`stream::state::RouterState`] — so day N+1's report costs
//! O(churn) instead of O(world).
//!
//! This module only *routes deltas*: which stored routes a
//! [`RouteDelta`] makes visible or invisible, and to which family's
//! `View` they go. What a route contributes, and how counters become
//! figures, is [`crate::core`]'s — the same code the batch
//! [`full_report`](crate::summary::full_report) folds a snapshot through.
//!
//! # The counter algebra
//!
//! - *apply* — add an announced route's contribution;
//! - *retract* — subtract a withdrawn route's contribution. It undoes
//!   exactly one earlier apply of the same route; a retract without one
//!   would take a counter below zero, which leaves the counter at zero
//!   and is counted ([`IncrementalReport::underflows`]) instead of
//!   being absorbed;
//! - *merge* — combine two partial states built over *disjoint peer
//!   sets* (associative and commutative, so per-IXP shards compose at an
//!   ordered [`par`] join in any grouping).
//!
//! Each [`RouteDelta`] carries both sides of the store mutation plus the
//! session context that decides visibility, so no shadow copy of the
//! peer table is kept here. Announces retract the replaced route and
//! apply the new one; withdraws and synthesized peer-down withdraws
//! retract; session flag changes re-scope a peer's stored routes per
//! family.
//!
//! # What the equivalence oracle proves
//!
//! [`IncrementalReport::report_units`] and `full_report` read their
//! figures off a `View` through the same functions, so they cannot
//! disagree about a derivation. What can go wrong here is the state: a
//! `View` *maintained* under apply + retract + merge over many days must
//! equal one *folded from scratch* with apply only over a snapshot of
//! the same store. The 84-day golden (`tests/stream_equivalence.rs`)
//! and the chaos `IncrementalDivergence` oracle hold exactly that, byte
//! for byte, under faults; the fold itself is checked against an
//! independent reference in `tests/naive_reference.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use stream::prelude::{DeltaConsumer, RouteDelta};

use crate::core::{Dir, View};
use crate::summary::{FullReport, SnapshotReport};

/// The per-IXP incremental engine: one running [`View`] per family (the
/// dictionary is behind an [`Arc`], so cloning an engine — e.g. for a
/// benchmark baseline — shares it).
#[derive(Clone)]
pub(crate) struct IxpEngine {
    dict: Arc<Dictionary>,
    v4: View,
    v6: View,
}

impl IxpEngine {
    /// An empty engine for one IXP.
    pub(crate) fn new(ixp: IxpId, dict: Arc<Dictionary>) -> Self {
        IxpEngine {
            dict,
            v4: View::empty(ixp, Afi::Ipv4),
            v6: View::empty(ixp, Afi::Ipv6),
        }
    }

    fn unit(&self, afi: Afi) -> &View {
        match afi {
            Afi::Ipv4 => &self.v4,
            Afi::Ipv6 => &self.v6,
        }
    }

    fn unit_mut(&mut self, afi: Afi) -> &mut View {
        match afi {
            Afi::Ipv4 => &mut self.v4,
            Afi::Ipv6 => &mut self.v6,
        }
    }

    /// Route one visible-route update to the family's unit. No-op when
    /// the route is not of family `afi` (a v6 route never contributes to
    /// the v4 unit, matching the snapshot filter).
    fn route_update(&mut self, afi: Afi, peer: Asn, route: &Route, dir: Dir) {
        if route.afi() != afi {
            return;
        }
        let unit = match afi {
            Afi::Ipv4 => &mut self.v4,
            Afi::Ipv6 => &mut self.v6,
        };
        unit.update_route(&self.dict, peer, route, dir);
    }

    /// Apply one store delta. `retraction_enabled` is the chaos switch:
    /// when off, every `Retract`-direction route update is skipped
    /// (membership still tracks), deliberately corrupting the aggregates
    /// so the `IncrementalDivergence` oracle can prove it notices.
    fn apply_delta(&mut self, delta: &RouteDelta<'_>, retraction_enabled: bool) {
        match delta {
            RouteDelta::PeerUp {
                peer,
                prev,
                now,
                routes,
            } => {
                for afi in [Afi::Ipv4, Afi::Ipv6] {
                    let had = prev.map(|s| s.has(afi)).unwrap_or(false);
                    let has = now.has(afi);
                    if had == has {
                        continue;
                    }
                    if has {
                        self.unit_mut(afi).members.insert(*peer);
                        for route in routes.values() {
                            self.route_update(afi, *peer, route, Dir::Apply);
                        }
                    } else {
                        self.unit_mut(afi).members.remove(peer);
                        if retraction_enabled {
                            for route in routes.values() {
                                self.route_update(afi, *peer, route, Dir::Retract);
                            }
                        }
                    }
                }
            }
            RouteDelta::PeerDown { peer, prev, routes } => {
                for afi in [Afi::Ipv4, Afi::Ipv6] {
                    if !prev.map(|s| s.has(afi)).unwrap_or(false) {
                        continue;
                    }
                    self.unit_mut(afi).members.remove(peer);
                    if retraction_enabled {
                        for route in routes.values() {
                            self.route_update(afi, *peer, route, Dir::Retract);
                        }
                    }
                }
            }
            RouteDelta::Announce {
                peer,
                session,
                old,
                new,
            } => {
                let Some(session) = session else { return };
                if let Some(old) = old {
                    if session.has(old.afi()) && retraction_enabled {
                        self.route_update(old.afi(), *peer, old, Dir::Retract);
                    }
                }
                if session.has(new.afi()) {
                    self.route_update(new.afi(), *peer, new, Dir::Apply);
                }
            }
            RouteDelta::Withdraw { peer, session, old } => {
                let Some(session) = session else { return };
                if session.has(old.afi()) && retraction_enabled {
                    self.route_update(old.afi(), *peer, old, Dir::Retract);
                }
            }
        }
    }

    /// Fold `other` into `self`. Correct (equal to having fed both
    /// shards' deltas into one engine) when the shards saw *disjoint
    /// peers* — the per-IXP sharding [`par`] composition uses (see
    /// `View::merge` for why the fold is associative and commutative).
    pub(crate) fn merge(&mut self, other: &IxpEngine) {
        self.v4.merge(&other.v4);
        self.v6.merge(&other.v6);
    }

    /// Finalize one family's [`SnapshotReport`] from its running view.
    pub(crate) fn unit_report(&self, afi: Afi, day: u32) -> SnapshotReport {
        SnapshotReport::from_view(self.unit(afi), day)
    }
}

/// The stream-attached incremental report: one [`IxpEngine`] per
/// monitored IXP, fed as a [`DeltaConsumer`] by
/// [`RouterState::apply_with`](stream::state::RouterState::apply_with) /
/// [`StreamCollector::drain_with_clock_into`](stream::collector::StreamCollector::drain_with_clock_into),
/// finalized into a [`FullReport`] on demand.
#[derive(Clone)]
pub struct IncrementalReport {
    engines: BTreeMap<IxpId, IxpEngine>,
    retraction_enabled: bool,
    deltas: u64,
}

impl IncrementalReport {
    /// An empty report over the given IXPs (each dictionary is wrapped in
    /// an [`Arc`] and shared immutably with the engines).
    pub fn new(dicts: &[(IxpId, Dictionary)]) -> Self {
        IncrementalReport {
            engines: dicts
                .iter()
                .map(|(ixp, dict)| (*ixp, IxpEngine::new(*ixp, Arc::new(dict.clone()))))
                .collect(),
            retraction_enabled: true,
            deltas: 0,
        }
    }

    /// Toggle retraction. **Chaos-only:** turning this off makes every
    /// withdraw/replace a no-op on the aggregates, deliberately breaking
    /// the apply/retract inverse so the `IncrementalDivergence` oracle
    /// can demonstrate it fires.
    pub fn set_retraction_enabled(&mut self, on: bool) {
        self.retraction_enabled = on;
    }

    /// Deltas consumed so far (the `analysis.incremental.deltas` metric's
    /// source of truth; callers fold it into the registry at day ends).
    pub fn deltas_applied(&self) -> u64 {
        self.deltas
    }

    /// Retracts that found a counter already at zero, over every unit.
    /// Zero under a correct apply/retract pairing; nonzero means some
    /// route was retracted without having been applied (the
    /// `analysis.incremental.underflow` metric's source of truth).
    pub fn underflows(&self) -> u64 {
        self.engines
            .values()
            .map(|e| e.v4.underflows + e.v6.underflows)
            .sum()
    }

    /// Fold another report's partial state into this one (see
    /// [`IxpEngine::merge`]; shards must have seen disjoint peers).
    pub fn merge(&mut self, other: &IncrementalReport) {
        for (ixp, engine) in &other.engines {
            match self.engines.get_mut(ixp) {
                Some(mine) => mine.merge(engine),
                None => {
                    self.engines.insert(*ixp, engine.clone());
                }
            }
        }
        self.deltas = self.deltas.saturating_add(other.deltas);
    }

    /// Finalize the report for an explicit unit list, fanned out with
    /// [`par::map_indexed`] (each unit reads `&self` only; the ordered
    /// join keeps the output deterministic at any thread count).
    pub fn report_units(&self, units: &[(IxpId, Afi)], day: u32) -> FullReport {
        let _span = obs::span!(obs::names::ANALYSIS_INCREMENTAL_REPORT);
        let computed = par::map_indexed(units, |_, &(ixp, afi)| {
            self.engines.get(&ixp).map(|e| e.unit_report(afi, day))
        });
        FullReport::from_units(computed.into_iter().flatten().collect())
    }
}

impl DeltaConsumer for IncrementalReport {
    fn on_delta(&mut self, ixp: IxpId, delta: &RouteDelta<'_>) {
        let Some(engine) = self.engines.get_mut(&ixp) else {
            return;
        };
        self.deltas = self.deltas.saturating_add(1);
        engine.apply_delta(delta, self.retraction_enabled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::SnapshotStore;
    use route_server::events::RibEvent;
    use stream::prelude::RouterState;

    use crate::summary::full_report;

    const IXP: IxpId = IxpId::Linx;

    fn dicts() -> Vec<(IxpId, Dictionary)> {
        vec![(IXP, schemes::dictionary(IXP))]
    }

    fn route(pfx: &str, tagger: u32, targets: &[u32]) -> Route {
        let mut b = Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path([tagger, 15169]);
        for t in targets {
            b = b.standard(schemes::avoid_community(IXP, Asn(*t)));
        }
        b.build()
    }

    /// Drive events through a real `RouterState` with the report attached
    /// and return both the streamed batch report and the incremental one.
    fn dual_run(events: &[RibEvent]) -> (FullReport, FullReport) {
        let mut state = RouterState::new(IXP);
        let mut inc = IncrementalReport::new(&dicts());
        for ev in events {
            state.apply_with(ev, &mut inc);
        }
        let mut store = SnapshotStore::new();
        store.insert(state.to_snapshot(Afi::Ipv4, 7));
        store.insert(state.to_snapshot(Afi::Ipv6, 7));
        let batch = full_report(&store, &dicts());
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        (batch, inc.report_units(&units, 7))
    }

    fn assert_equal(events: &[RibEvent]) {
        let (batch, inc) = dual_run(events);
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&inc).unwrap()
        );
    }

    #[test]
    fn announce_withdraw_matches_batch() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::PeerUp {
                peer: Asn(6939),
                ipv4: true,
                ipv6: true,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939, 16276]),
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.11.0/24", 39120, &[6939]),
            },
            RibEvent::Announce {
                peer: Asn(6939),
                route: route("81.0.0.0/24", 6939, &[15169]),
            },
            RibEvent::Withdraw {
                peer: Asn(39120),
                prefix: "193.0.11.0/24".parse().unwrap(),
            },
        ]);
    }

    #[test]
    fn replacement_retracts_old_contribution() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939, 16276]),
            },
            // same prefix, different tag set: old instances must vanish
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[15169]),
            },
        ]);
    }

    #[test]
    fn peer_down_synthesizes_retractions() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939]),
            },
            RibEvent::PeerDown { peer: Asn(39120) },
        ]);
    }

    #[test]
    fn session_rescope_toggles_visibility() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: false,
                ipv6: false,
            },
            // invisible while no session holds the family
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939]),
            },
            // v4 session appears: the stored route becomes visible
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
        ]);
    }

    #[test]
    fn retract_is_exact_inverse_of_apply() {
        let mut state = RouterState::new(IXP);
        let mut inc = IncrementalReport::new(&dicts());
        state.apply_with(
            &RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            &mut inc,
        );
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        let before = serde_json::to_string(&inc.report_units(&units, 0)).unwrap();
        state.apply_with(
            &RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939, 16276]),
            },
            &mut inc,
        );
        state.apply_with(
            &RibEvent::Withdraw {
                peer: Asn(39120),
                prefix: "193.0.10.0/24".parse().unwrap(),
            },
            &mut inc,
        );
        let after = serde_json::to_string(&inc.report_units(&units, 0)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn a_second_withdraw_of_the_same_route_is_counted_as_underflow() {
        use stream::prelude::PeerSession;
        let session = Some(PeerSession {
            ipv4: true,
            ipv6: false,
        });
        let r = route("193.0.10.0/24", 39120, &[6939]);
        let mut inc = IncrementalReport::new(&dicts());
        inc.on_delta(
            IXP,
            &RouteDelta::Announce {
                peer: Asn(39120),
                session,
                old: None,
                new: &r,
            },
        );
        let withdraw = RouteDelta::Withdraw {
            peer: Asn(39120),
            session,
            old: &r,
        };
        inc.on_delta(IXP, &withdraw);
        assert_eq!(inc.underflows(), 0);
        // the store never emits this (a withdraw that matched nothing is
        // not a delta); a consumer fed it anyway must say so
        inc.on_delta(IXP, &withdraw);
        assert!(inc.underflows() > 0);
    }

    #[test]
    fn merge_of_disjoint_peer_shards_equals_single_engine() {
        let up = |peer: u32| RibEvent::PeerUp {
            peer: Asn(peer),
            ipv4: true,
            ipv6: false,
        };
        let ann = |peer: u32, pfx: &str, targets: &[u32]| RibEvent::Announce {
            peer: Asn(peer),
            route: route(pfx, peer, targets),
        };
        let shard_a = [up(39120), ann(39120, "193.0.10.0/24", &[6939, 16276])];
        let shard_b = [up(6939), ann(6939, "81.0.0.0/24", &[15169])];

        let run = |events: &[RibEvent]| {
            let mut state = RouterState::new(IXP);
            let mut inc = IncrementalReport::new(&dicts());
            for ev in events {
                state.apply_with(ev, &mut inc);
            }
            inc
        };
        let mut all: Vec<RibEvent> = Vec::new();
        all.extend_from_slice(&shard_a);
        all.extend_from_slice(&shard_b);
        let whole = run(&all);

        let a = run(&shard_a);
        let b = run(&shard_b);
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        let expect = serde_json::to_string(&whole.report_units(&units, 0)).unwrap();

        // a ⊔ b and b ⊔ a both equal the single-engine run.
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(
            serde_json::to_string(&ab.report_units(&units, 0)).unwrap(),
            expect
        );
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            serde_json::to_string(&ba.report_units(&units, 0)).unwrap(),
            expect
        );
    }

    #[test]
    fn disabled_retraction_diverges() {
        let mut state = RouterState::new(IXP);
        let mut inc = IncrementalReport::new(&dicts());
        inc.set_retraction_enabled(false);
        for ev in [
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939]),
            },
            RibEvent::Withdraw {
                peer: Asn(39120),
                prefix: "193.0.10.0/24".parse().unwrap(),
            },
        ] {
            state.apply_with(&ev, &mut inc);
        }
        let mut store = SnapshotStore::new();
        store.insert(state.to_snapshot(Afi::Ipv4, 0));
        store.insert(state.to_snapshot(Afi::Ipv6, 0));
        let batch = full_report(&store, &dicts());
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        assert_ne!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&inc.report_units(&units, 0)).unwrap()
        );
    }

    #[test]
    fn unknown_ixp_deltas_are_ignored() {
        let mut state = RouterState::new(IxpId::Bcix);
        let mut inc = IncrementalReport::new(&dicts());
        state.apply_with(
            &RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            &mut inc,
        );
        assert_eq!(inc.deltas_applied(), 0);
    }
}
