//! The incremental state store.
//!
//! Conceptually keyed by `(router, peer, prefix)` — implemented as a
//! [`BTreeMap`] of routers, each holding a `BTreeMap<Asn, BTreeMap<Prefix,
//! Route>>`, so every iteration order is deterministic and matches the
//! polled collector's output (members in ASN order, each member's routes
//! in prefix order). Two BMP-style obligations live here:
//!
//! - **replay dedup**: the feed's sequence numbers are global and dense,
//!   so after a monitoring-session reset the server's replay re-delivers
//!   frames the store has already applied; [`RouterState::ingest`] skips
//!   any frame at or below its applied high-water mark (disable only to
//!   demonstrate the corruption — the chaos update-conservation oracle
//!   catches it);
//! - **synthesized withdraws**: a `PeerDown` event removes the peer's
//!   whole table, counting one synthesized withdraw per removed route —
//!   the stream analogue of the poll path simply not listing a departed
//!   member.

use std::collections::BTreeMap;

use bgp_model::asn::Asn;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;
use community_dict::ixp::IxpId;
use looking_glass::api::StreamFrame;
use looking_glass::snapshot::Snapshot;
use route_server::events::RibEvent;

/// What one applied [`RibEvent`] changed in the store, expressed so a
/// consumer can maintain derived state *incrementally*: every variant
/// carries both the removed ("retract this") and the inserted ("apply
/// this") sides of the mutation, plus the session context that decides
/// visibility (a route is visible for a family iff its announcer holds a
/// session for that family — exactly [`RouterState::to_snapshot`]'s
/// filter). Borrows point into the store right after the mutation, so
/// emitting a delta is allocation-free.
#[derive(Debug)]
pub enum RouteDelta<'a> {
    /// A peer session came up or changed families. `routes` is the
    /// peer's *current* table: routes whose family just gained a session
    /// became visible, routes whose family just lost one became
    /// invisible.
    PeerUp {
        /// The peer.
        peer: Asn,
        /// Session flags before the event (`None`: peer was unknown).
        prev: Option<PeerSession>,
        /// Session flags after the event.
        now: PeerSession,
        /// The peer's stored table (possibly empty), both families.
        routes: &'a BTreeMap<Prefix, Route>,
    },
    /// A peer went down: its session and whole table were removed.
    PeerDown {
        /// The peer.
        peer: Asn,
        /// Session flags before the teardown (`None`: no session held).
        prev: Option<PeerSession>,
        /// The removed table (the synthesized withdraws), both families.
        routes: &'a BTreeMap<Prefix, Route>,
    },
    /// A route was inserted, possibly replacing one at the same prefix.
    Announce {
        /// The announcing peer.
        peer: Asn,
        /// The peer's current session flags (`None`: no session — the
        /// route is invisible until a `PeerUp` arrives).
        session: Option<PeerSession>,
        /// The route this announcement replaced, if any.
        old: Option<&'a Route>,
        /// The route now stored.
        new: &'a Route,
    },
    /// A stored route was withdrawn. Withdraws that matched nothing emit
    /// no delta — the store did not change.
    Withdraw {
        /// The withdrawing peer.
        peer: Asn,
        /// The peer's current session flags.
        session: Option<PeerSession>,
        /// The removed route.
        old: &'a Route,
    },
}

/// A consumer of per-event store deltas — the hook incremental analyses
/// attach to. [`RouterState::apply_with`] calls [`DeltaConsumer::on_delta`]
/// exactly once per store mutation, *after* the mutation, tagged with the
/// router's IXP.
pub trait DeltaConsumer {
    /// One applied event's delta.
    fn on_delta(&mut self, ixp: IxpId, delta: &RouteDelta<'_>);
}

/// The no-op consumer: `()` discards deltas, making the plain
/// [`RouterState::apply`]/[`RouterState::ingest`] path zero-cost.
impl DeltaConsumer for () {
    fn on_delta(&mut self, _ixp: IxpId, _delta: &RouteDelta<'_>) {}
}

/// A member's session state as observed on the feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSession {
    /// IPv4 session present.
    pub ipv4: bool,
    /// IPv6 session present.
    pub ipv6: bool,
}

impl PeerSession {
    /// Session presence for one family.
    pub fn has(&self, afi: Afi) -> bool {
        match afi {
            Afi::Ipv4 => self.ipv4,
            Afi::Ipv6 => self.ipv6,
        }
    }
}

/// Monotonic per-router stream accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events applied to the store (post-dedup).
    pub applied: u64,
    /// Replayed frames skipped by sequence-number dedup.
    pub dupes_dropped: u64,
    /// Session resyncs observed (reset + replay).
    pub resyncs: u64,
    /// Withdraws synthesized by peer-down events.
    pub synth_withdraws: u64,
}

/// The live state of one monitored route server.
#[derive(Debug, Clone)]
pub struct RouterState {
    ixp: IxpId,
    /// Session generation last confirmed by the server (0 = never polled).
    pub(crate) session: u64,
    /// Applied high-water mark: the largest frame seq ever ingested, which
    /// doubles as the poll cursor (the feed is served contiguously).
    pub(crate) cursor: u64,
    peers: BTreeMap<Asn, PeerSession>,
    routes: BTreeMap<Asn, BTreeMap<Prefix, Route>>,
    stats: StreamStats,
}

impl RouterState {
    /// Empty state for one router.
    pub fn new(ixp: IxpId) -> Self {
        RouterState {
            ixp,
            session: 0,
            cursor: 0,
            peers: BTreeMap::new(),
            routes: BTreeMap::new(),
            stats: StreamStats::default(),
        }
    }

    /// The session generation last seen from the server.
    pub(crate) fn session(&self) -> u64 {
        self.session
    }

    /// The applied/poll high-water mark.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Stream accounting so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Count one observed session resync.
    pub(crate) fn note_resync(&mut self) {
        self.stats.resyncs += 1;
    }

    /// Ingest one frame. With `dedup` on (the defended default), a frame
    /// at or below the applied high-water mark is a replayed duplicate
    /// and is skipped; returns whether the event was applied.
    pub fn ingest(&mut self, frame: &StreamFrame, dedup: bool) -> bool {
        self.ingest_with(frame, dedup, &mut ())
    }

    /// [`RouterState::ingest`], forwarding each applied event's delta to
    /// `consumer`. Deduped replays emit no delta — the store did not
    /// change, so neither does any derived state.
    pub(crate) fn ingest_with(
        &mut self,
        frame: &StreamFrame,
        dedup: bool,
        consumer: &mut dyn DeltaConsumer,
    ) -> bool {
        if dedup && frame.seq <= self.cursor {
            self.stats.dupes_dropped += 1;
            return false;
        }
        self.cursor = self.cursor.max(frame.seq);
        self.apply_with(&frame.event, consumer);
        true
    }

    /// Apply one event unconditionally (the raw event path; dedup and
    /// cursor bookkeeping are [`RouterState::ingest`]'s job), forwarding
    /// the mutation's [`RouteDelta`] to `consumer` after the store has
    /// changed.
    pub fn apply_with(&mut self, event: &RibEvent, consumer: &mut dyn DeltaConsumer) {
        self.stats.applied += 1;
        match event {
            RibEvent::PeerUp { peer, ipv4, ipv6 } => {
                let now = PeerSession {
                    ipv4: *ipv4,
                    ipv6: *ipv6,
                };
                let prev = self.peers.insert(*peer, now);
                let empty = BTreeMap::new();
                let routes = self.routes.get(peer).unwrap_or(&empty);
                consumer.on_delta(
                    self.ixp,
                    &RouteDelta::PeerUp {
                        peer: *peer,
                        prev,
                        now,
                        routes,
                    },
                );
            }
            RibEvent::PeerDown { peer } => {
                let prev = self.peers.remove(peer);
                let removed = self.routes.remove(peer);
                let empty = BTreeMap::new();
                let routes = removed.as_ref().unwrap_or(&empty);
                self.stats.synth_withdraws += routes.len() as u64;
                consumer.on_delta(
                    self.ixp,
                    &RouteDelta::PeerDown {
                        peer: *peer,
                        prev,
                        routes,
                    },
                );
            }
            RibEvent::Announce { peer, route } => {
                let old = self
                    .routes
                    .entry(*peer)
                    .or_default()
                    .insert(route.prefix, route.clone());
                consumer.on_delta(
                    self.ixp,
                    &RouteDelta::Announce {
                        peer: *peer,
                        session: self.peers.get(peer).copied(),
                        old: old.as_ref(),
                        new: route,
                    },
                );
            }
            RibEvent::Withdraw { peer, prefix } => {
                let old = self
                    .routes
                    .get_mut(peer)
                    .and_then(|table| table.remove(prefix));
                if let Some(old) = old {
                    consumer.on_delta(
                        self.ixp,
                        &RouteDelta::Withdraw {
                            peer: *peer,
                            session: self.peers.get(peer).copied(),
                            old: &old,
                        },
                    );
                }
            }
        }
    }

    /// Members with a session for `afi`, in ASN order.
    pub(crate) fn members_for(&self, afi: Afi) -> impl Iterator<Item = Asn> + '_ {
        self.peers
            .iter()
            .filter(move |(_, s)| s.has(afi))
            .map(|(asn, _)| *asn)
    }

    /// Routes currently held, across peers and families.
    pub fn route_count(&self) -> usize {
        self.routes.values().map(BTreeMap::len).sum()
    }

    /// Synthesize the end-of-day snapshot for one family: exactly what
    /// the polled collector assembles from a clean collection — members
    /// in ASN order, routes grouped per announcing member in prefix
    /// order, `partial = false` and no failed peers (a drained feed has
    /// no notion of an unreachable peer).
    pub fn to_snapshot(&self, afi: Afi, day: u32) -> Snapshot {
        let members: Vec<Asn> = self.members_for(afi).collect();
        let mut routes: Vec<(Asn, Route)> = Vec::new();
        for &asn in &members {
            if let Some(table) = self.routes.get(&asn) {
                routes.extend(
                    table
                        .values()
                        .filter(|r| r.afi() == afi)
                        .map(|r| (asn, r.clone())),
                );
            }
        }
        Snapshot {
            ixp: self.ixp,
            day,
            afi,
            members,
            routes,
            partial: false,
            failed_peers: Vec::new(),
        }
    }
}
