//! The chaotic campaign driver: build one IXP world, then run a
//! multi-day pipeline entirely on a virtual clock with a [`FaultPlan`]
//! injected at the transport and server layers. Every day both
//! collection paths — the snapshot poll and the stream drain — run
//! through the faults, and a fault-free reference poll of the same
//! server closes the day; the polled snapshots are then sanitized.
//! Equal `(seed, plan)` pairs produce byte-identical outcomes — the
//! determinism the oracles verify by hashing.

use std::sync::Arc;

use parking_lot::RwLock;

use analysis::incremental::IncrementalReport;
use bgp_model::asn::Asn;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;
use community_dict::ixp::IxpId;
use ixp_sim::world::{build_ixp, WorldConfig};
use looking_glass::api::LgError;
use looking_glass::client::{CollectionReport, Collector, CollectorConfig};
use looking_glass::clock::{Clock, VirtualClock};
use looking_glass::sanitize::{sanitize_store, SanitationReport, SanitizeConfig};
use looking_glass::server::{FailureModel, LgServer, RateLimiter};
use looking_glass::snapshot::SnapshotStore;
use route_server::server::{Member, RouteServer};
use stream::collector::{StreamCollector, StreamConfig};
use stream::state::RouterState;

use crate::inject::{ChaosTransport, InjectStats};
use crate::plan::FaultPlan;

/// Virtual milliseconds between campaign days. Collections are minutes
/// long on the virtual clock, so an hour of logical spacing keeps days
/// disjoint while staying readable in traces.
pub const DAY_MS: u64 = 3_600_000;

/// The logical-time budget one day's collection may consume before the
/// `DayOverran` oracle fires (half the day spacing).
pub const DAY_BUDGET_MS: u64 = DAY_MS / 2;

/// Campaign shape: which world, how many days, which family.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The IXP to build and collect from.
    pub ixp: IxpId,
    /// World scale factor (0.01 keeps a campaign day around a hundred
    /// requests).
    pub scale: f64,
    /// Number of daily snapshots to collect.
    pub days: u32,
    /// Address family collected.
    pub afi: Afi,
    /// Collector tuning for the campaign.
    pub collector: CollectorConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            ixp: IxpId::Netnod,
            scale: 0.01,
            days: 6,
            afi: Afi::Ipv4,
            // Deep retries: with the corpus fault rates capped well below
            // ten percent per request, nine attempts make a lost peer a
            // (deterministic) non-event, so the corpus expects complete
            // snapshots and CompletenessViolated stays a real signal.
            collector: CollectorConfig {
                max_retries: 8,
                ..CollectorConfig::default()
            },
        }
    }
}

/// One day of the campaign.
#[derive(Debug, Clone)]
pub struct DayRecord {
    /// Day index.
    pub day: u32,
    /// Whether the chaotic polled collection produced a snapshot.
    pub snapshot: Result<(), LgError>,
    /// Whether the chaotic stream drain, and the fault-free drain of
    /// the rest of the day's events, reached quiescence.
    pub drain: Result<(), LgError>,
    /// Whether the fault-free end-of-day reference poll succeeded.
    pub reference: Result<(), LgError>,
    /// Logical milliseconds the whole day consumed (both paths).
    pub virtual_ms: u64,
    /// Fingerprint of the snapshot synthesized from the streamed state at
    /// the quiescent end of the day.
    pub streamed_hash: u64,
    /// Fingerprint of the reference snapshot polled at the same point.
    pub reference_hash: u64,
    /// Fingerprint of the day's report finalized by the incremental
    /// engine (O(churn) path).
    pub incremental_hash: u64,
    /// Fingerprint of the day's report recomputed from scratch over the
    /// streamed end-of-day snapshot (O(world) oracle path).
    pub batch_hash: u64,
    /// The two serialized reports, kept only when they disagree so a
    /// failing test can dump the divergence.
    pub report_divergence: Option<(String, String)>,
    /// Wall-clock nanoseconds the incremental finalize took. Timing
    /// only — never folded into a fingerprint or oracle verdict.
    pub incremental_ns: u64,
    /// Wall-clock nanoseconds the batch recompute took.
    pub batch_ns: u64,
}

/// Everything a finished campaign exposes to the oracles.
pub struct CampaignOutcome {
    /// The snapshots the chaotic polls collected.
    pub store: SnapshotStore,
    /// Those snapshots after valley sanitation.
    pub sanitized: SnapshotStore,
    /// What sanitation removed.
    pub sanitation: SanitationReport,
    /// Snapshots synthesized from the streamed state, one per day.
    pub streamed: SnapshotStore,
    /// Fault-free reference snapshots polled at end of day, one per day.
    pub reference: SnapshotStore,
    /// Per-day records.
    pub days: Vec<DayRecord>,
    /// What the injector did (both paths share the transport).
    pub stats: InjectStats,
    /// The stream collector's cumulative accounting.
    pub stream_stats: stream::state::StreamStats,
    /// Store deltas the incremental report engine consumed.
    pub incremental_deltas: u64,
    /// Retracts the engine was asked to take below zero (see
    /// `IncrementalReport::underflows`).
    pub incremental_underflows: u64,
    /// Frames the feed ever minted (replays re-serve, they do not mint).
    pub frames_minted: u64,
    /// Total logical time the campaign consumed.
    pub virtual_ms: u64,
    /// FNV-1a hash over every day's polled, streamed and reference
    /// snapshot fingerprints and the days sanitation kept — the
    /// determinism fingerprint of all four datasets.
    pub dataset_hash: u64,
}

/// FNV-1a, 64 bit: the dataset fingerprint. Stable across runs and
/// platforms; collisions are irrelevant because the oracle only compares
/// hashes of runs that must be *identical*.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a fingerprint of one serialized snapshot.
pub fn snapshot_fingerprint(snap: &looking_glass::snapshot::Snapshot) -> u64 {
    match serde_json::to_vec(snap) {
        Ok(bytes) => fnv1a(&bytes, FNV_OFFSET),
        Err(_) => fnv1a(b"<unserializable>", FNV_OFFSET),
    }
}

fn default_limiter() -> RateLimiter {
    // LgServer's construction-time default (capacity 40, 20/s); there is
    // no getter, so the restore after a storm day re-states it.
    RateLimiter::new(40, 20.0)
}

fn storm_limiter() -> RateLimiter {
    RateLimiter::new(2, 2.0)
}

/// The member the between-day flap targets: the peer with the fewest
/// (but nonzero) accepted routes in `afi` — small enough that its
/// disappearance never looks like a sanitation valley.
fn flap_target(rs: &RouteServer, afi: Afi) -> Option<Member> {
    rs.members()
        .filter(|m| m.has_session(afi))
        .filter_map(|m| {
            let count = rs.accepted().peer(m.asn)?.iter_afi(afi).count();
            (count > 0).then_some((count, *m))
        })
        .min_by_key(|(count, m)| (*count, m.asn))
        .map(|(_, m)| m)
}

fn saved_routes(rs: &RouteServer, peer: Asn) -> Vec<Route> {
    let mut routes = Vec::new();
    if let Some(table) = rs.accepted().peer(peer) {
        routes.extend(table.iter().cloned());
    }
    routes
}

/// What one day did to the world before its chaotic collection, undone
/// once both chaotic paths have run.
struct DayFaults {
    truncating: bool,
    storming: bool,
    /// The between-day flap's peer and its routes, to restore.
    flapped: Option<(Member, Vec<Route>)>,
}

impl DayFaults {
    /// Apply `day`'s server faults and between-day flap.
    fn apply(
        day: u32,
        plan: &FaultPlan,
        cfg: &CampaignConfig,
        lg: &LgServer,
        rs: &RwLock<RouteServer>,
        stats: &mut InjectStats,
    ) -> Self {
        let truncating = plan.truncate_days.contains(&day);
        if truncating {
            // rate 1.0: every page halved, so the day's loss is ≥50% —
            // deterministically past the 30% valley threshold sanitation
            // keys on (a marginal rate would make the oracle flaky)
            lg.set_failures(FailureModel {
                error_rate: 0.0,
                truncate_rate: 1.0,
            });
        }
        let storming = plan.storm_days.contains(&day);
        if storming {
            lg.set_limiter(storm_limiter());
        }

        // the peer's session is down for the whole day; with the
        // silent-loss fixture switch it goes down for good (its teardown
        // is the event the feed loses)
        let mut flapped = None;
        if plan.flap_days.contains(&day) && !plan.mid_collection_flap {
            let target = flap_target(&rs.read(), cfg.afi);
            if let Some(member) = target {
                let routes = saved_routes(&rs.read(), member.asn);
                rs.write().remove_member(member.asn);
                stats.flapped.insert(day, member.asn);
                if !plan.lose_peer_down_silent {
                    flapped = Some((member, routes));
                }
            }
        }
        DayFaults {
            truncating,
            storming,
            flapped,
        }
    }

    /// Undo the day's faults and the injector's world mutations, so the
    /// reference poll sees the fault-free world and the next day starts
    /// clean.
    fn undo(
        self,
        lg: &LgServer,
        rs: &RwLock<RouteServer>,
        churned: Vec<(Asn, Prefix)>,
        flap_dropped: Vec<(Asn, Route)>,
    ) {
        {
            let mut rs = rs.write();
            for (peer, prefix) in churned {
                rs.withdraw(peer, &prefix);
            }
            for (peer, route) in flap_dropped {
                rs.announce(peer, route);
            }
            if let Some((member, routes)) = self.flapped {
                rs.add_member(member.asn, member.ipv4, member.ipv6);
                for route in routes {
                    rs.announce(member.asn, route);
                }
            }
        }
        if self.truncating {
            lg.set_failures(FailureModel::NONE);
        }
        if self.storming {
            lg.set_limiter(default_limiter());
        }
    }
}

/// Store a successful collection's snapshot; return the outcome and the
/// snapshot's fingerprint (0 for a failed collection).
fn keep(
    collected: Result<CollectionReport, LgError>,
    store: &mut SnapshotStore,
) -> (Result<(), LgError>, u64) {
    match collected {
        Ok(report) => {
            let hash = snapshot_fingerprint(&report.snapshot);
            store.insert(report.snapshot);
            (Ok(()), hash)
        }
        Err(e) => (Err(e), 0),
    }
}

fn nanos(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Run one chaotic campaign. Each day applies the plan's server faults
/// and world mutations once, runs the chaotic snapshot poll and then a
/// chaotic stream drain through the same [`ChaosTransport`], undoes the
/// mutations, drains the rest of the feed fault-free and polls a
/// fault-free reference snapshot from the very same server. The
/// reference is what the conservation and stream-equivalence oracles
/// compare against; the incremental report is finalized against a batch
/// recompute of the streamed end-of-day snapshot. Identical `(seed,
/// plan, cfg)` triples give identical outcomes.
pub fn run_campaign(seed: u64, plan: &FaultPlan, cfg: &CampaignConfig) -> CampaignOutcome {
    let _span = obs::span!(obs::names::CHAOS_CAMPAIGN);
    let world = build_ixp(
        cfg.ixp,
        &WorldConfig {
            seed,
            scale: cfg.scale,
        },
    );
    let rs = Arc::new(RwLock::new(world.rs));
    let lg = LgServer::new(Arc::clone(&rs), seed ^ 0x16_5EED);
    let clock = VirtualClock::new(0);
    let collector = Collector::new(cfg.collector.clone());
    // one campaign, one pacing and retry budget: the drain polls the way
    // the snapshot collector requests
    let stream_collector = StreamCollector::new(StreamConfig {
        poll_interval_ms: cfg.collector.request_interval_ms,
        max_retries: cfg.collector.max_retries,
        retry_backoff_ms: cfg.collector.retry_backoff_ms,
        dedup_replays: !plan.replay_without_dedup,
    });
    let mut state = RouterState::new(cfg.ixp);
    // the incremental report engine rides the delta feed; every day the
    // batch report recomputed from the streamed snapshot serves as its
    // correctness oracle (the IncrementalDivergence check)
    let dicts = vec![(cfg.ixp, community_dict::schemes::dictionary(cfg.ixp))];
    let mut inc = IncrementalReport::new(&dicts);
    if plan.disable_retraction {
        inc.set_retraction_enabled(false);
    }

    let mut store = SnapshotStore::new();
    let mut streamed = SnapshotStore::new();
    let mut reference = SnapshotStore::new();
    let mut stats = InjectStats::default();
    let mut days = Vec::with_capacity(cfg.days as usize);
    let mut dataset_hash = FNV_OFFSET;

    for day in 0..cfg.days {
        clock.advance_to(u64::from(day) * DAY_MS);
        let day_start = clock.now_ms();
        let faults = DayFaults::apply(day, plan, cfg, &lg, &rs, &mut stats);

        let (snapshot, drain, churned, flap_dropped) = {
            let mut transport =
                ChaosTransport::new(&lg, &clock, plan, Arc::clone(&rs), day, seed, &mut stats);
            let snapshot = collector.collect_with_clock(&mut transport, cfg.afi, day, &clock);
            let drain = stream_collector.drain_with_clock_into(
                &mut state,
                &mut transport,
                &clock,
                &mut inc,
            );
            let churned = std::mem::take(&mut transport.churned_routes);
            let flap_dropped = std::mem::take(&mut transport.flap_dropped);
            (snapshot, drain, churned, flap_dropped)
        };
        faults.undo(&lg, &rs, churned, flap_dropped);

        // quiescent point: drain the undo events fault-free, then poll
        // the reference snapshot from the same server
        let mut plain = &lg;
        let final_drain =
            stream_collector.drain_with_clock_into(&mut state, &mut plain, &clock, &mut inc);
        let drain = drain.and(final_drain).map(|_| ());
        let reference_poll = collector.collect_with_clock(&mut plain, cfg.afi, day, &clock);

        let streamed_snap = state.to_snapshot(cfg.afi, day);
        let streamed_hash = snapshot_fingerprint(&streamed_snap);

        // incremental vs batch: finalize the engine's O(churn) report and
        // recompute the same unit from scratch over the streamed snapshot,
        // timing both paths (wall clock; never part of any fingerprint)
        let timer = obs::global()
            .histogram(obs::names::ANALYSIS_INCREMENTAL_DAY_NS)
            .start();
        let day_report = inc.report_units(&[(cfg.ixp, cfg.afi)], day);
        let incremental_ns = nanos(timer.stop());
        let mut day_store = SnapshotStore::new();
        day_store.insert(streamed_snap.clone());
        let timer = obs::global()
            .histogram(obs::names::ANALYSIS_BATCH_DAY_NS)
            .start();
        let batch_report = analysis::summary::full_report(&day_store, &dicts);
        let batch_ns = nanos(timer.stop());
        let inc_json =
            serde_json::to_string(&day_report).unwrap_or_else(|_| "<unserializable>".into());
        let batch_json =
            serde_json::to_string(&batch_report).unwrap_or_else(|_| "<unserializable>".into());
        let incremental_hash = fnv1a(inc_json.as_bytes(), FNV_OFFSET);
        let batch_hash = fnv1a(batch_json.as_bytes(), FNV_OFFSET);
        let report_divergence = (incremental_hash != batch_hash).then_some((inc_json, batch_json));

        streamed.insert(streamed_snap);
        let (snapshot, snapshot_hash) = keep(snapshot, &mut store);
        let (reference_result, reference_hash) = keep(reference_poll, &mut reference);
        for hash in [snapshot_hash, streamed_hash, reference_hash] {
            dataset_hash = fnv1a(&hash.to_le_bytes(), dataset_hash);
        }

        days.push(DayRecord {
            day,
            snapshot,
            drain,
            reference: reference_result,
            virtual_ms: clock.now_ms().saturating_sub(day_start),
            streamed_hash,
            reference_hash,
            incremental_hash,
            batch_hash,
            report_divergence,
            incremental_ns,
            batch_ns,
        });
    }

    let mut sanitized = store.clone();
    let sanitation = sanitize_store(&mut sanitized, &SanitizeConfig::default());
    // sanitation only removes snapshots: the days it kept pin it down
    for snap in sanitized.iter() {
        dataset_hash = fnv1a(&snap.day.to_le_bytes(), dataset_hash);
    }
    let virtual_ms = clock.now_ms();

    let m = crate::metrics::handles();
    m.campaigns.inc();
    m.virtual_ms.record(virtual_ms);
    obs::global()
        .counter(obs::names::ANALYSIS_INCREMENTAL_UNDERFLOW)
        .add(inc.underflows());

    CampaignOutcome {
        store,
        sanitized,
        sanitation,
        streamed,
        reference,
        days,
        stats,
        stream_stats: state.stats(),
        incremental_deltas: inc.deltas_applied(),
        incremental_underflows: inc.underflows(),
        frames_minted: lg.stream_frames_minted(),
        virtual_ms,
        dataset_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_campaign_is_complete_and_matches_its_reference() {
        let cfg = CampaignConfig::default();
        let outcome = run_campaign(0xBA5E, &FaultPlan::none(), &cfg);
        assert_eq!(outcome.store.len(), cfg.days as usize);
        assert_eq!(outcome.streamed.len(), cfg.days as usize);
        assert_eq!(outcome.reference.len(), cfg.days as usize);
        assert_eq!(outcome.stats.total_faults(), 0);
        for rec in &outcome.days {
            assert!(rec.snapshot.is_ok(), "day {}: {:?}", rec.day, rec.snapshot);
            assert!(rec.drain.is_ok(), "day {}: {:?}", rec.day, rec.drain);
            assert!(
                rec.reference.is_ok(),
                "day {}: {:?}",
                rec.day,
                rec.reference
            );
            assert_eq!(
                rec.streamed_hash, rec.reference_hash,
                "day {}: streamed state must match the polled snapshot",
                rec.day
            );
            assert!(rec.virtual_ms <= DAY_BUDGET_MS);
        }
        // with nothing injected, the day's poll and its reference poll
        // see the same world: the reference is a fault-free baseline
        for (polled, reference) in outcome.store.iter().zip(outcome.reference.iter()) {
            assert!(!polled.partial);
            assert!(polled.failed_peers.is_empty());
            assert_eq!(
                snapshot_fingerprint(polled),
                snapshot_fingerprint(reference),
                "day {}: fault-free poll and reference differ",
                polled.day
            );
        }
        // update conservation: every minted frame applied exactly once
        assert_eq!(outcome.stream_stats.applied, outcome.frames_minted);
        assert_eq!(outcome.stream_stats.dupes_dropped, 0);
    }

    #[test]
    fn equal_seed_and_plan_reproduce_the_dataset_hash() {
        let cfg = CampaignConfig::default();
        let plan = FaultPlan::from_seed(3, cfg.days);
        let a = run_campaign(3, &plan, &cfg);
        let b = run_campaign(3, &plan, &cfg);
        assert_eq!(a.dataset_hash, b.dataset_hash);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(
            a.stats.faults, b.stats.faults,
            "fault injection must be deterministic"
        );
    }

    #[test]
    fn chaotic_campaign_stream_still_converges() {
        let cfg = CampaignConfig::default();
        let plan = FaultPlan::from_seed(5, cfg.days);
        let outcome = run_campaign(5, &plan, &cfg);
        for rec in &outcome.days {
            assert!(rec.drain.is_ok(), "day {}: {:?}", rec.day, rec.drain);
            assert_eq!(
                rec.streamed_hash, rec.reference_hash,
                "day {}: defended faults must not corrupt the streamed state",
                rec.day
            );
        }
        assert_eq!(outcome.stream_stats.applied, outcome.frames_minted);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // standard FNV-1a test vectors
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x85944171F73967E8);
    }
}
