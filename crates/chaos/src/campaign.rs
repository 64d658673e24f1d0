//! The chaotic campaign driver: build one IXP world, then run a
//! multi-day collect→sanitize pipeline entirely on a virtual clock with
//! a [`FaultPlan`] injected at the transport and server layers. Equal
//! `(seed, plan)` pairs produce byte-identical outcomes — the
//! determinism the oracles verify by hashing.

use std::sync::Arc;

use parking_lot::RwLock;

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;
use community_dict::ixp::IxpId;
use ixp_sim::world::{build_ixp, WorldConfig};
use looking_glass::api::LgError;
use looking_glass::client::{Collector, CollectorConfig};
use looking_glass::clock::{Clock, VirtualClock};
use looking_glass::sanitize::{sanitize_store, SanitationReport, SanitizeConfig};
use looking_glass::server::{FailureModel, LgServer, RateLimiter};
use looking_glass::snapshot::SnapshotStore;
use route_server::server::Member;

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
    /// Whether the day's collection produced a snapshot.
    pub result: Result<(), LgError>,
    /// Logical milliseconds the day's collection consumed.
    pub virtual_ms: u64,
}

/// Everything a finished campaign exposes to the oracles.
pub struct CampaignOutcome {
    /// The raw collected snapshots.
    pub store: SnapshotStore,
    /// The snapshots after valley sanitation.
    pub sanitized: SnapshotStore,
    /// What sanitation removed.
    pub sanitation: SanitationReport,
    /// Per-day collection records.
    pub days: Vec<DayRecord>,
    /// What the injector did.
    pub stats: InjectStats,
    /// Total logical time the campaign consumed.
    pub virtual_ms: u64,
    /// FNV-1a hash over both datasets — the determinism fingerprint.
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

fn hash_store(store: &SnapshotStore, mut hash: u64) -> u64 {
    for snap in store.iter() {
        match serde_json::to_vec(snap) {
            Ok(bytes) => hash = fnv1a(&bytes, hash),
            Err(_) => hash = fnv1a(b"<unserializable>", hash),
        }
    }
    hash
}

/// Hash the raw and sanitized datasets into one fingerprint.
pub fn dataset_hash(raw: &SnapshotStore, sanitized: &SnapshotStore) -> u64 {
    hash_store(sanitized, hash_store(raw, FNV_OFFSET))
}

/// FNV-1a fingerprint of one snapshot store on its own (the equivalence
/// tests compare streamed and polled datasets by this).
pub fn store_fingerprint(store: &SnapshotStore) -> u64 {
    hash_store(store, FNV_OFFSET)
}

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
fn flap_target(rs: &route_server::server::RouteServer, afi: Afi) -> Option<Member> {
    rs.members()
        .filter(|m| m.has_session(afi))
        .filter_map(|m| {
            let count = rs.accepted().peer(m.asn)?.iter_afi(afi).count();
            (count > 0).then_some((count, *m))
        })
        .min_by_key(|(count, m)| (*count, m.asn))
        .map(|(_, m)| m)
}

fn saved_routes(rs: &route_server::server::RouteServer, peer: Asn) -> Vec<Route> {
    let mut routes = Vec::new();
    if let Some(table) = rs.accepted().peer(peer) {
        routes.extend(table.iter().cloned());
    }
    routes
}

/// Run one chaotic campaign. Identical `(seed, plan, cfg)` triples give
/// identical outcomes; `plan = FaultPlan::none()` is the fault-free
/// baseline the conservation oracle compares against.
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

    let mut store = SnapshotStore::new();
    let mut stats = InjectStats::default();
    let mut days = Vec::with_capacity(cfg.days as usize);

    for day in 0..cfg.days {
        clock.advance_to(u64::from(day) * DAY_MS);
        let day_start = clock.now_ms();

        // day-level server faults
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

        // between-day flap: the peer's session is down for the whole day
        let mut flapped: Option<(Member, Vec<Route>)> = None;
        if plan.flap_days.contains(&day) && !plan.mid_collection_flap {
            let target = flap_target(&rs.read(), cfg.afi);
            if let Some(member) = target {
                let routes = saved_routes(&rs.read(), member.asn);
                rs.write().remove_member(member.asn);
                stats.flapped.insert(day, member.asn);
                flapped = Some((member, routes));
            }
        }

        let (result, churned, flap_dropped) = {
            let mut transport =
                ChaosTransport::new(&lg, &clock, plan, Arc::clone(&rs), day, seed, &mut stats);
            let outcome = collector.collect_with_clock(&mut transport, cfg.afi, day, &clock);
            let churned = std::mem::take(&mut transport.churned_routes);
            let flap_dropped = std::mem::take(&mut transport.flap_dropped);
            (outcome, churned, flap_dropped)
        };

        // undo the day's world mutations so the next day starts clean
        {
            let mut rs = rs.write();
            for (peer, prefix) in churned {
                rs.withdraw(peer, &prefix);
            }
            for (peer, route) in flap_dropped {
                rs.announce(peer, route);
            }
            if let Some((member, routes)) = flapped {
                rs.add_member(member.asn, member.ipv4, member.ipv6);
                for route in routes {
                    rs.announce(member.asn, route);
                }
            }
        }
        if truncating {
            lg.set_failures(FailureModel::NONE);
        }
        if storming {
            lg.set_limiter(default_limiter());
        }

        let virtual_ms = clock.now_ms().saturating_sub(day_start);
        let result = match result {
            Ok(report) => {
                store.insert(report.snapshot);
                Ok(())
            }
            Err(e) => Err(e),
        };
        days.push(DayRecord {
            day,
            result,
            virtual_ms,
        });
    }

    let mut sanitized = store.clone();
    let sanitation = sanitize_store(&mut sanitized, &SanitizeConfig::default());
    let virtual_ms = clock.now_ms();
    let hash = dataset_hash(&store, &sanitized);

    let m = crate::metrics::handles();
    m.campaigns.inc();
    m.virtual_ms.record(virtual_ms);

    CampaignOutcome {
        store,
        sanitized,
        sanitation,
        days,
        stats,
        virtual_ms,
        dataset_hash: hash,
    }
}

/// One day of a dual (snapshot + stream) campaign.
#[derive(Debug, Clone)]
pub struct StreamDayRecord {
    /// Day index.
    pub day: u32,
    /// Whether the chaotic polled collection produced a snapshot.
    pub snapshot: Result<(), LgError>,
    /// Whether the chaotic mid-day stream drain reached quiescence.
    pub drain: Result<(), LgError>,
    /// Whether the fault-free end-of-day reference collection succeeded.
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

/// Everything a finished dual campaign exposes to the stream oracles.
pub struct StreamCampaignOutcome {
    /// Per-day records, both paths.
    pub days: Vec<StreamDayRecord>,
    /// Snapshots synthesized from the streamed state, one per day.
    pub streamed: SnapshotStore,
    /// Fault-free reference snapshots polled at end of day, one per day.
    pub reference: SnapshotStore,
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
    /// FNV-1a hash over streamed + reference datasets — the determinism
    /// fingerprint of the dual campaign.
    pub dataset_hash: u64,
}

/// Run one dual campaign: each day does the chaotic polled collection
/// *and* a chaotic stream drain through the same fault-injecting
/// transport, then — after the day's world mutations are undone and the
/// remaining events drained fault-free — synthesizes the streamed
/// end-of-day snapshot and polls a fault-free reference snapshot from
/// the very same server. The headline contract is byte identity between
/// the two, checked per day by [`crate::oracle::check_stream_campaign`].
pub fn run_stream_campaign(
    seed: u64,
    plan: &FaultPlan,
    cfg: &CampaignConfig,
) -> StreamCampaignOutcome {
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
    // retry depth matches the polled collector's: at corpus fault rates a
    // lost poll is a deterministic non-event, so drain errors stay a
    // real oracle signal
    let stream_collector =
        stream::collector::StreamCollector::new(stream::collector::StreamConfig {
            max_retries: 8,
            dedup_replays: !plan.replay_without_dedup,
            ..stream::collector::StreamConfig::default()
        });
    let mut state = stream::state::RouterState::new(cfg.ixp);
    // the incremental report engine rides the delta feed; every day the
    // batch report recomputed from the streamed snapshot serves as its
    // correctness oracle (the IncrementalDivergence check)
    let dicts = vec![(cfg.ixp, community_dict::schemes::dictionary(cfg.ixp))];
    let mut inc = analysis::incremental::IncrementalReport::new(&dicts);
    if plan.disable_retraction {
        inc.set_retraction_enabled(false);
    }

    let mut streamed = SnapshotStore::new();
    let mut reference = SnapshotStore::new();
    let mut stats = InjectStats::default();
    let mut days = Vec::with_capacity(cfg.days as usize);

    for day in 0..cfg.days {
        clock.advance_to(u64::from(day) * DAY_MS);
        let day_start = clock.now_ms();

        let truncating = plan.truncate_days.contains(&day);
        if truncating {
            lg.set_failures(FailureModel {
                error_rate: 0.0,
                truncate_rate: 1.0,
            });
        }
        let storming = plan.storm_days.contains(&day);
        if storming {
            lg.set_limiter(storm_limiter());
        }

        // between-day flap; with the silent-loss fixture switch the peer
        // goes down for good (its teardown is the event the feed loses)
        let mut flapped: Option<(Member, Vec<Route>)> = None;
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

        let (snap_result, drain_result, churned, flap_dropped) = {
            let mut transport =
                ChaosTransport::new(&lg, &clock, plan, Arc::clone(&rs), day, seed, &mut stats);
            let snap = collector.collect_with_clock(&mut transport, cfg.afi, day, &clock);
            let drain = stream_collector.drain_with_clock_into(
                &mut state,
                &mut transport,
                &clock,
                &mut inc,
            );
            let churned = std::mem::take(&mut transport.churned_routes);
            let flap_dropped = std::mem::take(&mut transport.flap_dropped);
            (snap, drain, churned, flap_dropped)
        };

        // undo the day's world mutations so the next day starts clean
        {
            let mut rs = rs.write();
            for (peer, prefix) in churned {
                rs.withdraw(peer, &prefix);
            }
            for (peer, route) in flap_dropped {
                rs.announce(peer, route);
            }
            if let Some((member, routes)) = flapped {
                rs.add_member(member.asn, member.ipv4, member.ipv6);
                for route in routes {
                    rs.announce(member.asn, route);
                }
            }
        }
        if truncating {
            lg.set_failures(FailureModel::NONE);
        }
        if storming {
            lg.set_limiter(default_limiter());
        }

        // quiescent point: drain the undo events fault-free, then poll
        // the reference snapshot from the same server
        let final_drain = {
            let mut plain = &lg;
            stream_collector.drain_with_clock_into(&mut state, &mut plain, &clock, &mut inc)
        };
        let drain_result = drain_result.and(final_drain).map(|_| ());
        let reference_result = {
            let mut plain = &lg;
            collector.collect_with_clock(&mut plain, cfg.afi, day, &clock)
        };

        let streamed_snap = state.to_snapshot(cfg.afi, day);
        let streamed_hash = snapshot_fingerprint(&streamed_snap);

        // incremental vs batch: finalize the engine's O(churn) report and
        // recompute the same unit from scratch over the streamed snapshot,
        // timing both paths (wall clock; never part of any fingerprint)
        let timer = obs::global()
            .histogram(obs::names::ANALYSIS_INCREMENTAL_DAY_NS)
            .start();
        let day_report = inc.report_units(&[(cfg.ixp, cfg.afi)], day);
        let incremental_ns = timer.stop().as_nanos().min(u64::MAX as u128) as u64;
        let mut day_store = SnapshotStore::new();
        day_store.insert(streamed_snap.clone());
        let timer = obs::global()
            .histogram(obs::names::ANALYSIS_BATCH_DAY_NS)
            .start();
        let batch_report = analysis::summary::full_report(&day_store, &dicts);
        let batch_ns = timer.stop().as_nanos().min(u64::MAX as u128) as u64;
        let inc_json =
            serde_json::to_string(&day_report).unwrap_or_else(|_| "<unserializable>".into());
        let batch_json =
            serde_json::to_string(&batch_report).unwrap_or_else(|_| "<unserializable>".into());
        let incremental_hash = fnv1a(inc_json.as_bytes(), FNV_OFFSET);
        let batch_hash = fnv1a(batch_json.as_bytes(), FNV_OFFSET);
        let report_divergence = (incremental_hash != batch_hash).then_some((inc_json, batch_json));

        streamed.insert(streamed_snap);
        let (reference_result, reference_hash) = match reference_result {
            Ok(report) => {
                let hash = snapshot_fingerprint(&report.snapshot);
                reference.insert(report.snapshot);
                (Ok(()), hash)
            }
            Err(e) => (Err(e), 0),
        };

        days.push(StreamDayRecord {
            day,
            snapshot: snap_result.map(|_| ()),
            drain: drain_result,
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

    let virtual_ms = clock.now_ms();
    let hash = hash_store(&reference, hash_store(&streamed, FNV_OFFSET));

    let m = crate::metrics::handles();
    m.campaigns.inc();
    m.virtual_ms.record(virtual_ms);
    obs::global()
        .counter(obs::names::ANALYSIS_INCREMENTAL_UNDERFLOW)
        .add(inc.underflows());

    StreamCampaignOutcome {
        days,
        streamed,
        reference,
        stats,
        stream_stats: state.stats(),
        incremental_deltas: inc.deltas_applied(),
        incremental_underflows: inc.underflows(),
        frames_minted: lg.stream_frames_minted(),
        virtual_ms,
        dataset_hash: hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_campaign_is_complete() {
        let cfg = CampaignConfig::default();
        let outcome = run_campaign(0xBA5E, &FaultPlan::none(), &cfg);
        assert_eq!(outcome.store.len(), cfg.days as usize);
        assert_eq!(outcome.stats.total_faults(), 0);
        for rec in &outcome.days {
            assert!(rec.result.is_ok(), "day {}: {:?}", rec.day, rec.result);
            assert!(rec.virtual_ms <= DAY_BUDGET_MS);
        }
        for snap in outcome.store.iter() {
            assert!(!snap.partial);
            assert!(snap.failed_peers.is_empty());
        }
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
    fn fault_free_stream_campaign_matches_the_polled_reference() {
        let cfg = CampaignConfig::default();
        let outcome = run_stream_campaign(0xBA5E, &FaultPlan::none(), &cfg);
        assert_eq!(outcome.streamed.len(), cfg.days as usize);
        assert_eq!(outcome.reference.len(), cfg.days as usize);
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
        // update conservation: every minted frame applied exactly once
        assert_eq!(outcome.stream_stats.applied, outcome.frames_minted);
        assert_eq!(outcome.stream_stats.dupes_dropped, 0);
    }

    #[test]
    fn chaotic_stream_campaign_still_converges() {
        let cfg = CampaignConfig::default();
        let plan = FaultPlan::from_seed(5, cfg.days);
        let outcome = run_stream_campaign(5, &plan, &cfg);
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
