//! Invariant oracles: the properties a chaotic campaign must preserve no
//! matter what the fault plan injected. Each check explains exactly which
//! corruption it guards against; the fixture tests in the chaos suite
//! prove every oracle catches a real injected violation.

use std::collections::BTreeMap;
use std::fmt;

use bgp_model::asn::Asn;
use bgp_model::prefix::Prefix;

use crate::campaign::{CampaignConfig, CampaignOutcome, DAY_BUDGET_MS};
use crate::plan::FaultPlan;

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `partial` flag, `failed_peers`, and snapshot contents disagree:
    /// either a clean snapshot claims failures, a partial one names none,
    /// a failed peer is not a member, or a failed peer still has routes.
    InconsistentPartialFlag {
        /// Day of the offending snapshot.
        day: u32,
        /// What disagreed.
        detail: String,
    },
    /// The campaign lost data the plan cannot explain: a day produced no
    /// snapshot or a peer was flagged failed even though the collector's
    /// retry budget dominates the plan's fault rates.
    CompletenessViolated {
        /// Day of the loss.
        day: u32,
        /// What was lost.
        detail: String,
    },
    /// A snapshot's per-peer route count disagrees with what the summary
    /// declared for that peer on that day.
    SummaryMismatch {
        /// Day of the snapshot.
        day: u32,
        /// The disagreeing peer.
        peer: Asn,
        /// Routes the summary declared.
        declared: usize,
        /// Routes the snapshot holds.
        fetched: usize,
    },
    /// The same (peer, prefix) appears more than once in one snapshot —
    /// pagination served overlapping pages.
    DuplicateRoute {
        /// Day of the snapshot.
        day: u32,
        /// The duplicated peer.
        peer: Asn,
        /// The duplicated prefix.
        prefix: Prefix,
    },
    /// Route totals diverge from the same day's fault-free reference poll
    /// beyond what the plan's churn can explain: the pipeline invented or
    /// lost routes.
    ConservationBroken {
        /// Day of the divergence.
        day: u32,
        /// What diverged.
        detail: String,
    },
    /// Running sanitation a second time removed more snapshots — it is
    /// not idempotent on this dataset.
    SanitationNotIdempotent {
        /// Snapshots the second pass removed.
        second_pass_removed: usize,
    },
    /// A day with silently truncated pages survived sanitation.
    SanitationMissedOutage {
        /// The truncated day still present in the sanitized store.
        day: u32,
    },
    /// The wire saw more consecutive identical requests than the
    /// collector's configured retry budget allows.
    RetryBoundExceeded {
        /// Longest observed run of identical requests.
        observed: u64,
        /// The configured ceiling.
        bound: u64,
    },
    /// One day's collection consumed more logical time than its budget.
    DayOverran {
        /// The slow day.
        day: u32,
        /// Logical milliseconds it consumed.
        virtual_ms: u64,
    },
    /// Two runs of the same `(seed, plan)` produced different datasets.
    NonDeterministic {
        /// First run's dataset hash.
        first: u64,
        /// Second run's dataset hash.
        second: u64,
    },
    /// The snapshot synthesized from the streamed state at the quiescent
    /// end of a day is not byte-identical to the reference snapshot
    /// polled from the same server at the same point.
    StreamDivergence {
        /// Day of the divergence.
        day: u32,
        /// Fingerprint of the streamed snapshot.
        streamed: u64,
        /// Fingerprint of the polled reference snapshot.
        reference: u64,
    },
    /// The stream collector's applied-update count disagrees with the
    /// frames the feed minted: replayed frames were double-applied
    /// (applied > minted — the dedup failure) or updates were silently
    /// lost (applied < minted).
    StreamConservationBroken {
        /// Events the collector applied.
        applied: u64,
        /// Frames the feed ever minted.
        minted: u64,
    },
    /// The day's report finalized by the incremental engine (O(churn))
    /// is not byte-identical to the batch report recomputed from scratch
    /// over the streamed end-of-day snapshot (O(world)) — the
    /// apply/retract/merge algebra lost or invented aggregate state.
    IncrementalDivergence {
        /// Day of the divergence.
        day: u32,
        /// Fingerprint of the incremental engine's report.
        incremental: u64,
        /// Fingerprint of the recomputed batch report.
        batch: u64,
    },
    /// The incremental engine was asked to retract a contribution it
    /// never applied: some counter would have gone below zero. The
    /// reports can still agree afterwards (the counter is left at zero),
    /// so this is checked on its own.
    IncrementalUnderflow {
        /// Retracts that found their counter already at zero.
        underflows: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::InconsistentPartialFlag { day, detail } => {
                write!(f, "day {day}: inconsistent partial flag: {detail}")
            }
            Violation::CompletenessViolated { day, detail } => {
                write!(f, "day {day}: completeness violated: {detail}")
            }
            Violation::SummaryMismatch {
                day,
                peer,
                declared,
                fetched,
            } => write!(
                f,
                "day {day}: AS{} summary declared {declared} routes, snapshot has {fetched}",
                peer.0
            ),
            Violation::DuplicateRoute { day, peer, prefix } => {
                write!(f, "day {day}: AS{} announces {prefix} twice", peer.0)
            }
            Violation::ConservationBroken { day, detail } => {
                write!(f, "day {day}: conservation broken: {detail}")
            }
            Violation::SanitationNotIdempotent {
                second_pass_removed,
            } => write!(
                f,
                "sanitation not idempotent: second pass removed {second_pass_removed}"
            ),
            Violation::SanitationMissedOutage { day } => {
                write!(f, "truncated day {day} survived sanitation")
            }
            Violation::RetryBoundExceeded { observed, bound } => {
                write!(
                    f,
                    "retry bound exceeded: {observed} identical requests (bound {bound})"
                )
            }
            Violation::DayOverran { day, virtual_ms } => {
                write!(f, "day {day} overran its budget: {virtual_ms}ms logical")
            }
            Violation::NonDeterministic { first, second } => {
                write!(f, "non-deterministic: {first:#018x} != {second:#018x}")
            }
            Violation::StreamDivergence {
                day,
                streamed,
                reference,
            } => write!(
                f,
                "day {day}: streamed state diverged: {streamed:#018x} != reference {reference:#018x}"
            ),
            Violation::StreamConservationBroken { applied, minted } => {
                write!(
                    f,
                    "stream conservation broken: {applied} events applied vs {minted} frames minted"
                )
            }
            Violation::IncrementalDivergence {
                day,
                incremental,
                batch,
            } => write!(
                f,
                "day {day}: incremental report diverged: {incremental:#018x} != batch {batch:#018x}"
            ),
            Violation::IncrementalUnderflow { underflows } => write!(
                f,
                "incremental engine retracted below zero {underflows} time(s)"
            ),
        }
    }
}

/// Per-snapshot route counts by peer.
fn per_peer_counts(snap: &looking_glass::snapshot::Snapshot) -> BTreeMap<Asn, usize> {
    let mut counts = BTreeMap::new();
    for (peer, _) in &snap.routes {
        *counts.entry(*peer).or_insert(0) += 1;
    }
    counts
}

fn churn_bound(plan: &FaultPlan, stats: &crate::inject::InjectStats, day: u32, peer: Asn) -> usize {
    if plan.churn_days.contains(&day) {
        stats.churned.get(&(day, peer)).copied().unwrap_or(0) as usize
    } else {
        0
    }
}

/// Check every invariant against a finished campaign: both collection
/// paths complete within budget; each polled snapshot is
/// self-consistent, agrees with its summary and conserves the routes
/// and communities of the same day's fault-free reference poll;
/// sanitation is idempotent and removes truncated days; retries stay
/// within budget; the streamed end-of-day snapshot is byte-identical to
/// the reference and the incremental report to its batch recompute;
/// and update conservation holds (every minted frame applied exactly
/// once — replays deduped, nothing lost).
///
/// Returns all violations found (and counts them on the
/// `chaos.oracle_violations` metric).
pub fn check_campaign(
    outcome: &CampaignOutcome,
    plan: &FaultPlan,
    cfg: &CampaignConfig,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // 1. every day completes within budget, on both paths
    for rec in &outcome.days {
        for (result, what) in [
            (&rec.snapshot, "day lost entirely"),
            (&rec.drain, "stream drain failed"),
            (&rec.reference, "reference collection failed"),
        ] {
            if let Err(e) = result {
                violations.push(Violation::CompletenessViolated {
                    day: rec.day,
                    detail: format!("{what}: {e:?}"),
                });
            }
        }
        if rec.virtual_ms > DAY_BUDGET_MS {
            violations.push(Violation::DayOverran {
                day: rec.day,
                virtual_ms: rec.virtual_ms,
            });
        }
        if rec.reference.is_ok() && rec.streamed_hash != rec.reference_hash {
            violations.push(Violation::StreamDivergence {
                day: rec.day,
                streamed: rec.streamed_hash,
                reference: rec.reference_hash,
            });
        }
        // the incremental report must match the batch recompute of the
        // very same streamed state — unconditionally: even when faults
        // corrupted the store, the engine tracks the store, so any
        // disagreement here is the engine's own algebra going wrong
        if rec.incremental_hash != rec.batch_hash {
            violations.push(Violation::IncrementalDivergence {
                day: rec.day,
                incremental: rec.incremental_hash,
                batch: rec.batch_hash,
            });
        }
    }

    // 2. polled snapshot self-consistency
    for snap in outcome.store.iter() {
        let day = snap.day;
        if snap.partial == snap.failed_peers.is_empty() {
            violations.push(Violation::InconsistentPartialFlag {
                day,
                detail: format!(
                    "partial={} but {} failed peers",
                    snap.partial,
                    snap.failed_peers.len()
                ),
            });
        }
        for peer in &snap.failed_peers {
            if !snap.members.contains(peer) {
                violations.push(Violation::InconsistentPartialFlag {
                    day,
                    detail: format!("failed peer AS{} is not a member", peer.0),
                });
            }
            if snap.routes.iter().any(|(p, _)| p == peer) {
                violations.push(Violation::InconsistentPartialFlag {
                    day,
                    detail: format!("failed peer AS{} still has routes", peer.0),
                });
            }
            violations.push(Violation::CompletenessViolated {
                day,
                detail: format!("peer AS{} lost despite the retry budget", peer.0),
            });
        }

        // 3. pagination integrity: no duplicated (peer, prefix)
        let mut seen = std::collections::BTreeSet::new();
        for (peer, route) in &snap.routes {
            if !seen.insert((*peer, route.prefix)) {
                violations.push(Violation::DuplicateRoute {
                    day,
                    peer: *peer,
                    prefix: route.prefix,
                });
            }
        }

        // 4. snapshot vs summary: the collector must deliver exactly what
        // the server declared (modulo explained faults). A truncated
        // day's raw snapshot legitimately disagrees — but only while
        // sanitation removes it; a truncated day that *survives* into
        // the cleaned dataset is silent corruption and must be flagged.
        let truncated_day = plan.truncate_days.contains(&day);
        let absorbed = truncated_day
            && !outcome
                .sanitized
                .iter()
                .any(|s| s.day == day && s.ixp == snap.ixp && s.afi == snap.afi);
        if !absorbed {
            let counts = per_peer_counts(snap);
            for (&(d, peer), &declared) in &outcome.stats.declared {
                if d != day || snap.failed_peers.contains(&peer) {
                    continue;
                }
                if plan.flap_days.contains(&day)
                    && !plan.mid_collection_flap
                    && outcome.stats.flapped.get(&day) == Some(&peer)
                {
                    continue;
                }
                let fetched = counts.get(&peer).copied().unwrap_or(0);
                if declared == 0 {
                    continue; // session without routes: nothing fetched
                }
                let churn = churn_bound(plan, &outcome.stats, day, peer);
                if fetched < declared || fetched > declared + churn {
                    violations.push(Violation::SummaryMismatch {
                        day,
                        peer,
                        declared,
                        fetched,
                    });
                }
            }
        }

        // 5. conservation vs the same day's fault-free reference poll
        if let Some(base) = outcome.reference.get(snap.ixp, snap.afi, day) {
            if !absorbed {
                let counts = per_peer_counts(snap);
                let base_counts = per_peer_counts(base);
                let flapped_today = outcome.stats.flapped.get(&day);
                for (peer, &base_count) in &base_counts {
                    if snap.failed_peers.contains(peer) || flapped_today == Some(peer) {
                        continue;
                    }
                    let got = counts.get(peer).copied().unwrap_or(0);
                    let churn = churn_bound(plan, &outcome.stats, day, *peer);
                    if got < base_count || got > base_count + churn {
                        violations.push(Violation::ConservationBroken {
                            day,
                            detail: format!(
                                "AS{}: {got} routes vs reference {base_count} (churn bound {churn})",
                                peer.0
                            ),
                        });
                    }
                }
                // community instances only grow by what churn can carry
                // (each churned route brings its route plus info tags);
                // a flapped peer takes its communities with it, so flap
                // days are covered by the per-peer check above instead
                if flapped_today.is_some() {
                    continue;
                }
                let churn_total: usize = outcome
                    .stats
                    .churned
                    .iter()
                    .filter(|(&(d, _), _)| d == day)
                    .map(|(_, &n)| n as usize)
                    .sum();
                let base_comm = base.community_instances();
                let got_comm = snap.community_instances();
                let slack = churn_total * 8;
                if got_comm + slack < base_comm || got_comm > base_comm + slack {
                    violations.push(Violation::ConservationBroken {
                        day,
                        detail: format!(
                            "community instances {got_comm} vs reference {base_comm} (slack {slack})"
                        ),
                    });
                }
            }
        }
    }

    // 6. sanitation: idempotent, and truncated interior days must go
    let mut twice = outcome.sanitized.clone();
    let second = looking_glass::sanitize::sanitize_store(
        &mut twice,
        &looking_glass::sanitize::SanitizeConfig::default(),
    );
    if !second.removed.is_empty() {
        violations.push(Violation::SanitationNotIdempotent {
            second_pass_removed: second.removed.len(),
        });
    }
    for &day in &plan.truncate_days {
        // interior truncated days are recoverable valleys; sanitation
        // must have dropped them from the cleaned dataset
        if day > 0
            && day + 1 < cfg.days
            && outcome.store.iter().any(|s| s.day == day)
            && outcome.sanitized.iter().any(|s| s.day == day)
        {
            violations.push(Violation::SanitationMissedOutage { day });
        }
    }

    // 7. retries stay within configuration, on both paths (the drain
    // polls through the same transport under the same budget)
    let per_page = u64::from(cfg.collector.max_retries) + 1;
    let bound = if cfg.collector.validate_pages {
        // echo-mismatch retries can interleave with transient retries
        per_page * per_page
    } else {
        per_page
    };
    if outcome.stats.max_consecutive_identical > bound {
        violations.push(Violation::RetryBoundExceeded {
            observed: outcome.stats.max_consecutive_identical,
            bound,
        });
    }

    // 8. update conservation on the stream path
    let applied = outcome.stream_stats.applied;
    let minted = outcome.frames_minted;
    if applied != minted {
        violations.push(Violation::StreamConservationBroken { applied, minted });
    }
    // every retract must follow its apply (under the
    // `disable_retraction` fixture no retract runs at all, so the count
    // is trivially zero there and needs no exemption)
    if outcome.incremental_underflows > 0 {
        violations.push(Violation::IncrementalUnderflow {
            underflows: outcome.incremental_underflows,
        });
    }

    if !violations.is_empty() {
        let m = crate::metrics::handles();
        for _ in &violations {
            m.oracle_violations.inc();
        }
    }
    violations
}

/// The determinism oracle: both outcomes came from the same `(seed,
/// plan)` — their fingerprints must agree bit for bit.
pub fn check_determinism(a: &CampaignOutcome, b: &CampaignOutcome) -> Option<Violation> {
    (a.dataset_hash != b.dataset_hash).then_some(Violation::NonDeterministic {
        first: a.dataset_hash,
        second: b.dataset_hash,
    })
}
