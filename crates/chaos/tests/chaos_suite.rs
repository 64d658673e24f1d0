//! The chaos suite: the 32-seed CI corpus, one oracle-sensitivity
//! fixture per fault class, the replay entry point, and the wall-time
//! regression that proves the whole campaign runs on the virtual clock.
//!
//! Every failure printed by this suite includes a replay command; run it
//! to re-execute the exact `(seed, fault_plan)` campaign that failed.

use chaos::prelude::*;
use looking_glass::client::CollectorConfig;

fn corpus_seeds() -> Vec<u64> {
    // the CI chaos stage pins CHAOS_SEEDS=32 on the release binary; a
    // plain debug `cargo test` keeps a smaller default so tier-1 stays
    // quick on small machines
    let default = if cfg!(debug_assertions) { 8 } else { 32 };
    // unset keeps the default; a set but unparseable value fails the
    // suite rather than quietly running the default corpus
    let n: u64 = match std::env::var_os("CHAOS_SEEDS") {
        None => default,
        Some(raw) => raw
            .to_str()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("CHAOS_SEEDS={raw:?}: expected a seed count (u64)")),
    };
    (0..n).collect()
}

fn replay_hint(seed: u64, plan: &FaultPlan) -> String {
    format!(
        "replay with: CHAOS_REPLAY='{{\"seed\":{seed},\"plan\":{}}}' \
         cargo test -p chaos --test chaos_suite replay_from_env -- --nocapture --ignored",
        plan.to_json()
    )
}

/// Run one seed's campaign and its determinism rerun, and return any
/// violations.
fn run_seed(seed: u64, plan: &FaultPlan, cfg: &CampaignConfig) -> Vec<Violation> {
    let outcome = run_campaign(seed, plan, cfg);
    let mut violations = check_campaign(&outcome, plan, cfg);
    let rerun = run_campaign(seed, plan, cfg);
    violations.extend(check_determinism(&outcome, &rerun));
    violations
}

#[test]
fn corpus_all_seeds_green_and_deterministic() {
    let cfg = CampaignConfig::default();
    for seed in corpus_seeds() {
        let plan = FaultPlan::from_seed(seed, cfg.days);
        let violations = run_seed(seed, &plan, &cfg);
        assert!(
            violations.is_empty(),
            "seed {seed}: {} violation(s):\n  {}\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
            replay_hint(seed, &plan)
        );
    }
}

#[test]
fn corpus_plans_cover_every_fault_class() {
    // the fixed CI corpus must actually exercise all eleven classes
    let cfg = CampaignConfig::default();
    let mut seen = std::collections::BTreeSet::new();
    for seed in corpus_seeds() {
        let plan = FaultPlan::from_seed(seed, cfg.days);
        for class in FaultClass::ALL {
            let covered = match class {
                FaultClass::Drop => plan.drop_per_mille > 0,
                FaultClass::Duplicate => plan.dup_per_mille > 0,
                FaultClass::Delay => plan.delay_per_mille > 0 && plan.delay_ms > 0,
                FaultClass::Garbage => plan.garbage_per_mille > 0,
                FaultClass::Reorder => plan.reorder_per_mille > 0,
                FaultClass::Truncate => !plan.truncate_days.is_empty(),
                FaultClass::Storm => !plan.storm_days.is_empty(),
                FaultClass::Flap => !plan.flap_days.is_empty(),
                FaultClass::Churn => !plan.churn_days.is_empty(),
                FaultClass::Reset => plan.reset_per_mille > 0,
                FaultClass::LostPeerDown => plan.lost_down_per_mille > 0,
            };
            if covered {
                seen.insert(class.name());
            }
        }
    }
    for class in FaultClass::ALL {
        assert!(
            seen.contains(class.name()),
            "corpus never schedules fault class {:?}",
            class
        );
    }
}

/// Property: any plan the generator can derive, at any world seed, runs
/// green. A failure shrinks to a minimal `(seed, plan)` pair.
#[test]
fn property_random_plans_preserve_all_invariants() {
    let cfg = CampaignConfig::default();
    let days = cfg.days;
    let gen = move |c: &mut Choices| (c.draw(0xFFFF), FaultPlan::from_choices(c, days));
    let config = CheckConfig {
        max_shrink_attempts: 60,
        ..CheckConfig::new(0x5EED_CA5E, 6)
    };
    assert_holds(&config, gen, |(seed, plan)| {
        let violations = run_seed(*seed, plan, &cfg);
        assert!(
            violations.is_empty(),
            "seed={seed} plan={}\n  violations:\n  {}\n{}",
            plan.to_json(),
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
            replay_hint(*seed, plan)
        );
        true
    });
}

/// Replay entry point: run `(seed, plan)` from the CHAOS_REPLAY env var
/// (a JSON object `{"seed": N, "plan": {...}}`) and report the oracles'
/// verdict. Ignored unless invoked explicitly by the printed hint.
#[test]
#[ignore = "replay entry point; set CHAOS_REPLAY and run with --ignored"]
fn replay_from_env() {
    let Ok(raw) = std::env::var("CHAOS_REPLAY") else {
        eprintln!("CHAOS_REPLAY not set; nothing to replay");
        return;
    };
    #[derive(serde::Deserialize)]
    struct Replay {
        seed: u64,
        plan: FaultPlan,
    }
    let replay: Replay = serde_json::from_str(&raw).expect("CHAOS_REPLAY must be valid JSON");
    let cfg = CampaignConfig::default();
    let violations = run_seed(replay.seed, &replay.plan, &cfg);
    assert!(
        violations.is_empty(),
        "replayed seed {}: {} violation(s):\n  {}",
        replay.seed,
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
    eprintln!("replayed seed {}: green", replay.seed);
}

/// Satellite: the whole chaotic campaign — pacing, backoff, day spacing,
/// injected latency — runs on the virtual clock, so a multi-day campaign
/// with hundreds of waits finishes in well under a second of wall time.
/// Three days keep the campaign's own compute (both collection paths,
/// the reference poll, the batch recompute) far enough below the bound
/// that only a leaked real sleep can cross it.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the wall clock is what this test measures: it proves the campaign ran on the virtual clock"
)]
fn chaotic_campaign_runs_in_virtual_time() {
    let wall_start = std::time::Instant::now();
    let cfg = CampaignConfig {
        days: 3,
        ..CampaignConfig::default()
    };
    let plan = FaultPlan::from_seed(1, cfg.days);
    let outcome = run_campaign(1, &plan, &cfg);
    let wall = wall_start.elapsed();
    assert!(
        outcome.virtual_ms >= u64::from(cfg.days - 1) * DAY_MS,
        "campaign must span its days in logical time: {}ms",
        outcome.virtual_ms
    );
    assert!(
        wall < std::time::Duration::from_secs(1),
        "virtual-clock campaign took {wall:?} wall time — a real sleep leaked in"
    );
}

// ---------------------------------------------------------------------
// Oracle-sensitivity fixtures: one per fault class. Each injects a fault
// variant the defended pipeline cannot absorb and asserts the expected
// oracle actually fires — proving the invariants are live checks, not
// tautologies.
// ---------------------------------------------------------------------

fn undefended() -> CampaignConfig {
    // no retries: transient faults become data loss the oracles must see
    CampaignConfig {
        collector: CollectorConfig {
            max_retries: 0,
            ..CollectorConfig::default()
        },
        ..CampaignConfig::default()
    }
}

fn fixture_violations(seed: u64, plan: &FaultPlan, cfg: &CampaignConfig) -> Vec<Violation> {
    check_campaign(&run_campaign(seed, plan, cfg), plan, cfg)
}

fn assert_fires(violations: &[Violation], pred: impl Fn(&Violation) -> bool, what: &str) {
    assert!(
        violations.iter().any(pred),
        "expected a {what} violation; got: {:?}",
        violations
    );
}

#[test]
fn fixture_drop_storm_of_losses_breaks_completeness() {
    let plan = FaultPlan {
        drop_per_mille: 300,
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xD0, &plan, &undefended());
    assert_fires(
        &v,
        |v| matches!(v, Violation::CompletenessViolated { .. }),
        "CompletenessViolated",
    );
    // the stream drain runs under the campaign's own retry budget: with
    // no retries, dropped polls abort the chaotic drain too
    assert_fires(
        &v,
        |v| {
            matches!(v, Violation::CompletenessViolated { detail, .. }
                if detail.starts_with("stream drain failed"))
        },
        "CompletenessViolated (stream drain failed)",
    );
}

#[test]
fn fixture_duplicate_pages_corrupt_the_snapshot() {
    let plan = FaultPlan {
        dup_per_mille: 800,
        ..FaultPlan::none()
    };
    let cfg = CampaignConfig {
        collector: CollectorConfig {
            validate_pages: false,
            ..CollectorConfig::default()
        },
        ..CampaignConfig::default()
    };
    let v = fixture_violations(0xD1, &plan, &cfg);
    assert_fires(
        &v,
        |v| {
            matches!(
                v,
                Violation::DuplicateRoute { .. } | Violation::SummaryMismatch { .. }
            )
        },
        "DuplicateRoute/SummaryMismatch",
    );
}

#[test]
fn fixture_injected_delay_overruns_the_day_budget() {
    let plan = FaultPlan {
        delay_per_mille: 1000,
        delay_ms: 300_000,
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xD2, &plan, &CampaignConfig::default());
    assert_fires(
        &v,
        |v| matches!(v, Violation::DayOverran { .. }),
        "DayOverran",
    );
}

#[test]
fn fixture_garbage_frames_break_completeness() {
    let plan = FaultPlan {
        garbage_per_mille: 400,
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xD3, &plan, &undefended());
    assert_fires(
        &v,
        |v| matches!(v, Violation::CompletenessViolated { .. }),
        "CompletenessViolated",
    );
}

#[test]
fn fixture_reordered_pages_corrupt_the_snapshot() {
    let plan = FaultPlan {
        reorder_per_mille: 800,
        ..FaultPlan::none()
    };
    let cfg = CampaignConfig {
        collector: CollectorConfig {
            validate_pages: false,
            ..CollectorConfig::default()
        },
        ..CampaignConfig::default()
    };
    let v = fixture_violations(0xD4, &plan, &cfg);
    assert_fires(
        &v,
        |v| matches!(v, Violation::DuplicateRoute { .. }),
        "DuplicateRoute",
    );
}

#[test]
fn fixture_final_day_truncation_is_silent_corruption() {
    // an interior truncated day is a recoverable valley; truncating the
    // FINAL day leaves no recovery, so sanitation keeps the corrupt
    // snapshot — and the summary oracle must flag it
    let cfg = CampaignConfig::default();
    let plan = FaultPlan {
        truncate_days: vec![cfg.days - 1],
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xD5, &plan, &cfg);
    assert_fires(
        &v,
        |v| matches!(v, Violation::SummaryMismatch { .. }),
        "SummaryMismatch",
    );
}

#[test]
fn fixture_rate_limit_storm_breaks_completeness() {
    let plan = FaultPlan {
        storm_days: vec![2],
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xD6, &plan, &undefended());
    assert_fires(
        &v,
        |v| matches!(v, Violation::CompletenessViolated { .. }),
        "CompletenessViolated",
    );
}

#[test]
fn fixture_mid_collection_flap_contradicts_the_summary() {
    let plan = FaultPlan {
        flap_days: vec![2],
        mid_collection_flap: true,
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xD7, &plan, &CampaignConfig::default());
    assert_fires(
        &v,
        |v| matches!(v, Violation::SummaryMismatch { .. }),
        "SummaryMismatch",
    );
}

#[test]
fn fixture_head_insert_churn_shifts_pagination() {
    let plan = FaultPlan {
        churn_days: vec![2],
        churn_events_per_day: 3,
        churn_head_insert: true,
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xD8, &plan, &CampaignConfig::default());
    assert_fires(
        &v,
        |v| {
            matches!(
                v,
                Violation::DuplicateRoute { .. } | Violation::SummaryMismatch { .. }
            )
        },
        "DuplicateRoute/SummaryMismatch",
    );
}

#[test]
fn fixture_replayed_reset_without_dedup_breaks_conservation() {
    // a monitoring-session reset replays the feed from the start; a
    // collector that does not dedup by sequence number double-applies
    // the replayed frames, and the update-conservation oracle (events
    // applied vs frames minted) must catch it
    let cfg = CampaignConfig::default();
    let plan = FaultPlan {
        reset_per_mille: 500,
        replay_without_dedup: true,
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xDA, &plan, &cfg);
    assert_fires(
        &v,
        |v| matches!(v, Violation::StreamConservationBroken { applied, minted } if applied > minted),
        "StreamConservationBroken (double application)",
    );
}

#[test]
fn fixture_silently_lost_peer_down_diverges_the_stream() {
    // the peer goes down for good but its teardown frame is masked on
    // the feed: the store keeps advertising the dead peer's routes, and
    // the end-of-day equivalence oracle must flag the divergence
    let cfg = CampaignConfig::default();
    let plan = FaultPlan {
        flap_days: vec![2],
        lose_peer_down_silent: true,
        ..FaultPlan::none()
    };
    let v = fixture_violations(0xDB, &plan, &cfg);
    assert_fires(
        &v,
        |v| matches!(v, Violation::StreamDivergence { .. }),
        "StreamDivergence",
    );
}

#[test]
fn fixture_disabled_retraction_diverges_the_incremental_report() {
    // with retraction disabled the incremental engine never subtracts a
    // withdrawn (or replaced) route's contribution, so churn makes its
    // aggregates drift above the batch recompute of the very same
    // streamed state — the incremental-divergence oracle must catch it
    let cfg = CampaignConfig::default();
    let plan = FaultPlan {
        churn_days: vec![1, 2, 3],
        churn_events_per_day: 3,
        disable_retraction: true,
        ..FaultPlan::none()
    };
    let outcome = run_campaign(0xDF, &plan, &cfg);
    let v = check_campaign(&outcome, &plan, &cfg);
    assert_fires(
        &v,
        |v| matches!(v, Violation::IncrementalDivergence { .. }),
        "IncrementalDivergence",
    );
    // the drift is one-directional and report-level only: the streamed
    // *store* still matches the polled reference every day
    for rec in &outcome.days {
        assert_eq!(
            rec.streamed_hash, rec.reference_hash,
            "day {}: the store itself must stay equivalent",
            rec.day
        );
    }
}

#[test]
fn session_resets_are_absorbed_by_dedup() {
    // the defended pipeline: heavy reset pressure forces replays, but
    // sequence-number dedup keeps conservation and equivalence intact
    let cfg = CampaignConfig::default();
    let plan = FaultPlan {
        reset_per_mille: 500,
        ..FaultPlan::none()
    };
    let outcome = run_campaign(0xDC, &plan, &cfg);
    let v = check_campaign(&outcome, &plan, &cfg);
    assert!(v.is_empty(), "expected clean absorption; got {v:?}");
    assert!(
        outcome.stats.faults.get("reset").copied().unwrap_or(0) > 0,
        "the fixture must actually inject resets"
    );
    assert!(
        outcome.stream_stats.dupes_dropped > 0,
        "replays must have been deduped"
    );
}

#[test]
fn cut_peer_down_pages_are_absorbed_by_the_cursor() {
    // the defended variant of the lost-peer-down fault: the page is cut
    // before the teardown frame, the reported backlog grows, and the
    // cursor re-serves the tail — nothing is lost
    let cfg = CampaignConfig::default();
    let plan = FaultPlan {
        flap_days: vec![2],
        lost_down_per_mille: 900,
        ..FaultPlan::none()
    };
    let outcome = run_campaign(0xDE, &plan, &cfg);
    let v = check_campaign(&outcome, &plan, &cfg);
    assert!(v.is_empty(), "expected clean absorption; got {v:?}");
    assert!(
        outcome
            .stats
            .faults
            .get("lost_peer_down")
            .copied()
            .unwrap_or(0)
            > 0,
        "the fixture must actually cut a peer-down page"
    );
}

#[test]
fn cut_peer_down_repolls_are_not_retries() {
    // a page cut right at its first frame comes back empty with a grown
    // backlog, so the drain's next poll repeats the request unchanged;
    // with no retries configured (a bound of one identical request)
    // those repeats must not read as retries
    let plan = FaultPlan {
        flap_days: vec![2],
        lost_down_per_mille: 900,
        ..FaultPlan::none()
    };
    let outcome = run_campaign(0xDE, &plan, &undefended());
    let v = check_campaign(&outcome, &plan, &undefended());
    assert!(v.is_empty(), "expected clean absorption; got {v:?}");
    assert!(
        outcome
            .stats
            .faults
            .get("lost_peer_down")
            .copied()
            .unwrap_or(0)
            > 1,
        "the fixture must cut the same poll more than once"
    );
}

#[test]
fn interior_truncation_is_absorbed_by_sanitation() {
    // the defended pipeline: an interior outage day is collected, then
    // removed by valley sanitation — no oracle fires
    let cfg = CampaignConfig::default();
    let plan = FaultPlan {
        truncate_days: vec![2],
        ..FaultPlan::none()
    };
    let outcome = run_campaign(0xD9, &plan, &cfg);
    let v = check_campaign(&outcome, &plan, &cfg);
    assert!(v.is_empty(), "expected clean absorption; got {v:?}");
    assert!(
        outcome.sanitized.iter().all(|s| s.day != 2),
        "sanitation must drop the truncated day"
    );
    assert_eq!(outcome.store.len(), cfg.days as usize);
}
