//! The incremental/batch report equivalence oracle (golden), on a
//! second seed.
//!
//! Runs the chaos campaign for the paper's full 84-day window under a
//! seed-derived fault plan other than the one `stream_equivalence`
//! pins. Every day the campaign finalizes the incremental engine's
//! report (updated per applied `RibEvent`, O(churn)) and recomputes the
//! same report from scratch over the streamed end-of-day snapshot
//! (O(world)); the two must serialize byte-identical — every float,
//! sort and tie-break — at `PAR_THREADS=1` and `4`. On divergence both
//! serialized reports land under `target/incremental-divergence/` and
//! the message shows their first differing bytes, so the failure is
//! diffable rather than just red.

mod common;

use chaos::prelude::*;

const SEED: u64 = 0x1C4E;

/// One campaign over the full collection window and its verdict.
fn campaign() -> (Vec<Violation>, CampaignOutcome) {
    let cfg = CampaignConfig {
        days: 84,
        ..CampaignConfig::default()
    };
    let plan = FaultPlan::from_seed(SEED, cfg.days);
    let outcome = run_campaign(SEED, &plan, &cfg);
    let violations = check_campaign(&outcome, &plan, &cfg);
    (violations, outcome)
}

#[test]
fn incremental_report_matches_batch_over_84_chaotic_days() {
    // One test: the thread override is process-global and the two
    // passes must not interleave.
    par::set_threads_override(Some(1));
    let (violations_1, outcome_1) = campaign();
    par::set_threads_override(Some(4));
    let (violations_4, outcome_4) = campaign();
    par::set_threads_override(None);

    for (violations, outcome, threads) in [
        (&violations_1, &outcome_1, 1),
        (&violations_4, &outcome_4, 4),
    ] {
        assert_eq!(outcome.days.len(), 84);
        for rec in &outcome.days {
            if rec.incremental_hash != rec.batch_hash {
                let (inc, batch) = rec
                    .report_divergence
                    .clone()
                    .unwrap_or_else(|| ("<missing>".into(), "<missing>".into()));
                let day = rec.day;
                panic!(
                    "day {day}: incremental report diverged from the batch recompute \
                     at PAR_THREADS={threads}; replay (seed={SEED}); {}",
                    common::dump_divergence(
                        "incremental-divergence",
                        (&format!("day{day}.incremental.threads{threads}"), &inc),
                        (&format!("day{day}.batch.threads{threads}"), &batch),
                    )
                );
            }
        }
        assert!(
            violations.is_empty(),
            "campaign oracles fired at PAR_THREADS={threads} (seed={SEED}): {violations:?}"
        );
        // the plan actually exercised the fault classes, and the engine
        // actually consumed deltas — not a vacuous pass
        assert!(
            outcome.stats.total_faults() > 0,
            "the 84-day plan injected nothing — not a chaotic run"
        );
        assert!(
            outcome.incremental_deltas > 0,
            "the incremental engine consumed no deltas — not wired up"
        );
        assert_eq!(
            outcome.incremental_underflows, 0,
            "a retract without a matching apply at PAR_THREADS={threads} (seed={SEED})"
        );
    }

    // and the per-day report fingerprints are bit-identical across pool
    // sizes (the ordered par join keeps finalization deterministic)
    for (a, b) in outcome_1.days.iter().zip(outcome_4.days.iter()) {
        assert_eq!(
            a.incremental_hash, b.incremental_hash,
            "day {}: incremental report fingerprint varies with PAR_THREADS",
            a.day
        );
    }
}
