//! The 84-day chaotic campaign golden: streamed/snapshot and
//! incremental/batch equivalence in one run.
//!
//! Runs the chaos campaign — snapshot polls and the streamed feed over
//! the same faulty transport, closed each day by a fault-free reference
//! poll — for the paper's full 84-day window, under a seed-derived fault
//! plan (drops, duplicates, garbage, truncated pages, rate-limit storms,
//! peer flaps, RIB churn, monitoring-session resets, lost peer-down
//! pages), at `PAR_THREADS=1` and `4`. On every day:
//!
//! - the streamed end-of-day state must fingerprint byte-identical to
//!   the reference poll;
//! - the incremental engine's report (updated per applied `RibEvent`,
//!   O(churn)) must serialize byte-identical to the same report
//!   recomputed from scratch over the streamed snapshot (O(world)) —
//!   every float, sort and tie-break.
//!
//! Every campaign oracle must stay silent, and the dataset hash and the
//! per-day report fingerprints must be thread-count invariant. On
//! divergence both serialized variants land under
//! `target/stream-divergence/` or `target/incremental-divergence/` and
//! the message shows their first differing bytes, so the failure is
//! diffable rather than just red.

mod common;

use chaos::prelude::*;
use looking_glass::snapshot::SnapshotStore;

const SEED: u64 = 0x57E4;

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

fn store_json(store: &SnapshotStore) -> String {
    let mut out = String::new();
    for snap in store.iter() {
        out.push_str(&serde_json::to_string(snap).expect("snapshot serializes"));
        out.push('\n');
    }
    out
}

#[test]
fn streamed_dataset_matches_snapshots_over_84_chaotic_days() {
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
            let day = rec.day;
            if rec.streamed_hash != rec.reference_hash {
                panic!(
                    "day {day}: streamed state diverged from the polled reference \
                     at PAR_THREADS={threads}; replay (seed={SEED}); {}",
                    common::dump_divergence(
                        "stream-divergence",
                        (
                            &format!("streamed.threads{threads}"),
                            &store_json(&outcome.streamed)
                        ),
                        (
                            &format!("reference.threads{threads}"),
                            &store_json(&outcome.reference)
                        ),
                    )
                );
            }
            if rec.incremental_hash != rec.batch_hash {
                let (inc, batch) = rec
                    .report_divergence
                    .clone()
                    .unwrap_or_else(|| ("<missing>".into(), "<missing>".into()));
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

    // the per-day report fingerprints are bit-identical across pool
    // sizes (the ordered par join keeps finalization deterministic)
    for (a, b) in outcome_1.days.iter().zip(outcome_4.days.iter()) {
        assert_eq!(
            a.incremental_hash, b.incremental_hash,
            "day {}: incremental report fingerprint varies with PAR_THREADS",
            a.day
        );
    }

    // and the whole dataset is bit-identical across pool sizes
    if outcome_1.dataset_hash != outcome_4.dataset_hash {
        let dataset = |o: &CampaignOutcome| {
            store_json(&o.store) + &store_json(&o.streamed) + &store_json(&o.reference)
        };
        panic!(
            "campaign dataset hash diverged between PAR_THREADS=1 and 4; {}",
            common::dump_divergence(
                "stream-divergence",
                ("dataset.threads1", &dataset(&outcome_1)),
                ("dataset.threads4", &dataset(&outcome_4)),
            )
        );
    }
}
