//! The streamed/snapshot equivalence oracle (golden).
//!
//! Runs the chaos dual campaign — streamed collection and snapshot
//! polls over the same faulty transport — for the paper's full 84-day
//! window, under a seed-derived fault plan (drops, duplicates, garbage,
//! truncated pages, rate-limit storms, peer flaps, RIB churn,
//! monitoring-session resets, lost peer-down pages). On every day the
//! streamed end-of-day state must fingerprint byte-identical to the
//! fault-free polled reference, at `PAR_THREADS=1` and `4`, and the
//! combined dataset hash must be thread-count invariant. On divergence
//! both serialized variants land under `target/stream-divergence/` and
//! the message shows their first differing bytes, so the failure is
//! diffable rather than just red.

mod common;

use chaos::prelude::*;
use looking_glass::snapshot::SnapshotStore;

const SEED: u64 = 0x57E4;

/// One dual campaign over the full collection window, reduced to what
/// the oracle compares.
fn campaign() -> (Vec<Violation>, StreamCampaignOutcome) {
    let cfg = CampaignConfig {
        days: 84,
        ..CampaignConfig::default()
    };
    let plan = FaultPlan::from_seed(SEED, cfg.days);
    let outcome = run_stream_campaign(SEED, &plan, &cfg);
    let violations = check_stream_campaign(&outcome, &plan, &cfg);
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
            if rec.streamed_hash != rec.reference_hash {
                panic!(
                    "day {}: streamed state diverged from the polled reference \
                     at PAR_THREADS={threads}; replay (seed={SEED}); {}",
                    rec.day,
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
        }
        assert!(
            violations.is_empty(),
            "stream oracles fired at PAR_THREADS={threads} (seed={SEED}): {violations:?}"
        );
        // the plan actually exercised the stream fault classes
        assert!(
            outcome.stats.total_faults() > 0,
            "the 84-day plan injected nothing — not a chaotic run"
        );
    }

    // and the whole dual dataset is bit-identical across pool sizes
    if outcome_1.dataset_hash != outcome_4.dataset_hash {
        // the hash covers both datasets: streamed, then reference
        let dataset =
            |o: &StreamCampaignOutcome| store_json(&o.streamed) + &store_json(&o.reference);
        panic!(
            "dual-campaign dataset hash diverged between PAR_THREADS=1 and 4; {}",
            common::dump_divergence(
                "stream-divergence",
                ("dataset.threads1", &dataset(&outcome_1)),
                ("dataset.threads4", &dataset(&outcome_4)),
            )
        );
    }
}
