//! The trace-tree equivalence oracle.
//!
//! Trace IDs are derived from the deterministic execution alone —
//! parent ID, span name and child slot, with par task indices mapped to
//! disjoint slot ranges — so the span tree a seeded scenario produces
//! must be byte-identical under any `PAR_THREADS`. This runs the same
//! two-IXP collect→analyze pass as `tests/par_equivalence.rs` once on
//! one thread and once on four, digests each trace with
//! `obs::trace::tree_digest`, and compares the digests bytewise. On
//! divergence both variants land in `target/trace-divergence/` and the
//! message shows their first differing bytes, so the failure is
//! diffable rather than just red.

mod common;

use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;
use ixp_sim::scenario::{self, ScenarioConfig};
use ixp_sim::world::WorldConfig;
use looking_glass::server::FailureModel;

/// One collect→analyze pass at the current pool size, reduced to the
/// structural digest of the trace it produced.
fn trace_digest() -> String {
    let registry = obs::global();
    // Fresh trace epoch: drop spans recorded by earlier passes (and
    // reset the root-slot counters) so each run mints the same IDs.
    let _ = registry.take_trace_spans();

    let ixps = [IxpId::Linx, IxpId::Netnod];
    let config = ScenarioConfig {
        world: WorldConfig {
            seed: 11,
            scale: 0.02,
        },
        ixps: ixps.to_vec(),
        failures: FailureModel::NONE,
        day: 83,
        mode: ixp_sim::timeline::CollectionMode::Snapshot,
    };
    let run = scenario::run(&config);
    let dicts: Vec<_> = ixps
        .iter()
        .map(|i| (*i, community_dict::schemes::dictionary(*i)))
        .collect();
    let report = analysis::summary::full_report(&run.store, &dicts);
    let _ = (&report, Afi::Ipv4);

    obs::trace::tree_digest(&registry.take_trace_spans())
}

#[test]
fn trace_tree_identical_across_thread_counts() {
    let registry = obs::global();
    registry.enable_tracing();

    // One test: the thread override and the tracing flag are
    // process-global, so the two passes must run back to back.
    par::set_threads_override(Some(1));
    let digest_1 = trace_digest();
    par::set_threads_override(Some(4));
    let digest_4 = trace_digest();
    par::set_threads_override(None);

    // The trace actually covers the pipeline: scenario root, per-IXP
    // build/collect children, and the analysis report spans.
    for name in [
        obs::names::SIM_SCENARIO,
        obs::names::SIM_BUILD_IXP,
        obs::names::SIM_COLLECT_IXP,
        obs::names::ANALYSIS_FULL_REPORT,
        obs::names::ANALYSIS_REPORT_UNIT,
    ] {
        assert!(
            digest_1.contains(name),
            "trace digest is missing {name}:\n{digest_1}"
        );
    }

    if digest_1 != digest_4 {
        panic!(
            "trace tree diverged between PAR_THREADS=1 and 4; {}",
            common::dump_divergence(
                "trace-divergence",
                ("digest.threads1", &digest_1),
                ("digest.threads4", &digest_4),
            )
        );
    }
}
