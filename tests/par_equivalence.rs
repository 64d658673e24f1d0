//! The serial/parallel equivalence oracle.
//!
//! `par::map_indexed` promises ordered joins: every artifact the
//! pipeline produces must be bit-for-bit identical under any
//! `PAR_THREADS`. This test runs the two pipelines the executor is
//! wired through — a chaos campaign corpus and a repro-style
//! collect→analyze pass — once on one thread and once on four, and
//! compares the chaos FNV-1a dataset fingerprints plus the fully
//! serialized table/figure JSON. On divergence it writes both variants
//! under `target/par-divergence/`, names the artifact and shows its
//! first differing bytes, so a failure is diffable rather than just red.

mod common;

use bgp_model::prefix::Afi;
use chaos::prelude::*;
use community_dict::ixp::IxpId;
use ixp_sim::scenario::{self, ScenarioConfig};
use ixp_sim::world::WorldConfig;
use looking_glass::server::FailureModel;

/// One pipeline pass at the current pool size, reduced to the artifacts
/// the oracle compares: (chaos corpus fingerprints, dataset JSON,
/// table/figure JSON).
fn artifacts() -> (Vec<u64>, String, String) {
    // Chaos: a small corpus through the fingerprint helpers.
    let cfg = CampaignConfig {
        days: 2,
        ..CampaignConfig::default()
    };
    let corpus: Vec<u64> = run_corpus(0xFEED, 2, &cfg)
        .iter()
        .map(|o| o.dataset_hash)
        .collect();

    // Repro-style: collect a two-IXP world, serialize the dataset and
    // every table/figure.
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
    let mut dataset = String::new();
    for ixp in ixps {
        for afi in [Afi::Ipv4, Afi::Ipv6] {
            if let Some(snap) = run.store.latest(ixp, afi) {
                dataset.push_str(&serde_json::to_string(snap).expect("snapshot serializes"));
                dataset.push('\n');
            }
        }
    }
    let dicts: Vec<_> = ixps
        .iter()
        .map(|i| (*i, community_dict::schemes::dictionary(*i)))
        .collect();
    let report = analysis::summary::full_report(&run.store, &dicts);
    let tables = serde_json::to_string(&report).expect("report serializes");
    (corpus, dataset, tables)
}

#[test]
fn artifacts_identical_across_thread_counts() {
    // One test (not one per artifact): the override is process-global and
    // the two passes must not interleave with each other.
    par::set_threads_override(Some(1));
    let (corpus_1, dataset_1, tables_1) = artifacts();
    par::set_threads_override(Some(4));
    let (corpus_4, dataset_4, tables_4) = artifacts();
    par::set_threads_override(None);

    assert_eq!(
        corpus_1, corpus_4,
        "chaos corpus FNV-1a fingerprints diverged between PAR_THREADS=1 and 4"
    );
    for (name, serial, parallel) in [
        ("dataset", &dataset_1, &dataset_4),
        ("tables", &tables_1, &tables_4),
    ] {
        if serial != parallel {
            panic!(
                "{name} diverged between PAR_THREADS=1 and 4; {}",
                common::dump_divergence(
                    "par-divergence",
                    (&format!("{name}.threads1"), serial),
                    (&format!("{name}.threads4"), parallel),
                )
            );
        }
    }
}
