//! Multi-seed chaos corpus driver.
//!
//! A corpus is N campaigns at consecutive seeds, each fully
//! self-contained (own world, own virtual clock, own fault plan), which
//! makes the corpus embarrassingly parallel: [`run_corpus`] fans the
//! seeds out over the `par` pool and joins the per-seed outcomes in
//! seed order, so the corpus verdict — and every dataset fingerprint in
//! it — is identical under any `PAR_THREADS`.

use crate::campaign::{run_campaign, CampaignConfig};
use crate::oracle::{check_campaign, check_determinism, Violation};
use crate::plan::FaultPlan;

/// What one seed's campaign pair produced: the fault-plan run, checked
/// against its own fault-free reference polls, and a same-seed
/// determinism rerun.
#[derive(Debug)]
pub struct SeedOutcome {
    /// The campaign seed.
    pub seed: u64,
    /// Faults the plan injected (all classes).
    pub faults: u64,
    /// FNV-1a fingerprint of the faulted run's datasets.
    pub dataset_hash: u64,
    /// Oracle violations, including any determinism violation from the
    /// rerun. Empty means the seed is green.
    pub violations: Vec<Violation>,
    /// The serialized fault plan, for replay instructions.
    pub plan_json: String,
}

/// Run `seeds` campaigns at `master_seed`, `master_seed + 1`, … and
/// return one [`SeedOutcome`] per seed, in seed order.
pub fn run_corpus(master_seed: u64, seeds: u64, cfg: &CampaignConfig) -> Vec<SeedOutcome> {
    let _span = obs::span!(obs::names::CHAOS_CORPUS);
    let seed_list: Vec<u64> = (0..seeds).map(|i| master_seed.wrapping_add(i)).collect();
    par::map_indexed(&seed_list, |_, &seed| {
        let _span = obs::global()
            .histogram(&obs::names::chaos_seed_span(seed))
            .start();
        let plan = FaultPlan::from_seed(seed, cfg.days);
        let faulted = run_campaign(seed, &plan, cfg);
        let mut violations = check_campaign(&faulted, &plan, cfg);
        let rerun = run_campaign(seed, &plan, cfg);
        violations.extend(check_determinism(&faulted, &rerun));
        SeedOutcome {
            seed,
            faults: faulted.stats.total_faults(),
            dataset_hash: faulted.dataset_hash,
            violations,
            plan_json: plan.to_json(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CampaignConfig {
        CampaignConfig {
            days: 2,
            scale: 0.01,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn corpus_covers_every_seed_in_order() {
        let outcomes = run_corpus(100, 3, &tiny_cfg());
        let seeds: Vec<u64> = outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102]);
        for o in &outcomes {
            assert!(
                o.violations.is_empty(),
                "seed {}: {:?}",
                o.seed,
                o.violations
            );
        }
    }

    #[test]
    fn corpus_fingerprints_are_thread_count_independent() {
        let cfg = tiny_cfg();
        par::set_threads_override(Some(1));
        let serial: Vec<u64> = run_corpus(7, 3, &cfg)
            .iter()
            .map(|o| o.dataset_hash)
            .collect();
        par::set_threads_override(Some(4));
        let parallel: Vec<u64> = run_corpus(7, 3, &cfg)
            .iter()
            .map(|o| o.dataset_hash)
            .collect();
        par::set_threads_override(None);
        assert_eq!(serial, parallel);
    }
}
