//! Fault plans: the declarative description of everything a chaotic
//! campaign will inject. A plan is derived from a choice stream (and
//! therefore from a seed), serializes to JSON, and together with the
//! world seed fully determines a campaign — `(seed, plan)` is the replay
//! token every failing test prints.

use serde::{Deserialize, Serialize};

use prop::Choices;

/// The fault classes the harness injects, one per injection mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Response lost in transit (client retries).
    Drop,
    /// A stale cached page served instead of the requested one.
    Duplicate,
    /// Injected latency on the virtual clock.
    Delay,
    /// An undecodable frame on the transport.
    Garbage,
    /// The first page served again for a later-page request.
    Reorder,
    /// Silently truncated route pages for a whole day (an outage the
    /// valley sanitation must catch).
    Truncate,
    /// A rate-limit storm: the server's bucket collapses for a day.
    Storm,
    /// A peer session flapping during the campaign.
    Flap,
    /// RIB churn between route pages of one collection.
    Churn,
    /// A monitoring-session reset: the server forgets the client's
    /// cursor and replays the whole feed (the stream collector's dedup
    /// must absorb it).
    Reset,
    /// An event feed page cut at a peer-down frame — the BMP hazard of
    /// losing the session teardown notification.
    LostPeerDown,
}

impl FaultClass {
    /// All classes, in injection order.
    pub const ALL: [FaultClass; 11] = [
        FaultClass::Drop,
        FaultClass::Duplicate,
        FaultClass::Delay,
        FaultClass::Garbage,
        FaultClass::Reorder,
        FaultClass::Truncate,
        FaultClass::Storm,
        FaultClass::Flap,
        FaultClass::Churn,
        FaultClass::Reset,
        FaultClass::LostPeerDown,
    ];

    /// Stable lowercase name (used for `chaos.faults_injected.<class>`).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Drop => "drop",
            FaultClass::Duplicate => "duplicate",
            FaultClass::Delay => "delay",
            FaultClass::Garbage => "garbage",
            FaultClass::Reorder => "reorder",
            FaultClass::Truncate => "truncate",
            FaultClass::Storm => "storm",
            FaultClass::Flap => "flap",
            FaultClass::Churn => "churn",
            FaultClass::Reset => "reset",
            FaultClass::LostPeerDown => "lost_peer_down",
        }
    }
}

/// Everything a chaotic campaign injects, as data.
///
/// Request-level faults are per-mille probabilities evaluated per
/// request from the plan's own seeded RNG; day-level faults list the
/// campaign days they strike. The two fixture-only switches
/// (`churn_head_insert`, `mid_collection_flap`) select the corrupting
/// variants of churn and flap that the defended pipeline cannot absorb —
/// the oracle-sensitivity fixtures use them to prove detection.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-mille probability a response is dropped.
    pub drop_per_mille: u64,
    /// Per-mille probability a routes response is replaced by the cached
    /// previous page (a duplicated response).
    pub dup_per_mille: u64,
    /// Per-mille probability a later-page response is replaced by the
    /// cached first page (out-of-order pages).
    pub reorder_per_mille: u64,
    /// Per-mille probability a request suffers injected latency.
    pub delay_per_mille: u64,
    /// The injected latency, virtual milliseconds.
    pub delay_ms: u64,
    /// Per-mille probability a response arrives as an undecodable frame.
    pub garbage_per_mille: u64,
    /// Days on which route pages are silently truncated (an outage).
    pub truncate_days: Vec<u32>,
    /// Days on which the server's rate limiter collapses to a trickle.
    pub storm_days: Vec<u32>,
    /// Days on which one peer's session is down for the whole collection.
    pub flap_days: Vec<u32>,
    /// Days with RIB churn injected between route pages.
    pub churn_days: Vec<u32>,
    /// Churn events injected per churn day.
    pub churn_events_per_day: u32,
    /// Fixture switch: churned prefixes sort *before* the existing RIB,
    /// shifting later pages and corrupting pagination.
    pub churn_head_insert: bool,
    /// Fixture switch: the flap happens *between the summary and the
    /// route fetch* and silently drops one route on re-announce.
    pub mid_collection_flap: bool,
    /// Per-mille probability a stream poll forces a monitoring-session
    /// reset first (the server forgets the cursor and replays the feed).
    pub reset_per_mille: u64,
    /// Per-mille probability a stream-events response is cut just before
    /// a peer-down frame (the cursor re-serves the tail on the next
    /// poll, so a defended collector loses nothing).
    pub lost_down_per_mille: u64,
    /// Fixture switch: peer-down frames are *masked* on the feed (served
    /// as a peer-up glitch with the cursor advancing past them) and the
    /// day's flap is permanent — the streamed state keeps advertising a
    /// dead peer's routes, which the stream-divergence oracle must catch.
    pub lose_peer_down_silent: bool,
    /// Fixture switch: the stream collector applies replayed frames
    /// without sequence-number dedup, so a session reset double-applies
    /// the feed — the update-conservation oracle must catch it.
    pub replay_without_dedup: bool,
    /// Fixture switch: the incremental report engine skips every
    /// retraction (withdraws, replaced announces, peer-downs leave the
    /// aggregates untouched), breaking the apply/retract inverse — the
    /// incremental-divergence oracle must catch the drift.
    pub disable_retraction: bool,
}

impl FaultPlan {
    /// The empty plan: a fault-free campaign.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Derive a plan from a choice stream for a campaign of `days` days.
    ///
    /// The all-zero stream yields the empty plan; every draw maps
    /// monotonically from choice to fault intensity, so shrinking a
    /// failing `(seed, plan)` removes faults rather than mutating them
    /// into different ones. Day-level faults only strike interior days
    /// (`1..days-1`): day 0 anchors the series and the final day is the
    /// paper's headline snapshot, which sanitation must keep clean.
    pub fn from_choices(c: &mut Choices, days: u32) -> Self {
        let mut plan = FaultPlan {
            drop_per_mille: c.draw(80),
            dup_per_mille: c.draw(60),
            reorder_per_mille: c.draw(60),
            delay_per_mille: c.draw(200),
            delay_ms: c.draw(2_000),
            garbage_per_mille: c.draw(40),
            churn_events_per_day: 1 + c.draw(2) as u32,
            reset_per_mille: c.draw(40),
            lost_down_per_mille: c.draw(60),
            ..FaultPlan::default()
        };
        for day in 1..days.saturating_sub(1) {
            if c.draw_bool(150) {
                plan.truncate_days.push(day);
            }
            if c.draw_bool(150) {
                plan.storm_days.push(day);
            }
            if c.draw_bool(100) {
                plan.flap_days.push(day);
            }
            if c.draw_bool(150) {
                plan.churn_days.push(day);
            }
        }
        plan
    }

    /// Derive the corpus plan for one seed (the CI sweep's unit).
    pub fn from_seed(seed: u64, days: u32) -> Self {
        let mut c = Choices::from_seed(seed ^ 0xFA17_F1A9);
        FaultPlan::from_choices(&mut c, days)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::none() || {
            self.drop_per_mille == 0
                && self.dup_per_mille == 0
                && self.reorder_per_mille == 0
                && self.delay_per_mille == 0
                && self.garbage_per_mille == 0
                && self.reset_per_mille == 0
                && self.lost_down_per_mille == 0
                && self.truncate_days.is_empty()
                && self.storm_days.is_empty()
                && self.flap_days.is_empty()
                && self.churn_days.is_empty()
        }
    }

    /// The plan as JSON, for replay instructions printed on failure.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "<unserializable plan>".into())
    }

    /// Parse a plan printed by [`FaultPlan::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad fault plan JSON: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_choices_yield_empty_plan() {
        let mut c = Choices::replay(vec![]);
        let plan = FaultPlan::from_choices(&mut c, 6);
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn seed_derivation_is_deterministic_and_varied() {
        let a = FaultPlan::from_seed(11, 6);
        let b = FaultPlan::from_seed(11, 6);
        assert_eq!(a, b);
        // across a small corpus, every fault class fires somewhere
        let corpus: Vec<FaultPlan> = (0..64).map(|s| FaultPlan::from_seed(s, 6)).collect();
        assert!(corpus.iter().any(|p| p.drop_per_mille > 0));
        assert!(corpus.iter().any(|p| p.dup_per_mille > 0));
        assert!(corpus.iter().any(|p| p.reorder_per_mille > 0));
        assert!(corpus.iter().any(|p| p.delay_per_mille > 0));
        assert!(corpus.iter().any(|p| p.garbage_per_mille > 0));
        assert!(corpus.iter().any(|p| p.reset_per_mille > 0));
        assert!(corpus.iter().any(|p| p.lost_down_per_mille > 0));
        assert!(corpus.iter().any(|p| !p.truncate_days.is_empty()));
        assert!(corpus.iter().any(|p| !p.storm_days.is_empty()));
        assert!(corpus.iter().any(|p| !p.flap_days.is_empty()));
        assert!(corpus.iter().any(|p| !p.churn_days.is_empty()));
        assert!(corpus.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn day_faults_stay_off_the_anchor_days() {
        for seed in 0..64 {
            let p = FaultPlan::from_seed(seed, 6);
            for day in p
                .truncate_days
                .iter()
                .chain(&p.storm_days)
                .chain(&p.flap_days)
                .chain(&p.churn_days)
            {
                assert!((1..5).contains(day), "seed {seed}: day {day} out of range");
            }
        }
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan::from_seed(42, 6);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }
}
