//! Point-in-time snapshots: diffing and JSON.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Frozen state of one histogram.
///
/// `buckets` holds `(inclusive_upper_bound, count)` pairs for every non-empty
/// log bucket, in ascending bound order.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// `(inclusive upper bound, sample count)` per non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`. Accurate to within
    /// the bucket's factor-of-two width.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for &(bound, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Subtract a baseline (per-bucket saturating difference). `min`/`max`
    /// are kept from `self` — they cannot be un-merged — so treat them as
    /// whole-run extremes, not interval extremes.
    pub(crate) fn diff(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let base: BTreeMap<u64, u64> = baseline.buckets.iter().copied().collect();
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .map(|&(bound, n)| {
                (
                    bound,
                    n.saturating_sub(base.get(&bound).copied().unwrap_or(0)),
                )
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

/// Point-in-time capture of every instrument in a registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// What changed since `baseline`: counters and histograms are
    /// subtracted (saturating); gauges are levels, so the current value is
    /// kept as-is. Instruments absent from `baseline` pass through.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| {
                let base = baseline.counters.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(base))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let diffed = match baseline.histograms.get(name) {
                    Some(base) => h.diff(base),
                    None => h.clone(),
                };
                (name.clone(), diffed)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let registry = Registry::new();
        registry.counter("a.count").add(10);
        registry.gauge("b.level").set(-3);
        let h = registry.histogram("c.hist");
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        registry
    }

    #[test]
    fn json_roundtrip() {
        let snap = sample_registry().snapshot();
        let json = snap.to_json();
        let back: Snapshot = serde_json::from_str(&json).expect("parse back");
        assert_eq!(snap, back);
    }

    #[test]
    fn diff_subtracts_counters_and_histograms() {
        let registry = sample_registry();
        let before = registry.snapshot();
        registry.counter("a.count").add(5);
        registry.histogram("c.hist").record(7);
        let after = registry.snapshot();
        let delta = after.diff(&before);
        assert_eq!(delta.counters["a.count"], 5);
        assert_eq!(delta.histograms["c.hist"].count, 1);
        assert_eq!(delta.histograms["c.hist"].sum, 7);
        // gauges pass through as levels
        assert_eq!(delta.gauges["b.level"], -3);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        // 90 samples of 1, 10 samples of ~1000
        let h = HistogramSnapshot {
            count: 100,
            sum: 90 + 10 * 1000,
            min: 1,
            max: 1000,
            buckets: vec![(1, 90), (1023, 10)],
        };
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.89), 1);
        // p99 lands in the 1000s bucket; bounded above by max
        assert_eq!(h.quantile(0.99), 1000);
        assert!((h.mean() - 100.9).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_quantile_and_mean() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
