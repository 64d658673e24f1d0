//! The twelve-week collection timeline (paper §4, Appendix A).
//!
//! Generates the daily metric series — members, prefixes, routes,
//! community instances — for every (IXP, family), anchored to the
//! paper's Table 4 min/max ranges, with two noise processes:
//! small day-to-day churn (Table 3 keeps weekly variation under ~4%) and
//! injected collection outages that create the "valleys" §3's sanitation
//! removes (13.5% of snapshots in the paper).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;
use looking_glass::sanitize::{detect_bad_days, SanitizeConfig, SeriesPoint};

/// Collection window length: 19 Jul – 4 Oct 2021.
pub(crate) const DAYS: u32 = 84;

/// Which collection path a scenario runs
/// ([`crate::scenario::ScenarioConfig::mode`]): the paper's periodic
/// end-of-day snapshot polls, or the BMP-style monitoring stream
/// (`crates/stream`) drained incrementally through the day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectionMode {
    /// Periodic snapshot polls (the paper's §3 method).
    #[default]
    Snapshot,
    /// Streamed per-update feed with an incremental state store.
    Stream,
}

/// Table 4 anchors: (min, max) over the twelve weekly snapshots.
#[derive(Debug, Clone, Copy)]
pub struct MetricAnchors {
    /// Members at the RS.
    pub members: (u32, u32),
    /// Distinct prefixes.
    pub prefixes: (u32, u32),
    /// Routes.
    pub routes: (u32, u32),
    /// Community instances.
    pub communities: (u64, u64),
}

/// The Table 4 row for one (IXP, family).
pub const fn anchors(ixp: IxpId, afi: Afi) -> MetricAnchors {
    match (ixp, afi) {
        (IxpId::IxBrSp, Afi::Ipv4) => MetricAnchors {
            members: (1652, 1748),
            prefixes: (154_140, 164_050),
            routes: (241_978, 282_697),
            communities: (4_327_692, 5_141_660),
        },
        (IxpId::IxBrSp, Afi::Ipv6) => MetricAnchors {
            members: (1370, 1518),
            prefixes: (57_862, 60_203),
            routes: (82_486, 88_652),
            communities: (1_368_582, 1_471_665),
        },
        (IxpId::AmsIx, Afi::Ipv4) => MetricAnchors {
            members: (618, 653),
            prefixes: (245_246, 265_025),
            routes: (245_251, 265_030),
            communities: (4_929_486, 5_206_070),
        },
        (IxpId::AmsIx, Afi::Ipv6) => MetricAnchors {
            members: (486, 495),
            prefixes: (61_187, 63_112),
            routes: (61_187, 63_112),
            communities: (955_198, 1_032_096),
        },
        (IxpId::Linx, Afi::Ipv4) => MetricAnchors {
            members: (622, 640),
            prefixes: (246_014, 255_927),
            routes: (316_479, 329_592),
            communities: (5_235_560, 5_666_094),
        },
        (IxpId::Linx, Afi::Ipv6) => MetricAnchors {
            members: (427, 451),
            prefixes: (59_238, 63_734),
            routes: (77_319, 81_922),
            communities: (1_082_610, 1_138_393),
        },
        (IxpId::DeCixFra, Afi::Ipv4) => MetricAnchors {
            members: (815, 827),
            prefixes: (444_054, 453_847),
            routes: (865_946, 888_705),
            communities: (13_782_937, 14_851_619),
        },
        (IxpId::DeCixFra, Afi::Ipv6) => MetricAnchors {
            members: (635, 648),
            prefixes: (62_828, 65_395),
            routes: (127_234, 132_389),
            communities: (1_848_666, 1_906_656),
        },
        (IxpId::Bcix, Afi::Ipv4) => MetricAnchors {
            members: (85, 91),
            prefixes: (98_405, 106_351),
            routes: (101_719, 111_166),
            communities: (1_550_217, 1_670_622),
        },
        (IxpId::Bcix, Afi::Ipv6) => MetricAnchors {
            members: (76, 78),
            prefixes: (45_455, 46_873),
            routes: (49_236, 50_569),
            communities: (746_216, 767_224),
        },
        (IxpId::DeCixNyc, Afi::Ipv4) => MetricAnchors {
            members: (169, 175),
            prefixes: (159_138, 164_570),
            routes: (175_905, 191_097),
            communities: (2_604_624, 2_915_428),
        },
        (IxpId::DeCixNyc, Afi::Ipv6) => MetricAnchors {
            members: (145, 147),
            prefixes: (48_041, 51_513),
            routes: (59_741, 64_033),
            communities: (997_500, 1_081_904),
        },
        (IxpId::DeCixMad, Afi::Ipv4) => MetricAnchors {
            members: (148, 152),
            prefixes: (103_023, 116_237),
            routes: (111_125, 125_812),
            communities: (1_834_093, 2_237_424),
        },
        (IxpId::DeCixMad, Afi::Ipv6) => MetricAnchors {
            members: (81, 85),
            prefixes: (43_227, 45_321),
            routes: (46_214, 48_711),
            communities: (699_110, 773_489),
        },
        (IxpId::Netnod, Afi::Ipv4) => MetricAnchors {
            members: (118, 127),
            prefixes: (124_756, 132_179),
            routes: (142_051, 151_081),
            communities: (4_853_934, 5_151_156),
        },
        (IxpId::Netnod, Afi::Ipv6) => MetricAnchors {
            members: (96, 101),
            prefixes: (44_661, 45_507),
            routes: (47_939, 48_874),
            communities: (896_846, 908_502),
        },
    }
}

/// Timeline generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Master seed.
    pub seed: u64,
    /// Days to generate.
    pub days: u32,
    /// Per-day probability of a collection outage (a sanitizable valley).
    /// The paper removed 13.5% of its snapshots.
    pub outage_rate: f64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            seed: 0x1C0FFEE,
            days: DAYS,
            outage_rate: 0.135,
        }
    }
}

/// The generated series for one (IXP, family).
#[derive(Debug, Clone)]
pub struct Series {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// One point per day, outages included.
    pub points: Vec<SeriesPoint>,
    /// Days on which an outage was injected (ground truth).
    pub injected_outages: Vec<u32>,
}

impl Series {
    /// The series after §3 sanitation (valley days removed).
    pub fn sanitized(&self) -> Vec<SeriesPoint> {
        let bad = detect_bad_days(&self.points, &SanitizeConfig::default());
        self.points
            .iter()
            .filter(|p| !bad.contains(&p.day))
            .copied()
            .collect()
    }

    /// The first clean snapshot of each week (the paper's Table 4 method:
    /// "the first snapshot each week (Monday) was used").
    pub fn weekly(&self) -> Vec<SeriesPoint> {
        let clean = self.sanitized();
        let mut out = Vec::new();
        for week in 0..(self.points.len() as u32).div_ceil(7) {
            let start = week * 7;
            if let Some(p) = clean.iter().find(|p| p.day >= start && p.day < start + 7) {
                out.push(*p);
            }
        }
        out
    }

    /// The last seven clean days (the paper's Table 3 window).
    pub fn last_week(&self) -> Vec<SeriesPoint> {
        let clean = self.sanitized();
        let n = clean.len();
        clean[n.saturating_sub(7)..].to_vec()
    }
}

/// Generate the daily series for one (IXP, family).
pub fn generate_series(ixp: IxpId, afi: Afi, config: &TimelineConfig) -> Series {
    let a = anchors(ixp, afi);
    let mut rng =
        StdRng::seed_from_u64(config.seed ^ ((ixp as u64) << 8) ^ ((afi as u64) << 4) ^ 0xA5A5);
    let registry = obs::global();
    let _span = obs::span!(obs::names::SIM_GENERATE_SERIES);
    let day_gauge = registry.gauge(obs::names::SIM_TIMELINE_DAY);
    let points_counter = registry.counter(obs::names::SIM_SERIES_POINTS);
    let outage_counter = registry.counter(obs::names::SIM_OUTAGE_DAYS);
    let mut points = Vec::with_capacity(config.days as usize);
    let mut injected = Vec::new();
    let horizon = (config.days.saturating_sub(1)).max(1) as f64;
    for day in 0..config.days {
        day_gauge.set(day as i64);
        // growth from the Table 4 minimum toward the Table 1 / Table 4
        // maximum, slightly superlinear (networks keep joining), with
        // ±1% daily jitter so a clean week stays within Table 3's <4%
        let t = (day as f64 / horizon).powf(1.15);
        let jitter = 1.0 + (rng.random::<f64>() - 0.5) * 0.02;
        let lerp_u32 = |(lo, hi): (u32, u32)| -> usize {
            ((lo as f64 + (hi - lo) as f64 * t) * jitter).round() as usize
        };
        let lerp_u64 = |(lo, hi): (u64, u64)| -> usize {
            ((lo as f64 + (hi - lo) as f64 * t) * jitter).round() as usize
        };
        let mut p = SeriesPoint {
            day,
            members: lerp_u32(a.members),
            prefixes: lerp_u32(a.prefixes),
            routes: lerp_u32(a.routes),
            communities: lerp_u64(a.communities),
        };
        // a collection outage loses 30–65% of the data for the day, and
        // never on the final day (the headline snapshot must be clean)
        if day + 1 < config.days && day > 0 && rng.random::<f64>() < config.outage_rate {
            let keep = 0.35 + rng.random::<f64>() * 0.35;
            p.members = (p.members as f64 * keep) as usize;
            p.prefixes = (p.prefixes as f64 * keep) as usize;
            p.routes = (p.routes as f64 * keep) as usize;
            p.communities = (p.communities as f64 * keep) as usize;
            outage_counter.inc();
            injected.push(day);
        }
        points_counter.inc();
        points.push(p);
    }
    Series {
        ixp,
        afi,
        points,
        injected_outages: injected,
    }
}

/// Generate all 16 series (8 IXPs × 2 families).
///
/// Each (ixp, afi) series derives its own RNG stream from the config
/// seed, so they fan out onto the `par` pool; the ordered join keeps the
/// output order (and content) identical to the serial loop.
pub fn generate_all(config: &TimelineConfig) -> Vec<Series> {
    let units: Vec<(IxpId, Afi)> = IxpId::ALL
        .iter()
        .flat_map(|&ixp| [(ixp, Afi::Ipv4), (ixp, Afi::Ipv6)])
        .collect();
    par::map_indexed(&units, |_, &(ixp, afi)| {
        let _span = obs::span!(obs::names::SIM_SERIES_UNIT);
        generate_series(ixp, afi, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_shape() {
        let s = generate_series(IxpId::Linx, Afi::Ipv4, &TimelineConfig::default());
        assert_eq!(s.points.len(), 84);
        assert!(!s.injected_outages.is_empty());
        // endpoints near the anchors
        let a = anchors(IxpId::Linx, Afi::Ipv4);
        let first = &s.points[0];
        let last = &s.points[83];
        assert!((first.members as f64 - a.members.0 as f64).abs() < a.members.0 as f64 * 0.03);
        assert!((last.members as f64 - a.members.1 as f64).abs() < a.members.1 as f64 * 0.03);
        assert!((last.routes as f64 - a.routes.1 as f64).abs() < a.routes.1 as f64 * 0.03);
    }

    #[test]
    fn sanitation_removes_injected_outages() {
        let cfg = TimelineConfig {
            seed: 5,
            ..TimelineConfig::default()
        };
        let s = generate_series(IxpId::DeCixFra, Afi::Ipv4, &cfg);
        let clean = s.sanitized();
        for p in &clean {
            assert!(
                !s.injected_outages.contains(&p.day),
                "outage day {} survived sanitation",
                p.day
            );
        }
        // nearly all clean days survive (isolated small jitter is kept)
        assert!(clean.len() >= 84 - s.injected_outages.len() - 3);
    }

    #[test]
    fn weekly_returns_up_to_twelve_points() {
        let s = generate_series(IxpId::IxBrSp, Afi::Ipv6, &TimelineConfig::default());
        let weekly = s.weekly();
        assert!(weekly.len() >= 11 && weekly.len() <= 12, "{}", weekly.len());
        // monotone day indices, one per week
        for w in weekly.windows(2) {
            assert!(w[1].day > w[0].day);
            assert!(w[1].day - w[0].day >= 5);
        }
    }

    #[test]
    fn last_week_variation_under_4_percent() {
        // Table 3's bound holds on clean days for every (ixp, afi)
        for ixp in IxpId::ALL {
            for afi in [Afi::Ipv4, Afi::Ipv6] {
                let s = generate_series(ixp, afi, &TimelineConfig::default());
                let week = s.last_week();
                let metric: Vec<usize> = week.iter().map(|p| p.members).collect();
                let lo = *metric.iter().min().unwrap() as f64;
                let hi = *metric.iter().max().unwrap() as f64;
                assert!(
                    (hi - lo) / lo < 0.045,
                    "{ixp}/{afi}: weekly variation {:.3}",
                    (hi - lo) / lo
                );
            }
        }
    }

    #[test]
    fn twelve_week_diff_matches_table4_scale() {
        let s = generate_series(IxpId::IxBrSp, Afi::Ipv4, &TimelineConfig::default());
        let weekly = s.weekly();
        let routes: Vec<usize> = weekly.iter().map(|p| p.routes).collect();
        let lo = *routes.iter().min().unwrap() as f64;
        let hi = *routes.iter().max().unwrap() as f64;
        let diff = (hi - lo) / lo;
        // paper: 14.40% for IX.br-SP-v4 routes
        assert!((0.08..0.22).contains(&diff), "diff {diff:.3}");
    }

    #[test]
    fn outage_fraction_near_13_5_percent() {
        let all = generate_all(&TimelineConfig::default());
        let total_days: usize = all.iter().map(|s| s.points.len()).sum();
        let outages: usize = all.iter().map(|s| s.injected_outages.len()).sum();
        let frac = outages as f64 / total_days as f64;
        assert!((0.09..0.18).contains(&frac), "outage fraction {frac:.3}");
    }
}
