//! Synthetic member populations.
//!
//! Each IXP's RS members are drawn as: the named networks present at that
//! RS (see [`crate::universe`]), then synthetic regional ISPs /
//! enterprises / educational networks. Route counts follow a heavy tail
//! (a few large ASes originate most routes — the premise behind Fig. 4b's
//! skew), and each member gets a tagging *behaviour* drawn from the
//! per-IXP calibration.

use rand::rngs::StdRng;
use rand::RngExt;

use bgp_model::asn::Asn;
use community_dict::ixp::IxpId;
use community_dict::known::{self, Category};

use crate::calibration::{calibration, Calibration};
use crate::universe;

/// What a member asks the RS to do, fixed once per member (operators
/// configure a community set and apply it to all exports).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Behavior {
    /// Tags action communities on IPv4 routes.
    pub uses_action_v4: bool,
    /// Tags action communities on IPv6 routes.
    pub uses_action_v6: bool,
    /// Uses the deny-all + re-add idiom (`0:<rs>` plus announce-only).
    pub avoid_all: bool,
    /// ASes to avoid.
    pub avoid_list: Vec<Asn>,
    /// ASes to announce-only to (re-add list when `avoid_all`).
    pub only_list: Vec<Asn>,
    /// A prepend request `(target, count)`; target `None` = all peers.
    pub prepend: Option<(Option<Asn>, u8)>,
    /// Number of blackhole host routes to announce (IPv4).
    pub blackhole_count: usize,
    /// Also announces an IPv6 blackhole host route (Table 2's small v6
    /// blackholing population at DE-CIX).
    pub blackhole_v6: bool,
    /// P(a given route carries the action communities).
    pub p_route_tagged: f64,
    /// Mean operator-private communities per route.
    pub unknown_per_route: f64,
    /// Also expresses (part of) the avoid list as large communities.
    pub use_large: bool,
    /// Also adds extended-community actions.
    pub use_extended: bool,
}

/// One synthetic RS member.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberProfile {
    /// Member ASN.
    pub asn: Asn,
    /// Business category.
    pub category: Category,
    /// Has an IPv4 session.
    pub v4: bool,
    /// Has an IPv6 session.
    pub v6: bool,
    /// IPv4 routes to announce.
    pub routes_v4: usize,
    /// IPv6 routes to announce.
    pub routes_v6: usize,
    /// Tagging behaviour.
    pub behavior: Behavior,
}

/// Transit ASNs used as the `high` part of operator-private (unknown)
/// communities. None collides with any scheme's template highs.
pub(crate) const UNKNOWN_HIGHS: [u16; 8] = [3356, 174, 1299, 2914, 6453, 3257, 6461, 3491];

/// Generate the member population for one IXP.
///
/// `n_v4` / `n_v6` are the session counts (already scaled); `routes_v4` /
/// `routes_v6` are the total route targets.
pub(crate) fn generate_members(
    ixp: IxpId,
    n_v4: usize,
    n_v6: usize,
    routes_v4: usize,
    routes_v6: usize,
    rng: &mut StdRng,
) -> Vec<MemberProfile> {
    let cal = calibration(ixp);

    // --- pick ASNs: named networks first, synthetics after ---
    let mut famous: Vec<&'static known::KnownAs> = known::KNOWN
        .iter()
        .filter(|k| universe::famous_at_rs(ixp, k.asn))
        .collect();
    // large ISPs first (they anchor the heavy tail), then CPs
    famous.sort_by_key(|k| match k.category {
        Category::LargeIsp => 0,
        Category::ContentProvider => 1,
        _ => 2,
    });
    let famous_quota = famous.len().min((n_v4 / 3).max(6)).min(n_v4);
    let famous = &famous[..famous_quota];

    let n_synthetic = n_v4 - famous.len();
    let famous_asns: Vec<Asn> = famous.iter().map(|k| k.asn).collect();
    let synth_16bit = known::synthetic_fill(n_synthetic.div_ceil(4) * 3, &famous_asns);
    let mut members: Vec<(Asn, Category)> = famous.iter().map(|k| (k.asn, k.category)).collect();
    let mut s16 = synth_16bit.into_iter();
    for i in 0..n_synthetic {
        // every 4th synthetic member gets a 4-byte ASN (untargetable via
        // standard communities — a real-world constraint)
        let asn = if i % 4 == 3 {
            Asn(263_000 + i as u32)
        } else {
            // fall back to the 4-byte range if the 16-bit pool runs dry
            s16.next().unwrap_or(Asn(263_000 + i as u32))
        };
        let category = match i % 20 {
            0 => Category::Educational,
            1..=3 => Category::Enterprise,
            _ => Category::RegionalIsp,
        };
        members.push((asn, category));
    }

    // --- route-count weights: heavy tail anchored by the large ISPs ---
    let weights: Vec<f64> = members
        .iter()
        .enumerate()
        .map(|(i, (asn, cat))| {
            if *asn == universe::asns::HE {
                85.0 // HE is the biggest announcer everywhere
            } else {
                match cat {
                    Category::LargeIsp => 18.0 + rng.random::<f64>() * 22.0,
                    Category::ContentProvider => 5.0 + rng.random::<f64>() * 8.0,
                    _ => {
                        // Zipf tail over the synthetic rank: the skew
                        // behind Fig. 4b (top 1% of ASes hold 50-86% of
                        // the action instances)
                        let rank = (i + 2) as f64;
                        5.0 / rank
                    }
                }
            }
        })
        .collect();
    let wsum: f64 = weights.iter().sum();

    // ~6% of members hold a session but announce nothing (§3 captures
    // "peers ... regardless whether the AS shares routes or not")
    let n = members.len().max(1);
    let silent: Vec<bool> = (0..members.len()).map(|i| i * 100 / n >= 94).collect();

    let pools = TargetPools::build(ixp, &members);

    let mut out = Vec::with_capacity(members.len());
    for (i, (asn, category)) in members.iter().enumerate() {
        let v6 = i < n_v6;
        let share = weights[i] / wsum;
        let routes4 = if silent[i] {
            0
        } else {
            ((routes_v4 as f64) * share).round().max(1.0) as usize
        };
        let routes6 = if v6 && !silent[i] {
            ((routes_v6 as f64) * share).round() as usize
        } else {
            0
        };
        // big announcers (top ~30% by weight) run richer export policies:
        // they are the source of most announce-only instances (§5.4's
        // IX.br re-add lists belong to sizeable networks)
        let is_big = weights[i] * (members.len() as f64) > 1.5 * wsum;
        let behavior = draw_behavior(ixp, &cal, *asn, *category, &pools, is_big, rng);
        out.push(MemberProfile {
            asn: *asn,
            category: *category,
            v4: true,
            v6,
            routes_v4: routes4,
            routes_v6: routes6,
            behavior,
        });
    }
    out
}

/// Avoid-target pools split by RS membership at this IXP. Whether an
/// avoid instance is effective (§5.5) depends on whether its target has a
/// session, so the split is what the calibration's `p_nonmember_target`
/// steers between.
#[derive(Debug, Clone)]
struct TargetPools {
    /// Popular targets that ARE members here, with popularity weights.
    member_weighted: Vec<(Asn, f64)>,
    /// Popular targets that are NOT members here (PNI-only CPs).
    nonmember_weighted: Vec<(Asn, f64)>,
    /// Every member ASN with a 16-bit ASN — standard communities cannot
    /// encode a 4-byte target, so only these are targetable (a real
    /// constraint of the RFC 1997 format the paper's IXPs share).
    targetable_members: Vec<Asn>,
}

impl TargetPools {
    fn build(ixp: IxpId, members: &[(Asn, Category)]) -> Self {
        let member_set: std::collections::BTreeSet<Asn> = members.iter().map(|(a, _)| *a).collect();
        let mut member_weighted = Vec::new();
        let mut nonmember_weighted = Vec::new();
        for (asn, w) in universe::avoid_weights(ixp) {
            if member_set.contains(&asn) {
                member_weighted.push((asn, w));
            } else {
                nonmember_weighted.push((asn, w));
            }
        }
        TargetPools {
            member_weighted,
            nonmember_weighted,
            targetable_members: member_set.into_iter().filter(|a| a.is_16bit()).collect(),
        }
    }

    /// One filler slot (after the popular targets were decided):
    /// member-side or non-member-side.
    fn pick_filler(&self, p_nonmember: f64, rng: &mut StdRng) -> Asn {
        if rng.random::<f64>() < p_nonmember {
            // defensive tagging of an arbitrary non-member network
            synthetic_target(rng)
        } else if !self.member_weighted.is_empty() && {
            // the member-side long tail still skews to the popular CPs
            // (the paper's §5.4 cross-IXP intersection of avoided ASes),
            // proportionally to how popular this IXP's member CPs are
            let total: f64 = self.member_weighted.iter().map(|(_, w)| w).sum();
            rng.random::<f64>() < (total / 40.0).min(0.75)
        } {
            let total: f64 = self.member_weighted.iter().map(|(_, w)| w).sum();
            let mut x = rng.random::<f64>() * total;
            for (a, w) in &self.member_weighted {
                if x < *w {
                    return *a;
                }
                x -= w;
            }
            self.member_weighted[0].0
        } else {
            self.targetable_members[rng.random_range(0..self.targetable_members.len())]
        }
    }
}

fn draw_behavior(
    ixp: IxpId,
    cal: &Calibration,
    asn: Asn,
    category: Category,
    pools: &TargetPools,
    is_big: bool,
    rng: &mut StdRng,
) -> Behavior {
    let mut b = Behavior {
        p_route_tagged: cal.p_route_tagged,
        unknown_per_route: cal.unknown_per_route * (0.6 + 0.8 * rng.random::<f64>()),
        ..Behavior::default()
    };
    // large ISPs essentially always run community-based policies; the
    // long tail matches the calibrated population share
    let p_use = match category {
        Category::LargeIsp => 0.97,
        Category::ContentProvider => cal.p_use_v4 * 0.8,
        _ => cal.p_use_v4 * 0.94,
    };
    b.uses_action_v4 = rng.random::<f64>() < p_use;
    // large ISPs run the same export policy on both families; the long
    // tail enables v6 tagging less often (Fig. 4a's lower v6 fractions)
    b.uses_action_v6 =
        b.uses_action_v4 && (category == Category::LargeIsp || rng.random::<f64>() < cal.p_use_v6);
    if !b.uses_action_v4 {
        return b;
    }

    let uses_avoid = rng.random::<f64>() < cal.p_avoid || category == Category::LargeIsp;
    let p_only = cal.p_only * if is_big { 1.6 } else { 0.75 };
    let uses_only = rng.random::<f64>() < p_only;
    let uses_prepend = cal.p_prepend > 0.0 && rng.random::<f64>() < cal.p_prepend;
    let uses_blackhole = cal.p_blackhole > 0.0 && rng.random::<f64>() < cal.p_blackhole;

    if uses_avoid {
        let (lo, hi) = if category == Category::LargeIsp {
            cal.avoid_large
        } else {
            cal.avoid_small
        };
        let len = rng.random_range(lo..=hi);
        b.avoid_list = draw_avoid_list(pools, len, cal.p_nonmember_target, rng);
    }
    if uses_only {
        b.avoid_all = rng.random::<f64>() < cal.p_avoid_all_idiom;
        let base = rng.random_range(cal.only_list.0..=cal.only_list.1);
        let len = if is_big { (base * 2).min(30) } else { base };
        // announce-only targets are networks you actually reach via the
        // RS, so they are drawn from members (plus the IXP's well-known
        // re-add targets, e.g. IX.br's educational networks)
        let pool = universe::only_targets(ixp);
        let mut list = Vec::with_capacity(len);
        for j in 0..len {
            let t = if j < pool.len() && rng.random::<f64>() < 0.25 {
                pool[j]
            } else {
                pools.targetable_members[rng.random_range(0..pools.targetable_members.len())]
            };
            if t != asn && !list.contains(&t) {
                list.push(t);
            }
        }
        b.only_list = list;
    }
    if uses_prepend {
        let count = rng.random_range(1u8..=3);
        let target = if community_dict::schemes::supports_peer_prepend(ixp) {
            Some(universe::avoid_weights(ixp)[rng.random_range(0..5usize)].0)
        } else {
            None // AMS-IX: prepend to all (standard communities)
        };
        b.prepend = Some((target, count));
    }
    if uses_blackhole {
        b.blackhole_count = rng.random_range(1..=3);
        b.blackhole_v6 = rng.random::<f64>() < 0.12;
    }
    b.use_large = rng.random::<f64>() < cal.p_use_large;
    b.use_extended = rng.random::<f64>() < cal.p_use_extended;
    // HE's defensive list is the largest in every IXP (Fig. 7: HE is
    // responsible for 24–59% of the ineffective instances)
    if asn == universe::asns::HE {
        let extra = draw_avoid_list(pools, cal.avoid_large.1, 0.70, rng);
        for t in extra {
            if b.avoid_list.len() >= 110 {
                break; // stay under the DE-CIX max-communities filter
            }
            if !b.avoid_list.contains(&t) {
                b.avoid_list.push(t);
            }
        }
        b.uses_action_v6 = b.uses_action_v4;
    }
    b
}

/// Weight scale for a popular target's inclusion probability; inclusion
/// saturates at 0.98 so signature targets reliably appear in large lists.
const AVOID_WEIGHT_REF: f64 = 15.0;

fn draw_avoid_list(
    pools: &TargetPools,
    len: usize,
    p_nonmember: f64,
    rng: &mut StdRng,
) -> Vec<Asn> {
    let mut list = Vec::with_capacity(len);
    // Popular targets enter each member's list independently, with a
    // probability proportional to their popularity weight — this is what
    // makes each IXP's Fig. 5 chart *lead* with its signature target
    // (HE at IX.br, Google at LINX, OVH at AMS-IX) instead of every
    // popular CP appearing in every long list.
    let reach = (len as f64 / 10.0).min(1.0);
    for (pool, branch) in [
        (&pools.member_weighted, 1.0 - p_nonmember),
        (&pools.nonmember_weighted, p_nonmember),
    ] {
        for (asn, w) in pool.iter() {
            let p = (branch * (w / AVOID_WEIGHT_REF) * reach).min(0.98);
            if rng.random::<f64>() < p && !list.contains(asn) {
                list.push(*asn);
            }
        }
    }
    // Fill the remaining slots with the long tail: arbitrary members or
    // defensive non-member targets.
    while list.len() < len {
        let target = pools.pick_filler(p_nonmember, rng);
        if !list.contains(&target) {
            list.push(target);
        } else if pools.targetable_members.len() <= len {
            break; // tiny worlds: avoid spinning on duplicates
        }
    }
    list
}

/// A synthetic 16-bit target ASN (mostly not an RS member anywhere).
fn synthetic_target(rng: &mut StdRng) -> Asn {
    loop {
        let v = rng.random_range(30_000u32..60_000);
        let asn = Asn(v);
        if !asn.is_bogon() {
            return asn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gen(ixp: IxpId, n_v4: usize, n_v6: usize) -> Vec<MemberProfile> {
        let mut rng = StdRng::seed_from_u64(7);
        generate_members(ixp, n_v4, n_v6, 20_000, 6_000, &mut rng)
    }

    #[test]
    fn population_counts() {
        let m = gen(IxpId::DeCixFra, 90, 70);
        assert_eq!(m.len(), 90);
        assert_eq!(m.iter().filter(|x| x.v6).count(), 70);
        assert!(m.iter().all(|x| x.v4));
    }

    #[test]
    fn asns_unique_and_non_bogon() {
        let m = gen(IxpId::Linx, 80, 50);
        let mut asns: Vec<Asn> = m.iter().map(|x| x.asn).collect();
        asns.sort();
        asns.dedup();
        assert_eq!(asns.len(), 80);
        assert!(asns.iter().all(|a| !a.is_bogon()));
    }

    #[test]
    fn he_present_and_biggest() {
        let m = gen(IxpId::AmsIx, 80, 50);
        let he = m.iter().find(|x| x.asn == universe::asns::HE).unwrap();
        let max_routes = m.iter().map(|x| x.routes_v4).max().unwrap();
        assert_eq!(he.routes_v4, max_routes);
        assert!(he.behavior.uses_action_v4);
        assert!(he.behavior.avoid_list.len() >= 30);
    }

    #[test]
    fn route_totals_near_target() {
        let m = gen(IxpId::IxBrSp, 150, 100);
        let total: usize = m.iter().map(|x| x.routes_v4).sum();
        assert!(
            (total as f64 - 20_000.0).abs() / 20_000.0 < 0.1,
            "total {total}"
        );
    }

    #[test]
    fn action_user_fraction_tracks_calibration() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = generate_members(IxpId::AmsIx, 400, 300, 50_000, 15_000, &mut rng);
        let users = m.iter().filter(|x| x.behavior.uses_action_v4).count();
        let frac = users as f64 / m.len() as f64;
        let want = calibration(IxpId::AmsIx).p_use_v4;
        assert!(
            (frac - want).abs() < 0.08,
            "fraction {frac:.3} vs calibrated {want:.3}"
        );
    }

    #[test]
    fn some_members_are_silent() {
        let m = gen(IxpId::DeCixFra, 100, 70);
        assert!(m.iter().any(|x| x.routes_v4 == 0));
    }

    #[test]
    fn blackhole_only_at_supporting_ixps() {
        let m = gen(IxpId::Linx, 100, 60);
        assert!(m.iter().all(|x| x.behavior.blackhole_count == 0));
        let mut rng = StdRng::seed_from_u64(13);
        let m = generate_members(IxpId::DeCixFra, 300, 200, 30_000, 9_000, &mut rng);
        assert!(m.iter().any(|x| x.behavior.blackhole_count > 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = gen(IxpId::Netnod, 40, 25);
        let b = gen(IxpId::Netnod, 40, 25);
        assert_eq!(a, b);
    }
}
