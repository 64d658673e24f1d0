//! An independent reference for the aggregation fold: every integer of a
//! `SnapshotReport`, recounted straight from the paper's definitions —
//! nested loops, one dictionary lookup per community instance, plain
//! `BTreeMap`/`BTreeSet`. It shares no code with `analysis::core`.

use std::collections::{BTreeMap, BTreeSet};

use analysis::core::View;
use analysis::fig4::{fig4b, fig4c};
use analysis::summary::{full_report, SnapshotReport};
use bgp_model::asn::Asn;
use bgp_model::community::{ExtendedCommunity, LargeCommunity, StandardCommunity};
use bgp_model::prefix::Afi;
use bgp_model::route::Route;
use community_dict::action::{Action, ActionGroup};
use community_dict::classify::{classify_extended, classify_large, ext_subtype, large_fn};
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use community_dict::semantics::{Classification, Semantics};
use ixp_sim::scenario::{self, ScenarioConfig};
use ixp_sim::world::WorldConfig;
use looking_glass::snapshot::{Snapshot, SnapshotStore};

/// Count descending, ties by ascending key, first `limit`.
fn top<K: Ord + Copy>(counts: &BTreeMap<K, u64>, limit: usize) -> Vec<(K, u64)> {
    let mut v: Vec<(K, u64)> = counts.iter().map(|(k, n)| (*k, *n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(limit);
    v
}

fn check(snap: &Snapshot, dict: &Dictionary, got: &SnapshotReport) {
    let members: BTreeSet<Asn> = snap.members.iter().copied().collect();
    let nonmember = |a: &Action| a.target.peer_asn().is_some_and(|t| !members.contains(&t));
    let (mut ext_def, mut large_def, mut unknown) = (0u64, 0u64, 0u64);
    let (mut action, mut info, mut routes, mut tagged) = (0u64, 0u64, 0u64, 0u64);
    let mut users = BTreeSet::new();
    let mut group_users: BTreeMap<ActionGroup, BTreeSet<Asn>> = BTreeMap::new();
    let mut group_insts: BTreeMap<ActionGroup, u64> = BTreeMap::new();
    let mut per_comm: BTreeMap<StandardCommunity, u64> = BTreeMap::new();
    let mut per_comm_bad: BTreeMap<StandardCommunity, u64> = BTreeMap::new();
    let mut culprits: BTreeMap<Asn, u64> = BTreeMap::new();
    let mut routes_by_as: BTreeMap<Asn, u64> = BTreeMap::new();
    let mut actions_by_as: BTreeMap<Asn, u64> = BTreeMap::new();
    for (peer, route) in &snap.routes {
        routes += 1;
        *routes_by_as.entry(*peer).or_insert(0) += 1;
        let mut has_action = false;
        for c in &route.standard_communities {
            match dict.classify(*c) {
                Classification::Unknown => unknown += 1,
                Classification::IxpDefined(Semantics::Informational(_)) => info += 1,
                Classification::IxpDefined(Semantics::Action(a)) => {
                    action += 1;
                    has_action = true;
                    group_users.entry(a.kind.group()).or_default().insert(*peer);
                    *group_insts.entry(a.kind.group()).or_insert(0) += 1;
                    *per_comm.entry(*c).or_insert(0) += 1;
                    *actions_by_as.entry(*peer).or_insert(0) += 1;
                    if nonmember(&a) {
                        *per_comm_bad.entry(*c).or_insert(0) += 1;
                        *culprits.entry(*peer).or_insert(0) += 1;
                    }
                }
            }
        }
        for lc in &route.large_communities {
            match classify_large(snap.ixp, *lc) {
                Classification::Unknown => unknown += 1,
                Classification::IxpDefined(_) => large_def += 1,
            }
        }
        for ec in &route.extended_communities {
            match classify_extended(snap.ixp, *ec) {
                Classification::Unknown => unknown += 1,
                Classification::IxpDefined(_) => ext_def += 1,
            }
        }
        if has_action {
            tagged += 1;
            users.insert(*peer);
        }
    }
    let (std_def, bad) = (action + info, per_comm_bad.values().sum::<u64>());
    let defined = std_def + ext_def + large_def;
    let eq = |what: &str, got: u64, want: u64| assert_eq!(got, want, "{what}");
    eq("fig1.total", got.fig1.total, defined + unknown);
    eq("fig1.ixp_defined", got.fig1.ixp_defined, defined);
    eq("fig1.unknown", got.fig1.unknown, unknown);
    eq("fig2.total_defined", got.fig2.total_defined, defined);
    eq("fig2.standard", got.fig2.standard, std_def);
    eq("fig2.extended", got.fig2.extended, ext_def);
    eq("fig2.large", got.fig2.large, large_def);
    eq("fig3.total", got.fig3.total, std_def);
    eq("fig3.action", got.fig3.action, action);
    eq("fig3.informational", got.fig3.informational, info);
    let (f4, n_members) = (&got.fig4a, members.len() as u64);
    eq("fig4a.members_at_rs", f4.members_at_rs as u64, n_members);
    eq(
        "fig4a.ases",
        f4.ases_using_actions as u64,
        users.len() as u64,
    );
    eq("fig4a.routes_total", f4.routes_total as u64, routes);
    eq("fig4a.tagged_routes", f4.routes_with_actions as u64, tagged);
    eq("table2.members", got.table2.members_at_rs as u64, n_members);
    let group_sizes = group_users.into_iter().map(|(g, s)| (g, s.len()));
    assert_eq!(got.table2.ases_per_group, group_sizes.collect());
    eq("type_counts.total", got.type_counts.total, action);
    assert_eq!(got.type_counts.per_group, group_insts);
    for (fig, counts) in [(&got.fig5, &per_comm), (&got.fig6, &per_comm_bad)] {
        eq("total_in_scope", fig.total_in_scope, counts.values().sum());
        let ranked: Vec<_> = fig.top.iter().map(|r| (r.community, r.count)).collect();
        assert_eq!(ranked, top(counts, 20));
    }
    let top20 = top(&per_comm, 20);
    let top20_bad = top20.iter().filter(|(c, _)| per_comm_bad.contains_key(c));
    let top20_bad = top20_bad.count() as u64;
    let i = &got.ineffective;
    eq("ineffective.total_actions", i.total_actions, action);
    eq("ineffective.ineffective", i.ineffective, bad);
    eq("top20_nonmember", i.top20_nonmember_count as u64, top20_bad);
    eq("fig7.total_ineffective", got.fig7.total_ineffective, bad);
    let named: Vec<_> = got.fig7.top.iter().map(|c| (c.asn, c.count)).collect();
    assert_eq!(named, top(&culprits, 10));
    // the per-AS counters only reach the report as floats; compare them
    // where they are still counts (Fig. 4b) or one division away (4c)
    let view = View::new(snap, dict);
    assert_eq!(fig4b(&view).per_as_desc, top(&actions_by_as, usize::MAX));
    let share = |n: u64, of: u64| n as f64 / of.max(1) as f64;
    let points = routes_by_as.iter().map(|(asn, r)| {
        let tags = actions_by_as.get(asn).copied().unwrap_or(0);
        (*asn, share(tags, action), share(*r, routes))
    });
    assert_eq!(fig4c(&view).points, points.collect::<Vec<_>>());
}

#[test]
fn every_ixp_and_family_of_a_simulated_world() {
    let (seed, scale) = (0xC0DE, 0.02);
    let world = WorldConfig { seed, scale };
    let scenario = scenario::run(&ScenarioConfig {
        world,
        ..Default::default()
    });
    let dicts = IxpId::ALL.map(|i| (i, schemes::dictionary(i)));
    let report = full_report(&scenario.store, &dicts);
    assert_eq!(report.snapshots.len(), 16);
    for got in &report.snapshots {
        let snap = scenario.store.latest(got.ixp, got.afi).unwrap();
        let dict = &dicts.iter().find(|(i, _)| *i == got.ixp).unwrap().1;
        assert!(got.fig3.action > 0 && got.ineffective.ineffective > 0);
        check(snap, dict, got);
    }
}

#[test]
fn hand_built_snapshot_with_all_three_types() {
    let ixp = IxpId::AmsIx;
    let rs = ixp.rs_asn().value();
    let mk = |pfx: &str, tagger: u32, cs: Vec<StandardCommunity>| {
        let nh = "198.32.0.7".parse().unwrap();
        let route = Route::builder(pfx.parse().unwrap(), nh).path([tagger]);
        (Asn(tagger), route.standards(cs).build())
    };
    let to_member = schemes::avoid_community(ixp, Asn(6939));
    let to_other = schemes::avoid_community(ixp, Asn(16276)); // not a member
    let unknown = StandardCommunity::from_parts(3356, 70);
    let info = schemes::info_community(ixp, 0);
    let mut routes = vec![
        mk(
            "193.0.10.0/24",
            39120,
            vec![to_member, to_other, info, unknown],
        ),
        mk("193.0.11.0/24", 39120, vec![]),
        mk("81.0.0.0/24", 6939, vec![to_other]),
    ];
    routes[0].1.large_communities = vec![
        LargeCommunity::new(rs, large_fn::AVOID, 6939),
        LargeCommunity::new(3356, 1, 2), // unknown
    ];
    routes[0].1.extended_communities = vec![
        ExtendedCommunity::two_octet_as(ext_subtype::AVOID, rs as u16, 6939),
        ExtendedCommunity::two_octet_as(ext_subtype::AVOID, 3356, 1), // unknown
    ];
    let members = vec![Asn(39120), Asn(6939)];
    let snap = Snapshot {
        ixp,
        day: 3,
        afi: Afi::Ipv4,
        members,
        routes,
        partial: false,
        failed_peers: vec![],
    };
    let dicts = [(ixp, schemes::dictionary(ixp))];
    let mut store = SnapshotStore::new();
    store.insert(snap.clone());
    let report = full_report(&store, &dicts);
    let got = report.get(ixp, Afi::Ipv4).unwrap();
    let (f1, f2) = (&got.fig1, &got.fig2);
    assert_eq!((f1.total, f1.unknown, f2.large, f2.extended), (9, 3, 1, 1));
    assert_eq!((got.ineffective.ineffective, got.fig7.top.len()), (2, 2));
    check(&snap, &dicts[0].1, got);
}
