//! Algebraic properties of the incremental report engine, driven by the
//! chaos crate's property framework: retraction is the exact inverse of
//! application (perturb a live state and undo the perturbation — the
//! report serializes byte-identically to before), and shard merging is
//! associative and commutative (any merge order of per-peer shards
//! equals the single-engine run). A failure shrinks to a minimal
//! workload and replays from the recorded choice stream.

use analysis::incremental::IncrementalReport;
use bgp_model::asn::Asn;
use bgp_model::community::StandardCommunity;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;
use chaos::prelude::*;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use route_server::events::RibEvent;
use stream::state::RouterState;

const IXP: IxpId = IxpId::Linx;

fn dicts() -> Vec<(IxpId, community_dict::dictionary::Dictionary)> {
    vec![(IXP, schemes::dictionary(IXP))]
}

fn gen_base_prefix(c: &mut Choices) -> Prefix {
    // a small pool so announces overwrite and withdraws actually hit
    format!("10.0.{}.0/24", c.draw(7))
        .parse()
        .expect("pool prefix is valid")
}

/// A route from `peer` with 0..=2 action communities (avoid-announce
/// targets drawn from the small peer/member pool) and occasionally an
/// out-of-scheme community the dictionary classifies as unknown.
fn gen_route(c: &mut Choices, peer: Asn, prefix: Prefix) -> Route {
    let next_hop = "198.32.0.7".parse().expect("valid next hop");
    let mut b = Route::builder(prefix, next_hop).path([peer.0, 15169]);
    for _ in 0..c.draw(2) {
        b = b.standard(schemes::avoid_community(IXP, Asn(1 + c.draw(5) as u32)));
    }
    if c.draw_bool(200) {
        b = b.standard(StandardCommunity(0xFFEE_0000 | c.draw(9) as u32));
    }
    b.build()
}

fn gen_event(c: &mut Choices) -> RibEvent {
    let peer = Asn(1 + c.draw(3) as u32);
    match c.draw(7) {
        0 => RibEvent::PeerUp {
            peer,
            ipv4: true,
            ipv6: c.draw_bool(500),
        },
        1 => RibEvent::PeerDown { peer },
        2 => RibEvent::Withdraw {
            peer,
            prefix: gen_base_prefix(c),
        },
        _ => {
            let prefix = gen_base_prefix(c);
            RibEvent::Announce {
                peer,
                route: gen_route(c, peer, prefix),
            }
        }
    }
}

/// Continue-flag event list (not count-prefixed), so the shrinker can
/// delete whole trailing events without misaligning later draws.
fn gen_log(c: &mut Choices) -> Vec<RibEvent> {
    let mut events = vec![gen_event(c)];
    events.extend(c.draw_list(23, 850, gen_event));
    events
}

/// A perturbation announce on the `172.16/16` pool — disjoint from the
/// base pool, so withdrawing it restores the exact pre-perturbation
/// state (nothing from the base log is ever replaced by it).
fn gen_perturb(c: &mut Choices) -> RibEvent {
    let peer = Asn(1 + c.draw(3) as u32);
    let prefix: Prefix = format!("172.16.{}.0/24", c.draw(7))
        .parse()
        .expect("pool prefix is valid");
    RibEvent::Announce {
        peer,
        route: gen_route(c, peer, prefix),
    }
}

/// A base history plus a perturbation to apply and then undo.
#[derive(Debug, Clone, PartialEq)]
struct Workload {
    base: Vec<RibEvent>,
    perturb: Vec<RibEvent>,
}

fn gen_workload(c: &mut Choices) -> Workload {
    let base = gen_log(c);
    let mut perturb = vec![gen_perturb(c)];
    perturb.extend(c.draw_list(7, 700, gen_perturb));
    Workload { base, perturb }
}

/// The withdraws that undo a perturbation, newest first. Duplicate
/// (peer, prefix) announces within the perturbation need only the one
/// withdraw; the extras are no-ops the engine must also survive.
fn undo_of(perturb: &[RibEvent]) -> Vec<RibEvent> {
    perturb
        .iter()
        .rev()
        .filter_map(|ev| match ev {
            RibEvent::Announce { peer, route } => Some(RibEvent::Withdraw {
                peer: *peer,
                prefix: route.prefix,
            }),
            _ => None,
        })
        .collect()
}

fn report_json(inc: &IncrementalReport) -> String {
    let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
    serde_json::to_string(&inc.report_units(&units, 0)).expect("report serializes")
}

/// Drive `events` through a fresh `RouterState` with the incremental
/// report attached, exactly as the streaming pipeline does.
fn run<'a, I: IntoIterator<Item = &'a RibEvent>>(events: I) -> (RouterState, IncrementalReport) {
    let mut state = RouterState::new(IXP);
    let mut inc = IncrementalReport::new(&dicts());
    for ev in events {
        state.apply_with(ev, &mut inc);
    }
    (state, inc)
}

/// The headline inverse property: applying a perturbation and then
/// retracting it leaves the report byte-identical to before — every
/// counter, histogram, sketch and float derived from them.
#[test]
fn retract_is_the_exact_inverse_of_apply() {
    let prop = |w: &Workload| {
        let (mut state, mut inc) = run(&w.base);
        let before = report_json(&inc);
        for ev in &w.perturb {
            state.apply_with(ev, &mut inc);
        }
        for ev in undo_of(&w.perturb) {
            state.apply_with(&ev, &mut inc);
        }
        assert!(report_json(&inc) == before, "retract did not invert apply");
        true
    };
    assert_holds(&CheckConfig::new(0x1F5E0, 128), gen_workload, prop);
}

/// Merging per-peer shards is associative and commutative: every merge
/// order of three disjoint shards serializes identically to the single
/// engine that saw the whole log.
#[test]
fn shard_merge_is_associative_and_commutative() {
    let shard_of = |ev: &RibEvent| -> usize {
        let peer = match ev {
            RibEvent::PeerUp { peer, .. }
            | RibEvent::PeerDown { peer }
            | RibEvent::Withdraw { peer, .. }
            | RibEvent::Announce { peer, .. } => *peer,
        };
        peer.0 as usize % 3
    };
    let prop = |events: &Vec<RibEvent>| {
        let (_, whole) = run(events.iter());
        let shards: Vec<IncrementalReport> = (0..3)
            .map(|s| run(events.iter().filter(|ev| shard_of(ev) == s)).1)
            .collect();
        let expected = report_json(&whole);
        // ((a ⊔ b) ⊔ c), ((c ⊔ a) ⊔ b), ((b ⊔ c) ⊔ a): any association
        // and order of the same shards must rebuild the same report
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut merged = shards[order[0]].clone();
            merged.merge(&shards[order[1]]);
            merged.merge(&shards[order[2]]);
            assert!(
                report_json(&merged) == expected,
                "shard merge is order-sensitive: merge order {order:?}"
            );
        }
        true
    };
    assert_holds(&CheckConfig::new(0x1F5E1, 96), gen_log, prop);
}

/// The shrinking demonstration: disable retraction and the inverse
/// property must fail — and the framework shrinks the failure to one
/// visible announce perturbing a one-event base history.
#[test]
fn shrinking_minimizes_to_a_single_unretracted_announce() {
    let config = CheckConfig {
        max_shrink_attempts: 4_000,
        ..CheckConfig::new(0x1F5E2, 200)
    };
    let result = check(&config, gen_workload, |w: &Workload| {
        let (mut state, mut inc) = run(&w.base);
        inc.set_retraction_enabled(false);
        let before = report_json(&inc);
        for ev in &w.perturb {
            state.apply_with(ev, &mut inc);
        }
        for ev in undo_of(&w.perturb) {
            state.apply_with(&ev, &mut inc);
        }
        report_json(&inc) == before
    });
    let ce = result.expect_err("visible perturbations are reachable by the generator");
    let w = &ce.value;
    assert_eq!(w.perturb.len(), 1, "perturbation did not shrink: {w:?}");
    assert_eq!(w.base.len(), 1, "base history did not shrink: {w:?}");
    // the counterexample replays from its recorded choices
    let mut replay = Choices::replay(ce.choices.clone());
    assert_eq!(&gen_workload(&mut replay), w);
}
