//! `StateStore` convergence properties, driven by the chaos crate's own
//! property framework: any protocol-legal delivery of a monitoring feed —
//! pagination into chunks, session resets replaying from arbitrary
//! earlier cursors, replay pages overshooting into fresh frames —
//! converges to exactly the state and accounting of one deduped
//! sequential application. A failure shrinks to a minimal (event log,
//! delivery schedule) pair and replays from the recorded choice stream.

use bgp_model::asn::Asn;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;
use chaos::prelude::*;
use community_dict::ixp::IxpId;
use looking_glass::api::StreamFrame;
use route_server::events::RibEvent;
use stream::state::RouterState;

fn gen_prefix(c: &mut Choices) -> Prefix {
    // a small pool so announces overwrite and withdraws actually hit
    format!("10.0.{}.0/24", c.draw(7))
        .parse()
        .expect("pool prefix is valid")
}

fn gen_route(c: &mut Choices, peer: Asn) -> Route {
    let prefix = gen_prefix(c);
    let next_hop = "192.0.2.1".parse().expect("valid next hop");
    Route::builder(prefix, next_hop)
        .path([peer.0, 65_000 + c.draw(3) as u32])
        .build()
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
            prefix: gen_prefix(c),
        },
        _ => RibEvent::Announce {
            peer,
            route: gen_route(c, peer),
        },
    }
}

/// One delivery scenario: a frame log plus the chunk schedule the
/// "server" serves it in. Chunks starting below the current position
/// model session-reset replays (their frames are duplicates the store
/// must dedup); chunks may also overshoot into fresh frames, like a
/// replay page that runs past the old cursor.
#[derive(Debug, Clone, PartialEq)]
struct Scenario {
    frames: Vec<StreamFrame>,
    chunks: Vec<(usize, usize)>,
}

fn gen_scenario_with_replays(c: &mut Choices, replay_per_mille: u64) -> Scenario {
    let mut events = vec![gen_event(c)];
    events.extend(c.draw_list(39, 900, gen_event));
    let n = events.len();
    let frames = events
        .into_iter()
        .enumerate()
        .map(|(i, event)| StreamFrame {
            seq: i as u64 + 1,
            event,
        })
        .collect();
    let mut chunks = Vec::new();
    let mut pos = 0usize;
    let mut replays = 0u32;
    while pos < n {
        if replays < 8 && pos > 0 && c.draw_bool(replay_per_mille) {
            // a reset mid-delivery: the server replays from an earlier
            // point; the page may even overshoot past the old cursor
            let start = c.draw(pos as u64 - 1) as usize;
            let len = 1 + c.draw(6) as usize;
            chunks.push((start, (start + len).min(n)));
            replays += 1;
        }
        let len = 1 + c.draw(6) as usize;
        chunks.push((pos, (pos + len).min(n)));
        pos = (pos + len).min(n);
    }
    // trailing resets: replays arriving after the log is fully delivered
    while replays < 8 && c.draw_bool(replay_per_mille) {
        let start = c.draw(n as u64 - 1) as usize;
        let len = 1 + c.draw(6) as usize;
        chunks.push((start, (start + len).min(n)));
        replays += 1;
    }
    Scenario { frames, chunks }
}

fn gen_scenario(c: &mut Choices) -> Scenario {
    gen_scenario_with_replays(c, 350)
}

fn deliver(scenario: &Scenario, dedup: bool) -> RouterState {
    let mut state = RouterState::new(IxpId::Linx);
    for &(start, end) in &scenario.chunks {
        for frame in &scenario.frames[start..end] {
            state.ingest(frame, dedup);
        }
    }
    state
}

fn sequential(scenario: &Scenario) -> RouterState {
    let mut state = RouterState::new(IxpId::Linx);
    for frame in &scenario.frames {
        state.ingest(frame, true);
    }
    state
}

fn snapshots_equal(a: &RouterState, b: &RouterState) -> bool {
    [Afi::Ipv4, Afi::Ipv6].iter().all(|&afi| {
        let left = serde_json::to_string(&a.to_snapshot(afi, 0)).expect("snapshot serializes");
        let right = serde_json::to_string(&b.to_snapshot(afi, 0)).expect("snapshot serializes");
        left == right
    })
}

/// The headline property: deduped ingestion of any chunked, replayed
/// delivery is indistinguishable — state and accounting — from applying
/// the log once, in order.
#[test]
fn any_replayed_delivery_converges_to_sequential_application() {
    let prop = |s: &Scenario| {
        let interleaved = deliver(s, true);
        let reference = sequential(s);
        assert!(
            snapshots_equal(&interleaved, &reference)
                && interleaved.stats().applied == s.frames.len() as u64
                && reference.stats().applied == s.frames.len() as u64
                && interleaved.stats().synth_withdraws == reference.stats().synth_withdraws
                && interleaved.cursor() == s.frames.len() as u64,
            "delivery does not converge"
        );
        true
    };
    assert_holds(&CheckConfig::new(0x57AE0, 160), gen_scenario, prop);
}

/// Without replays there is nothing to dedup: a plain paginated delivery
/// applies every frame exactly once and drops nothing.
#[test]
fn paginated_delivery_without_replays_drops_nothing() {
    let gen = |c: &mut Choices| gen_scenario_with_replays(c, 0);
    assert_holds(&CheckConfig::new(0x57AE1, 96), gen, |s: &Scenario| {
        let stats = deliver(s, true).stats();
        assert_eq!(
            (stats.dupes_dropped, stats.applied),
            (0, s.frames.len() as u64)
        );
        true
    });
}

/// The shrinking demonstration: turn dedup off and the conservation
/// property (applied == frames) must fail on any scenario with a real
/// replay — and the framework shrinks it to one frame delivered twice.
#[test]
fn shrinking_minimizes_to_a_single_replayed_frame() {
    let config = CheckConfig {
        max_shrink_attempts: 4_000,
        ..CheckConfig::new(0x57AE2, 300)
    };
    let result = check(&config, gen_scenario, |s: &Scenario| {
        deliver(s, false).stats().applied == s.frames.len() as u64
    });
    let ce = result.expect_err("replayed scenarios are reachable by the generator");
    let s = &ce.value;
    assert_eq!(s.frames.len(), 1, "frame log did not shrink: {s:?}");
    let delivered: usize = s.chunks.iter().map(|&(a, b)| b - a).sum();
    assert_eq!(delivered, 2, "delivery did not shrink: {s:?}");
    // and the counterexample replays from its recorded choices
    let mut replay = Choices::replay(ce.choices.clone());
    assert_eq!(&gen_scenario(&mut replay), s);
}
