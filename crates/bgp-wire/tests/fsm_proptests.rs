//! Property tests for the session FSM: no input sequence may panic it,
//! and it must always be restartable.

use bgp_model::asn::Asn;
use bgp_wire::fsm::{run_pair, Action, Config, Event, Fsm, State};
use bgp_wire::message::{Message, UpdateMessage};
use bytes::BytesMut;
use prop::{assert_holds, CheckConfig, Choices};

/// Every property here runs 256 cases.
const CASES: CheckConfig = CheckConfig::new(0xF5A0, 256);

#[derive(Debug, Clone)]
enum Input {
    ManualStart,
    ManualStop,
    TransportUp,
    TransportDown,
    Garbage(Vec<u8>),
    ValidKeepalive,
    ValidUpdate,
    Tick(u64),
}

fn gen_input(c: &mut Choices) -> Input {
    match c.draw(7) {
        0 => Input::ManualStart,
        1 => Input::ManualStop,
        2 => Input::TransportUp,
        3 => Input::TransportDown,
        // 0..64 arbitrary bytes
        4 => Input::Garbage(c.draw_list(63, 970, |c| c.draw(0xFF) as u8)),
        5 => Input::ValidKeepalive,
        6 => Input::ValidUpdate,
        _ => Input::Tick(c.draw(199_999)),
    }
}

fn to_event(input: &Input) -> Event {
    match input {
        Input::ManualStart => Event::ManualStart,
        Input::ManualStop => Event::ManualStop,
        Input::TransportUp => Event::TransportUp,
        Input::TransportDown => Event::TransportDown,
        Input::Garbage(bytes) => Event::BytesReceived(BytesMut::from(&bytes[..])),
        Input::ValidKeepalive => {
            let wire = Message::Keepalive.encode().unwrap();
            Event::BytesReceived(BytesMut::from(&wire[..]))
        }
        Input::ValidUpdate => {
            let wire = Message::Update(UpdateMessage::default()).encode().unwrap();
            Event::BytesReceived(BytesMut::from(&wire[..]))
        }
        Input::Tick(ms) => Event::Tick { now_ms: *ms },
    }
}

fn fsm() -> Fsm {
    Fsm::new(Config::new(Asn(39120), "192.0.2.1".parse().unwrap()))
}

fn peer() -> Fsm {
    Fsm::new(Config::new(Asn(6939), "192.0.2.2".parse().unwrap()))
}

/// Absolutely any event sequence must be handled without panicking,
/// and every SessionUp must be preceded by reaching Established.
#[test]
fn fsm_never_panics() {
    // 0..40 inputs
    let gen = |c: &mut Choices| c.draw_list(39, 950, gen_input);
    assert_holds(&CASES, gen, |inputs: &Vec<Input>| {
        let mut fsm = fsm();
        for input in inputs {
            let state_before = fsm.state();
            let actions = fsm.handle(to_event(input));
            for a in &actions {
                if matches!(a, Action::SessionUp(_)) {
                    assert_eq!(fsm.state(), State::Established);
                }
                if matches!(a, Action::DeliverUpdate(_)) {
                    // updates are only delivered while established
                    assert_eq!(state_before, State::Established);
                }
            }
        }
        true
    });
}

/// After any battering, ManualStart + a fresh handshake still works:
/// the FSM must never wedge.
#[test]
fn fsm_always_restartable() {
    // 0..30 inputs
    let gen = |c: &mut Choices| c.draw_list(29, 940, gen_input);
    assert_holds(&CASES, gen, |inputs: &Vec<Input>| {
        let mut fsm = fsm();
        for input in inputs {
            let _ = fsm.handle(to_event(input));
        }
        // force back to Idle however it ended up
        fsm.handle(Event::ManualStop);
        fsm.handle(Event::TransportDown);
        assert_eq!(fsm.state(), State::Idle);
        // a clean bring-up against a fresh peer must succeed
        let mut peer = peer();
        run_pair(&mut fsm, &mut peer);
        assert_eq!(fsm.state(), State::Established);
        assert_eq!(peer.state(), State::Established);
        true
    });
}

/// Fragmented delivery: a valid byte stream chopped at any point decodes
/// identically to one-shot delivery. All 17 cuts, exhaustively.
#[test]
fn fragmentation_is_transparent() {
    for cut in 1usize..18 {
        let mut a = fsm();
        let mut b = peer();
        run_pair(&mut a, &mut b);
        let Action::Send(wire) = a.send_update(UpdateMessage::default()).unwrap() else {
            panic!()
        };
        let cut = cut.min(wire.len() - 1);
        let mut acts = b.handle(Event::BytesReceived(BytesMut::from(&wire[..cut])));
        assert!(acts.is_empty(), "no action from a partial frame");
        acts.extend(b.handle(Event::BytesReceived(BytesMut::from(&wire[cut..]))));
        assert_eq!(
            acts,
            vec![Action::DeliverUpdate(UpdateMessage::default())],
            "cut at {cut}"
        );
    }
}
