//! BGP session finite state machine (RFC 4271 §8, simplified).
//!
//! Transport-agnostic and event-driven in the smoltcp style: the caller
//! owns the byte stream and the clock, feeds [`Event`]s in, and executes
//! the returned [`Action`]s (send these bytes, deliver this update, drop
//! the connection). Time is a plain `u64` of milliseconds so tests and the
//! simulator control it fully.

use bytes::BytesMut;

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;

use crate::error::WireError;
use crate::message::{Message, NotificationCode, NotificationMessage, OpenMessage, UpdateMessage};

/// FSM states (RFC 4271 §8.2.2). `Connect`/`Active` are merged into
/// [`State::Connect`]: we model an in-process transport where the TCP
/// retry distinction does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Session administratively down.
    Idle,
    /// Waiting for the transport to come up.
    Connect,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPEN received and acceptable, waiting for KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATEs flow.
    Established,
}

/// Inputs to the FSM.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Operator starts the session.
    ManualStart,
    /// Operator stops the session.
    ManualStop,
    /// Transport connected.
    TransportUp,
    /// Transport failed or closed.
    TransportDown,
    /// Bytes arrived from the peer (may contain partial/multiple messages).
    BytesReceived(BytesMut),
    /// The clock advanced to `now_ms` (drives hold/keepalive timers).
    Tick {
        /// Current time, milliseconds.
        now_ms: u64,
    },
}

/// Outputs from the FSM for the caller to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Write these bytes to the transport.
    Send(bytes::Bytes),
    /// An UPDATE arrived while Established.
    DeliverUpdate(UpdateMessage),
    /// The peer asked for a full re-advertisement of one family
    /// (RFC 2918); the caller should re-send its Adj-RIB-Out.
    RefreshRequested(Afi),
    /// The session reached Established; `peer_open` is the negotiated OPEN.
    SessionUp(OpenMessage),
    /// The session left Established / failed to come up.
    SessionDown(DownReason),
    /// Close the transport.
    CloseTransport,
}

/// Why a session went down.
#[derive(Debug, Clone, PartialEq)]
pub enum DownReason {
    /// We sent a NOTIFICATION (protocol error we detected).
    LocalNotification(NotificationCode),
    /// Peer sent us a NOTIFICATION.
    RemoteNotification(NotificationMessage),
    /// Hold timer expired.
    HoldTimerExpired,
    /// Transport failed.
    TransportDown,
    /// Operator stop.
    ManualStop,
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Our ASN.
    pub asn: Asn,
    /// Our BGP identifier.
    pub bgp_id: std::net::Ipv4Addr,
    /// Proposed hold time (seconds). Negotiated down to the peer's if lower.
    pub hold_time_secs: u16,
    /// If set, require the peer to be exactly this ASN.
    pub expected_peer: Option<Asn>,
}

impl Config {
    /// Typical route-server-client config.
    pub fn new(asn: Asn, bgp_id: std::net::Ipv4Addr) -> Self {
        Config {
            asn,
            bgp_id,
            hold_time_secs: 90,
            expected_peer: None,
        }
    }
}

/// The session state machine.
#[derive(Debug)]
pub struct Fsm {
    config: Config,
    state: State,
    rx_buf: BytesMut,
    peer_open: Option<OpenMessage>,
    negotiated_hold_ms: u64,
    last_rx_ms: u64,
    last_tx_ms: u64,
    now_ms: u64,
}

impl Fsm {
    /// New FSM in Idle.
    pub fn new(config: Config) -> Self {
        Fsm {
            config,
            state: State::Idle,
            rx_buf: BytesMut::new(),
            peer_open: None,
            negotiated_hold_ms: 0,
            last_rx_ms: 0,
            last_tx_ms: 0,
            now_ms: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The peer's OPEN, once received.
    pub fn peer_open(&self) -> Option<&OpenMessage> {
        self.peer_open.as_ref()
    }

    /// Queue an UPDATE for sending. Only valid while Established; returns
    /// the serialized frame as an [`Action::Send`].
    pub fn send_update(&mut self, update: UpdateMessage) -> Result<Action, WireError> {
        debug_assert_eq!(self.state, State::Established);
        self.last_tx_ms = self.now_ms;
        Ok(Action::Send(Message::Update(update).encode()?))
    }

    /// Ask the peer to re-advertise one family (RFC 2918). Only valid
    /// while Established.
    pub fn request_refresh(&mut self, afi: Afi) -> Result<Action, WireError> {
        debug_assert_eq!(self.state, State::Established);
        self.last_tx_ms = self.now_ms;
        Ok(Action::Send(Message::RouteRefresh(afi).encode()?))
    }

    /// Feed one event; get the resulting actions.
    pub fn handle(&mut self, event: Event) -> Vec<Action> {
        match event {
            Event::ManualStart => self.on_manual_start(),
            Event::ManualStop => self.shutdown(DownReason::ManualStop, Some(2)),
            Event::TransportUp => self.on_transport_up(),
            Event::TransportDown => {
                let was_up = self.state == State::Established;
                self.reset();
                if was_up {
                    vec![Action::SessionDown(DownReason::TransportDown)]
                } else {
                    vec![]
                }
            }
            Event::BytesReceived(bytes) => self.on_bytes(bytes),
            Event::Tick { now_ms } => self.on_tick(now_ms),
        }
    }

    fn on_manual_start(&mut self) -> Vec<Action> {
        if self.state == State::Idle {
            self.state = State::Connect;
        }
        vec![]
    }

    fn on_transport_up(&mut self) -> Vec<Action> {
        if self.state != State::Connect {
            return vec![];
        }
        let open = OpenMessage::route_server(
            self.config.asn,
            self.config.bgp_id,
            self.config.hold_time_secs,
        );
        self.state = State::OpenSent;
        self.last_tx_ms = self.now_ms;
        match Message::Open(open).encode() {
            Ok(b) => vec![Action::Send(b)],
            Err(_) => self.shutdown(
                DownReason::LocalNotification(NotificationCode::OpenMessage),
                Some(0),
            ),
        }
    }

    fn on_bytes(&mut self, bytes: BytesMut) -> Vec<Action> {
        self.rx_buf.extend_from_slice(&bytes);
        let mut actions = Vec::new();
        loop {
            match Message::decode(&mut self.rx_buf) {
                Ok(Some(msg)) => {
                    self.last_rx_ms = self.now_ms;
                    actions.extend(self.on_message(msg));
                    if self.state == State::Idle {
                        break; // shutdown mid-stream: discard the rest
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    actions.extend(self.shutdown(
                        DownReason::LocalNotification(NotificationCode::MessageHeader),
                        Some(0),
                    ));
                    break;
                }
            }
        }
        actions
    }

    fn on_message(&mut self, msg: Message) -> Vec<Action> {
        match (self.state, msg) {
            (State::OpenSent, Message::Open(open)) => {
                if let Some(expected) = self.config.expected_peer {
                    if open.effective_asn() != expected {
                        return self.shutdown(
                            DownReason::LocalNotification(NotificationCode::OpenMessage),
                            Some(2), // bad peer AS
                        );
                    }
                }
                // RFC 4271: hold time 1 or 2 is invalid
                if open.hold_time == 1 || open.hold_time == 2 {
                    return self.shutdown(
                        DownReason::LocalNotification(NotificationCode::OpenMessage),
                        Some(6),
                    );
                }
                let hold = open.hold_time.min(self.config.hold_time_secs);
                self.negotiated_hold_ms = hold as u64 * 1000;
                self.peer_open = Some(open);
                self.state = State::OpenConfirm;
                self.last_tx_ms = self.now_ms;
                vec![Action::Send(Message::keepalive_frame())]
            }
            (State::OpenConfirm, Message::Keepalive) => match self.peer_open.clone() {
                Some(open) => {
                    self.state = State::Established;
                    vec![Action::SessionUp(open)]
                }
                // OpenConfirm without a stored OPEN is an FSM error, not
                // a programming invariant worth panicking over
                None => self.shutdown(
                    DownReason::LocalNotification(NotificationCode::FiniteStateMachine),
                    Some(0),
                ),
            },
            (State::Established, Message::Update(update)) => {
                vec![Action::DeliverUpdate(update)]
            }
            (State::Established, Message::RouteRefresh(afi)) => {
                vec![Action::RefreshRequested(afi)]
            }
            (State::Established, Message::Keepalive) | (State::OpenConfirm, Message::Open(_)) => {
                vec![]
            }
            (_, Message::Notification(n)) => {
                let was_up = self.state == State::Established;
                self.reset();
                if was_up || self.peer_open.is_some() {
                    vec![
                        Action::SessionDown(DownReason::RemoteNotification(n)),
                        Action::CloseTransport,
                    ]
                } else {
                    vec![Action::CloseTransport]
                }
            }
            // anything else in the wrong state is an FSM error
            _ => self.shutdown(
                DownReason::LocalNotification(NotificationCode::FiniteStateMachine),
                Some(0),
            ),
        }
    }

    fn on_tick(&mut self, now_ms: u64) -> Vec<Action> {
        self.now_ms = now_ms;
        if self.state != State::Established || self.negotiated_hold_ms == 0 {
            return vec![];
        }
        if now_ms.saturating_sub(self.last_rx_ms) > self.negotiated_hold_ms {
            return self.shutdown(DownReason::HoldTimerExpired, None);
        }
        // keepalive at 1/3 hold time (RFC 4271 §10)
        let keepalive_ms = self.negotiated_hold_ms / 3;
        if now_ms.saturating_sub(self.last_tx_ms) >= keepalive_ms {
            self.last_tx_ms = now_ms;
            return vec![Action::Send(Message::keepalive_frame())];
        }
        vec![]
    }

    /// Send a NOTIFICATION (if a subcode is supplied), emit SessionDown,
    /// close, and reset to Idle.
    fn shutdown(&mut self, reason: DownReason, notify_subcode: Option<u8>) -> Vec<Action> {
        let mut actions = Vec::new();
        if let Some(subcode) = notify_subcode {
            let code = match &reason {
                DownReason::LocalNotification(c) => *c,
                DownReason::HoldTimerExpired => NotificationCode::HoldTimerExpired,
                _ => NotificationCode::Cease,
            };
            let n = NotificationMessage {
                code,
                subcode,
                data: bytes::Bytes::new(),
            };
            if let Ok(b) = Message::Notification(n).encode() {
                actions.push(Action::Send(b));
            }
        } else if matches!(reason, DownReason::HoldTimerExpired) {
            let n = NotificationMessage {
                code: NotificationCode::HoldTimerExpired,
                subcode: 0,
                data: bytes::Bytes::new(),
            };
            if let Ok(b) = Message::Notification(n).encode() {
                actions.push(Action::Send(b));
            }
        }
        let was_past_connect = !matches!(self.state, State::Idle | State::Connect);
        self.reset();
        if was_past_connect {
            actions.push(Action::SessionDown(reason));
        }
        actions.push(Action::CloseTransport);
        actions
    }

    fn reset(&mut self) {
        self.state = State::Idle;
        self.rx_buf.clear();
        self.peer_open = None;
        self.negotiated_hold_ms = 0;
    }
}

/// Drive two FSMs against each other over lossless in-memory pipes until
/// quiescent. Returns all actions each side emitted (Send actions are
/// consumed internally to feed the other side). Useful for tests and for
/// the simulator's session bring-up.
pub fn run_pair(a: &mut Fsm, b: &mut Fsm) -> (Vec<Action>, Vec<Action>) {
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    let mut pending_a = a.handle(Event::ManualStart);
    pending_a.extend(a.handle(Event::TransportUp));
    let mut pending_b = b.handle(Event::ManualStart);
    pending_b.extend(b.handle(Event::TransportUp));

    // exchange until both queues drain
    let mut guard = 0;
    while !(pending_a.is_empty() && pending_b.is_empty()) {
        guard += 1;
        assert!(guard < 1000, "fsm pair did not quiesce");
        let mut next_a = Vec::new();
        let mut next_b = Vec::new();
        for act in pending_a.drain(..) {
            if let Action::Send(bytes) = act {
                next_b.extend(b.handle(Event::BytesReceived(BytesMut::from(&bytes[..]))));
            } else {
                out_a.push(act);
            }
        }
        for act in pending_b.drain(..) {
            if let Action::Send(bytes) = act {
                next_a.extend(a.handle(Event::BytesReceived(BytesMut::from(&bytes[..]))));
            } else {
                out_b.push(act);
            }
        }
        pending_a = next_a;
        pending_b = next_b;
    }
    (out_a, out_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Fsm, Fsm) {
        let a = Fsm::new(Config::new(Asn(6695), "192.0.2.1".parse().unwrap()));
        let b = Fsm::new(Config::new(Asn(64496), "192.0.2.2".parse().unwrap()));
        (a, b)
    }

    #[test]
    fn session_establishes() {
        let (mut a, mut b) = pair();
        let (acts_a, acts_b) = run_pair(&mut a, &mut b);
        assert_eq!(a.state(), State::Established);
        assert_eq!(b.state(), State::Established);
        assert!(acts_a
            .iter()
            .any(|x| matches!(x, Action::SessionUp(o) if o.effective_asn() == Asn(64496))));
        assert!(acts_b
            .iter()
            .any(|x| matches!(x, Action::SessionUp(o) if o.effective_asn() == Asn(6695))));
    }

    #[test]
    fn expected_peer_mismatch_tears_down() {
        let mut a = Fsm::new(Config {
            expected_peer: Some(Asn(7)),
            ..Config::new(Asn(6695), "192.0.2.1".parse().unwrap())
        });
        let mut b = Fsm::new(Config::new(Asn(64496), "192.0.2.2".parse().unwrap()));
        let (_, _) = run_pair(&mut a, &mut b);
        assert_eq!(a.state(), State::Idle);
        assert_eq!(b.state(), State::Idle);
    }

    #[test]
    fn update_delivery() {
        let (mut a, mut b) = pair();
        run_pair(&mut a, &mut b);
        let update = UpdateMessage {
            nlri: vec![],
            attributes: vec![],
            withdrawn: vec!["203.0.113.0/24".parse().unwrap()],
        };
        let act = a.send_update(update.clone()).unwrap();
        let Action::Send(bytes) = act else { panic!() };
        let acts = b.handle(Event::BytesReceived(BytesMut::from(&bytes[..])));
        assert_eq!(acts, vec![Action::DeliverUpdate(update)]);
    }

    #[test]
    fn hold_timer_expiry() {
        let (mut a, mut b) = pair();
        run_pair(&mut a, &mut b);
        // negotiated hold = 90s; jump past it with no traffic
        let acts = a.handle(Event::Tick { now_ms: 91_000 });
        assert!(acts
            .iter()
            .any(|x| matches!(x, Action::SessionDown(DownReason::HoldTimerExpired))));
        assert_eq!(a.state(), State::Idle);
        // the notification reaches b and takes it down too
        let Some(Action::Send(bytes)) = acts.first() else {
            panic!("expected notification send")
        };
        let acts_b = b.handle(Event::BytesReceived(BytesMut::from(&bytes[..])));
        assert!(acts_b
            .iter()
            .any(|x| matches!(x, Action::SessionDown(DownReason::RemoteNotification(_)))));
    }

    #[test]
    fn keepalives_refresh_hold() {
        let (mut a, mut b) = pair();
        run_pair(&mut a, &mut b);
        // at 40s a sends a keepalive (1/3 of 90s elapsed)
        let acts = a.handle(Event::Tick { now_ms: 40_000 });
        assert_eq!(acts.len(), 1);
        let Action::Send(bytes) = &acts[0] else {
            panic!()
        };
        b.handle(Event::Tick { now_ms: 40_000 });
        let acts_b = b.handle(Event::BytesReceived(BytesMut::from(&bytes[..])));
        assert!(acts_b.is_empty());
        // b's hold timer now measured from 40s: at 100s it is still alive
        let acts_b = b.handle(Event::Tick { now_ms: 100_000 });
        assert!(!acts_b.iter().any(|x| matches!(x, Action::SessionDown(_))));
    }

    #[test]
    fn route_refresh_delivered_when_established() {
        let (mut a, mut b) = pair();
        run_pair(&mut a, &mut b);
        let Action::Send(bytes) = a.request_refresh(Afi::Ipv6).unwrap() else {
            panic!()
        };
        let acts = b.handle(Event::BytesReceived(BytesMut::from(&bytes[..])));
        assert_eq!(acts, vec![Action::RefreshRequested(Afi::Ipv6)]);
    }

    #[test]
    fn route_refresh_before_established_is_fsm_error() {
        let mut a = Fsm::new(Config::new(Asn(6695), "192.0.2.1".parse().unwrap()));
        a.handle(Event::ManualStart);
        a.handle(Event::TransportUp);
        let wire = Message::RouteRefresh(Afi::Ipv4).encode().unwrap();
        let acts = a.handle(Event::BytesReceived(BytesMut::from(&wire[..])));
        assert!(acts.iter().any(|x| matches!(
            x,
            Action::SessionDown(DownReason::LocalNotification(
                NotificationCode::FiniteStateMachine
            ))
        )));
    }

    #[test]
    fn transport_down_resets() {
        let (mut a, mut b) = pair();
        run_pair(&mut a, &mut b);
        let acts = a.handle(Event::TransportDown);
        assert_eq!(acts, vec![Action::SessionDown(DownReason::TransportDown)]);
        assert_eq!(a.state(), State::Idle);
        // restart works
        a.handle(Event::ManualStart);
        assert_eq!(a.state(), State::Connect);
    }

    #[test]
    fn manual_stop_sends_cease() {
        let (mut a, mut b) = pair();
        run_pair(&mut a, &mut b);
        let acts = a.handle(Event::ManualStop);
        assert!(matches!(acts[0], Action::Send(_)));
        assert!(acts.contains(&Action::SessionDown(DownReason::ManualStop)));
        assert!(acts.contains(&Action::CloseTransport));
        assert_eq!(a.state(), State::Idle);
    }

    #[test]
    fn garbage_bytes_cause_notification() {
        let (mut a, mut b) = pair();
        run_pair(&mut a, &mut b);
        let garbage = BytesMut::from(&[0u8; 32][..]);
        let acts = a.handle(Event::BytesReceived(garbage));
        assert!(acts
            .iter()
            .any(|x| matches!(x, Action::SessionDown(DownReason::LocalNotification(_)))));
        assert_eq!(a.state(), State::Idle);
    }

    #[test]
    fn update_before_established_is_fsm_error() {
        let mut a = Fsm::new(Config::new(Asn(6695), "192.0.2.1".parse().unwrap()));
        a.handle(Event::ManualStart);
        a.handle(Event::TransportUp);
        assert_eq!(a.state(), State::OpenSent);
        let update = Message::Update(UpdateMessage::default()).encode().unwrap();
        let acts = a.handle(Event::BytesReceived(BytesMut::from(&update[..])));
        assert!(acts.iter().any(|x| matches!(
            x,
            Action::SessionDown(DownReason::LocalNotification(
                NotificationCode::FiniteStateMachine
            ))
        )));
    }
}
