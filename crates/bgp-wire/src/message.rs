//! BGP-4 messages (RFC 4271 §4): header, OPEN, UPDATE, NOTIFICATION,
//! KEEPALIVE, with the capabilities IXP route servers negotiate
//! (4-octet ASNs — RFC 6793; multiprotocol IPv6 — RFC 4760).

use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use bgp_model::asn::{Asn, AS_TRANS};
use bgp_model::prefix::{Afi, Prefix};

use crate::attrs::{self, PathAttribute};
use crate::error::{ensure, WireError};
use crate::nlri;

/// Fixed header size (16-byte marker + 2 length + 1 type).
pub(crate) const HEADER_LEN: usize = 19;
/// Maximum BGP message size (RFC 4271; we do not implement RFC 8654).
pub(crate) const MAX_MESSAGE_LEN: usize = 4096;

/// Message type byte values.
pub(crate) mod msg_type {
    /// OPEN.
    pub(crate) const OPEN: u8 = 1;
    /// UPDATE.
    pub(crate) const UPDATE: u8 = 2;
    /// NOTIFICATION.
    pub(crate) const NOTIFICATION: u8 = 3;
    /// KEEPALIVE.
    pub(crate) const KEEPALIVE: u8 = 4;
    /// ROUTE-REFRESH (RFC 2918).
    pub(crate) const ROUTE_REFRESH: u8 = 5;
}

/// A capability advertised in OPEN (RFC 5492 optional parameter 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// RFC 4760 multiprotocol: AFI/SAFI pair (SAFI always 1 here).
    Multiprotocol(Afi),
    /// RFC 6793 four-octet AS number.
    FourOctetAs(Asn),
    /// RFC 7911 additional paths would go here; kept opaque.
    Unknown {
        /// Capability code.
        code: u8,
        /// Raw capability value.
        value: Bytes,
    },
}

/// OPEN message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMessage {
    /// Sender ASN. Encoded as AS_TRANS in the 2-byte field when >65535.
    pub asn: Asn,
    /// Proposed hold time in seconds (0 or ≥3 per RFC 4271).
    pub hold_time: u16,
    /// BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Capabilities.
    pub capabilities: Vec<Capability>,
}

impl OpenMessage {
    /// A typical route-server OPEN: 4-octet AS + multiprotocol for both
    /// families.
    pub(crate) fn route_server(asn: Asn, bgp_id: Ipv4Addr, hold_time: u16) -> Self {
        OpenMessage {
            asn,
            hold_time,
            bgp_id,
            capabilities: vec![
                Capability::FourOctetAs(asn),
                Capability::Multiprotocol(Afi::Ipv4),
                Capability::Multiprotocol(Afi::Ipv6),
            ],
        }
    }

    /// The effective ASN after capability processing: prefer the 4-octet
    /// capability value, fall back to the 2-byte field.
    pub fn effective_asn(&self) -> Asn {
        self.capabilities
            .iter()
            .find_map(|c| match c {
                Capability::FourOctetAs(a) => Some(*a),
                _ => None,
            })
            .unwrap_or(self.asn)
    }
}

/// UPDATE message: withdrawn IPv4 routes, path attributes, IPv4 NLRI.
/// IPv6 reachability rides inside MP_REACH/MP_UNREACH attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMessage {
    /// Withdrawn IPv4 prefixes.
    pub withdrawn: Vec<Prefix>,
    /// Path attributes.
    pub attributes: Vec<PathAttribute>,
    /// Announced IPv4 prefixes.
    pub nlri: Vec<Prefix>,
}

/// NOTIFICATION error codes (RFC 4271 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotificationCode {
    /// Message header error.
    MessageHeader,
    /// OPEN message error.
    OpenMessage,
    /// UPDATE message error.
    UpdateMessage,
    /// Hold timer expired.
    HoldTimerExpired,
    /// FSM error.
    FiniteStateMachine,
    /// Administrative cease (RFC 4486 subcodes).
    Cease,
}

impl NotificationCode {
    /// Wire code.
    pub(crate) const fn code(self) -> u8 {
        match self {
            NotificationCode::MessageHeader => 1,
            NotificationCode::OpenMessage => 2,
            NotificationCode::UpdateMessage => 3,
            NotificationCode::HoldTimerExpired => 4,
            NotificationCode::FiniteStateMachine => 5,
            NotificationCode::Cease => 6,
        }
    }

    /// From wire code.
    pub(crate) const fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(NotificationCode::MessageHeader),
            2 => Some(NotificationCode::OpenMessage),
            3 => Some(NotificationCode::UpdateMessage),
            4 => Some(NotificationCode::HoldTimerExpired),
            5 => Some(NotificationCode::FiniteStateMachine),
            6 => Some(NotificationCode::Cease),
            _ => None,
        }
    }
}

/// NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMessage {
    /// Major error code.
    pub code: NotificationCode,
    /// Subcode (error-specific).
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Bytes,
}

/// Any BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// OPEN.
    Open(OpenMessage),
    /// UPDATE.
    Update(UpdateMessage),
    /// NOTIFICATION.
    Notification(NotificationMessage),
    /// KEEPALIVE.
    Keepalive,
    /// ROUTE-REFRESH for one address family (RFC 2918; SAFI fixed to
    /// unicast). The receiver re-advertises its Adj-RIB-Out.
    RouteRefresh(Afi),
}

impl Message {
    /// Encode to a complete wire message with header.
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let mut body = BytesMut::new();
        let typ = match self {
            Message::Open(open) => {
                body.put_u8(4); // version
                let as2 = if open.asn.is_16bit() {
                    open.asn.value() as u16
                } else {
                    AS_TRANS.value() as u16
                };
                body.put_u16(as2);
                body.put_u16(open.hold_time);
                body.put_slice(&open.bgp_id.octets());
                // optional params: one capabilities parameter
                let mut caps = BytesMut::new();
                for cap in &open.capabilities {
                    match cap {
                        Capability::Multiprotocol(afi) => {
                            caps.put_u8(1);
                            caps.put_u8(4);
                            caps.put_u16(afi.code());
                            caps.put_u8(0); // reserved
                            caps.put_u8(1); // SAFI unicast
                        }
                        Capability::FourOctetAs(asn) => {
                            caps.put_u8(65);
                            caps.put_u8(4);
                            caps.put_u32(asn.value());
                        }
                        Capability::Unknown { code, value } => {
                            if value.len() > 255 {
                                return Err(WireError::ValueTooLarge("capability"));
                            }
                            caps.put_u8(*code);
                            caps.put_u8(value.len() as u8);
                            caps.put_slice(value);
                        }
                    }
                }
                if caps.len() > 253 {
                    return Err(WireError::ValueTooLarge("capabilities parameter"));
                }
                if caps.is_empty() {
                    body.put_u8(0);
                } else {
                    body.put_u8(caps.len() as u8 + 2); // opt params length
                    body.put_u8(2); // param type: capabilities
                    body.put_u8(caps.len() as u8);
                    body.put_slice(&caps);
                }
                msg_type::OPEN
            }
            Message::Update(update) => {
                let mut wd = BytesMut::new();
                nlri::encode_prefixes(&update.withdrawn, &mut wd);
                if wd.len() > u16::MAX as usize {
                    return Err(WireError::ValueTooLarge("withdrawn routes"));
                }
                body.put_u16(wd.len() as u16);
                body.put_slice(&wd);
                let ab = attrs::encode_attributes(&update.attributes);
                if ab.len() > u16::MAX as usize {
                    return Err(WireError::ValueTooLarge("path attributes"));
                }
                body.put_u16(ab.len() as u16);
                body.put_slice(&ab);
                nlri::encode_prefixes(&update.nlri, &mut body);
                msg_type::UPDATE
            }
            Message::Notification(n) => {
                body.put_u8(n.code.code());
                body.put_u8(n.subcode);
                body.put_slice(&n.data);
                msg_type::NOTIFICATION
            }
            Message::Keepalive => msg_type::KEEPALIVE,
            Message::RouteRefresh(afi) => {
                body.put_u16(afi.code());
                body.put_u8(0); // reserved
                body.put_u8(1); // SAFI unicast
                msg_type::ROUTE_REFRESH
            }
        };
        let total = HEADER_LEN + body.len();
        if total > MAX_MESSAGE_LEN {
            return Err(WireError::ValueTooLarge("message exceeds 4096 bytes"));
        }
        let mut out = BytesMut::with_capacity(total);
        out.put_slice(&[0xFF; 16]);
        out.put_u16(total as u16);
        out.put_u8(typ);
        out.put_slice(&body);
        let frame = out.freeze();
        let m = crate::metrics::handles();
        m.msgs_encoded.inc();
        m.bytes_encoded.add(frame.len() as u64);
        Ok(frame)
    }

    /// The KEEPALIVE frame: a bare header (RFC 4271 §4.4). It has no
    /// body, so unlike [`Message::encode`] it cannot fail.
    pub(crate) fn keepalive_frame() -> Bytes {
        let mut frame = [0xFF; HEADER_LEN];
        frame[16..18].copy_from_slice(&(HEADER_LEN as u16).to_be_bytes());
        frame[18] = msg_type::KEEPALIVE;
        let m = crate::metrics::handles();
        m.msgs_encoded.inc();
        m.bytes_encoded.add(HEADER_LEN as u64);
        Bytes::from(&frame[..])
    }

    /// Decode one message from the front of `buf`, consuming exactly its
    /// bytes. Returns `None` (consuming nothing) if a full message is not
    /// yet available — suitable for use on a streaming receive buffer.
    pub fn decode(buf: &mut BytesMut) -> Result<Option<Message>, WireError> {
        let before = buf.len();
        let result = Self::decode_inner(buf);
        let m = crate::metrics::handles();
        match &result {
            Ok(Some(_)) => {
                m.msgs_decoded.inc();
                m.bytes_decoded.add((before - buf.len()) as u64);
            }
            Ok(None) => {}
            Err(_) => m.decode_errors.inc(),
        }
        result
    }

    fn decode_inner(buf: &mut BytesMut) -> Result<Option<Message>, WireError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if buf[..16].iter().any(|&b| b != 0xFF) {
            return Err(WireError::BadMarker);
        }
        let total = u16::from_be_bytes([buf[16], buf[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
            return Err(WireError::BadLength(total as u16));
        }
        if buf.len() < total {
            return Ok(None);
        }
        let frame = buf.split_to(total).freeze();
        let typ = frame[18];
        let mut body = frame.slice(HEADER_LEN..);
        let msg = match typ {
            msg_type::OPEN => Message::Open(Self::decode_open(&mut body)?),
            msg_type::UPDATE => Message::Update(Self::decode_update(&mut body)?),
            msg_type::NOTIFICATION => {
                ensure(&body, 2, "notification code/subcode")?;
                let code = body.get_u8();
                let code =
                    NotificationCode::from_code(code).ok_or(WireError::UnknownMessageType(code))?;
                let subcode = body.get_u8();
                let data = body.copy_to_bytes(body.remaining());
                Message::Notification(NotificationMessage {
                    code,
                    subcode,
                    data,
                })
            }
            msg_type::KEEPALIVE => {
                if body.has_remaining() {
                    return Err(WireError::BadLength(total as u16));
                }
                Message::Keepalive
            }
            msg_type::ROUTE_REFRESH => {
                ensure(&body, 4, "route refresh body")?;
                let afi = Afi::from_code(body.get_u16())
                    .ok_or(WireError::BadCapability("route refresh AFI"))?;
                body.advance(2); // reserved + SAFI
                Message::RouteRefresh(afi)
            }
            other => return Err(WireError::UnknownMessageType(other)),
        };
        Ok(Some(msg))
    }

    fn decode_open(body: &mut Bytes) -> Result<OpenMessage, WireError> {
        ensure(body, 10, "OPEN fixed part")?;
        let version = body.get_u8();
        if version != 4 {
            return Err(WireError::UnsupportedVersion(version));
        }
        let as2 = body.get_u16();
        let hold_time = body.get_u16();
        let mut id = [0u8; 4];
        body.copy_to_slice(&mut id);
        let opt_len = body.get_u8() as usize;
        ensure(body, opt_len, "OPEN optional parameters")?;
        let mut params = body.split_to(opt_len);
        let mut capabilities = Vec::new();
        while params.has_remaining() {
            ensure(&params, 2, "optional parameter header")?;
            let ptype = params.get_u8();
            let plen = params.get_u8() as usize;
            ensure(&params, plen, "optional parameter body")?;
            let mut pbody = params.split_to(plen);
            if ptype != 2 {
                continue; // non-capability parameters ignored
            }
            while pbody.has_remaining() {
                ensure(&pbody, 2, "capability header")?;
                let code = pbody.get_u8();
                let clen = pbody.get_u8() as usize;
                ensure(&pbody, clen, "capability body")?;
                let mut cval = pbody.split_to(clen);
                match code {
                    1 => {
                        if clen != 4 {
                            return Err(WireError::BadCapability("MP length"));
                        }
                        let afi = Afi::from_code(cval.get_u16());
                        cval.advance(2);
                        if let Some(afi) = afi {
                            capabilities.push(Capability::Multiprotocol(afi));
                        }
                    }
                    65 => {
                        if clen != 4 {
                            return Err(WireError::BadCapability("4-octet AS length"));
                        }
                        capabilities.push(Capability::FourOctetAs(Asn(cval.get_u32())));
                    }
                    _ => capabilities.push(Capability::Unknown {
                        code,
                        value: cval.copy_to_bytes(cval.remaining()),
                    }),
                }
            }
        }
        Ok(OpenMessage {
            asn: Asn(as2 as u32),
            hold_time,
            bgp_id: Ipv4Addr::from(id),
            capabilities,
        })
    }

    fn decode_update(body: &mut Bytes) -> Result<UpdateMessage, WireError> {
        ensure(body, 2, "withdrawn routes length")?;
        let wd_len = body.get_u16() as usize;
        ensure(body, wd_len, "withdrawn routes")?;
        let mut wd = body.split_to(wd_len);
        let withdrawn = nlri::decode_prefixes(&mut wd, Afi::Ipv4)?;
        ensure(body, 2, "path attributes length")?;
        let attr_len = body.get_u16() as usize;
        let attributes = attrs::decode_attributes(body, attr_len)?;
        let nlri = nlri::decode_prefixes(body, Afi::Ipv4)?;
        Ok(UpdateMessage {
            withdrawn,
            attributes,
            nlri,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::aspath::AsPath;
    use bgp_model::community::StandardCommunity;
    use bgp_model::route::Origin;

    fn roundtrip(msg: Message) -> Message {
        let wire = msg.encode().unwrap();
        let mut buf = BytesMut::from(&wire[..]);
        let back = Message::decode(&mut buf).unwrap().unwrap();
        assert!(buf.is_empty());
        back
    }

    #[test]
    fn keepalive_roundtrip() {
        assert_eq!(roundtrip(Message::Keepalive), Message::Keepalive);
        let wire = Message::Keepalive.encode().unwrap();
        assert_eq!(wire.len(), HEADER_LEN);
        assert_eq!(Message::keepalive_frame(), wire);
    }

    #[test]
    fn open_roundtrip_16bit_asn() {
        let open = OpenMessage::route_server(Asn(6695), "192.0.2.1".parse().unwrap(), 90);
        let back = roundtrip(Message::Open(open.clone()));
        match back {
            Message::Open(o) => {
                assert_eq!(o.effective_asn(), Asn(6695));
                assert_eq!(o.asn, Asn(6695));
                assert_eq!(o.hold_time, 90);
                assert_eq!(o.capabilities, open.capabilities);
            }
            m => panic!("wrong message {m:?}"),
        }
    }

    #[test]
    fn open_uses_as_trans_for_4byte_asn() {
        let open = OpenMessage::route_server(Asn(263075), "192.0.2.1".parse().unwrap(), 90);
        let back = roundtrip(Message::Open(open));
        match back {
            Message::Open(o) => {
                assert_eq!(o.asn, AS_TRANS); // 2-byte field
                assert_eq!(o.effective_asn(), Asn(263075)); // capability wins
            }
            m => panic!("wrong message {m:?}"),
        }
    }

    #[test]
    fn update_roundtrip_v4() {
        let update = UpdateMessage {
            withdrawn: vec!["198.51.100.0/24".parse().unwrap()],
            attributes: vec![
                PathAttribute::Origin(Origin::Igp),
                PathAttribute::AsPath(AsPath::from_sequence([Asn(64496), Asn(15169)])),
                PathAttribute::NextHop("198.32.0.7".parse().unwrap()),
                PathAttribute::Communities(vec![StandardCommunity::from_parts(0, 6939)]),
            ],
            nlri: vec![
                "203.0.113.0/24".parse().unwrap(),
                "203.0.112.0/23".parse().unwrap(),
            ],
        };
        assert_eq!(
            roundtrip(Message::Update(update.clone())),
            Message::Update(update)
        );
    }

    #[test]
    fn update_roundtrip_v6_mp_reach() {
        let update = UpdateMessage {
            withdrawn: vec![],
            attributes: vec![
                PathAttribute::Origin(Origin::Igp),
                PathAttribute::AsPath(AsPath::from_sequence([Asn(64496)])),
                PathAttribute::MpReach(attrs::MpReach {
                    afi: Afi::Ipv6,
                    next_hop: "2001:7f8::1".parse().unwrap(),
                    nlri: vec!["2001:db8::/32".parse().unwrap()],
                }),
            ],
            nlri: vec![],
        };
        assert_eq!(
            roundtrip(Message::Update(update.clone())),
            Message::Update(update)
        );
    }

    #[test]
    fn end_of_rib_markers() {
        // RFC 4724 §2: an empty UPDATE (IPv4) and an UPDATE carrying only
        // an empty MP_UNREACH_NLRI (IPv6) survive the codec unchanged
        let v4 = UpdateMessage::default();
        let v6 = UpdateMessage {
            attributes: vec![PathAttribute::MpUnreach(attrs::MpUnreach {
                afi: Afi::Ipv6,
                withdrawn: vec![],
            })],
            ..Default::default()
        };
        for eor in [v4, v6] {
            assert_eq!(
                roundtrip(Message::Update(eor.clone())),
                Message::Update(eor)
            );
        }
    }

    #[test]
    fn route_refresh_roundtrip() {
        for afi in [Afi::Ipv4, Afi::Ipv6] {
            assert_eq!(
                roundtrip(Message::RouteRefresh(afi)),
                Message::RouteRefresh(afi)
            );
        }
        let wire = Message::RouteRefresh(Afi::Ipv6).encode().unwrap();
        assert_eq!(wire.len(), HEADER_LEN + 4);
        // unknown AFI rejected
        let mut raw = BytesMut::from(&wire[..]);
        raw[HEADER_LEN] = 0;
        raw[HEADER_LEN + 1] = 77;
        assert!(Message::decode(&mut raw).is_err());
    }

    #[test]
    fn notification_roundtrip() {
        let n = NotificationMessage {
            code: NotificationCode::Cease,
            subcode: 2, // administrative shutdown
            data: Bytes::from_static(b"bye"),
        };
        assert_eq!(
            roundtrip(Message::Notification(n.clone())),
            Message::Notification(n)
        );
    }

    #[test]
    fn streaming_decode_partial_then_complete() {
        let wire = Message::Keepalive.encode().unwrap();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&wire[..10]);
        assert_eq!(Message::decode(&mut buf).unwrap(), None);
        assert_eq!(buf.len(), 10); // nothing consumed
        buf.extend_from_slice(&wire[10..]);
        assert_eq!(Message::decode(&mut buf).unwrap(), Some(Message::Keepalive));
        assert!(buf.is_empty());
    }

    #[test]
    fn streaming_decode_two_messages() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&Message::Keepalive.encode().unwrap());
        buf.extend_from_slice(&Message::Keepalive.encode().unwrap());
        assert!(Message::decode(&mut buf).unwrap().is_some());
        assert!(Message::decode(&mut buf).unwrap().is_some());
        assert_eq!(Message::decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn bad_marker_rejected() {
        let wire = Message::Keepalive.encode().unwrap();
        let mut raw = BytesMut::from(&wire[..]);
        raw[0] = 0;
        assert_eq!(Message::decode(&mut raw), Err(WireError::BadMarker));
    }

    #[test]
    fn bad_length_rejected() {
        let wire = Message::Keepalive.encode().unwrap();
        let mut raw = BytesMut::from(&wire[..]);
        raw[16] = 0xFF;
        raw[17] = 0xFF; // 65535 > 4096
        assert!(matches!(
            Message::decode(&mut raw),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let wire = Message::Keepalive.encode().unwrap();
        let mut raw = BytesMut::from(&wire[..]);
        raw[18] = 99;
        assert_eq!(
            Message::decode(&mut raw),
            Err(WireError::UnknownMessageType(99))
        );
    }

    #[test]
    fn oversized_update_rejected_at_encode() {
        // ~1000 prefixes of 4 bytes each exceeds 4096
        let nlri: Vec<Prefix> = (0..1500u32)
            .map(|i| {
                let a = 1 + (i >> 16) as u8;
                let b = (i >> 8) as u8;
                let c = i as u8;
                Prefix::v4(a, b, c, 0, 24).unwrap()
            })
            .collect();
        let update = UpdateMessage {
            nlri,
            ..Default::default()
        };
        assert_eq!(
            Message::Update(update).encode(),
            Err(WireError::ValueTooLarge("message exceeds 4096 bytes"))
        );
    }
}
