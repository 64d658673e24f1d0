//! BGP path attributes (RFC 4271 §4.3 and extensions).
//!
//! Supported attributes: ORIGIN, AS_PATH (4-octet ASNs per RFC 6793),
//! NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR,
//! COMMUNITIES (RFC 1997), MP_REACH_NLRI / MP_UNREACH_NLRI (RFC 4760),
//! EXTENDED_COMMUNITIES (RFC 4360) and LARGE_COMMUNITIES (RFC 8092).
//! Unrecognized attributes are carried opaquely, preserving flags.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use bgp_model::asn::Asn;
use bgp_model::aspath::{AsPath, Segment, SEGMENT_TYPE_SEQUENCE, SEGMENT_TYPE_SET};
use bgp_model::community::{ExtendedCommunity, LargeCommunity, StandardCommunity};
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Origin;

use crate::error::{ensure, WireError};
use crate::nlri;

/// Attribute flag: optional (vs well-known).
pub(crate) const FLAG_OPTIONAL: u8 = 0x80;
/// Attribute flag: transitive.
pub(crate) const FLAG_TRANSITIVE: u8 = 0x40;
/// Attribute flag: two-byte length field follows.
pub(crate) const FLAG_EXTENDED_LENGTH: u8 = 0x10;

/// Attribute type codes.
pub mod code {
    /// ORIGIN.
    pub(crate) const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub(crate) const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub(crate) const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub(crate) const MED: u8 = 4;
    /// LOCAL_PREF.
    pub(crate) const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE.
    pub(crate) const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR.
    pub(crate) const AGGREGATOR: u8 = 7;
    /// COMMUNITIES (RFC 1997).
    pub(crate) const COMMUNITIES: u8 = 8;
    /// MP_REACH_NLRI (RFC 4760).
    pub(crate) const MP_REACH_NLRI: u8 = 14;
    /// MP_UNREACH_NLRI (RFC 4760).
    pub(crate) const MP_UNREACH_NLRI: u8 = 15;
    /// EXTENDED_COMMUNITIES (RFC 4360).
    pub(crate) const EXTENDED_COMMUNITIES: u8 = 16;
    /// LARGE_COMMUNITIES (RFC 8092).
    pub(crate) const LARGE_COMMUNITIES: u8 = 32;
}

/// MP_REACH_NLRI payload (RFC 4760 §3). SAFI is always 1 (unicast) here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpReach {
    /// Address family of the carried NLRI.
    pub afi: Afi,
    /// Next hop for these NLRI.
    pub next_hop: IpAddr,
    /// Announced prefixes.
    pub nlri: Vec<Prefix>,
}

/// MP_UNREACH_NLRI payload (RFC 4760 §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpUnreach {
    /// Address family of the withdrawn NLRI.
    pub afi: Afi,
    /// Withdrawn prefixes.
    pub withdrawn: Vec<Prefix>,
}

/// One decoded path attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathAttribute {
    /// ORIGIN.
    Origin(Origin),
    /// AS_PATH with 4-octet ASNs.
    AsPath(AsPath),
    /// NEXT_HOP (IPv4 only; IPv6 rides in MP_REACH_NLRI).
    NextHop(Ipv4Addr),
    /// MULTI_EXIT_DISC.
    Med(u32),
    /// LOCAL_PREF.
    LocalPref(u32),
    /// ATOMIC_AGGREGATE.
    AtomicAggregate,
    /// AGGREGATOR (4-octet ASN form).
    Aggregator {
        /// Aggregating AS.
        asn: Asn,
        /// Aggregating router id.
        router_id: Ipv4Addr,
    },
    /// COMMUNITIES.
    Communities(Vec<StandardCommunity>),
    /// EXTENDED_COMMUNITIES.
    ExtendedCommunities(Vec<ExtendedCommunity>),
    /// LARGE_COMMUNITIES.
    LargeCommunities(Vec<LargeCommunity>),
    /// MP_REACH_NLRI.
    MpReach(MpReach),
    /// MP_UNREACH_NLRI.
    MpUnreach(MpUnreach),
    /// Anything we do not interpret, kept verbatim.
    Unknown {
        /// Original flag byte.
        flags: u8,
        /// Attribute type code.
        code: u8,
        /// Raw value bytes.
        value: Bytes,
    },
}

impl PathAttribute {
    /// The attribute type code this variant encodes to.
    pub(crate) fn type_code(&self) -> u8 {
        match self {
            PathAttribute::Origin(_) => code::ORIGIN,
            PathAttribute::AsPath(_) => code::AS_PATH,
            PathAttribute::NextHop(_) => code::NEXT_HOP,
            PathAttribute::Med(_) => code::MED,
            PathAttribute::LocalPref(_) => code::LOCAL_PREF,
            PathAttribute::AtomicAggregate => code::ATOMIC_AGGREGATE,
            PathAttribute::Aggregator { .. } => code::AGGREGATOR,
            PathAttribute::Communities(_) => code::COMMUNITIES,
            PathAttribute::ExtendedCommunities(_) => code::EXTENDED_COMMUNITIES,
            PathAttribute::LargeCommunities(_) => code::LARGE_COMMUNITIES,
            PathAttribute::MpReach(_) => code::MP_REACH_NLRI,
            PathAttribute::MpUnreach(_) => code::MP_UNREACH_NLRI,
            PathAttribute::Unknown { code, .. } => *code,
        }
    }

    fn default_flags(&self) -> u8 {
        match self {
            PathAttribute::Unknown { flags, .. } => *flags & !FLAG_EXTENDED_LENGTH,
            known => known_flags(known.type_code()),
        }
    }

    /// Encode this attribute (flags, type, length, value).
    pub(crate) fn encode(&self, out: &mut impl BufMut) {
        let mut value = BytesMut::new();
        self.encode_value(&mut value);
        let mut flags = self.default_flags();
        if value.len() > 255 {
            flags |= FLAG_EXTENDED_LENGTH;
        }
        out.put_u8(flags);
        out.put_u8(self.type_code());
        if flags & FLAG_EXTENDED_LENGTH != 0 {
            out.put_u16(value.len() as u16);
        } else {
            out.put_u8(value.len() as u8);
        }
        out.put_slice(&value);
    }

    fn encode_value(&self, out: &mut impl BufMut) {
        match self {
            PathAttribute::Origin(o) => out.put_u8(o.code()),
            PathAttribute::AsPath(path) => put_as_path(path, out),
            PathAttribute::NextHop(nh) => out.put_slice(&nh.octets()),
            PathAttribute::Med(v) | PathAttribute::LocalPref(v) => out.put_u32(*v),
            PathAttribute::AtomicAggregate => {}
            PathAttribute::Aggregator { asn, router_id } => {
                out.put_u32(asn.value());
                out.put_slice(&router_id.octets());
            }
            PathAttribute::Communities(cs) => put_standard(cs, out),
            PathAttribute::ExtendedCommunities(cs) => put_extended(cs, out),
            PathAttribute::LargeCommunities(cs) => put_large(cs, out),
            PathAttribute::MpReach(mp) => put_mp_reach(mp.afi, mp.next_hop, &mp.nlri, out),
            PathAttribute::MpUnreach(mp) => {
                out.put_u16(mp.afi.code());
                out.put_u8(1); // SAFI unicast
                nlri::encode_prefixes(&mp.withdrawn, out);
            }
            PathAttribute::Unknown { value, .. } => out.put_slice(value),
        }
    }

    /// Decode one attribute from the front of `buf`.
    pub(crate) fn decode(buf: &mut Bytes) -> Result<PathAttribute, WireError> {
        ensure(buf, 2, "attribute flags/type")?;
        let flags = buf.get_u8();
        let typ = buf.get_u8();
        let len = if flags & FLAG_EXTENDED_LENGTH != 0 {
            ensure(buf, 2, "attribute extended length")?;
            buf.get_u16() as usize
        } else {
            ensure(buf, 1, "attribute length")?;
            buf.get_u8() as usize
        };
        ensure(buf, len, "attribute value")?;
        let mut value = buf.split_to(len);
        Self::decode_value(flags, typ, &mut value)
    }

    fn decode_value(flags: u8, typ: u8, value: &mut Bytes) -> Result<PathAttribute, WireError> {
        let bad = |reason| WireError::BadAttribute { code: typ, reason };
        match typ {
            code::ORIGIN => {
                if value.len() != 1 {
                    return Err(bad("ORIGIN must be 1 byte"));
                }
                Origin::from_code(value.get_u8())
                    .map(PathAttribute::Origin)
                    .ok_or(bad("unknown ORIGIN code"))
            }
            code::AS_PATH => {
                let mut segments = Vec::new();
                while value.has_remaining() {
                    if value.remaining() < 2 {
                        return Err(bad("truncated segment header"));
                    }
                    let seg_type = value.get_u8();
                    let count = value.get_u8() as usize;
                    if value.remaining() < count * 4 {
                        return Err(bad("truncated segment ASNs"));
                    }
                    let asns: Vec<Asn> = (0..count).map(|_| Asn(value.get_u32())).collect();
                    match seg_type {
                        SEGMENT_TYPE_SET => segments.push(Segment::Set(asns)),
                        SEGMENT_TYPE_SEQUENCE => {
                            // merge consecutive sequences (from the 255 chunking)
                            if let Some(Segment::Sequence(prev)) = segments.last_mut() {
                                prev.extend(asns);
                            } else {
                                segments.push(Segment::Sequence(asns));
                            }
                        }
                        _ => return Err(bad("unknown segment type")),
                    }
                }
                Ok(PathAttribute::AsPath(AsPath::from_segments(segments)))
            }
            code::NEXT_HOP => {
                if value.len() != 4 {
                    return Err(bad("NEXT_HOP must be 4 bytes"));
                }
                let mut oct = [0u8; 4];
                value.copy_to_slice(&mut oct);
                Ok(PathAttribute::NextHop(Ipv4Addr::from(oct)))
            }
            code::MED => {
                if value.len() != 4 {
                    return Err(bad("MED must be 4 bytes"));
                }
                Ok(PathAttribute::Med(value.get_u32()))
            }
            code::LOCAL_PREF => {
                if value.len() != 4 {
                    return Err(bad("LOCAL_PREF must be 4 bytes"));
                }
                Ok(PathAttribute::LocalPref(value.get_u32()))
            }
            code::ATOMIC_AGGREGATE => {
                if !value.is_empty() {
                    return Err(bad("ATOMIC_AGGREGATE must be empty"));
                }
                Ok(PathAttribute::AtomicAggregate)
            }
            code::AGGREGATOR => {
                if value.len() != 8 {
                    return Err(bad("AGGREGATOR must be 8 bytes (4-octet AS)"));
                }
                let asn = Asn(value.get_u32());
                let mut oct = [0u8; 4];
                value.copy_to_slice(&mut oct);
                Ok(PathAttribute::Aggregator {
                    asn,
                    router_id: Ipv4Addr::from(oct),
                })
            }
            code::COMMUNITIES => {
                if !value.len().is_multiple_of(4) {
                    return Err(bad("COMMUNITIES length not multiple of 4"));
                }
                let mut cs = Vec::with_capacity(value.len() / 4);
                while value.has_remaining() {
                    cs.push(StandardCommunity(value.get_u32()));
                }
                Ok(PathAttribute::Communities(cs))
            }
            code::EXTENDED_COMMUNITIES => {
                if !value.len().is_multiple_of(8) {
                    return Err(bad("EXTENDED_COMMUNITIES length not multiple of 8"));
                }
                let mut cs = Vec::with_capacity(value.len() / 8);
                while value.has_remaining() {
                    let mut b = [0u8; 8];
                    value.copy_to_slice(&mut b);
                    cs.push(ExtendedCommunity(b));
                }
                Ok(PathAttribute::ExtendedCommunities(cs))
            }
            code::LARGE_COMMUNITIES => {
                if !value.len().is_multiple_of(12) {
                    return Err(bad("LARGE_COMMUNITIES length not multiple of 12"));
                }
                let mut cs = Vec::with_capacity(value.len() / 12);
                while value.has_remaining() {
                    cs.push(LargeCommunity::new(
                        value.get_u32(),
                        value.get_u32(),
                        value.get_u32(),
                    ));
                }
                Ok(PathAttribute::LargeCommunities(cs))
            }
            code::MP_REACH_NLRI => {
                if value.remaining() < 5 {
                    return Err(bad("MP_REACH too short"));
                }
                let afi = Afi::from_code(value.get_u16()).ok_or(bad("unknown AFI"))?;
                let safi = value.get_u8();
                if safi != 1 {
                    return Err(bad("only SAFI 1 (unicast) supported"));
                }
                let nh_len = value.get_u8() as usize;
                if value.remaining() < nh_len + 1 {
                    return Err(bad("MP_REACH next hop truncated"));
                }
                let next_hop = match nh_len {
                    4 => {
                        let mut o = [0u8; 4];
                        value.copy_to_slice(&mut o);
                        IpAddr::V4(Ipv4Addr::from(o))
                    }
                    16 | 32 => {
                        // 32 = global + link-local; keep the global one
                        let mut o = [0u8; 16];
                        value.copy_to_slice(&mut o);
                        if nh_len == 32 {
                            value.advance(16);
                        }
                        IpAddr::V6(Ipv6Addr::from(o))
                    }
                    _ => return Err(bad("unsupported next hop length")),
                };
                value.advance(1); // reserved
                let nlri = nlri::decode_prefixes(value, afi)?;
                Ok(PathAttribute::MpReach(MpReach {
                    afi,
                    next_hop,
                    nlri,
                }))
            }
            code::MP_UNREACH_NLRI => {
                if value.remaining() < 3 {
                    return Err(bad("MP_UNREACH too short"));
                }
                let afi = Afi::from_code(value.get_u16()).ok_or(bad("unknown AFI"))?;
                let safi = value.get_u8();
                if safi != 1 {
                    return Err(bad("only SAFI 1 (unicast) supported"));
                }
                let withdrawn = nlri::decode_prefixes(value, afi)?;
                Ok(PathAttribute::MpUnreach(MpUnreach { afi, withdrawn }))
            }
            _ => Ok(PathAttribute::Unknown {
                flags,
                code: typ,
                value: value.copy_to_bytes(value.remaining()),
            }),
        }
    }
}

/// The flags a recognized attribute type is sent with.
fn known_flags(code: u8) -> u8 {
    match code {
        code::ORIGIN
        | code::AS_PATH
        | code::NEXT_HOP
        | code::LOCAL_PREF
        | code::ATOMIC_AGGREGATE => FLAG_TRANSITIVE,
        code::MED | code::MP_REACH_NLRI | code::MP_UNREACH_NLRI => FLAG_OPTIONAL,
        _ => FLAG_OPTIONAL | FLAG_TRANSITIVE,
    }
}

/// Append one recognized attribute whose value `write` appends — the bytes
/// [`PathAttribute::encode`] produces, for an encoder that holds the value
/// already and wants no `PathAttribute` and no scratch buffer. The length
/// is patched in afterwards; a value past 255 bytes moves up by one to make
/// room for the extended length.
pub(crate) fn put_attribute(out: &mut BytesMut, code: u8, write: impl FnOnce(&mut BytesMut)) {
    let at = out.len();
    out.put_slice(&[known_flags(code), code, 0]);
    write(out);
    let len = out.len() - at - 3;
    if let Ok(short) = u8::try_from(len) {
        out[at + 2] = short;
    } else {
        out.put_u8(0);
        out.copy_within(at + 3..at + 3 + len, at + 4);
        out[at] |= FLAG_EXTENDED_LENGTH;
        out[at + 2..at + 4].copy_from_slice(&(len as u16).to_be_bytes());
    }
}

pub(crate) fn put_as_path(path: &AsPath, out: &mut impl BufMut) {
    for seg in path.segments() {
        let typ = match seg {
            Segment::Set(_) => SEGMENT_TYPE_SET,
            Segment::Sequence(_) => SEGMENT_TYPE_SEQUENCE,
        };
        // RFC 4271 caps a segment at 255 ASNs; split if longer.
        for chunk in seg.asns().chunks(255) {
            out.put_u8(typ);
            out.put_u8(chunk.len() as u8);
            for asn in chunk {
                out.put_u32(asn.value());
            }
        }
    }
}

pub(crate) fn put_standard(cs: &[StandardCommunity], out: &mut impl BufMut) {
    for c in cs {
        out.put_u32(c.0);
    }
}

pub(crate) fn put_extended(cs: &[ExtendedCommunity], out: &mut impl BufMut) {
    for c in cs {
        out.put_slice(&c.bytes());
    }
}

pub(crate) fn put_large(cs: &[LargeCommunity], out: &mut impl BufMut) {
    for c in cs {
        out.put_u32(c.global);
        out.put_u32(c.data1);
        out.put_u32(c.data2);
    }
}

pub(crate) fn put_mp_reach(afi: Afi, next_hop: IpAddr, nlri: &[Prefix], out: &mut impl BufMut) {
    out.put_u16(afi.code());
    out.put_u8(1); // SAFI unicast
    match next_hop {
        IpAddr::V4(a) => {
            out.put_u8(4);
            out.put_slice(&a.octets());
        }
        IpAddr::V6(a) => {
            out.put_u8(16);
            out.put_slice(&a.octets());
        }
    }
    out.put_u8(0); // reserved
    nlri::encode_prefixes(nlri, out);
}

/// Decode a full attribute block of `len` bytes from `buf`.
pub(crate) fn decode_attributes(
    buf: &mut Bytes,
    len: usize,
) -> Result<Vec<PathAttribute>, WireError> {
    ensure(buf, len, "path attribute block")?;
    let mut block = buf.split_to(len);
    let mut attrs = Vec::new();
    while block.has_remaining() {
        attrs.push(PathAttribute::decode(&mut block)?);
    }
    Ok(attrs)
}

/// Encode a full attribute block, returning its bytes.
pub(crate) fn encode_attributes(attrs: &[PathAttribute]) -> BytesMut {
    let mut out = BytesMut::new();
    for a in attrs {
        a.encode(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(attr: PathAttribute) {
        let mut buf = BytesMut::new();
        attr.encode(&mut buf);
        let mut rd = buf.freeze();
        let back = PathAttribute::decode(&mut rd).unwrap();
        assert_eq!(back, attr);
        assert!(!rd.has_remaining());
    }

    #[test]
    fn scalar_attrs_roundtrip() {
        roundtrip(PathAttribute::Origin(Origin::Igp));
        roundtrip(PathAttribute::Origin(Origin::Incomplete));
        roundtrip(PathAttribute::NextHop("198.32.0.7".parse().unwrap()));
        roundtrip(PathAttribute::Med(4_000_000_000));
        roundtrip(PathAttribute::LocalPref(100));
        roundtrip(PathAttribute::AtomicAggregate);
        roundtrip(PathAttribute::Aggregator {
            asn: Asn(263075),
            router_id: "10.0.0.1".parse().unwrap(),
        });
    }

    #[test]
    fn aspath_roundtrip_with_set() {
        roundtrip(PathAttribute::AsPath(AsPath::from_segments(vec![
            Segment::Sequence(vec![Asn(64496), Asn(3356), Asn(3356)]),
            Segment::Set(vec![Asn(15169), Asn(8075)]),
        ])));
    }

    #[test]
    fn long_aspath_chunks_and_merges() {
        // 600 ASNs force three wire segments that must merge back into one
        let asns: Vec<Asn> = (1..=600).map(Asn).collect();
        roundtrip(PathAttribute::AsPath(AsPath::from_sequence(asns)));
    }

    #[test]
    fn communities_roundtrip() {
        roundtrip(PathAttribute::Communities(vec![
            StandardCommunity::from_parts(0, 6939),
            StandardCommunity::from_parts(6695, 65281),
            bgp_model::community::well_known::BLACKHOLE,
        ]));
        roundtrip(PathAttribute::ExtendedCommunities(vec![
            ExtendedCommunity::two_octet_as(0x02, 9002, 15169),
        ]));
        roundtrip(PathAttribute::LargeCommunities(vec![
            LargeCommunity::new(26162, 0, 6939),
            LargeCommunity::new(26162, 3, 1),
        ]));
    }

    #[test]
    fn extended_length_flag_for_big_values() {
        // >255 bytes of communities triggers the extended-length encoding
        let cs: Vec<StandardCommunity> = (0..100)
            .map(|i| StandardCommunity::from_parts(6695, i))
            .collect();
        let attr = PathAttribute::Communities(cs);
        let mut buf = BytesMut::new();
        attr.encode(&mut buf);
        assert!(buf[0] & FLAG_EXTENDED_LENGTH != 0);
        let mut rd = buf.freeze();
        assert_eq!(PathAttribute::decode(&mut rd).unwrap(), attr);
    }

    #[test]
    fn mp_reach_v6_roundtrip() {
        roundtrip(PathAttribute::MpReach(MpReach {
            afi: Afi::Ipv6,
            next_hop: "2001:7f8::6939:1".parse().unwrap(),
            nlri: vec![
                "2001:db8::/32".parse().unwrap(),
                "2001:db8:cafe::/48".parse().unwrap(),
            ],
        }));
    }

    #[test]
    fn mp_unreach_roundtrip() {
        roundtrip(PathAttribute::MpUnreach(MpUnreach {
            afi: Afi::Ipv6,
            withdrawn: vec!["2001:db8::/32".parse().unwrap()],
        }));
    }

    #[test]
    fn mp_reach_dual_next_hop_takes_global() {
        // Hand-encode nh_len = 32 (global + link-local)
        let mut value = BytesMut::new();
        value.put_u16(2);
        value.put_u8(1);
        value.put_u8(32);
        let global: Ipv6Addr = "2001:7f8::1".parse().unwrap();
        let ll: Ipv6Addr = "fe80::1".parse().unwrap();
        value.put_slice(&global.octets());
        value.put_slice(&ll.octets());
        value.put_u8(0);
        let mut buf = BytesMut::new();
        buf.put_u8(FLAG_OPTIONAL);
        buf.put_u8(code::MP_REACH_NLRI);
        buf.put_u8(value.len() as u8);
        buf.put_slice(&value);
        let mut rd = buf.freeze();
        match PathAttribute::decode(&mut rd).unwrap() {
            PathAttribute::MpReach(mp) => assert_eq!(mp.next_hop, IpAddr::V6(global)),
            a => panic!("wrong attr {a:?}"),
        }
    }

    #[test]
    fn unknown_attr_preserved() {
        roundtrip(PathAttribute::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE | 0x20, // partial
            code: 99,
            value: Bytes::from_static(&[1, 2, 3, 4]),
        });
    }

    #[test]
    fn malformed_attrs_rejected() {
        // ORIGIN with 2 bytes
        let raw = [FLAG_TRANSITIVE, code::ORIGIN, 2, 0, 0];
        let mut rd = Bytes::copy_from_slice(&raw);
        assert!(PathAttribute::decode(&mut rd).is_err());
        // COMMUNITIES with length 3
        let raw = [FLAG_OPTIONAL, code::COMMUNITIES, 3, 0, 0, 0];
        let mut rd = Bytes::copy_from_slice(&raw);
        assert!(PathAttribute::decode(&mut rd).is_err());
        // truncated value
        let raw = [FLAG_OPTIONAL, code::MED, 4, 0];
        let mut rd = Bytes::copy_from_slice(&raw);
        assert!(matches!(
            PathAttribute::decode(&mut rd),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn attribute_block_roundtrip() {
        let attrs = vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence([Asn(64496), Asn(15169)])),
            PathAttribute::NextHop("198.32.0.7".parse().unwrap()),
            PathAttribute::Communities(vec![StandardCommunity::from_parts(0, 6939)]),
        ];
        let block = encode_attributes(&attrs);
        let len = block.len();
        let mut rd = block.freeze();
        let back = decode_attributes(&mut rd, len).unwrap();
        assert_eq!(back, attrs);
    }
}
