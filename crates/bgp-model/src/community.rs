//! BGP communities: standard (RFC 1997), extended (RFC 4360) and
//! large (RFC 8092).
//!
//! The paper's unit of measurement is the *community instance*: one
//! community value attached to one route. This module defines the three
//! community types, the well-known values (including the BLACKHOLE
//! community of RFC 7999), and a unifying [`Community`] enum.

use std::fmt;
use std::str::FromStr;

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};

use crate::asn::Asn;

/// An RFC 1997 standard community: a 32-bit value conventionally written
/// `high:low` where `high` is usually an ASN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StandardCommunity(pub u32);

/// Well-known communities (RFC 1997 + RFC 7999), in the 65535:* space.
pub mod well_known {
    use super::StandardCommunity;

    /// GRACEFUL_SHUTDOWN (RFC 8326), 65535:0.
    pub const GRACEFUL_SHUTDOWN: StandardCommunity = StandardCommunity(0xFFFF_0000);
    /// BLACKHOLE (RFC 7999), 65535:666.
    pub const BLACKHOLE: StandardCommunity = StandardCommunity(0xFFFF_029A);
    /// NO_EXPORT (RFC 1997), 65535:65281.
    pub const NO_EXPORT: StandardCommunity = StandardCommunity(0xFFFF_FF01);
}

impl StandardCommunity {
    /// Build from the conventional `high:low` parts.
    pub const fn from_parts(high: u16, low: u16) -> Self {
        StandardCommunity(((high as u32) << 16) | low as u32)
    }

    /// The high 16 bits (conventionally an ASN).
    pub const fn high(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits (conventionally the operator-defined value).
    pub const fn low(self) -> u16 {
        self.0 as u16
    }

    /// RFC 7999 BLACKHOLE.
    pub const fn is_blackhole(self) -> bool {
        self.0 == well_known::BLACKHOLE.0
    }
}

impl fmt::Display for StandardCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.high(), self.low())
    }
}

/// Error parsing any community type from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCommunityError(pub String);

impl fmt::Display for ParseCommunityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid community: {:?}", self.0)
    }
}

impl std::error::Error for ParseCommunityError {}

impl FromStr for StandardCommunity {
    type Err = ParseCommunityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (hi, lo) = s
            .split_once(':')
            .ok_or_else(|| ParseCommunityError(s.to_string()))?;
        let hi: u16 = hi.parse().map_err(|_| ParseCommunityError(s.to_string()))?;
        let lo: u16 = lo.parse().map_err(|_| ParseCommunityError(s.to_string()))?;
        Ok(StandardCommunity::from_parts(hi, lo))
    }
}

/// RFC 4360 extended community: 8 bytes, first one or two bytes are the
/// type. We keep the raw bytes plus typed accessors for the common
/// two-octet-AS-specific form that IXPs use for fine-grained actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtendedCommunity(pub [u8; 8]);

/// High-level kind of an extended community.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtendedKind {
    /// Two-octet AS specific (types 0x00 transitive / 0x40 non-transitive).
    TwoOctetAsSpecific {
        /// Transitive across ASes?
        transitive: bool,
        /// Subtype byte (e.g. 0x02 = route target).
        subtype: u8,
        /// Global administrator ASN (2 bytes).
        asn: Asn,
        /// Local administrator value (4 bytes).
        local: u32,
    },
    /// Four-octet AS specific (types 0x02/0x42).
    FourOctetAsSpecific {
        /// Transitive across ASes?
        transitive: bool,
        /// Subtype byte.
        subtype: u8,
        /// Global administrator ASN (4 bytes).
        asn: Asn,
        /// Local administrator value (2 bytes).
        local: u16,
    },
    /// Anything else: carried opaque.
    Opaque {
        /// Type byte.
        typ: u8,
        /// Subtype byte.
        subtype: u8,
    },
}

impl ExtendedCommunity {
    /// Build a transitive two-octet-AS-specific extended community
    /// (the form IXPs like AMS-IX use for fine-grained prepend actions).
    pub fn two_octet_as(subtype: u8, asn: u16, local: u32) -> Self {
        let mut b = [0u8; 8];
        b[0] = 0x00;
        b[1] = subtype;
        b[2..4].copy_from_slice(&asn.to_be_bytes());
        b[4..8].copy_from_slice(&local.to_be_bytes());
        ExtendedCommunity(b)
    }

    /// Decode the type structure.
    pub fn kind(&self) -> ExtendedKind {
        let b = &self.0;
        match b[0] {
            0x00 | 0x40 => ExtendedKind::TwoOctetAsSpecific {
                transitive: b[0] & 0x40 == 0,
                subtype: b[1],
                asn: Asn(u16::from_be_bytes([b[2], b[3]]) as u32),
                local: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            },
            0x02 | 0x42 => ExtendedKind::FourOctetAsSpecific {
                transitive: b[0] & 0x40 == 0,
                subtype: b[1],
                asn: Asn(u32::from_be_bytes([b[2], b[3], b[4], b[5]])),
                local: u16::from_be_bytes([b[6], b[7]]),
            },
            typ => ExtendedKind::Opaque { typ, subtype: b[1] },
        }
    }

    /// Raw 8 bytes, network order.
    pub const fn bytes(&self) -> [u8; 8] {
        self.0
    }
}

impl fmt::Display for ExtendedCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ExtendedKind::TwoOctetAsSpecific {
                subtype,
                asn,
                local,
                ..
            } => write!(f, "ext:{:#04x}:{}:{}", subtype, asn.value(), local),
            ExtendedKind::FourOctetAsSpecific {
                subtype,
                asn,
                local,
                ..
            } => write!(f, "ext4:{:#04x}:{}:{}", subtype, asn.value(), local),
            ExtendedKind::Opaque { typ, subtype } => {
                write!(f, "ext-opaque:{typ:#04x}:{subtype:#04x}")
            }
        }
    }
}

/// RFC 8092 large community: three 32-bit words, written `global:a:b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LargeCommunity {
    /// Global administrator (an ASN, 4 bytes).
    pub global: u32,
    /// Local data part 1.
    pub data1: u32,
    /// Local data part 2.
    pub data2: u32,
}

impl LargeCommunity {
    /// Construct from the three parts.
    pub const fn new(global: u32, data1: u32, data2: u32) -> Self {
        LargeCommunity {
            global,
            data1,
            data2,
        }
    }
}

impl fmt::Display for LargeCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.global, self.data1, self.data2)
    }
}

impl FromStr for LargeCommunity {
    type Err = ParseCommunityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split(':');
        let g = it.next().and_then(|x| x.parse().ok());
        let a = it.next().and_then(|x| x.parse().ok());
        let b = it.next().and_then(|x| x.parse().ok());
        match (g, a, b, it.next()) {
            (Some(g), Some(a), Some(b), None) => Ok(LargeCommunity::new(g, a, b)),
            _ => Err(ParseCommunityError(s.to_string())),
        }
    }
}

/// Any community attached to a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Community {
    /// RFC 1997.
    Standard(StandardCommunity),
    /// RFC 4360.
    Extended(ExtendedCommunity),
    /// RFC 8092.
    Large(LargeCommunity),
}

impl From<StandardCommunity> for Community {
    fn from(c: StandardCommunity) -> Self {
        Community::Standard(c)
    }
}

impl From<ExtendedCommunity> for Community {
    fn from(c: ExtendedCommunity) -> Self {
        Community::Extended(c)
    }
}

impl From<LargeCommunity> for Community {
    fn from(c: LargeCommunity) -> Self {
        Community::Large(c)
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Community::Standard(c) => c.fmt(f),
            Community::Extended(c) => c.fmt(f),
            Community::Large(c) => c.fmt(f),
        }
    }
}

// Serialize standard and large communities as their conventional text form;
// extended as hex bytes. Snapshots stay human-readable like real LG output.
// Every impl writes through `collect_str` and reads through `take_str`, so a
// community crosses the JSON boundary without a `String` of its own.
impl Serialize for StandardCommunity {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for StandardCommunity {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_str(|s| s.parse().map_err(de::Error::custom))
    }
}

impl Serialize for LargeCommunity {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for LargeCommunity {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_str(|s| s.parse().map_err(de::Error::custom))
    }
}

/// The serialized form of an extended community: its eight bytes as 16
/// lowercase hex digits (`Display` is the human-readable `ext:..` form).
impl fmt::LowerHex for ExtendedCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", u64::from_be_bytes(self.0))
    }
}

fn parse_extended_hex(s: &str) -> Result<ExtendedCommunity, ParseCommunityError> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(ParseCommunityError(s.to_string()));
    }
    let raw = u64::from_str_radix(s, 16).map_err(|_| ParseCommunityError(s.to_string()))?;
    Ok(ExtendedCommunity(raw.to_be_bytes()))
}

impl Serialize for ExtendedCommunity {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_str(&format_args!("{self:x}"))
    }
}

impl<'de> Deserialize<'de> for ExtendedCommunity {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_str(|s| parse_extended_hex(s).map_err(de::Error::custom))
    }
}

impl Serialize for Community {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        // Tag with a single-character prefix so the three spaces can't collide.
        match self {
            Community::Standard(c) => s.collect_str(&format_args!("s:{c}")),
            Community::Extended(c) => s.collect_str(&format_args!("e:{c:x}")),
            Community::Large(c) => s.collect_str(&format_args!("l:{c}")),
        }
    }
}

impl<'de> Deserialize<'de> for Community {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_str(|s| {
            let (tag, body) = s
                .split_once(':')
                .ok_or_else(|| de::Error::custom("missing community tag"))?;
            match tag {
                "s" => body
                    .parse::<StandardCommunity>()
                    .map(Community::Standard)
                    .map_err(de::Error::custom),
                "l" => body
                    .parse::<LargeCommunity>()
                    .map(Community::Large)
                    .map_err(de::Error::custom),
                "e" => parse_extended_hex(body)
                    .map(Community::Extended)
                    .map_err(de::Error::custom),
                _ => Err(de::Error::custom("unknown community tag")),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_parts_roundtrip() {
        let c = StandardCommunity::from_parts(6939, 42);
        assert_eq!(c.high(), 6939);
        assert_eq!(c.low(), 42);
        assert_eq!(c.to_string(), "6939:42");
        assert_eq!("6939:42".parse::<StandardCommunity>().unwrap(), c);
    }

    #[test]
    fn standard_parse_rejects() {
        assert!("6939".parse::<StandardCommunity>().is_err());
        assert!("70000:1".parse::<StandardCommunity>().is_err());
        assert!("1:70000".parse::<StandardCommunity>().is_err());
        assert!("a:b".parse::<StandardCommunity>().is_err());
    }

    #[test]
    fn well_known_values() {
        assert_eq!(well_known::NO_EXPORT.to_string(), "65535:65281");
        assert_eq!(well_known::BLACKHOLE.to_string(), "65535:666");
        assert!(well_known::BLACKHOLE.is_blackhole());
    }

    #[test]
    fn extended_two_octet_roundtrip() {
        let e = ExtendedCommunity::two_octet_as(0x02, 9002, 65001);
        match e.kind() {
            ExtendedKind::TwoOctetAsSpecific {
                transitive,
                subtype,
                asn,
                local,
            } => {
                assert!(transitive);
                assert_eq!(subtype, 0x02);
                assert_eq!(asn, Asn(9002));
                assert_eq!(local, 65001);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn extended_four_octet_roundtrip() {
        // type 0x02, subtype 0x05, AS 263075, local 300
        let e = ExtendedCommunity([0x02, 0x05, 0x00, 0x04, 0x03, 0xA3, 0x01, 0x2C]);
        match e.kind() {
            ExtendedKind::FourOctetAsSpecific {
                transitive,
                subtype,
                asn,
                local,
            } => {
                assert!(transitive);
                assert_eq!(subtype, 0x05);
                assert_eq!(asn, Asn(263075));
                assert_eq!(local, 300);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn extended_opaque_kind() {
        let e = ExtendedCommunity([0x03, 0x0c, 0, 0, 0, 0, 0, 1]);
        assert!(matches!(
            e.kind(),
            ExtendedKind::Opaque {
                typ: 0x03,
                subtype: 0x0c
            }
        ));
    }

    #[test]
    fn large_roundtrip() {
        let l: LargeCommunity = "6695:100:65001".parse().unwrap();
        assert_eq!(l, LargeCommunity::new(6695, 100, 65001));
        assert_eq!(l.to_string(), "6695:100:65001");
        assert!("1:2".parse::<LargeCommunity>().is_err());
        assert!("1:2:3:4".parse::<LargeCommunity>().is_err());
    }

    #[test]
    fn community_serde_roundtrip() {
        let cs = vec![
            Community::Standard(StandardCommunity::from_parts(6695, 1000)),
            Community::Extended(ExtendedCommunity::two_octet_as(0x02, 9002, 7)),
            Community::Large(LargeCommunity::new(26162, 1, 2)),
        ];
        let js = serde_json::to_string(&cs).unwrap();
        let back: Vec<Community> = serde_json::from_str(&js).unwrap();
        assert_eq!(back, cs);
    }
}
