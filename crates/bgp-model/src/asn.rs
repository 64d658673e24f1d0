//! Autonomous System Numbers (ASNs).
//!
//! BGP originally used 16-bit AS numbers; RFC 6793 extended them to 32 bits.
//! [`Asn`] is a 32-bit newtype that covers both, with helpers for the
//! reserved, private-use and documentation ranges that an IXP route server
//! must treat as bogons on import.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// The 2-byte placeholder ASN used in AS_PATHs by 4-byte-capable speakers
/// when talking to 2-byte-only peers (RFC 6793 §4.2.2).
pub const AS_TRANS: Asn = Asn(23456);

/// A 32-bit Autonomous System Number (RFC 6793).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl Asn {
    /// The raw numeric value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// True if the ASN fits in the original 16-bit space.
    pub const fn is_16bit(self) -> bool {
        self.0 <= u16::MAX as u32
    }

    /// AS 0 is reserved and must never appear in routing (RFC 7607).
    pub(crate) const fn is_reserved_zero(self) -> bool {
        self.0 == 0
    }

    /// Private-use ASNs: 64512–65534 (RFC 6996) and
    /// 4200000000–4294967294 (RFC 6996 §5).
    pub(crate) const fn is_private(self) -> bool {
        (self.0 >= 64512 && self.0 <= 65534) || (self.0 >= 4_200_000_000 && self.0 <= 4_294_967_294)
    }

    /// Documentation-only ASNs: 64496–64511 and 65536–65551 (RFC 5398).
    pub(crate) const fn is_documentation(self) -> bool {
        (self.0 >= 64496 && self.0 <= 64511) || (self.0 >= 65536 && self.0 <= 65551)
    }

    /// 65535 and 4294967295 are reserved (RFC 7300); 65535 also hosts the
    /// well-known community prefix space.
    pub(crate) const fn is_reserved_last(self) -> bool {
        self.0 == 65535 || self.0 == u32::MAX
    }

    /// The AS_TRANS placeholder (RFC 6793).
    pub(crate) const fn is_as_trans(self) -> bool {
        self.0 == AS_TRANS.0
    }

    /// A "bogon" ASN must never be accepted from an external peer: AS 0,
    /// private use, documentation, AS_TRANS and the reserved top values.
    ///
    /// This is the check an IXP route server applies to every ASN in the
    /// AS_PATH of a received announcement (one of the paper's §3 filtering
    /// reasons: "bogon prefixes or ASNs").
    pub const fn is_bogon(self) -> bool {
        self.is_reserved_zero()
            || self.is_private()
            || self.is_documentation()
            || self.is_reserved_last()
            || self.is_as_trans()
    }
}

impl From<u32> for Asn {
    fn from(value: u32) -> Self {
        Asn(value)
    }
}

impl From<u16> for Asn {
    fn from(value: u16) -> Self {
        Asn(value as u32)
    }
}

impl From<Asn> for u32 {
    fn from(asn: Asn) -> Self {
        asn.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Error parsing an ASN from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsnError(String);

impl fmt::Display for ParseAsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ASN: {:?}", self.0)
    }
}

impl std::error::Error for ParseAsnError {}

impl FromStr for Asn {
    type Err = ParseAsnError;

    /// Accepts `"65000"`, `"AS65000"` and `"as65000"`, plus the asdot
    /// notation `"1.10"` for 4-byte ASNs (RFC 5396).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        if let Some((hi, lo)) = body.split_once('.') {
            let hi: u32 = hi.parse().map_err(|_| ParseAsnError(s.to_string()))?;
            let lo: u32 = lo.parse().map_err(|_| ParseAsnError(s.to_string()))?;
            if hi > u16::MAX as u32 || lo > u16::MAX as u32 {
                return Err(ParseAsnError(s.to_string()));
            }
            return Ok(Asn((hi << 16) | lo));
        }
        body.parse::<u32>()
            .map(Asn)
            .map_err(|_| ParseAsnError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_as_prefix() {
        assert_eq!(Asn(6939).to_string(), "AS6939");
    }

    #[test]
    fn parse_plain_and_prefixed() {
        assert_eq!("65000".parse::<Asn>().unwrap(), Asn(65000));
        assert_eq!("AS6939".parse::<Asn>().unwrap(), Asn(6939));
        assert_eq!("as15169".parse::<Asn>().unwrap(), Asn(15169));
    }

    #[test]
    fn parse_asdot() {
        assert_eq!("1.10".parse::<Asn>().unwrap(), Asn(65546));
        assert_eq!("AS2.0".parse::<Asn>().unwrap(), Asn(131072));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Asn>().is_err());
        assert!("ASX".parse::<Asn>().is_err());
        assert!("1.70000".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err());
    }

    #[test]
    fn bogon_classification() {
        assert!(Asn(0).is_bogon());
        assert!(Asn(64512).is_bogon()); // private
        assert!(Asn(65534).is_bogon()); // private
        assert!(Asn(64500).is_bogon()); // documentation
        assert!(Asn(65536).is_bogon()); // documentation
        assert!(Asn(65535).is_bogon()); // reserved
        assert!(Asn(23456).is_bogon()); // AS_TRANS
        assert!(Asn(u32::MAX).is_bogon());
        assert!(Asn(4_200_000_000).is_bogon()); // private 4-byte

        assert!(!Asn(6939).is_bogon()); // Hurricane Electric
        assert!(!Asn(15169).is_bogon()); // Google
        assert!(!Asn(263075).is_bogon()); // ordinary 4-byte ASN
    }

    #[test]
    fn sixteen_bit_check() {
        assert!(Asn(65535).is_16bit());
        assert!(!Asn(65536).is_16bit());
    }

    #[test]
    fn serde_is_transparent() {
        let json = serde_json::to_string(&Asn(6939)).unwrap();
        assert_eq!(json, "6939");
        let back: Asn = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Asn(6939));
    }
}
