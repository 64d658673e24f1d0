//! IP prefixes (IPv4 and IPv6).
//!
//! [`Prefix`] is the NLRI unit announced in BGP UPDATE messages. It is
//! stored canonicalized (host bits zeroed) so that equality and hashing
//! behave as route-server operators expect. Bogon membership and the
//! too-specific / too-broad bounds used by IXP route-server import filters
//! (paper §3) are provided here.

use std::cmp::Ordering;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};

/// Address family identifier, mirroring the IANA AFI values used by MP-BGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Afi {
    /// IPv4 (AFI 1).
    Ipv4,
    /// IPv6 (AFI 2).
    Ipv6,
}

impl Afi {
    /// IANA AFI code.
    pub const fn code(self) -> u16 {
        match self {
            Afi::Ipv4 => 1,
            Afi::Ipv6 => 2,
        }
    }

    /// Construct from the IANA code.
    pub const fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(Afi::Ipv4),
            2 => Some(Afi::Ipv6),
            _ => None,
        }
    }

    /// Maximum prefix length in this family.
    pub const fn max_len(self) -> u8 {
        match self {
            Afi::Ipv4 => 32,
            Afi::Ipv6 => 128,
        }
    }
}

impl fmt::Display for Afi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Afi::Ipv4 => write!(f, "IPv4"),
            Afi::Ipv6 => write!(f, "IPv6"),
        }
    }
}

/// A canonicalized IP prefix: address plus prefix length, host bits zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    addr: IpAddr,
    len: u8,
}

/// Error constructing or parsing a [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Prefix length exceeds the family maximum.
    LengthOutOfRange {
        /// The offending length.
        len: u8,
        /// The family maximum.
        max: u8,
    },
    /// Text did not parse as `addr/len`.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange { len, max } => {
                write!(f, "prefix length {len} exceeds maximum {max}")
            }
            PrefixError::Malformed(s) => write!(f, "malformed prefix: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Prefix {
    /// Create a prefix, canonicalizing by zeroing host bits.
    pub fn new(addr: IpAddr, len: u8) -> Result<Self, PrefixError> {
        let max = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        if len > max {
            return Err(PrefixError::LengthOutOfRange { len, max });
        }
        Ok(Prefix {
            addr: mask_addr(addr, len),
            len,
        })
    }

    /// Create a prefix, clamping an over-long mask to the AFI maximum
    /// instead of failing. Infallible — for callers that compute the
    /// length and want saturation semantics.
    pub fn new_clamped(addr: IpAddr, len: u8) -> Self {
        let max = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        let len = len.min(max);
        Prefix {
            addr: mask_addr(addr, len),
            len,
        }
    }

    /// The host route for an address (`/32` or `/128`). Infallible.
    pub fn host(addr: IpAddr) -> Self {
        let len = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        Prefix { addr, len }
    }

    /// Create an IPv4 prefix from octets.
    pub fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Result<Self, PrefixError> {
        Prefix::new(IpAddr::V4(Ipv4Addr::new(a, b, c, d)), len)
    }

    /// The (canonicalized) network address.
    pub const fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The prefix length.
    // `len` is the CIDR mask length, not a container size — an
    // `is_empty` counterpart would be meaningless here.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// True for the zero-length default route (`0.0.0.0/0` or `::/0`).
    pub const fn is_default_route(&self) -> bool {
        self.len == 0
    }

    /// Address family of this prefix.
    pub const fn afi(&self) -> Afi {
        match self.addr {
            IpAddr::V4(_) => Afi::Ipv4,
            IpAddr::V6(_) => Afi::Ipv6,
        }
    }

    /// True if `self` contains `other` (same family, shorter-or-equal
    /// length, matching network bits).
    pub fn contains(&self, other: &Prefix) -> bool {
        if self.afi() != other.afi() || self.len > other.len {
            return false;
        }
        mask_addr(other.addr, self.len) == self.addr
    }

    /// True if the given host address falls inside this prefix.
    pub(crate) fn contains_addr(&self, addr: IpAddr) -> bool {
        match (self.addr, addr) {
            (IpAddr::V4(_), IpAddr::V4(_)) | (IpAddr::V6(_), IpAddr::V6(_)) => {
                mask_addr(addr, self.len) == self.addr
            }
            _ => false,
        }
    }

    /// Bogon test: membership in the standard unroutable space
    /// (RFC 1918, loopback, link-local, documentation, multicast, etc.).
    /// Route servers reject announcements for these (paper §3).
    pub fn is_bogon(&self) -> bool {
        bogons_for(self.afi()).iter().any(|b| b.contains(self))
    }

    /// The paper's §3 "too specific" bound: stricter than /24 for IPv4.
    /// For IPv6 the conventional route-server bound is /48.
    pub const fn is_too_specific(&self) -> bool {
        match self.addr {
            IpAddr::V4(_) => self.len > 24,
            IpAddr::V6(_) => self.len > 48,
        }
    }

    /// The paper's §3 "too broad" bound: broader than /8 for IPv4.
    /// For IPv6 the conventional bound is /16 (the 2000::/3 allocations
    /// are never announced broader than that).
    pub const fn is_too_broad(&self) -> bool {
        match self.addr {
            IpAddr::V4(_) => self.len < 8,
            IpAddr::V6(_) => self.len < 16,
        }
    }
}

fn mask_addr(addr: IpAddr, len: u8) -> IpAddr {
    match addr {
        IpAddr::V4(a) => {
            let bits = u32::from(a);
            let mask = if len == 0 {
                0
            } else {
                u32::MAX << (32 - len as u32)
            };
            IpAddr::V4(Ipv4Addr::from(bits & mask))
        }
        IpAddr::V6(a) => {
            let bits = u128::from(a);
            let mask = if len == 0 {
                0
            } else {
                u128::MAX << (128 - len as u32)
            };
            IpAddr::V6(Ipv6Addr::from(bits & mask))
        }
    }
}

/// The well-known IPv4 bogon prefixes (fullbogons excluded: we model the
/// static Team-Cymru style list a route server configures).
#[expect(
    clippy::unwrap_used,
    reason = "bogon tables: static well-known CIDR literals parsed once at first use; a typo fails every tier-1 test immediately"
)]
fn bogons_for(afi: Afi) -> &'static [Prefix] {
    use std::sync::OnceLock;
    static V4: OnceLock<Vec<Prefix>> = OnceLock::new();
    static V6: OnceLock<Vec<Prefix>> = OnceLock::new();
    match afi {
        Afi::Ipv4 => V4.get_or_init(|| {
            [
                "0.0.0.0/8",       // "this network"
                "10.0.0.0/8",      // RFC 1918
                "100.64.0.0/10",   // CGN shared space
                "127.0.0.0/8",     // loopback
                "169.254.0.0/16",  // link local
                "172.16.0.0/12",   // RFC 1918
                "192.0.0.0/24",    // IETF protocol assignments
                "192.0.2.0/24",    // TEST-NET-1
                "192.168.0.0/16",  // RFC 1918
                "198.18.0.0/15",   // benchmarking
                "198.51.100.0/24", // TEST-NET-2
                "203.0.113.0/24",  // TEST-NET-3
                "224.0.0.0/4",     // multicast
                "240.0.0.0/4",     // reserved
            ]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect()
        }),
        Afi::Ipv6 => V6.get_or_init(|| {
            [
                "::/8",          // includes unspecified, loopback, v4-mapped
                "100::/64",      // discard only
                "2001:db8::/32", // documentation
                "fc00::/7",      // unique local
                "fe80::/10",     // link local
                "ff00::/8",      // multicast
            ]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect()
        }),
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.addr, self.len).cmp(&(other.addr, other.len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: IpAddr = addr
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Prefix::new(addr, len)
    }
}

impl Serialize for Prefix {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for Prefix {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.take_str(|s| s.parse().map_err(de::Error::custom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_host_bits() {
        let p = Prefix::v4(192, 0, 2, 77, 24).unwrap();
        assert_eq!(p.to_string(), "192.0.2.0/24");
        let q: Prefix = "2001:db8::dead:beef/32".parse().unwrap();
        assert_eq!(q.to_string(), "2001:db8::/32");
    }

    #[test]
    fn rejects_out_of_range_length() {
        assert!(Prefix::v4(1, 2, 3, 4, 33).is_err());
        assert!("2001:db8::/129".parse::<Prefix>().is_err());
    }

    #[test]
    fn host_routes_use_full_mask() {
        let v4 = Prefix::host("192.0.2.1".parse().unwrap());
        assert_eq!(v4.to_string(), "192.0.2.1/32");
        let v6 = Prefix::host("2001:db8::1".parse().unwrap());
        assert_eq!(v6.to_string(), "2001:db8::1/128");
    }

    #[test]
    fn clamped_saturates_and_canonicalizes() {
        let p = Prefix::new_clamped("192.0.2.77".parse().unwrap(), 64);
        assert_eq!(p.to_string(), "192.0.2.77/32");
        let q = Prefix::new_clamped("10.1.2.3".parse().unwrap(), 8);
        assert_eq!(q.to_string(), "10.0.0.0/8");
        assert_eq!(q, Prefix::new("10.0.0.0".parse().unwrap(), 8).unwrap());
    }

    #[test]
    fn parse_roundtrip() {
        for s in [
            "10.0.0.0/8",
            "203.0.113.0/24",
            "2001:db8:1::/48",
            "::/0",
            "0.0.0.0/0",
        ] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
        assert!("banana/24".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let big: Prefix = "10.0.0.0/8".parse().unwrap();
        let small: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
        let v6: Prefix = "2001:db8::/32".parse().unwrap();
        assert!(!big.contains(&v6));
        assert!(big.contains_addr("10.200.0.1".parse().unwrap()));
        assert!(!big.contains_addr("11.0.0.1".parse().unwrap()));
        assert!(!big.contains_addr("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn zero_length_contains_everything_in_family() {
        let any: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(any.contains(&"203.0.113.0/24".parse().unwrap()));
        assert!(any.is_default_route());
        assert!(!any.contains(&"2001:db8::/32".parse().unwrap()));
    }

    #[test]
    fn bogons() {
        assert!("10.1.2.0/24".parse::<Prefix>().unwrap().is_bogon());
        assert!("192.168.4.0/24".parse::<Prefix>().unwrap().is_bogon());
        assert!("100.77.0.0/16".parse::<Prefix>().unwrap().is_bogon());
        assert!("2001:db8:77::/48".parse::<Prefix>().unwrap().is_bogon());
        assert!("fe80::/64".parse::<Prefix>().unwrap().is_bogon());
        assert!(!"203.0.112.0/23".parse::<Prefix>().unwrap().is_bogon());
        assert!(!"8.8.8.0/24".parse::<Prefix>().unwrap().is_bogon());
        assert!(!"2a00:1450::/32".parse::<Prefix>().unwrap().is_bogon());
    }

    #[test]
    fn specificity_bounds_match_paper() {
        // §3: "prefixes too specific (>/24) or too broad (</8)"
        assert!("8.8.8.8/32".parse::<Prefix>().unwrap().is_too_specific());
        assert!("8.8.8.0/25".parse::<Prefix>().unwrap().is_too_specific());
        assert!(!"8.8.8.0/24".parse::<Prefix>().unwrap().is_too_specific());
        assert!("8.0.0.0/7".parse::<Prefix>().unwrap().is_too_broad());
        assert!(!"8.0.0.0/8".parse::<Prefix>().unwrap().is_too_broad());
        // v6 conventions
        assert!("2001:db8::/49".parse::<Prefix>().unwrap().is_too_specific());
        assert!(!"2001:db8::/48".parse::<Prefix>().unwrap().is_too_specific());
        assert!("2000::/15".parse::<Prefix>().unwrap().is_too_broad());
        assert!(!"2000::/16".parse::<Prefix>().unwrap().is_too_broad());
    }

    #[test]
    fn afi_codes() {
        assert_eq!(Afi::Ipv4.code(), 1);
        assert_eq!(Afi::Ipv6.code(), 2);
        assert_eq!(Afi::from_code(1), Some(Afi::Ipv4));
        assert_eq!(Afi::from_code(2), Some(Afi::Ipv6));
        assert_eq!(Afi::from_code(3), None);
    }

    #[test]
    fn ordering_is_total_and_by_addr_then_len() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.0.0.0/16".parse().unwrap();
        let c: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn serde_as_string() {
        let p: Prefix = "203.0.113.0/24".parse().unwrap();
        let js = serde_json::to_string(&p).unwrap();
        assert_eq!(js, "\"203.0.113.0/24\"");
        let back: Prefix = serde_json::from_str(&js).unwrap();
        assert_eq!(back, p);
    }
}
