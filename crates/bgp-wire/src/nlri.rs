//! NLRI prefix encoding (RFC 4271 §4.3: length byte + minimal octets).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{Buf, BufMut};

use bgp_model::prefix::{Afi, Prefix};

use crate::error::{ensure, WireError};

/// Encode one prefix: 1 length byte + ceil(len/8) address octets.
pub(crate) fn encode_prefix(prefix: &Prefix, out: &mut impl BufMut) {
    out.put_u8(prefix.len());
    let nbytes = (prefix.len() as usize).div_ceil(8);
    match prefix.addr() {
        IpAddr::V4(a) => out.put_slice(&a.octets()[..nbytes]),
        IpAddr::V6(a) => out.put_slice(&a.octets()[..nbytes]),
    }
}

/// Decode one prefix of the given family.
pub(crate) fn decode_prefix(buf: &mut impl Buf, afi: Afi) -> Result<Prefix, WireError> {
    ensure(buf, 1, "NLRI length byte")?;
    let len = buf.get_u8();
    if len > afi.max_len() {
        return Err(WireError::BadPrefixLength(len));
    }
    let nbytes = (len as usize).div_ceil(8);
    ensure(buf, nbytes, "NLRI prefix octets")?;
    let addr = match afi {
        Afi::Ipv4 => {
            let mut oct = [0u8; 4];
            buf.copy_to_slice(&mut oct[..nbytes]);
            IpAddr::V4(Ipv4Addr::from(oct))
        }
        Afi::Ipv6 => {
            let mut oct = [0u8; 16];
            buf.copy_to_slice(&mut oct[..nbytes]);
            IpAddr::V6(Ipv6Addr::from(oct))
        }
    };
    // Constructor re-canonicalizes; trailing bits inside the last octet that
    // fall beyond `len` are zeroed, as RFC 4271 requires receivers to ignore.
    Prefix::new(addr, len).map_err(|_| WireError::BadPrefixLength(len))
}

/// Decode a run of prefixes until the buffer is exhausted.
pub(crate) fn decode_prefixes(buf: &mut impl Buf, afi: Afi) -> Result<Vec<Prefix>, WireError> {
    let mut out = Vec::new();
    while buf.has_remaining() {
        out.push(decode_prefix(buf, afi)?);
    }
    Ok(out)
}

/// Encode a run of prefixes.
pub(crate) fn encode_prefixes(prefixes: &[Prefix], out: &mut impl BufMut) {
    for p in prefixes {
        encode_prefix(p, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(s: &str) {
        let p: Prefix = s.parse().unwrap();
        let mut buf = BytesMut::new();
        encode_prefix(&p, &mut buf);
        let mut rd = buf.freeze();
        let q = decode_prefix(&mut rd, p.afi()).unwrap();
        assert_eq!(q, p, "roundtrip {s}");
        assert!(!rd.has_remaining());
    }

    #[test]
    fn prefix_roundtrips() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "203.0.113.0/24",
            "203.0.113.128/25",
            "192.0.2.1/32",
            "::/0",
            "2001:db8::/32",
            "2001:db8:1:2::/64",
            "2001:db8::1/128",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn minimal_octets() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut buf = BytesMut::new();
        encode_prefix(&p, &mut buf);
        assert_eq!(buf.len(), 2); // 1 length byte + 1 address octet
        let p: Prefix = "203.0.113.0/24".parse().unwrap();
        let mut buf = BytesMut::new();
        encode_prefix(&p, &mut buf);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn rejects_overlong_length() {
        let raw = [33u8, 1, 2, 3, 4, 5];
        let mut buf = &raw[..];
        assert_eq!(
            decode_prefix(&mut buf, Afi::Ipv4),
            Err(WireError::BadPrefixLength(33))
        );
    }

    #[test]
    fn truncated_prefix_errors() {
        let raw = [24u8, 1]; // /24 promises 3 octets, provides 1
        let mut buf = &raw[..];
        assert!(matches!(
            decode_prefix(&mut buf, Afi::Ipv4),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn nonzero_trailing_bits_are_masked() {
        // /23 with the 24th bit set in the third octet: must canonicalize
        let raw = [23u8, 203, 0, 113];
        let mut buf = &raw[..];
        let p = decode_prefix(&mut buf, Afi::Ipv4).unwrap();
        assert_eq!(p.to_string(), "203.0.112.0/23");
    }

    #[test]
    fn run_decoding() {
        let mut buf = BytesMut::new();
        let ps: Vec<Prefix> = ["10.0.0.0/8", "203.0.113.0/24", "198.51.100.0/24"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        encode_prefixes(&ps, &mut buf);
        let mut rd = buf.freeze();
        let back = decode_prefixes(&mut rd, Afi::Ipv4).unwrap();
        assert_eq!(back, ps);
    }
}
