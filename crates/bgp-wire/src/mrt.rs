//! MRT TABLE_DUMP_V2-style RIB snapshots (RFC 6396, subset).
//!
//! The paper releases its twelve-week dataset as snapshot files; we persist
//! route-server snapshots in the same spirit using the MRT RIB dump
//! framing: one PEER_INDEX_TABLE record followed by one RIB record per
//! prefix, each carrying the per-peer attribute sets. The subset implemented
//! is exactly what a route-server snapshot needs (unicast v4/v6 RIBs,
//! 4-octet ASNs); records we do not generate are rejected on read.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use bgp_model::asn::Asn;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;

use crate::attrs;
use crate::convert;
use crate::error::{ensure, WireError};
use crate::message::UpdateMessage;
use crate::nlri;

/// MRT type for TABLE_DUMP_V2.
pub const MRT_TABLE_DUMP_V2: u16 = 13;
/// Subtype: peer index table.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// Subtype: IPv4 unicast RIB.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
/// Subtype: IPv6 unicast RIB.
pub const SUBTYPE_RIB_IPV6_UNICAST: u16 = 4;

/// One peer in the index table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrtPeer {
    /// Peer ASN.
    pub asn: Asn,
    /// Peer BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Peer address on the peering LAN.
    pub addr: IpAddr,
}

/// One RIB entry: a route as announced by one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct RibEntry {
    /// Index into the peer table.
    pub peer_index: u16,
    /// Time the route was originated/learned (seconds).
    pub originated: u32,
    /// The route itself.
    pub route: Route,
}

/// A complete RIB dump.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MrtRibDump {
    /// Snapshot timestamp (seconds).
    pub timestamp: u32,
    /// Peer index table.
    pub peers: Vec<MrtPeer>,
    /// RIB: per-prefix groups of entries, in writing order.
    pub rib: Vec<(Prefix, Vec<RibEntry>)>,
}

impl MrtRibDump {
    /// Build a dump from `(peer, route)` pairs, constructing the peer
    /// table and grouping entries by prefix. Peer addresses/BGP IDs are
    /// synthesized from the route next hops.
    pub fn from_routes<'a, I>(timestamp: u32, pairs: I) -> Self
    where
        I: IntoIterator<Item = (Asn, &'a Route)>,
    {
        use std::collections::BTreeMap;
        let mut peer_idx: BTreeMap<Asn, u16> = BTreeMap::new();
        let mut peers: Vec<MrtPeer> = Vec::new();
        let mut groups: BTreeMap<Prefix, Vec<RibEntry>> = BTreeMap::new();
        for (asn, route) in pairs {
            let idx = *peer_idx.entry(asn).or_insert_with(|| {
                let v = asn.value() % 0xFFFF_FF00;
                peers.push(MrtPeer {
                    asn,
                    bgp_id: Ipv4Addr::from(v.to_be_bytes()),
                    addr: route.next_hop,
                });
                (peers.len() - 1) as u16
            });
            groups.entry(route.prefix).or_default().push(RibEntry {
                peer_index: idx,
                originated: timestamp,
                route: route.clone(),
            });
        }
        MrtRibDump {
            timestamp,
            peers,
            rib: groups.into_iter().collect(),
        }
    }

    /// Flatten back to `(peer ASN, route)` pairs.
    pub fn to_routes(&self) -> Vec<(Asn, Route)> {
        let mut out = Vec::new();
        for (_, entries) in &self.rib {
            for e in entries {
                if let Some(peer) = self.peers.get(e.peer_index as usize) {
                    out.push((peer.asn, e.route.clone()));
                }
            }
        }
        out
    }

    /// Total RIB entries.
    pub fn entry_count(&self) -> usize {
        self.rib.iter().map(|(_, v)| v.len()).sum()
    }

    /// Serialize: PEER_INDEX_TABLE record, then one RIB record per prefix.
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let mut out = BytesMut::new();
        // --- peer index table ---
        let mut body = BytesMut::new();
        body.put_u32(0); // collector BGP id
        body.put_u16(0); // view name length (none)
        if self.peers.len() > u16::MAX as usize {
            return Err(WireError::ValueTooLarge("peer table"));
        }
        body.put_u16(self.peers.len() as u16);
        for p in &self.peers {
            // peer type: bit 0 = ipv6 address, bit 1 = 4-byte AS (always)
            let ipv6 = matches!(p.addr, IpAddr::V6(_));
            body.put_u8(if ipv6 { 0b11 } else { 0b10 });
            body.put_slice(&p.bgp_id.octets());
            match p.addr {
                IpAddr::V4(a) => body.put_slice(&a.octets()),
                IpAddr::V6(a) => body.put_slice(&a.octets()),
            }
            body.put_u32(p.asn.value());
        }
        put_record(&mut out, self.timestamp, SUBTYPE_PEER_INDEX_TABLE, &body)?;

        // --- RIB records ---
        for (seq, (prefix, entries)) in self.rib.iter().enumerate() {
            let mut body = BytesMut::new();
            body.put_u32(seq as u32);
            nlri::encode_prefix(prefix, &mut body);
            if entries.len() > u16::MAX as usize {
                return Err(WireError::ValueTooLarge("rib entry count"));
            }
            body.put_u16(entries.len() as u16);
            for e in entries {
                body.put_u16(e.peer_index);
                body.put_u32(e.originated);
                // the attributes go straight into the record; their
                // length is only known afterwards and patched in
                let len_at = body.len();
                body.put_u16(0);
                convert::encode_route_attributes(&e.route, &mut body);
                let Ok(len) = u16::try_from(body.len() - len_at - 2) else {
                    return Err(WireError::ValueTooLarge("rib entry attributes"));
                };
                body[len_at..len_at + 2].copy_from_slice(&len.to_be_bytes());
            }
            let subtype = match prefix.afi() {
                Afi::Ipv4 => SUBTYPE_RIB_IPV4_UNICAST,
                Afi::Ipv6 => SUBTYPE_RIB_IPV6_UNICAST,
            };
            put_record(&mut out, self.timestamp, subtype, &body)?;
        }
        crate::metrics::handles()
            .mrt_entries_encoded
            .add(self.entry_count() as u64);
        Ok(out.freeze())
    }

    /// Parse a dump produced by [`encode`](Self::encode).
    pub fn decode(mut buf: Bytes) -> Result<Self, WireError> {
        let mut dump = MrtRibDump::default();
        let mut first = true;
        while buf.has_remaining() {
            let (timestamp, subtype, mut body) = get_record(&mut buf)?;
            if first {
                dump.timestamp = timestamp;
                if subtype != SUBTYPE_PEER_INDEX_TABLE {
                    return Err(WireError::BadMrtRecord("first record must be peer index"));
                }
                dump.peers = decode_peer_table(&mut body)?;
                first = false;
                continue;
            }
            let afi = match subtype {
                SUBTYPE_RIB_IPV4_UNICAST => Afi::Ipv4,
                SUBTYPE_RIB_IPV6_UNICAST => Afi::Ipv6,
                _ => return Err(WireError::BadMrtRecord("unsupported subtype")),
            };
            ensure(&body, 4, "rib sequence")?;
            body.advance(4); // sequence number (regenerated on encode)
            let prefix = nlri::decode_prefix(&mut body, afi)?;
            ensure(&body, 2, "rib entry count")?;
            let count = body.get_u16() as usize;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                ensure(&body, 8, "rib entry header")?;
                let peer_index = body.get_u16();
                let originated = body.get_u32();
                let attr_len = body.get_u16() as usize;
                let attributes = attrs::decode_attributes(&mut body, attr_len)?;
                // Rebuild the route: v4 prefixes come from the record
                // header; v6 prefixes ride inside MP_REACH already.
                let update = UpdateMessage {
                    withdrawn: vec![],
                    nlri: if afi == Afi::Ipv4 {
                        vec![prefix]
                    } else {
                        vec![]
                    },
                    attributes,
                };
                let content = convert::update_to_routes(&update)?;
                let route = content
                    .announced
                    .into_iter()
                    .next()
                    .ok_or(WireError::BadMrtRecord("rib entry without route"))?;
                entries.push(RibEntry {
                    peer_index,
                    originated,
                    route,
                });
            }
            dump.rib.push((prefix, entries));
        }
        if first {
            return Err(WireError::BadMrtRecord("empty dump"));
        }
        crate::metrics::handles()
            .mrt_entries_decoded
            .add(dump.entry_count() as u64);
        Ok(dump)
    }
}

fn put_record(
    out: &mut BytesMut,
    timestamp: u32,
    subtype: u16,
    body: &[u8],
) -> Result<(), WireError> {
    if body.len() > u32::MAX as usize {
        return Err(WireError::ValueTooLarge("mrt record"));
    }
    out.put_u32(timestamp);
    out.put_u16(MRT_TABLE_DUMP_V2);
    out.put_u16(subtype);
    out.put_u32(body.len() as u32);
    out.put_slice(body);
    Ok(())
}

fn get_record(buf: &mut Bytes) -> Result<(u32, u16, Bytes), WireError> {
    ensure(buf, 12, "mrt header")?;
    let timestamp = buf.get_u32();
    let typ = buf.get_u16();
    if typ != MRT_TABLE_DUMP_V2 {
        return Err(WireError::BadMrtRecord("unsupported MRT type"));
    }
    let subtype = buf.get_u16();
    let len = buf.get_u32() as usize;
    ensure(buf, len, "mrt record body")?;
    Ok((timestamp, subtype, buf.split_to(len)))
}

fn decode_peer_table(body: &mut Bytes) -> Result<Vec<MrtPeer>, WireError> {
    ensure(body, 8, "peer index header")?;
    body.advance(4); // collector id
    let view_len = body.get_u16() as usize;
    ensure(body, view_len, "view name")?;
    body.advance(view_len);
    let count = body.get_u16() as usize;
    let mut peers = Vec::with_capacity(count);
    for _ in 0..count {
        ensure(body, 5, "peer entry")?;
        let ptype = body.get_u8();
        if ptype & 0b10 == 0 {
            return Err(WireError::BadMrtRecord("2-byte AS peers not supported"));
        }
        let mut id = [0u8; 4];
        body.copy_to_slice(&mut id);
        let addr = if ptype & 0b01 != 0 {
            ensure(body, 16, "peer v6 address")?;
            let mut o = [0u8; 16];
            body.copy_to_slice(&mut o);
            IpAddr::V6(Ipv6Addr::from(o))
        } else {
            ensure(body, 4, "peer v4 address")?;
            let mut o = [0u8; 4];
            body.copy_to_slice(&mut o);
            IpAddr::V4(Ipv4Addr::from(o))
        };
        ensure(body, 4, "peer asn")?;
        let asn = Asn(body.get_u32());
        peers.push(MrtPeer {
            asn,
            bgp_id: Ipv4Addr::from(id),
            addr,
        });
    }
    Ok(peers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::community::{LargeCommunity, StandardCommunity};
    use bgp_model::route::Origin;

    fn v4_route(pfx: &str, peer: u32) -> Route {
        Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path([peer, 15169])
            .origin(Origin::Igp)
            .standard(StandardCommunity::from_parts(0, 6939))
            .build()
    }

    fn v6_route(pfx: &str, peer: u32) -> Route {
        let mut r = Route::builder(pfx.parse().unwrap(), "2001:7f8::1".parse().unwrap())
            .path([peer, 13335])
            .origin(Origin::Igp)
            .build();
        r.large_communities = vec![LargeCommunity::new(26162, 0, 6939)];
        r
    }

    #[test]
    fn dump_roundtrip_mixed_families() {
        let r1 = v4_route("203.0.113.0/24", 64496);
        let r2 = v4_route("203.0.113.0/24", 64497);
        let r3 = v4_route("198.51.100.0/24", 64496);
        let r6 = v6_route("2001:db8:42::/48", 64496);
        let dump = MrtRibDump::from_routes(
            1_633_305_600, // 4 Oct 2021
            [
                (Asn(64496), &r1),
                (Asn(64497), &r2),
                (Asn(64496), &r3),
                (Asn(64496), &r6),
            ],
        );
        assert_eq!(dump.peers.len(), 2);
        assert_eq!(dump.entry_count(), 4);
        let wire = dump.encode().unwrap();
        let back = MrtRibDump::decode(wire).unwrap();
        assert_eq!(back, dump);
    }

    #[test]
    fn to_routes_flattens() {
        let r1 = v4_route("203.0.113.0/24", 64496);
        let dump = MrtRibDump::from_routes(0, [(Asn(64496), &r1)]);
        let pairs = dump.to_routes();
        assert_eq!(pairs, vec![(Asn(64496), r1)]);
    }

    #[test]
    fn communities_survive_roundtrip() {
        let r = v4_route("203.0.113.0/24", 64496);
        let dump = MrtRibDump::from_routes(7, [(Asn(64496), &r)]);
        let back = MrtRibDump::decode(dump.encode().unwrap()).unwrap();
        let (_, route) = &back.to_routes()[0];
        assert_eq!(route.standard_communities, r.standard_communities);
    }

    #[test]
    fn empty_dump_rejected() {
        assert!(MrtRibDump::decode(Bytes::new()).is_err());
    }

    #[test]
    fn missing_peer_table_rejected() {
        // hand-craft a RIB record first
        let r = v4_route("203.0.113.0/24", 64496);
        let dump = MrtRibDump::from_routes(7, [(Asn(64496), &r)]);
        let wire = dump.encode().unwrap();
        // skip the first record (peer table)
        let mut buf = wire.clone();
        let (_, _, _) = get_record(&mut buf).unwrap();
        assert!(matches!(
            MrtRibDump::decode(buf),
            Err(WireError::BadMrtRecord(_))
        ));
    }

    #[test]
    fn truncated_dump_rejected() {
        let r = v4_route("203.0.113.0/24", 64496);
        let dump = MrtRibDump::from_routes(7, [(Asn(64496), &r)]);
        let wire = dump.encode().unwrap();
        let cut = wire.slice(..wire.len() - 3);
        assert!(MrtRibDump::decode(cut).is_err());
    }

    #[test]
    fn timestamp_preserved() {
        let r = v4_route("203.0.113.0/24", 64496);
        let dump = MrtRibDump::from_routes(1_626_652_800, [(Asn(64496), &r)]);
        let back = MrtRibDump::decode(dump.encode().unwrap()).unwrap();
        assert_eq!(back.timestamp, 1_626_652_800);
    }
}
