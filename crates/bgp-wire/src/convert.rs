//! Conversions between the wire [`UpdateMessage`] and the model
//! [`Route`].
//!
//! One UPDATE can announce many prefixes sharing one attribute set; the
//! decomposition here produces one [`Route`] per announced prefix, which is
//! the granularity the route server and the paper's snapshots use.

use std::collections::HashMap;
use std::net::IpAddr;

use bytes::{BufMut, BytesMut};

use bgp_model::aspath::AsPath;
use bgp_model::community::{ExtendedCommunity, LargeCommunity, StandardCommunity};
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::{Origin, Route};

use crate::attrs::{self, code, MpReach, PathAttribute};
use crate::error::WireError;
use crate::message::UpdateMessage;

/// What one UPDATE message means, in model terms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateContent {
    /// Routes announced (IPv4 NLRI and MP_REACH combined).
    pub announced: Vec<Route>,
    /// Prefixes withdrawn (IPv4 withdrawn field and MP_UNREACH combined).
    pub withdrawn: Vec<Prefix>,
}

/// Decompose an UPDATE into announced routes and withdrawn prefixes.
///
/// Returns an error if announcements are present without the mandatory
/// ORIGIN / AS_PATH / next-hop attributes (RFC 4271 §6.3).
pub fn update_to_routes(update: &UpdateMessage) -> Result<UpdateContent, WireError> {
    let mut content = UpdateContent {
        announced: Vec::new(),
        withdrawn: update.withdrawn.clone(),
    };

    let mut origin = None;
    let mut as_path = None;
    let mut next_hop_v4 = None;
    let mut med = None;
    let mut standard = Vec::new();
    let mut extended = Vec::new();
    let mut large = Vec::new();
    let mut mp_reach: Option<&MpReach> = None;

    for attr in &update.attributes {
        match attr {
            PathAttribute::Origin(o) => origin = Some(*o),
            PathAttribute::AsPath(p) => as_path = Some(p.clone()),
            PathAttribute::NextHop(nh) => next_hop_v4 = Some(IpAddr::V4(*nh)),
            PathAttribute::Med(m) => med = Some(*m),
            PathAttribute::Communities(cs) => standard = cs.clone(),
            PathAttribute::ExtendedCommunities(cs) => extended = cs.clone(),
            PathAttribute::LargeCommunities(cs) => large = cs.clone(),
            PathAttribute::MpReach(mp) => mp_reach = Some(mp),
            PathAttribute::MpUnreach(mp) => content.withdrawn.extend(mp.withdrawn.iter().copied()),
            _ => {}
        }
    }

    let announcements: Vec<(Prefix, IpAddr)> = update
        .nlri
        .iter()
        .map(|p| (*p, next_hop_v4.unwrap_or(IpAddr::V4([0, 0, 0, 0].into()))))
        .chain(
            mp_reach
                .into_iter()
                .flat_map(|mp| mp.nlri.iter().map(move |p| (*p, mp.next_hop))),
        )
        .collect();

    if !announcements.is_empty() {
        let origin = origin.ok_or(WireError::BadAttribute {
            code: code::ORIGIN,
            reason: "missing mandatory ORIGIN",
        })?;
        let as_path = as_path.ok_or(WireError::BadAttribute {
            code: code::AS_PATH,
            reason: "missing mandatory AS_PATH",
        })?;
        if !update.nlri.is_empty() && next_hop_v4.is_none() {
            return Err(WireError::BadAttribute {
                code: code::NEXT_HOP,
                reason: "missing mandatory NEXT_HOP for IPv4 NLRI",
            });
        }
        for (prefix, next_hop) in announcements {
            let mut r = Route::builder(prefix, next_hop)
                .as_path(as_path.clone())
                .origin(origin)
                .standards(standard.iter().copied())
                .build();
            r.extended_communities = extended.clone();
            r.large_communities = large.clone();
            r.med = med;
            content.announced.push(r);
        }
    }

    Ok(content)
}

/// Build an UPDATE announcing a batch of routes that share an attribute
/// set. All routes must have the same AFI, path, origin, MED, next hop and
/// communities as `routes[0]`; callers group routes accordingly
/// (see [`routes_to_updates`] for the grouping front-end).
pub fn routes_to_update(routes: &[Route]) -> UpdateMessage {
    match routes.first() {
        Some(first) => announce(first, routes.iter().map(|r| r.prefix).collect()),
        None => UpdateMessage::default(),
    }
}

/// The UPDATE announcing `prefixes` with the attributes of `first`: the
/// one place its attributes are cloned on the way to the wire.
/// [`encode_route_attributes`] writes the same attributes in the same
/// order without building the message.
fn announce(first: &Route, prefixes: Vec<Prefix>) -> UpdateMessage {
    let mut attributes = vec![
        PathAttribute::Origin(first.origin),
        PathAttribute::AsPath(first.as_path.clone()),
    ];
    if let Some(med) = first.med {
        attributes.push(PathAttribute::Med(med));
    }
    if !first.standard_communities.is_empty() {
        attributes.push(PathAttribute::Communities(
            first.standard_communities.clone(),
        ));
    }
    if !first.extended_communities.is_empty() {
        attributes.push(PathAttribute::ExtendedCommunities(
            first.extended_communities.clone(),
        ));
    }
    if !first.large_communities.is_empty() {
        attributes.push(PathAttribute::LargeCommunities(
            first.large_communities.clone(),
        ));
    }
    match (first.afi(), first.next_hop) {
        (Afi::Ipv4, IpAddr::V4(nh)) => {
            attributes.push(PathAttribute::NextHop(nh));
            UpdateMessage {
                withdrawn: vec![],
                attributes,
                nlri: prefixes,
            }
        }
        _ => {
            attributes.push(PathAttribute::MpReach(MpReach {
                afi: first.afi(),
                next_hop: first.next_hop,
                nlri: prefixes,
            }));
            UpdateMessage {
                withdrawn: vec![],
                attributes,
                nlri: vec![],
            }
        }
    }
}

/// Append the attribute block of the UPDATE announcing `route` alone —
/// byte for byte `encode_attributes(&routes_to_update(&[route]).attributes)`
/// — straight from the route, cloning and buffering nothing. An MRT RIB
/// entry is exactly this block.
pub(crate) fn encode_route_attributes(route: &Route, out: &mut BytesMut) {
    attrs::put_attribute(out, code::ORIGIN, |v| v.put_u8(route.origin.code()));
    attrs::put_attribute(out, code::AS_PATH, |v| {
        attrs::put_as_path(&route.as_path, v)
    });
    if let Some(med) = route.med {
        attrs::put_attribute(out, code::MED, |v| v.put_u32(med));
    }
    if !route.standard_communities.is_empty() {
        attrs::put_attribute(out, code::COMMUNITIES, |v| {
            attrs::put_standard(&route.standard_communities, v)
        });
    }
    if !route.extended_communities.is_empty() {
        attrs::put_attribute(out, code::EXTENDED_COMMUNITIES, |v| {
            attrs::put_extended(&route.extended_communities, v)
        });
    }
    if !route.large_communities.is_empty() {
        attrs::put_attribute(out, code::LARGE_COMMUNITIES, |v| {
            attrs::put_large(&route.large_communities, v)
        });
    }
    match (route.afi(), route.next_hop) {
        (Afi::Ipv4, IpAddr::V4(nh)) => {
            attrs::put_attribute(out, code::NEXT_HOP, |v| v.put_slice(&nh.octets()));
        }
        (afi, next_hop) => attrs::put_attribute(out, code::MP_REACH_NLRI, |v| {
            attrs::put_mp_reach(afi, next_hop, std::slice::from_ref(&route.prefix), v)
        }),
    }
}

/// Everything of a route but its prefix: routes equal in this share one
/// UPDATE. Borrowed, so grouping formats and copies nothing.
type AttributeSet<'a> = (
    Afi,
    IpAddr,
    &'a AsPath,
    Origin,
    Option<u32>,
    &'a [StandardCommunity],
    &'a [ExtendedCommunity],
    &'a [LargeCommunity],
);

/// Group arbitrary routes by shared attribute set and emit one UPDATE per
/// group, each within the 4096-byte limit (NLRI split into chunks).
///
/// Groups come out in the order their first route appears in `routes`,
/// and prefixes keep their input order within a group, so the output is
/// a function of the input order alone.
pub fn routes_to_updates(routes: &[Route]) -> Vec<UpdateMessage> {
    // The map only finds a route's group; `groups` fixes the order.
    let mut index: HashMap<AttributeSet<'_>, usize> = HashMap::new();
    let mut groups: Vec<(&Route, Vec<Prefix>)> = Vec::new();
    for r in routes {
        let key: AttributeSet<'_> = (
            r.afi(),
            r.next_hop,
            &r.as_path,
            r.origin,
            r.med,
            &r.standard_communities,
            &r.extended_communities,
            &r.large_communities,
        );
        let at = *index.entry(key).or_insert(groups.len());
        match groups.get_mut(at) {
            Some((_, prefixes)) => prefixes.push(r.prefix),
            None => groups.push((r, vec![r.prefix])),
        }
    }
    // Conservative chunking: budget ~2000 bytes of NLRI per UPDATE
    // (prefix encodings are ≤17 bytes), leaving ample room for
    // attributes within 4096.
    let chunk_size = 100usize;
    groups
        .iter()
        .flat_map(|(first, prefixes)| {
            prefixes
                .chunks(chunk_size)
                .map(|chunk| announce(first, chunk.to_vec()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use bgp_model::aspath::Segment;
    use bgp_model::prelude::Asn;
    use bytes::Bytes;
    use std::collections::BTreeMap;

    fn v4_route(pfx: &str) -> Route {
        Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path([64496, 15169])
            .origin(Origin::Igp)
            .standard(StandardCommunity::from_parts(0, 6939))
            .build()
    }

    #[test]
    fn route_update_roundtrip_v4() {
        let r = v4_route("203.0.113.0/24");
        let update = routes_to_update(std::slice::from_ref(&r));
        let content = update_to_routes(&update).unwrap();
        assert_eq!(content.announced, vec![r]);
        assert!(content.withdrawn.is_empty());
    }

    #[test]
    fn route_update_roundtrip_v6() {
        let mut r = Route::builder(
            "2001:db8:42::/48".parse().unwrap(),
            "2001:7f8::6939:1".parse().unwrap(),
        )
        .path([6939, 44])
        .origin(Origin::Incomplete)
        .build();
        r.large_communities = vec![LargeCommunity::new(26162, 0, 6939)];
        r.med = Some(50);
        let update = routes_to_update(std::slice::from_ref(&r));
        assert!(update.nlri.is_empty(), "v6 rides in MP_REACH");
        let content = update_to_routes(&update).unwrap();
        assert_eq!(content.announced, vec![r]);
    }

    #[test]
    fn shared_attributes_one_update() {
        let routes = vec![v4_route("203.0.113.0/24"), v4_route("198.51.100.0/24")];
        let updates = routes_to_updates(&routes);
        assert_eq!(updates.len(), 1);
        let content = update_to_routes(&updates[0]).unwrap();
        assert_eq!(content.announced.len(), 2);
    }

    #[test]
    fn different_attributes_split_updates() {
        let a = v4_route("203.0.113.0/24");
        let mut b = v4_route("198.51.100.0/24");
        b.standard_communities
            .push(StandardCommunity::from_parts(6695, 1));
        let updates = routes_to_updates(&[a, b]);
        assert_eq!(updates.len(), 2);
    }

    #[test]
    fn withdraw_only_update() {
        let update = UpdateMessage {
            withdrawn: vec!["203.0.113.0/24".parse().unwrap()],
            ..Default::default()
        };
        let content = update_to_routes(&update).unwrap();
        assert!(content.announced.is_empty());
        assert_eq!(content.withdrawn.len(), 1);
    }

    #[test]
    fn missing_mandatory_attrs_rejected() {
        let update = UpdateMessage {
            nlri: vec!["203.0.113.0/24".parse().unwrap()],
            ..Default::default()
        };
        assert!(update_to_routes(&update).is_err());
    }

    #[test]
    fn large_batch_chunks_fit_wire_limit() {
        let routes: Vec<Route> = (0..500u32)
            .map(|i| {
                let b = (i >> 8) as u8;
                let c = i as u8;
                Route::builder(
                    Prefix::v4(100, b, c, 0, 24).unwrap(),
                    "198.32.0.7".parse().unwrap(),
                )
                .path([64496, 15169])
                .build()
            })
            .collect();
        let updates = routes_to_updates(&routes);
        assert!(updates.len() >= 5);
        let mut total = 0;
        for u in &updates {
            // must encode within the 4096 limit
            let wire = Message::Update(u.clone()).encode().unwrap();
            assert!(wire.len() <= 4096);
            total += update_to_routes(u).unwrap().announced.len();
        }
        assert_eq!(total, 500);
    }

    /// A mixed table: three attribute sets interleaved, two families,
    /// every community kind, and one set large enough to need chunking.
    fn mixed_routes() -> Vec<Route> {
        let mut routes = Vec::new();
        for i in 0..250u32 {
            let mut r = v4_route("203.0.113.0/24");
            r.prefix = Prefix::v4(100, (i >> 8) as u8, i as u8, 0, 24).unwrap();
            routes.push(r);
            if i % 50 == 0 {
                let mut tagged = v4_route("198.51.100.0/24");
                tagged.prefix = Prefix::v4(101, 0, i as u8, 0, 24).unwrap();
                tagged.med = Some(10);
                tagged.extended_communities =
                    vec![ExtendedCommunity::two_octet_as(0x02, 9002, 15169)];
                routes.push(tagged);
            }
            if i % 100 == 0 {
                let mut v6 = Route::builder(
                    format!("2001:db8:{i:x}::/48").parse().unwrap(),
                    "2001:7f8::6939:1".parse().unwrap(),
                )
                .path([6939, 44])
                .build();
                v6.large_communities = vec![LargeCommunity::new(26162, 0, 6939)];
                routes.push(v6);
            }
        }
        routes
    }

    fn frames(updates: Vec<UpdateMessage>) -> Vec<Bytes> {
        let mut frames: Vec<Bytes> = updates
            .into_iter()
            .map(|u| Message::Update(u).encode().unwrap())
            .collect();
        frames.sort();
        frames
    }

    #[test]
    fn grouping_matches_a_string_keyed_reference() {
        let routes = mixed_routes();
        // the grouping this function used to do: a formatted key, owned
        // chunks, groups in key order
        let mut by_key: BTreeMap<String, Vec<Route>> = BTreeMap::new();
        for r in &routes {
            let key = format!(
                "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                r.afi(),
                r.next_hop,
                r.as_path,
                r.origin,
                r.med,
                r.standard_communities,
                r.extended_communities,
                r.large_communities,
            );
            by_key.entry(key).or_default().push(r.clone());
        }
        let reference: Vec<UpdateMessage> = by_key
            .values()
            .flat_map(|group| group.chunks(100).map(routes_to_update))
            .collect();
        let updates = routes_to_updates(&routes);
        // same frames, whatever their order
        assert_eq!(frames(updates.clone()), frames(reference));
        // groups in first-appearance order, equal attributes coalesced
        // across the interleaving, 250 routes split 100/100/50
        let sizes: Vec<usize> = updates
            .iter()
            .map(|u| update_to_routes(u).unwrap().announced.len())
            .collect();
        assert_eq!(sizes, [100, 100, 50, 5, 3]);
        assert_eq!(updates[0].nlri[0], routes[0].prefix);
    }

    #[test]
    fn route_attributes_encode_as_the_update_builder_would() {
        let mut routes = mixed_routes();
        routes.truncate(4);
        // no communities at all
        routes.push(
            Route::builder(
                "192.0.2.0/24".parse().unwrap(),
                "198.32.0.9".parse().unwrap(),
            )
            .path([64500])
            .build(),
        );
        // an attribute past 255 bytes, a segment past 255 ASNs, an AS_SET
        let mut big = v4_route("203.0.113.0/24");
        big.standard_communities = (0..100)
            .map(|i| StandardCommunity::from_parts(6695, i))
            .collect();
        big.as_path = AsPath::from_segments(vec![
            Segment::Sequence((1..=300).map(Asn).collect()),
            Segment::Set(vec![Asn(15169), Asn(8075)]),
        ]);
        routes.push(big);
        // a v4 prefix behind a v6 next hop rides in MP_REACH
        let mut v4_over_v6 = v4_route("203.0.113.0/24");
        v4_over_v6.next_hop = "2001:7f8::1".parse().unwrap();
        routes.push(v4_over_v6);
        for r in &routes {
            let via_update =
                attrs::encode_attributes(&routes_to_update(std::slice::from_ref(r)).attributes);
            let mut direct = BytesMut::new();
            encode_route_attributes(r, &mut direct);
            assert_eq!(direct, via_update, "{r:?}");
        }
    }

    #[test]
    fn as_path_asn_preserved() {
        let r = v4_route("203.0.113.0/24");
        let update = routes_to_update(std::slice::from_ref(&r));
        let content = update_to_routes(&update).unwrap();
        assert_eq!(content.announced[0].as_path.first_asn(), Some(Asn(64496)));
    }
}
