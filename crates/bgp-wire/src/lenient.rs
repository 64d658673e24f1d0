//! RFC 7606 "Revised Error Handling for BGP UPDATE Messages".
//!
//! A route server faces arbitrary junk from hundreds of peers; tearing the
//! session down on every malformed attribute (the RFC 4271 §6 behaviour)
//! would let one bad announcement take down a member's whole view. RFC
//! 7606 instead defines per-attribute fallbacks:
//!
//! - **attribute discard** for self-contained optional attributes whose
//!   loss cannot change path selection against the sender's intent
//!   (COMMUNITIES, EXTENDED_COMMUNITIES, LARGE_COMMUNITIES, MED, …);
//! - **treat-as-withdraw** when a mandatory attribute (ORIGIN, AS_PATH,
//!   NEXT_HOP) is malformed: the NLRI are processed as withdrawals;
//! - **session reset** only for framing errors that leave the byte stream
//!   unparseable (those still surface as [`WireError`]s).

use bytes::{Buf, Bytes};

use bgp_model::prefix::Afi;

use crate::attrs::{self, PathAttribute};
use crate::error::{ensure, WireError};
use crate::message::UpdateMessage;
use crate::nlri;

/// What the lenient parser did about one malformed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrFallback {
    /// The attribute was dropped; the routes stand (RFC 7606 §2, "attribute
    /// discard").
    Discarded {
        /// Attribute type code.
        code: u8,
        /// The decoder's complaint.
        reason: String,
    },
    /// A mandatory attribute was malformed; the UPDATE's announcements
    /// must be treated as withdrawals (RFC 7606 §2, "treat-as-withdraw").
    TreatAsWithdraw {
        /// Attribute type code.
        code: u8,
        /// The decoder's complaint.
        reason: String,
    },
}

/// Result of lenient UPDATE-body parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientUpdate {
    /// The surviving message. When treat-as-withdraw fired, `nlri` has
    /// been moved into `withdrawn` (and MP_REACH NLRI into MP_UNREACH).
    pub update: UpdateMessage,
    /// Every fallback applied, in encounter order.
    pub fallbacks: Vec<AttrFallback>,
}

impl LenientUpdate {
    /// True if treat-as-withdraw was applied.
    pub fn treated_as_withdraw(&self) -> bool {
        self.fallbacks
            .iter()
            .any(|f| matches!(f, AttrFallback::TreatAsWithdraw { .. }))
    }
}

/// Is this attribute safe to discard when malformed (RFC 7606 §7)?
fn discardable(code: u8) -> bool {
    matches!(
        code,
        attrs::code::MED
            | attrs::code::LOCAL_PREF
            | attrs::code::ATOMIC_AGGREGATE
            | attrs::code::AGGREGATOR
            | attrs::code::COMMUNITIES
            | attrs::code::EXTENDED_COMMUNITIES
            | attrs::code::LARGE_COMMUNITIES
    )
}

/// Parse an UPDATE body (the bytes after the 19-byte header) with RFC
/// 7606 semantics. Framing errors (truncated lengths) still return `Err`
/// — those require a session reset.
pub fn decode_update_lenient(body: &mut Bytes) -> Result<LenientUpdate, WireError> {
    ensure(body, 2, "withdrawn routes length")?;
    let wd_len = body.get_u16() as usize;
    ensure(body, wd_len, "withdrawn routes")?;
    let mut wd = body.split_to(wd_len);
    let withdrawn = nlri::decode_prefixes(&mut wd, Afi::Ipv4)?;

    ensure(body, 2, "path attributes length")?;
    let attr_len = body.get_u16() as usize;
    ensure(body, attr_len, "path attribute block")?;
    let mut block = body.split_to(attr_len);

    let mut attributes = Vec::new();
    let mut fallbacks = Vec::new();
    while block.has_remaining() {
        // peek the attribute header so a value error can be attributed
        if block.remaining() < 3 {
            return Err(WireError::Truncated {
                context: "attribute header",
                needed: 3,
                available: block.remaining(),
            });
        }
        let code = block[1];
        match PathAttribute::decode(&mut block) {
            Ok(attr) => attributes.push(attr),
            Err(WireError::BadAttribute { code, reason }) => {
                if discardable(code) {
                    fallbacks.push(AttrFallback::Discarded {
                        code,
                        reason: reason.to_string(),
                    });
                } else {
                    fallbacks.push(AttrFallback::TreatAsWithdraw {
                        code,
                        reason: reason.to_string(),
                    });
                }
            }
            // a length error inside the block means we cannot find the
            // next attribute boundary: that is a framing error
            Err(e) => {
                let _ = code;
                return Err(e);
            }
        }
    }

    let nlri = nlri::decode_prefixes(body, Afi::Ipv4)?;
    let mut update = UpdateMessage {
        withdrawn,
        attributes,
        nlri,
    };

    if fallbacks
        .iter()
        .any(|f| matches!(f, AttrFallback::TreatAsWithdraw { .. }))
    {
        // move every announcement to the withdrawn side
        update.withdrawn.append(&mut update.nlri);
        let mut mp_withdrawn: Vec<bgp_model::prefix::Prefix> = Vec::new();
        update.attributes.retain_mut(|attr| match attr {
            PathAttribute::MpReach(mp) => {
                mp_withdrawn.append(&mut mp.nlri);
                false
            }
            _ => true,
        });
        if !mp_withdrawn.is_empty() {
            // merge into an existing MP_UNREACH or add one
            let mut merged = false;
            for attr in &mut update.attributes {
                if let PathAttribute::MpUnreach(mp) = attr {
                    mp.withdrawn.append(&mut mp_withdrawn);
                    merged = true;
                    break;
                }
            }
            if !merged {
                update
                    .attributes
                    .push(PathAttribute::MpUnreach(attrs::MpUnreach {
                        afi: Afi::Ipv6,
                        withdrawn: mp_withdrawn,
                    }));
            }
        }
    }

    Ok(LenientUpdate { update, fallbacks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use bgp_model::route::Route;
    use bytes::{BufMut, BytesMut};

    use crate::convert::routes_to_update;
    use crate::message::{Message, HEADER_LEN};

    fn update_body(update: &UpdateMessage) -> Bytes {
        let wire = Message::Update(update.clone()).encode().unwrap();
        wire.slice(HEADER_LEN..)
    }

    fn sample_update() -> UpdateMessage {
        let route = Route::builder(
            "193.0.10.0/24".parse().unwrap(),
            "198.32.0.7".parse().unwrap(),
        )
        .path([39120, 15169])
        .standard(bgp_model::community::StandardCommunity::from_parts(0, 6939))
        .build();
        routes_to_update(std::slice::from_ref(&route))
    }

    /// Re-encode an update with one attribute's value bytes replaced.
    fn body_with_broken_attr(update: &UpdateMessage, code: u8, bad_len: u8) -> Bytes {
        // hand-encode: withdrawn(0) + attrs with one broken + nlri
        let mut attrs_buf = BytesMut::new();
        for a in &update.attributes {
            if a.type_code() == code {
                attrs_buf.put_u8(0x40); // transitive
                attrs_buf.put_u8(code);
                attrs_buf.put_u8(bad_len);
                attrs_buf.put_bytes(0xAB, bad_len as usize);
            } else {
                a.encode(&mut attrs_buf);
            }
        }
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(attrs_buf.len() as u16);
        body.put_slice(&attrs_buf);
        crate::nlri::encode_prefixes(&update.nlri, &mut body);
        body.freeze()
    }

    #[test]
    fn clean_update_passes_through() {
        let update = sample_update();
        let mut body = update_body(&update);
        let lenient = decode_update_lenient(&mut body).unwrap();
        assert!(lenient.fallbacks.is_empty());
        assert_eq!(lenient.update, update);
    }

    #[test]
    fn malformed_communities_discarded_routes_stand() {
        let update = sample_update();
        // COMMUNITIES with length 3 (not a multiple of 4)
        let mut body = body_with_broken_attr(&update, attrs::code::COMMUNITIES, 3);
        let lenient = decode_update_lenient(&mut body).unwrap();
        assert!(!lenient.treated_as_withdraw());
        assert_eq!(lenient.fallbacks.len(), 1);
        assert!(matches!(
            lenient.fallbacks[0],
            AttrFallback::Discarded {
                code: attrs::code::COMMUNITIES,
                ..
            }
        ));
        // the announcement survives, just without communities
        assert_eq!(lenient.update.nlri, update.nlri);
        assert!(!lenient
            .update
            .attributes
            .iter()
            .any(|a| a.type_code() == attrs::code::COMMUNITIES));
    }

    #[test]
    fn malformed_origin_treats_as_withdraw() {
        let update = sample_update();
        // ORIGIN with 2 bytes
        let mut body = body_with_broken_attr(&update, attrs::code::ORIGIN, 2);
        let lenient = decode_update_lenient(&mut body).unwrap();
        assert!(lenient.treated_as_withdraw());
        assert!(lenient.update.nlri.is_empty());
        assert_eq!(lenient.update.withdrawn, update.nlri);
    }

    #[test]
    fn malformed_aspath_treats_as_withdraw() {
        let update = sample_update();
        // AS_PATH segment header promising more ASNs than present
        let mut attrs_buf = BytesMut::new();
        for a in &update.attributes {
            if a.type_code() == attrs::code::AS_PATH {
                attrs_buf.put_u8(0x40);
                attrs_buf.put_u8(attrs::code::AS_PATH);
                attrs_buf.put_u8(6); // value length
                attrs_buf.put_u8(2); // AS_SEQUENCE
                attrs_buf.put_u8(5); // claims 5 ASNs but only 1 fits
                attrs_buf.put_u32(39120);
            } else {
                a.encode(&mut attrs_buf);
            }
        }
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(attrs_buf.len() as u16);
        body.put_slice(&attrs_buf);
        crate::nlri::encode_prefixes(&update.nlri, &mut body);
        let mut body = body.freeze();
        let lenient = decode_update_lenient(&mut body).unwrap();
        assert!(lenient.treated_as_withdraw());
        assert_eq!(lenient.update.withdrawn.len(), 1);
    }

    #[test]
    fn treat_as_withdraw_covers_mp_reach() {
        let route = Route::builder(
            "2a00:1450::/32".parse().unwrap(),
            "2001:7f8::1".parse().unwrap(),
        )
        .path([39120])
        .build();
        let update = routes_to_update(std::slice::from_ref(&route));
        // break ORIGIN → v6 announcement must become an MP_UNREACH
        let mut attrs_buf = BytesMut::new();
        for a in &update.attributes {
            if a.type_code() == attrs::code::ORIGIN {
                attrs_buf.put_u8(0x40);
                attrs_buf.put_u8(attrs::code::ORIGIN);
                attrs_buf.put_u8(2);
                attrs_buf.put_u16(0);
            } else {
                a.encode(&mut attrs_buf);
            }
        }
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(attrs_buf.len() as u16);
        body.put_slice(&attrs_buf);
        let mut body = body.freeze();
        let lenient = decode_update_lenient(&mut body).unwrap();
        assert!(lenient.treated_as_withdraw());
        let Some(PathAttribute::MpUnreach(mp)) = lenient
            .update
            .attributes
            .iter()
            .find(|a| matches!(a, PathAttribute::MpUnreach(_)))
        else {
            panic!("expected MP_UNREACH");
        };
        assert_eq!(mp.withdrawn, vec!["2a00:1450::/32".parse().unwrap()]);
        assert!(!lenient
            .update
            .attributes
            .iter()
            .any(|a| matches!(a, PathAttribute::MpReach(_))));
    }

    #[test]
    fn framing_errors_still_fail() {
        // attribute length runs past the block: unrecoverable
        let mut body = BytesMut::new();
        body.put_u16(0); // no withdrawn
        body.put_u16(3); // attr block of 3 bytes
        body.put_u8(0x40);
        body.put_u8(attrs::code::ORIGIN);
        body.put_u8(200); // claims 200 value bytes
        let mut body = body.freeze();
        assert!(decode_update_lenient(&mut body).is_err());
    }

    #[test]
    fn unknown_asn_is_not_affected() {
        // sanity: Asn import used
        assert_eq!(Asn(1).value(), 1);
    }
}
