//! AS_PATH representation (RFC 4271 §4.3, 4-byte ASNs per RFC 6793).
//!
//! An AS path is a sequence of segments; each segment is either an ordered
//! `AS_SEQUENCE` or an unordered `AS_SET` (from aggregation). The route
//! server never inserts its own ASN (RFC 7947 §2.2.2) but must still
//! validate paths and apply prepend actions on behalf of members.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;

/// Segment type byte values from RFC 4271.
pub const SEGMENT_TYPE_SET: u8 = 1;
/// AS_SEQUENCE segment type byte.
pub const SEGMENT_TYPE_SEQUENCE: u8 = 2;

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// Ordered list of traversed ASNs (most recent first).
    Sequence(Vec<Asn>),
    /// Unordered set from route aggregation.
    Set(Vec<Asn>),
}

impl Segment {
    /// ASNs in the segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            Segment::Sequence(v) | Segment::Set(v) => v,
        }
    }

    /// Path-length contribution per RFC 4271 §9.1.2.2: a sequence counts
    /// each ASN, a set counts as one.
    pub(crate) fn path_len(&self) -> usize {
        match self {
            Segment::Sequence(v) => v.len(),
            Segment::Set(v) => usize::from(!v.is_empty()),
        }
    }
}

/// A full AS_PATH.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath {
    segments: Vec<Segment>,
}

impl AsPath {
    /// The empty path (as originated into iBGP; never valid at an IXP RS).
    pub(crate) fn empty() -> Self {
        AsPath::default()
    }

    /// Build a path from a single ordered sequence, first element being the
    /// neighbor the route was learned from and last being the origin.
    pub fn from_sequence<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        AsPath {
            segments: vec![Segment::Sequence(asns.into_iter().collect())],
        }
    }

    /// Build from explicit segments.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        AsPath { segments }
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// True if there are no segments (or only empty ones).
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.asns().is_empty())
    }

    /// RFC 4271 path length (AS_SET counts 1).
    pub fn path_len(&self) -> usize {
        self.segments.iter().map(Segment::path_len).sum()
    }

    /// The leftmost ASN: the neighbor that announced us the route.
    pub fn first_asn(&self) -> Option<Asn> {
        self.segments.iter().find_map(|s| s.asns().first().copied())
    }

    /// The origin AS: rightmost ASN of the last segment, when it is a
    /// sequence. Aggregated routes ending in an AS_SET have no single
    /// origin (RFC 4271), so this returns `None` for those.
    pub fn origin_asn(&self) -> Option<Asn> {
        match self.segments.last() {
            Some(Segment::Sequence(v)) => v.last().copied(),
            _ => None,
        }
    }

    /// True if `asn` appears anywhere in the path (loop detection — an IXP
    /// RS drops paths containing its own ASN or the target peer's ASN).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns().contains(&asn))
    }

    /// Iterate over every ASN in the path, prepends included.
    pub fn iter_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// Prepend `asn` `count` times at the front, merging into an existing
    /// leading sequence. This is what the RS does when executing a
    /// `prepend-to` action community before exporting to the target peer.
    pub fn prepend(&self, asn: Asn, count: usize) -> AsPath {
        if count == 0 {
            return self.clone();
        }
        let mut segments = self.segments.clone();
        match segments.first_mut() {
            Some(Segment::Sequence(v)) => {
                let mut head = vec![asn; count];
                head.append(v);
                *v = head;
            }
            _ => segments.insert(0, Segment::Sequence(vec![asn; count])),
        }
        AsPath { segments }
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                Segment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.value().to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                Segment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.value().to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<T: IntoIterator<Item = Asn>>(iter: T) -> Self {
        AsPath::from_sequence(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(v: &[u32]) -> AsPath {
        AsPath::from_sequence(v.iter().map(|&x| Asn(x)))
    }

    #[test]
    fn basic_accessors() {
        let p = path(&[64496, 3356, 15169]);
        assert_eq!(p.first_asn(), Some(Asn(64496)));
        assert_eq!(p.origin_asn(), Some(Asn(15169)));
        assert_eq!(p.path_len(), 3);
        assert!(p.contains(Asn(3356)));
        assert!(!p.contains(Asn(1)));
    }

    #[test]
    fn empty_path() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.first_asn(), None);
        assert_eq!(p.origin_asn(), None);
        assert_eq!(p.path_len(), 0);
    }

    #[test]
    fn as_set_counts_one_for_length() {
        let p = AsPath::from_segments(vec![
            Segment::Sequence(vec![Asn(100), Asn(200)]),
            Segment::Set(vec![Asn(300), Asn(400), Asn(500)]),
        ]);
        assert_eq!(p.path_len(), 3); // 2 + 1
                                     // origin undefined when path ends in a set
        assert_eq!(p.origin_asn(), None);
    }

    #[test]
    fn prepend_merges_into_leading_sequence() {
        let p = path(&[100, 200]);
        let q = p.prepend(Asn(100), 2);
        assert_eq!(q, path(&[100, 100, 100, 200]));
        assert_eq!(q.path_len(), 4);
        // original untouched
        assert_eq!(p.path_len(), 2);
    }

    #[test]
    fn prepend_zero_is_identity() {
        let p = path(&[100, 200]);
        assert_eq!(p.prepend(Asn(999), 0), p);
    }

    #[test]
    fn prepend_onto_leading_set_creates_new_segment() {
        let p = AsPath::from_segments(vec![Segment::Set(vec![Asn(1), Asn(2)])]);
        let q = p.prepend(Asn(100), 1);
        assert_eq!(q.segments().len(), 2);
        assert_eq!(q.first_asn(), Some(Asn(100)));
    }

    #[test]
    fn display_format() {
        let p = AsPath::from_segments(vec![
            Segment::Sequence(vec![Asn(64496), Asn(3356)]),
            Segment::Set(vec![Asn(15169), Asn(8075)]),
        ]);
        assert_eq!(p.to_string(), "64496 3356 {15169,8075}");
    }
}
