//! Pattern generators and the overlap probe shared by the SC004
//! (`ambiguity_prop.rs`) and SC006 (`drift_prop.rs`) property tests.

use std::collections::BTreeSet;

use bgp_model::community::StandardCommunity;
use community_dict::pattern::Pattern;
use prop::Choices;

/// Arbitrary pattern over a tiny high-bit space (0..4) so overlaps are
/// common. `PeerAsnLow` templates are drawn only when `templates` is set.
pub fn gen_pattern(c: &mut Choices, templates: bool) -> Pattern {
    let kind = c.draw(if templates { 2 } else { 1 });
    let high = c.draw(3) as u16;
    let (a, b) = (c.draw(0xFFFF) as u16, c.draw(0xFFFF) as u16);
    match kind {
        0 => Pattern::Exact(StandardCommunity::from_parts(high, a)),
        1 => Pattern::LowRange {
            high,
            lo: a.min(b),
            hi: a.max(b),
        },
        _ => Pattern::PeerAsnLow { high },
    }
}

/// A community value both patterns match, probed with the production
/// matcher over the patterns' interval endpoints.
pub fn common_match(p1: &Pattern, p2: &Pattern) -> Option<StandardCommunity> {
    let endpoints = |p: &Pattern| -> Vec<StandardCommunity> {
        match *p {
            Pattern::Exact(c) => vec![c],
            Pattern::PeerAsnLow { high } => vec![
                StandardCommunity::from_parts(high, 0),
                StandardCommunity::from_parts(high, u16::MAX),
            ],
            Pattern::LowRange { high, lo, hi } => vec![
                StandardCommunity::from_parts(high, lo),
                StandardCommunity::from_parts(high, hi),
            ],
        }
    };
    let mut candidates: BTreeSet<StandardCommunity> = BTreeSet::new();
    candidates.extend(endpoints(p1));
    candidates.extend(endpoints(p2));
    candidates
        .into_iter()
        .find(|&c| p1.matches(c) && p2.matches(c))
}
