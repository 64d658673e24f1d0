//! Dictionary entries and their provenance.
//!
//! The paper builds each IXP's dictionary as the *union* of two sources
//! (§3): the RS configuration fetched over the LG API, and the community
//! documentation published on the IXP website — because the RS list turned
//! out to be incomplete. Every entry records which source(s) listed it.

use serde::{Deserialize, Serialize};

use crate::pattern::Pattern;
use crate::semantics::Semantics;

/// Where an entry was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SourceSet {
    /// Listed in the RS configuration file (LG API).
    pub rs_config: bool,
    /// Listed in the IXP website documentation.
    pub website: bool,
}

impl SourceSet {
    /// Present in both sources.
    pub(crate) const BOTH: SourceSet = SourceSet {
        rs_config: true,
        website: true,
    };
    /// RS configuration only.
    pub(crate) const RS_ONLY: SourceSet = SourceSet {
        rs_config: true,
        website: false,
    };
    /// Website documentation only (the gap the paper discovered).
    pub(crate) const WEBSITE_ONLY: SourceSet = SourceSet {
        rs_config: false,
        website: true,
    };

    /// Merge provenance from another sighting of the same entry.
    pub(crate) fn merge(self, other: SourceSet) -> SourceSet {
        SourceSet {
            rs_config: self.rs_config || other.rs_config,
            website: self.website || other.website,
        }
    }
}

/// One dictionary entry: a community pattern, its meaning, a
/// human-readable description, and provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DictionaryEntry {
    /// The community value(s) this entry covers.
    pub pattern: Pattern,
    /// What a match means. For patterns whose low bits encode the target
    /// AS, the stored semantics uses a placeholder target that
    /// [`Pattern::resolve`](crate::pattern::Pattern) replaces at match time.
    pub semantics: Semantics,
    /// Documentation string as it would appear in the IXP docs.
    pub description: String,
    /// Which source(s) listed this entry.
    pub sources: SourceSet,
}

impl DictionaryEntry {
    /// Construct an entry present in both sources.
    pub fn new(pattern: Pattern, semantics: Semantics, description: impl Into<String>) -> Self {
        DictionaryEntry {
            pattern,
            semantics,
            description: description.into(),
            sources: SourceSet::BOTH,
        }
    }

    /// Override provenance.
    pub(crate) fn with_sources(mut self, sources: SourceSet) -> Self {
        self.sources = sources;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_merge() {
        assert_eq!(
            SourceSet::RS_ONLY.merge(SourceSet::WEBSITE_ONLY),
            SourceSet::BOTH
        );
        assert_eq!(SourceSet::BOTH.merge(SourceSet::RS_ONLY), SourceSet::BOTH);
        assert_eq!(
            SourceSet::default().merge(SourceSet::WEBSITE_ONLY),
            SourceSet::WEBSITE_ONLY
        );
    }
}
