//! Per-IXP community dictionaries with indexed lookup and the paper's
//! two-source union mechanic (§3).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use bgp_model::community::StandardCommunity;

use crate::entry::{DictionaryEntry, SourceSet};
use crate::ixp::IxpId;
use crate::pattern::Pattern;
use crate::semantics::{Classification, Semantics};

/// A community dictionary for one IXP.
///
/// Lookup precedence: exact entries beat range entries beat
/// `high:<peer-as>` templates, mirroring how operators read the docs
/// ("`0:6695` means *all*, any other `0:x` means *AS x*").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dictionary {
    ixp: IxpId,
    entries: Vec<DictionaryEntry>,
    #[serde(skip)]
    index: Index,
}

#[derive(Debug, Clone, Default)]
struct Index {
    exact: HashMap<u32, usize>,
    /// Non-exact patterns grouped by their fixed high bits, each list
    /// sorted by ascending specificity.
    by_high: HashMap<u16, Vec<usize>>,
}

impl Dictionary {
    /// Build a dictionary from entries (deduplicating identical patterns,
    /// merging their provenance).
    pub fn new(ixp: IxpId, entries: Vec<DictionaryEntry>) -> Self {
        let mut merged: Vec<DictionaryEntry> = Vec::with_capacity(entries.len());
        let mut seen: HashMap<String, usize> = HashMap::new();
        for e in entries {
            let key = format!("{:?}", e.pattern);
            match seen.get(&key) {
                Some(&i) => {
                    let prev: &mut DictionaryEntry = &mut merged[i];
                    prev.sources = prev.sources.merge(e.sources);
                }
                None => {
                    seen.insert(key, merged.len());
                    merged.push(e);
                }
            }
        }
        let mut dict = Dictionary {
            ixp,
            entries: merged,
            index: Index::default(),
        };
        dict.rebuild_index();
        dict
    }

    /// The paper's union construction: RS-config entries ∪ website entries.
    pub(crate) fn union(
        ixp: IxpId,
        rs_config: Vec<DictionaryEntry>,
        website: Vec<DictionaryEntry>,
    ) -> Self {
        let mut all = rs_config;
        all.extend(website);
        Dictionary::new(ixp, all)
    }

    fn rebuild_index(&mut self) {
        self.index = Index::default();
        for (i, e) in self.entries.iter().enumerate() {
            match e.pattern {
                Pattern::Exact(c) => {
                    self.index.exact.insert(c.0, i);
                }
                _ => {
                    self.index
                        .by_high
                        .entry(e.pattern.high())
                        .or_default()
                        .push(i);
                }
            }
        }
        for list in self.index.by_high.values_mut() {
            list.sort_by_key(|&i| self.entries[i].pattern.specificity());
        }
    }

    /// The IXP this dictionary belongs to.
    pub fn ixp(&self) -> IxpId {
        self.ixp
    }

    /// All entries.
    pub fn entries(&self) -> &[DictionaryEntry] {
        &self.entries
    }

    /// Entry count — the paper's "dictionary size" (e.g. 774 for DE-CIX).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries restricted to one source (for the §3 union comparison and
    /// the RS-config-only ablation).
    pub fn restricted_to(&self, f: impl Fn(SourceSet) -> bool) -> Dictionary {
        Dictionary::new(
            self.ixp,
            self.entries
                .iter()
                .filter(|e| f(e.sources))
                .cloned()
                .collect(),
        )
    }

    /// Classify one standard community.
    pub fn classify(&self, c: StandardCommunity) -> Classification {
        if let Some(&i) = self.index.exact.get(&c.0) {
            let e = &self.entries[i];
            return Classification::IxpDefined(e.pattern.resolve(e.semantics, c));
        }
        if let Some(list) = self.index.by_high.get(&c.high()) {
            for &i in list {
                let e = &self.entries[i];
                if e.pattern.matches(c) {
                    return Classification::IxpDefined(e.pattern.resolve(e.semantics, c));
                }
            }
        }
        Classification::Unknown
    }

    /// Convenience: the resolved semantics, if defined.
    pub fn semantics(&self, c: StandardCommunity) -> Option<Semantics> {
        match self.classify(c) {
            Classification::IxpDefined(s) => Some(s),
            Classification::Unknown => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionKind, Target};
    use crate::semantics::InfoKind;
    use bgp_model::asn::Asn;

    const C: fn(u16, u16) -> StandardCommunity = StandardCommunity::from_parts;

    fn mini_dict() -> Dictionary {
        Dictionary::new(
            IxpId::DeCixFra,
            vec![
                DictionaryEntry::new(
                    Pattern::Exact(C(0, 6695)),
                    Semantics::Action(Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers)),
                    "do not announce to any peer",
                ),
                DictionaryEntry::new(
                    Pattern::PeerAsnLow { high: 0 },
                    Semantics::Action(Action::avoid(Asn(0))),
                    "do not announce to <peer-as>",
                ),
                DictionaryEntry::new(
                    Pattern::LowRange {
                        high: 6695,
                        lo: 800,
                        hi: 899,
                    },
                    Semantics::Informational(InfoKind::LearnedAt(0)),
                    "learned at location",
                ),
                DictionaryEntry::new(
                    Pattern::PeerAsnLow { high: 6695 },
                    Semantics::Action(Action::only(Asn(0))),
                    "announce only to <peer-as>",
                ),
            ],
        )
    }

    #[test]
    fn exact_beats_template() {
        let d = mini_dict();
        // 0:6695 is the "all peers" exact entry, not "avoid AS6695"
        assert_eq!(
            d.classify(C(0, 6695)).action().unwrap().target,
            Target::AllPeers
        );
        // any other 0:x resolves via the template
        assert_eq!(
            d.classify(C(0, 6939)).action().unwrap(),
            Action::avoid(Asn(6939))
        );
    }

    #[test]
    fn range_beats_template() {
        let d = mini_dict();
        // 6695:850 is in the informational range, not "announce only to AS850"
        assert_eq!(
            d.classify(C(6695, 850)),
            Classification::IxpDefined(Semantics::Informational(InfoKind::LearnedAt(50)))
        );
        // 6695:15169 falls outside the range → announce-only template
        assert_eq!(
            d.classify(C(6695, 15169)).action().unwrap(),
            Action::only(Asn(15169))
        );
    }

    #[test]
    fn unknown_communities() {
        let d = mini_dict();
        assert_eq!(d.classify(C(3356, 100)), Classification::Unknown);
        assert_eq!(d.semantics(C(3356, 100)), None);
    }

    #[test]
    fn union_merges_duplicate_patterns() {
        let rs = vec![DictionaryEntry::new(
            Pattern::Exact(C(0, 6695)),
            Semantics::Action(Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers)),
            "x",
        )
        .with_sources(SourceSet::RS_ONLY)];
        let web = vec![
            DictionaryEntry::new(
                Pattern::Exact(C(0, 6695)),
                Semantics::Action(Action::new(ActionKind::DoNotAnnounceTo, Target::AllPeers)),
                "x",
            )
            .with_sources(SourceSet::WEBSITE_ONLY),
            DictionaryEntry::new(
                Pattern::Exact(C(65535, 666)),
                Semantics::Action(Action::blackhole()),
                "blackhole",
            )
            .with_sources(SourceSet::WEBSITE_ONLY),
        ];
        let d = Dictionary::union(IxpId::DeCixFra, rs, web);
        assert_eq!(d.len(), 2);
        // duplicate provenance merged
        let e = d
            .entries()
            .iter()
            .find(|e| e.pattern == Pattern::Exact(C(0, 6695)))
            .unwrap();
        assert_eq!(e.sources, SourceSet::BOTH);
        // website-only entry classified even though RS config missed it
        assert!(d.classify(C(65535, 666)).is_ixp_defined());
        // restricting to RS-config loses the blackhole entry
        let rs_only = d.restricted_to(|s| s.rs_config);
        assert_eq!(rs_only.len(), 1);
        assert_eq!(rs_only.classify(C(65535, 666)), Classification::Unknown);
    }
}
