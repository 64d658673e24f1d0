//! # analysis
//!
//! Every table and figure of the CoNEXT'22 paper, computed from the
//! artifacts the paper's pipeline holds: snapshots (member list +
//! accepted routes with communities) plus the per-IXP community
//! dictionary. [`core::View`] folds a snapshot's routes into one set of
//! counters in a single pass ([`incremental`] keeps the same counters
//! current per stream delta instead); every function below reads its
//! figure off a `View`, and [`summary::SnapshotReport::from_view`]
//! assembles them all. One module per analysis:
//!
//! | Paper element | Module / function |
//! |---|---|
//! | Table 1 | [`tables::table1_row`] |
//! | Fig. 1 (defined vs unknown) | [`figs_overview::fig1`] |
//! | Fig. 2 (standard/extended/large) | [`figs_overview::fig2`] |
//! | Fig. 3 (action vs informational) | [`figs_overview::fig3`] |
//! | Fig. 4a (ASes & routes using actions) | [`fig4::fig4a`] |
//! | Fig. 4b (per-AS skew) | [`fig4::fig4b`] |
//! | Fig. 4c (routes/actions correlation) | [`fig4::fig4c`] |
//! | Table 2 (ASes per action type) | [`actions::table2`] |
//! | §5.3 instance mix | [`actions::type_counts`] |
//! | Fig. 5 (top-20 communities) | [`tops::fig5`] |
//! | Fig. 6 (top-20 non-member targets) | [`tops::fig6`] |
//! | §5.5 ineffective share | [`tops::ineffective`] |
//! | Fig. 7 (culprit ASes) | [`tops::fig7`] |
//! | Tables 3 & 4 (stability) | [`tables::StabilityRow`] |
//! | §5.4 cross-IXP target overlap | [`overlap::target_overlap_from_tops`] |
//! | All of the above, one (IXP, family) | [`summary::SnapshotReport::from_view`] |
//! | All units of a store | [`summary::full_report`] |
//! | The same, maintained per stream delta | [`incremental::IncrementalReport`] |

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod actions;
pub mod core;
pub mod fig4;
pub mod figs_overview;
pub mod incremental;
pub mod overlap;
pub mod report;
pub mod summary;
pub mod tables;
pub mod tops;

/// Common re-exports.
pub mod prelude {
    pub use crate::actions::{table2, type_counts, Table2, TypeCounts};
    pub use crate::core::{pct, View};
    pub use crate::fig4::{fig4a, fig4b, fig4c, Fig4a, Fig4b, Fig4c};
    pub use crate::figs_overview::{fig1, fig2, fig3, Fig1, Fig2, Fig3};
    pub use crate::incremental::{IncrementalReport, IxpEngine};
    pub use crate::overlap::{target_overlap_from_tops, TargetOverlap};
    pub use crate::report::{human_count, pct1, TextTable};
    pub use crate::summary::{full_report, FullReport, SnapshotReport};
    pub use crate::tables::{table1_row, StabilityRow, Table1Row, Variation};
    pub use crate::tops::{fig5, fig6, fig7, ineffective, Fig7, Ineffective, TopCommunities};
}

pub use prelude::*;
