//! Golden-fixture regression tests for the analysis layer: Table 2,
//! Table 3 and Fig. 4 at a fixed `(seed, scale)` must serialize
//! bit-for-bit identically to the JSON committed under
//! `tests/goldens/`. Any analysis change that moves a number shows up
//! as a readable JSON diff in review instead of a silent drift.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p bench --test goldens
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use analysis::prelude::*;
use bench::{standard_scenario, AFIS};
use bgp_model::prefix::Afi;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use ixp_sim::timeline::{generate_series, TimelineConfig};
use looking_glass::snapshot::SnapshotStore;

/// The fixed coordinates the fixtures were generated at. Changing either
/// invalidates every golden, so they are deliberately not configurable.
const GOLDEN_SEED: u64 = 0x601D_5EED;
const GOLDEN_SCALE: f64 = 0.05;
const GOLDEN_IXP: IxpId = IxpId::DeCixFra;

fn world() -> &'static (SnapshotStore, Vec<Dictionary>) {
    static WORLD: OnceLock<(SnapshotStore, Vec<Dictionary>)> = OnceLock::new();
    WORLD.get_or_init(|| standard_scenario(GOLDEN_SEED, GOLDEN_SCALE, &[GOLDEN_IXP]))
}

fn views() -> Vec<(View, Afi)> {
    let (store, dicts) = world();
    AFIS.iter()
        .filter_map(|afi| {
            let snap = store.latest(GOLDEN_IXP, *afi)?;
            Some((View::new(snap, &dicts[0]), *afi))
        })
        .collect()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn assert_golden(name: &str, value: &impl serde::Serialize) {
    let mut actual = serde_json::to_string_pretty(value).expect("golden value serializes");
    actual.push('\n');
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("goldens dir")).expect("create goldens dir");
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("goldens: wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\ngenerate it with: \
             UPDATE_GOLDENS=1 cargo test -p bench --test goldens",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden {name} drifted — if the analysis change is intentional, regenerate with \
         UPDATE_GOLDENS=1 cargo test -p bench --test goldens and commit the diff"
    );
}

#[test]
fn table2_matches_golden() {
    let tables: Vec<Table2> = views().iter().map(|(view, _)| table2(view)).collect();
    assert!(!tables.is_empty(), "golden world produced no snapshots");
    assert_golden("table2.json", &tables);
}

#[test]
fn table3_matches_golden() {
    let rows: Vec<StabilityRow> = AFIS
        .iter()
        .map(|afi| {
            let series = generate_series(
                GOLDEN_IXP,
                *afi,
                &TimelineConfig {
                    seed: GOLDEN_SEED,
                    ..TimelineConfig::default()
                },
            );
            StabilityRow::from_points(series.ixp, series.afi, &series.last_week())
        })
        .collect();
    assert_golden("table3.json", &rows);
}

#[test]
fn fig4_matches_golden() {
    #[derive(serde::Serialize)]
    struct Fig4Golden {
        afi: Afi,
        a: Fig4a,
        b: Fig4b,
        c: Fig4c,
    }
    let panels: Vec<Fig4Golden> = views()
        .iter()
        .map(|(view, afi)| Fig4Golden {
            afi: *afi,
            a: fig4a(view),
            b: fig4b(view),
            c: fig4c(view),
        })
        .collect();
    assert!(!panels.is_empty(), "golden world produced no snapshots");
    assert_golden("fig4.json", &panels);
}
