//! Seeded-violation fixtures: each JSON file under `tests/fixtures/`
//! plants one known defect class and the verifier must report exactly
//! the expected stable diagnostic codes, with a nonzero exit.

use std::path::{Path, PathBuf};

use staticheck::cli::run_captured;
use staticheck::{Report, Severity};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Run `staticheck policy --fixture <name>`.
fn run_fixture(name: &str) -> Report {
    let args: Vec<String> = [
        "policy",
        "--fixture",
        fixture_path(name).to_str().expect("utf-8 path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (report, _) = run_captured(&args).expect("fixture runs");
    report
}

fn codes(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|d| d.code.as_str()).collect()
}

#[test]
fn shadowed_fixture_reports_sc001_and_fails() {
    let report = run_fixture("shadowed.json");
    assert_eq!(codes(&report), vec!["SC001"]);
    assert!(report.findings[0].location.contains("reject-long-v4"));
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn contradictory_fixture_reports_sc002_and_fails() {
    let report = run_fixture("contradictory.json");
    assert_eq!(codes(&report), vec!["SC002"]);
    assert!(report.findings[0].location.contains("only-to-he-on-v4"));
    assert!(report.findings[0]
        .location
        .contains("avoid-he-on-host-routes"));
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn ineffective_fixture_reports_sc003_rule_error_and_entry_warning() {
    let report = run_fixture("ineffective.json");
    assert_eq!(codes(&report), vec!["SC003", "SC003"]);
    let rule_finding = report
        .findings
        .iter()
        .find(|d| d.location.contains("avoid-ovh"))
        .expect("rule finding");
    assert_eq!(rule_finding.severity, Severity::Error);
    assert!(rule_finding.message.contains("16276"));
    let entry_finding = report
        .findings
        .iter()
        .find(|d| d.location.starts_with("dict("))
        .expect("entry finding");
    assert_eq!(entry_finding.severity, Severity::Warning);
    assert!(entry_finding.message.contains("49999"));
    // the error-grade rule finding alone fails the gate
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn ambiguous_fixture_reports_sc004_and_fails() {
    let report = run_fixture("ambiguous.json");
    assert_eq!(codes(&report), vec!["SC004"]);
    assert_eq!(report.findings[0].severity, Severity::Error);
    // the message names a concrete witness community in the overlap
    assert!(report.findings[0].message.contains("65100:"));
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn composed_fixture_reports_sc005_and_fails() {
    let report = run_fixture("composed.json");
    assert_eq!(codes(&report), vec!["SC005", "SC005"]);
    // the redundant avoid: dictionary semantics already do what the
    // rule applies, so composition changes nothing
    let redundant = &report.findings[0];
    assert!(redundant.location.contains("avoid-he-redundantly"));
    assert!(
        redundant.message.contains("witness community 65001:100"),
        "{redundant:?}"
    );
    // the blackhole request at an IXP that does not honor blackholes
    let blackhole = &report.findings[1];
    assert!(blackhole.location.contains("blackhole-on-request"));
    assert!(
        blackhole.message.contains("does not honor blackhole"),
        "{blackhole:?}"
    );
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn drift_fixture_reports_sc006_conflict_and_fails() {
    let report = run_fixture("drift.json");
    assert_eq!(codes(&report), vec!["SC006"]);
    let d = &report.findings[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("conflicting actions"), "{d:?}");
    // the message names the concrete witness community
    assert!(d.message.contains("65010:200"), "{d:?}");
    assert!(d.location.contains("DeCixFra") && d.location.contains("Linx"));
    assert_ne!(report.exit_code(), 0);
}

/// Run `staticheck lints --root tests/fixtures/<tree>` hermetically.
fn run_tree(tree: &str) -> Report {
    run_root(&fixture_path(tree))
}

/// Run `staticheck lints --root <root>`.
fn run_root(root: &Path) -> Report {
    let args: Vec<String> = ["lints", "--root", root.to_str().expect("utf-8 path")]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let (report, _) = run_captured(&args).expect("tree runs");
    report
}

#[test]
fn sc110_tree_reports_lock_order_inversion_with_both_witnesses() {
    let report = run_tree("sc110_tree");
    assert_eq!(codes(&report), vec!["SC110"]);
    let d = &report.findings[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("inconsistent lock-acquisition order"),
        "{d:?}"
    );
    // both witnesses are named, with the lines of each acquisition
    assert!(d.message.contains("`forward` locks `a` then `b`"), "{d:?}");
    assert!(d.message.contains("`backward` locks `b` then `a`"), "{d:?}");
    assert!(d.message.contains("deadlock"), "{d:?}");
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn lints_engine_reports_seeded_violations() {
    // build a tiny fake workspace root with one violation per lint
    let root = std::env::temp_dir().join(format!("staticheck-lint-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        concat!(
            "pub fn m(r: &obs::Registry) { r.counter(\"demo.count\"); }\n",
            "#[cfg(test)]\nmod tests {\n    fn fine(r: &obs::Registry) { r.gauge(\"t.x\"); }\n}\n",
        ),
    )
    .expect("write");

    let report = run_root(&root);
    std::fs::remove_dir_all(&root).ok();

    let mut found = codes(&report);
    found.sort_unstable();
    // SC104 fires too: the fake root has no obs::names registry at all
    assert_eq!(found, vec!["SC103", "SC104"]);
    assert!(report
        .findings
        .iter()
        .all(|d| d.severity == Severity::Error));
    assert_ne!(report.exit_code(), 0);
}
