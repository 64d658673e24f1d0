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

/// Run `staticheck policy --fixture <name>` hermetically (no repo
/// allowlist, so waivers can never mask a seeded violation).
fn run_fixture(name: &str) -> Report {
    let args: Vec<String> = [
        "policy",
        "--fixture",
        fixture_path(name).to_str().expect("utf-8 path"),
        "--allowlist",
        "/nonexistent/staticheck.toml",
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

/// Run `staticheck lints --root <root>` with no allowlist.
fn run_root(root: &Path) -> Report {
    let args: Vec<String> = [
        "lints",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--allowlist",
        "/nonexistent/staticheck.toml",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (report, _) = run_captured(&args).expect("tree runs");
    report
}

#[test]
fn sc107_tree_reports_hash_order_flow_with_chain() {
    let report = run_tree("sc107_tree");
    assert_eq!(codes(&report), vec!["SC107"]);
    let d = &report.findings[0];
    assert_eq!(d.severity, Severity::Error);
    // the diagnostic names the call chain the ordered data travels
    assert!(d.message.contains("emit_rows"), "{d:?}");
    assert!(d.location.contains("crates/demo/src/lib.rs"), "{d:?}");
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn sc109_tree_reports_captured_and_reached_interior_mutability() {
    let report = run_tree("sc109_tree");
    assert_eq!(codes(&report), vec!["SC109", "SC109"]);
    // flavor 1: the closure captures a RefCell local of its enclosing fn
    let captured = report
        .findings
        .iter()
        .find(|d| d.message.contains("captures"))
        .expect("capture-flavor finding");
    assert_eq!(captured.severity, Severity::Error);
    assert!(captured.message.contains("captures `acc`"), "{captured:?}");
    assert!(
        captured.message.contains("local of `tally`"),
        "{captured:?}"
    );
    assert!(
        captured.message.contains("determinism argument"),
        "{captured:?}"
    );
    // flavor 2: the closure reaches a RefCell field through a call chain
    let reached = report
        .findings
        .iter()
        .find(|d| d.message.contains("reaches interior mutability"))
        .expect("reach-flavor finding");
    assert_eq!(reached.severity, Severity::Error);
    assert!(
        reached.message.contains("analyze_unit` -> `classify"),
        "{reached:?}"
    );
    assert!(reached.message.contains("references `memo`"), "{reached:?}");
    assert!(
        reached.location.contains("crates/demo/src/lib.rs"),
        "{reached:?}"
    );
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn sc109_tree_is_silent_once_its_closures_run_serially() {
    // the same tree with `par::map_indexed` swapped for a serial helper:
    // the RefCell capture and the RefCell-reaching chain are unchanged,
    // but no closure is a par task any more, so SC109 has nothing to say
    let root = std::env::temp_dir().join(format!("staticheck-sc109-{}", std::process::id()));
    for rel in ["crates/demo/src/lib.rs", "crates/obs/src/names.rs"] {
        let text = std::fs::read_to_string(fixture_path("sc109_tree").join(rel)).expect("read");
        let dest = root.join(rel);
        std::fs::create_dir_all(dest.parent().expect("parent")).expect("mkdir");
        std::fs::write(dest, text.replace("map_indexed(", "serial_map(")).expect("write");
    }
    let report = run_root(&root);
    std::fs::remove_dir_all(&root).ok();
    assert!(codes(&report).is_empty(), "{}", report.render_text());
    assert_eq!(report.exit_code(), 0);
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
    // both witness chains are named: the transitive one through grab_b
    // and the direct inverted acquisition in backward
    assert!(d.message.contains("`forward`"), "{d:?}");
    assert!(d.message.contains("`grab_b`"), "{d:?}");
    assert!(d.message.contains("`backward`"), "{d:?}");
    assert!(d.message.contains("deadlock"), "{d:?}");
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn sc111_tree_reports_relaxed_value_flowing_into_sink() {
    let report = run_tree("sc111_tree");
    assert_eq!(codes(&report), vec!["SC111"]);
    let d = &report.findings[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("counter.load(Relaxed)"), "{d:?}");
    assert!(d.message.contains("flows into"), "{d:?}");
    assert!(d.message.contains("schedule-dependent"), "{d:?}");
    assert!(d.location.contains("crates/demo/src/lib.rs"), "{d:?}");
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn sc112_tree_reports_blocking_call_in_par_task_with_chain() {
    let report = run_tree("sc112_tree");
    assert_eq!(codes(&report), vec!["SC112"]);
    let d = &report.findings[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("reaches blocking `sleep`"), "{d:?}");
    assert!(d.message.contains("no timeout/deadline"), "{d:?}");
    // the chain names the intermediate hop
    assert!(d.message.contains("throttle"), "{d:?}");
    assert!(d.location.contains("crates/demo/src/lib.rs"), "{d:?}");
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

#[test]
fn allowlist_waives_fixture_findings() {
    // same seeded violation, but an allowlist that waives SC001 by path
    let allow = std::env::temp_dir().join(format!("staticheck-allow-{}.toml", std::process::id()));
    std::fs::write(
        &allow,
        "[[allow]]\ncode = \"SC001\"\nreason = \"fixture waiver for the allowlist test\"\n",
    )
    .expect("write allowlist");
    let args: Vec<String> = [
        "policy",
        "--fixture",
        fixture_path("shadowed.json").to_str().expect("utf-8 path"),
        "--allowlist",
        allow.to_str().expect("utf-8 path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (report, _) = run_captured(&args).expect("run");
    std::fs::remove_file(&allow).ok();
    assert!(report.findings.is_empty());
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.exit_code(), 0);
}
