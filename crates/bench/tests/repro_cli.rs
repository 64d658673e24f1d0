//! The `repro` command line: experiment names are checked before any
//! world is built, malformed flags exit 2 instead of panicking, and a
//! small run writes its CSVs. Every case runs in its own temp directory
//! so `telemetry.json` never lands in the checkout.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty scratch directory for one case.
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run repro")
}

/// Run `repro args` in a scratch directory that is removed afterwards.
fn repro(case: &str, args: &[&str]) -> Output {
    let dir = scratch(case);
    let out = run_in(&dir, args);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The names the `--help` experiment table lists, in order.
fn help_names() -> Vec<String> {
    let out = repro("help", &["--help"]);
    assert!(out.status.success());
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .skip_while(|l| !l.starts_with("experiments"))
        .skip(1)
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect()
}

#[test]
fn unknown_experiment_exits_2_before_building_the_world() {
    let out = repro("unknown", &["--scale", "0.02", "fig11"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: fig11"), "{stderr}");
    assert!(!stderr.contains("building world"), "{stderr}");
    // the valid names are listed
    assert!(
        stderr.contains("table3") && stderr.contains("stream"),
        "{stderr}"
    );
}

#[test]
fn malformed_flags_exit_2() {
    for args in [
        &["--scale", "abc"][..],
        &["--seed"][..],
        &["--seed", "-1"][..],
        &["--csv"][..],
        &["--json"][..],
        &["--trace"][..],
    ] {
        let out = repro("flags", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(": expected "), "{args:?}: {stderr}");
    }
}

#[test]
fn help_lists_every_experiment() {
    let names = help_names();
    let expected = [
        "check",
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4a",
        "fig4b",
        "fig4c",
        "table2",
        "type-counts",
        "fig5",
        "fig6",
        "ineffective",
        "fig7",
        "table3",
        "table4",
        "sanitation",
        "overlap",
        "chaos",
        "stream",
        "all",
    ];
    assert_eq!(names, expected);
    // every listed name passes the name check: with one bogus name
    // appended, the bogus one is the only name reported
    let mut args: Vec<&str> = expected.to_vec();
    args.push("no-such-experiment");
    let out = repro("help-known", &args);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let unknown: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("unknown experiment:"))
        .collect();
    assert_eq!(unknown, ["unknown experiment: no-such-experiment"]);
}

#[test]
fn small_run_writes_fig1_csv() {
    let dir = scratch("csv");
    let csv = dir.join("out");
    let csv_arg = csv.to_str().expect("utf-8 temp path");
    let out = run_in(
        &dir,
        &["--scale", "0.02", "--csv", csv_arg, "fig1", "table3"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fig1 = std::fs::read_to_string(csv.join("fig1_defined_vs_unknown.csv")).expect("fig1 csv");
    assert!(
        fig1.starts_with("ixp,afi,total,defined,unknown\n"),
        "{fig1}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Fig. 1") && stdout.contains("Table 3"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
