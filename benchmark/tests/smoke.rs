//! Smoke test: all five workloads at tiny scale through the real
//! binary, then `compare` of the result file with itself, and the
//! agreement of `/BENCHMARK.json` with the crate's own metric lists.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_ixp-benchmark");

const WORKLOADS: [&str; 5] = [
    "repro_batch",
    "longitudinal_poll",
    "longitudinal_stream",
    "wire_ingest",
    "lg_tcp_collect",
];

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Map(entries) = value else {
        panic!("`{key}` looked up in a non-object: {value:?}");
    };
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no key `{key}`"))
}

fn entries(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Map(entries) => entries,
        other => panic!("not an object: {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn parse_file(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::parse_value(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn all_workloads_at_tiny_scale() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(EXE)
        .args(["all", "--seed", "11", "--seconds", "0.6", "--tiny", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "`all --tiny` failed: {status}");

    let results = parse_file(&out.join("results.json"));
    let manifest = get(&results, "manifest");
    for key in [
        "seed",
        "par_threads",
        "nproc",
        "git_rev",
        "rustc",
        "date",
        "run_seconds",
    ] {
        get(manifest, key);
    }
    let workloads = items(get(&results, "workloads"));
    let names: Vec<&str> = workloads.iter().map(|w| text(get(w, "name"))).collect();
    assert_eq!(names, WORKLOADS);

    for w in workloads {
        let name = text(get(w, "name"));
        assert_eq!(number(get(w, "failed")), 0.0, "{name}: failed operations");
        assert!(number(get(w, "items")) > 0.0, "{name}: no items");
        let end_to_end = entries(get(w, "end_to_end"));
        assert_eq!(end_to_end.len(), 6, "{name}: six end-to-end metrics");
        for (metric, value) in end_to_end {
            assert!(valid_name(metric), "{name}: bad metric name `{metric}`");
            let timeline = name.starts_with("longitudinal_");
            if metric == "day_ms_p95" && !timeline {
                assert_eq!(*value, Value::Null, "{name}: {metric} must be null");
                continue;
            }
            assert!(
                !text(get(value, "unit")).is_empty(),
                "{name}: {metric} unit"
            );
            assert!(number(get(value, "value")).is_finite());
            assert!(
                !items(get(value, "samples")).is_empty(),
                "{name}: {metric} keeps its raw samples"
            );
            if metric != "failed_frac" {
                assert!(
                    number(get(value, "value")) > 0.0,
                    "{name}: {metric} is never 0"
                );
            }
        }
        let per_layer = entries(get(w, "per_layer"));
        assert!(per_layer.len() >= 50, "{name}: per-layer table is complete");
        for (metric, value) in per_layer {
            assert!(valid_name(metric), "{name}: bad metric name `{metric}`");
            assert!(
                !text(get(value, "unit")).is_empty(),
                "{name}: {metric} unit"
            );
            assert!(number(get(value, "value")).is_finite());
        }
        let unattributed = number(get(
            get(get(w, "per_layer"), "proc.unattributed_frac"),
            "value",
        ));
        assert!(
            unattributed <= 0.05,
            "{name}: {unattributed} of the wall clock is under no layer span"
        );
        assert!(out.join(format!("trace-{name}.json")).is_file());
    }

    // a result file compared with itself: every row `same`, exit 0
    let results_path = out.join("results.json");
    let compared = Command::new(EXE)
        .arg("compare")
        .arg(&results_path)
        .arg(&results_path)
        .output()
        .expect("the benchmark binary runs");
    assert!(compared.status.success(), "`compare` of a file with itself");
    let table = String::from_utf8_lossy(&compared.stdout);
    let rows: Vec<&str> = table.lines().skip(2).collect();
    assert_eq!(rows.len(), 5 * 6 - 3, "one row per metric that exists");
    for row in rows {
        assert!(row.ends_with(" same"), "not `same`: {row}");
    }
}

#[test]
fn benchmark_json_matches_the_crate() {
    let described = Command::new(EXE)
        .arg("describe")
        .output()
        .expect("the benchmark binary runs");
    assert!(described.status.success());
    let described: Value = serde_json::parse_value(&String::from_utf8_lossy(&described.stdout))
        .expect("describe prints JSON");
    let committed = parse_file(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    assert_eq!(
        described, committed,
        "regenerate /BENCHMARK.json with `describe`"
    );
    for list in ["workloads", "end_to_end", "per_layer"] {
        for entry in items(get(&committed, list)) {
            assert!(valid_name(text(get(entry, "name"))));
        }
    }
}
