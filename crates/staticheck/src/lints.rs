//! Engine 2: the workspace invariant linter.
//!
//! A deliberately lightweight line/token-level scanner over
//! `crates/*/src/**.rs` (plus the root crate's `src/`). No `syn`, no
//! network, no proc-macro expansion — the container is offline and the
//! invariants below are all visible at the token level once comments
//! and string contents are blanked out:
//!
//! * **SC101** — no `.unwrap()` / `.expect(` / `panic!` / `todo!` /
//!   `unimplemented!` in non-test library code (`src/bin/` and
//!   `#[cfg(test)]` regions are exempt);
//! * **SC102** — no `SystemTime::now` / `Instant::now` outside the
//!   `obs` crate (all clocks flow through instrumentation);
//! * **SC103** — no string-literal metric or span names outside `obs`:
//!   every minted name must come from the `obs::names` registry;
//! * **SC104** — the `obs::names` registry itself is self-consistent
//!   (every constant listed in `ALL`, no duplicate values, names follow
//!   the `dotted.lowercase` convention);
//! * **SC105** — no `std::thread::spawn` / `thread::scope` /
//!   `thread::Builder` outside the `par` executor and the looking-glass
//!   TCP transport: all data-parallel threading goes through the pool,
//!   whose ordered joins keep artifacts deterministic;
//! * **SC106** — no trace-context plumbing (`trace::capture` /
//!   `trace::attach_task` / `trace::adopt_wire`) outside `obs`, the
//!   `par` executor and the LG transport: task bodies get their trace
//!   parent from the pool, and hand-rolled attachment would fork the
//!   deterministic ID scheme the trace-equivalence oracle relies on.
//!
//! SC103/SC104 cover the trace names too: `obs::span!` mints both the
//! histogram and the trace span from the same `obs::names` constant,
//! and the registry check extends to dynamic families like
//! `par.task_ns/<site>` because those join existing registered names.
//!
//! The scanner first *cleans* each file: comment bodies and string
//! contents are replaced by spaces (quotes are kept so SC103 can still
//! see that a literal was passed), and `#[cfg(test)]` item bodies are
//! skipped via brace-depth tracking. This keeps every check a plain
//! substring scan on the cleaned text.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Severity};

/// Run every workspace lint rooted at the repository root. `only`
/// restricts scanning to files whose workspace-relative path starts
/// with it (the `--only` self-lint filter); the SC104 registry check
/// still runs against the full root.
pub fn lint_workspace(root: &Path, only: Option<&str>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (rel, text) in workspace_sources(root, only) {
        lint_file(&rel, &text, &mut out);
    }
    check_names_registry(root, &mut out);
    out
}

/// All library sources under `crates/*/src/` and the root `src/` as
/// `(workspace-relative path, text)` pairs, sorted for deterministic
/// reports and restricted to paths starting with `only` (shared with
/// [`crate::dataflow`]).
pub(crate) fn workspace_sources(root: &Path, only: Option<&str>) -> Vec<(String, String)> {
    let mut files = Vec::new();
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            collect_rs(&entry.path().join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    files.sort();
    let mut sources = Vec::new();
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if only.is_some_and(|p| !rel.starts_with(p)) {
            continue;
        }
        sources.push((rel, text));
    }
    sources
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lint one cleaned file.
fn lint_file(rel: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let cleaned = clean_source(text);
    let in_obs = rel.starts_with("crates/obs/");
    let in_bin = rel.contains("/src/bin/");
    // The only sanctioned thread-creation sites: the deterministic pool
    // itself, and the LG TCP transport's per-connection workers (request
    // serving is I/O concurrency, not data parallelism).
    let may_spawn =
        rel.starts_with("crates/par/") || rel == "crates/looking-glass/src/transport.rs";

    let mut depth: i32 = 0;
    let mut skip_above: Option<i32> = None; // inside #[cfg(test)] body
    let mut pending_test = false;

    for (i, line) in cleaned.lines().enumerate() {
        let lineno = i + 1;
        let lintable = skip_above.is_none() && !pending_test;
        if line.contains("#[cfg(test)]") {
            pending_test = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_test && skip_above.is_none() {
                        skip_above = Some(depth);
                        pending_test = false;
                    }
                }
                '}' => {
                    if skip_above == Some(depth) {
                        skip_above = None;
                    }
                    depth -= 1;
                }
                ';' if pending_test && skip_above.is_none() => {
                    // `#[cfg(test)] mod tests;` — body lives elsewhere
                    pending_test = false;
                }
                _ => {}
            }
        }
        if !lintable {
            continue;
        }
        if !in_bin {
            check_panic_free(rel, lineno, line, out);
        }
        if !in_obs {
            check_clock_free(rel, lineno, line, out);
            check_metric_names(rel, lineno, line, out);
        }
        if !may_spawn {
            check_thread_free(rel, lineno, line, out);
        }
        if !may_spawn && !in_obs {
            check_trace_context(rel, lineno, line, out);
        }
    }
}

/// SC101: panicking constructs in library code.
fn check_panic_free(rel: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    // needles are split so staticheck's own source does not trip them
    const NEEDLES: [(&str, &str); 5] = [
        (".unwrap()", "unwrap"),
        (".expect(", "expect"),
        ("panic!(", "panic!"),
        ("todo!(", "todo!"),
        ("unimplemented!(", "unimplemented!"),
    ];
    for (needle, what) in NEEDLES {
        if let Some(col) = line.find(needle) {
            // `core::panic!` etc. still match; `#[should_panic(` must not
            if what == "panic!" && line[..col].ends_with("should_") {
                continue;
            }
            out.push(Diagnostic::new(
                "SC101",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!(
                    "`{what}` in library code: propagate the error or add an \
                     allowlist entry with a reason"
                ),
            ));
        }
    }
}

/// SC102: raw clock reads outside `obs`.
fn check_clock_free(rel: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    for needle in ["SystemTime::now", "Instant::now"] {
        if line.contains(needle) {
            out.push(Diagnostic::new(
                "SC102",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!("`{needle}` outside the obs crate: time must flow through instrumentation"),
            ));
        }
    }
}

/// SC105: raw thread creation outside the `par` pool (and the LG TCP
/// transport). Ad-hoc threads bypass the ordered-join determinism
/// argument and the pool's telemetry.
fn check_thread_free(rel: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    for needle in ["thread::spawn(", "thread::scope(", "thread::Builder"] {
        if line.contains(needle) {
            out.push(Diagnostic::new(
                "SC105",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!(
                    "`{needle}` outside crates/par: route data parallelism \
                     through par::map_indexed so joins stay ordered"
                ),
            ));
        }
    }
}

/// SC106: trace-context plumbing outside `obs`, the `par` pool and the
/// LG transport. `obs::span!` inside a task body already parents to the
/// submitting span via the context the pool attached; calling the
/// attachment API directly would graft spans onto the wrong parent and
/// break the byte-identical trace-tree oracle.
fn check_trace_context(rel: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    for needle in [
        "trace::capture(",
        "trace::attach_task(",
        "trace::adopt_wire(",
    ] {
        if line.contains(needle) {
            out.push(Diagnostic::new(
                "SC106",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!(
                    "`{needle}` outside the trace plumbing: open spans with \
                     obs::span! and let par/looking-glass carry the context"
                ),
            ));
        }
    }
}

/// SC103: string-literal metric/span names outside `obs`.
fn check_metric_names(rel: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    const MINTS: [&str; 5] = [".counter(", ".gauge(", ".histogram(", ".span(", "span!("];
    for mint in MINTS {
        let Some(pos) = line.find(mint) else {
            continue;
        };
        // a quote right after the call site means a literal name was
        // passed instead of an `obs::names` constant
        let rest = &line[pos + mint.len()..];
        let arg_is_literal = rest.trim_start().starts_with('"');
        if arg_is_literal {
            out.push(Diagnostic::new(
                "SC103",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!(
                    "string-literal metric name passed to `{}`: use a \
                     constant from obs::names",
                    mint.trim_start_matches('.').trim_end_matches('(')
                ),
            ));
        }
    }
}

/// SC104: the `obs::names` registry is self-consistent. Parses the raw
/// source of `crates/obs/src/names.rs` — the registry is the one place
/// literals are allowed, so it gets its own structural check.
fn check_names_registry(root: &Path, out: &mut Vec<Diagnostic>) {
    let path = root.join("crates/obs/src/names.rs");
    let rel = "crates/obs/src/names.rs";
    let Ok(text) = std::fs::read_to_string(&path) else {
        out.push(Diagnostic::new(
            "SC104",
            Severity::Error,
            rel,
            "obs::names registry source not found",
        ));
        return;
    };
    // `pub const NAME: &str = "value";`
    let mut consts: Vec<(usize, String, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix("pub const ") else {
            continue;
        };
        let Some((ident, tail)) = rest.split_once(':') else {
            continue;
        };
        let tail = tail.trim_start();
        let Some(value_part) = tail.strip_prefix("&str = \"") else {
            continue; // ALL / DYNAMIC_PREFIXES have other types
        };
        let Some(value) = value_part.split('"').next() else {
            continue;
        };
        consts.push((i + 1, ident.trim().to_string(), value.to_string()));
    }
    if consts.is_empty() {
        out.push(Diagnostic::new(
            "SC104",
            Severity::Error,
            rel,
            "no `pub const NAME: &str` entries found in obs::names",
        ));
        return;
    }
    // the ALL block: identifiers between `pub const ALL` and `];`
    let all_block: String = text
        .lines()
        .skip_while(|l| !l.contains("pub const ALL"))
        .take_while(|l| !l.trim_end().ends_with("];"))
        .collect::<Vec<_>>()
        .join("\n");
    for (lineno, ident, value) in &consts {
        if !all_block.contains(ident.as_str()) {
            out.push(Diagnostic::new(
                "SC104",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!("metric name constant `{ident}` is not listed in obs::names::ALL"),
            ));
        }
        let well_formed = !value.is_empty()
            && value
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
            && !value.starts_with('.')
            && !value.ends_with('.');
        if !well_formed {
            out.push(Diagnostic::new(
                "SC104",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!("metric name {value:?} violates the dotted.lowercase convention"),
            ));
        }
    }
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for (lineno, ident, value) in &consts {
        if let Some(first) = seen.insert(value.as_str(), *lineno) {
            out.push(Diagnostic::new(
                "SC104",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!(
                    "metric name {value:?} (`{ident}`) duplicates the constant \
                     on line {first}"
                ),
            ));
        }
    }
}

// --- source cleaning ----------------------------------------------------

/// Replace comment bodies and string contents with spaces, preserving
/// line structure and the quotes themselves. Handles line and block
/// comments (nested), plain and raw strings, and char literals vs
/// lifetimes.
pub fn clean_source(text: &str) -> String {
    let bytes: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    let n = bytes.len();

    let keep = |out: &mut String, c: char| out.push(c);
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });

    while i < n {
        let c = bytes[i];
        // line comment
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            while i < n && bytes[i] != '\n' {
                blank(&mut out, bytes[i]);
                i += 1;
            }
            continue;
        }
        // block comment (nested)
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let mut level = 0usize;
            while i < n {
                if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                    level += 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                    level -= 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    if level == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // raw string r"..." / r#"..."#
        if c == 'r' && i + 1 < n && (bytes[i + 1] == '"' || bytes[i + 1] == '#') {
            let mut j = i + 1;
            let mut hashes = 0usize;
            while j < n && bytes[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && bytes[j] == '"' {
                keep(&mut out, 'r');
                for _ in 0..hashes {
                    keep(&mut out, '#');
                }
                keep(&mut out, '"');
                i = j + 1;
                // scan to closing `"###`
                'raw: while i < n {
                    if bytes[i] == '"' {
                        let mut k = i + 1;
                        let mut h = 0usize;
                        while k < n && bytes[k] == '#' && h < hashes {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            keep(&mut out, '"');
                            for _ in 0..hashes {
                                keep(&mut out, '#');
                            }
                            i = k;
                            break 'raw;
                        }
                    }
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
                continue;
            }
            // not a raw string after all — fall through
        }
        // plain string
        if c == '"' {
            keep(&mut out, '"');
            i += 1;
            while i < n {
                if bytes[i] == '\\' && i + 1 < n {
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    continue;
                }
                if bytes[i] == '"' {
                    keep(&mut out, '"');
                    i += 1;
                    break;
                }
                blank(&mut out, bytes[i]);
                i += 1;
            }
            continue;
        }
        // char literal vs lifetime
        if c == '\'' {
            let is_char = if i + 1 < n && bytes[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && bytes[i + 2] == '\''
            };
            if is_char {
                keep(&mut out, '\'');
                i += 1;
                while i < n && bytes[i] != '\'' {
                    if bytes[i] == '\\' {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                    if i < n {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
                if i < n {
                    keep(&mut out, '\'');
                    i += 1;
                }
                continue;
            }
            // lifetime: keep as-is
        }
        keep(&mut out, c);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_text(rel: &str, text: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        lint_file(rel, text, &mut out);
        out
    }

    #[test]
    fn clean_blanks_comments_and_strings() {
        let src = "let x = \"a.unwrap()\"; // .unwrap()\nlet y = 1;\n";
        let cleaned = clean_source(src);
        assert!(!cleaned.contains("unwrap"));
        assert!(cleaned.contains("let y = 1;"));
        assert_eq!(cleaned.lines().count(), src.lines().count());
    }

    #[test]
    fn clean_handles_char_literals_and_lifetimes() {
        let src = "fn f<'a>(c: char) -> bool { c == '\"' }\nlet s = \"x.unwrap()\";\n";
        let cleaned = clean_source(src);
        assert!(!cleaned.contains("unwrap"));
        assert!(cleaned.contains("fn f<'a>"));
    }

    #[test]
    fn clean_handles_raw_strings() {
        let src = "let s = r#\"no .unwrap() here\"#;\nlet t = 2;\n";
        let cleaned = clean_source(src);
        assert!(!cleaned.contains("unwrap"));
        assert!(cleaned.contains("let t = 2;"));
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let diags = lint_text("crates/x/src/lib.rs", "fn f() { y.unwrap(); }\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC101");
        assert_eq!(diags[0].location, "crates/x/src/lib.rs:1");
    }

    #[test]
    fn unwrap_in_cfg_test_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { y.unwrap(); }\n}\n";
        assert!(lint_text("crates/x/src/lib.rs", src).is_empty());
        // ...but code after the test module is linted again
        let src2 = format!("{src}fn h() {{ z.expect(\"boom\"); }}\n");
        let diags = lint_text("crates/x/src/lib.rs", &src2);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("expect"));
    }

    #[test]
    fn bins_are_exempt_from_sc101_only() {
        let src = "fn main() { y.unwrap(); let t = std::time::Instant::now(); }\n";
        let diags = lint_text("crates/x/src/bin/tool.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC102");
    }

    #[test]
    fn should_panic_attr_is_not_flagged() {
        let src = "#[should_panic(expected = \"x\")]\nfn f() {}\n";
        assert!(lint_text("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn clock_reads_flagged_outside_obs_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let diags = lint_text("crates/route-server/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC102");
        assert!(lint_text("crates/obs/src/clock.rs", src).is_empty());
    }

    #[test]
    fn literal_metric_names_flagged_outside_obs() {
        let src = "let c = registry.counter(\"rs.x\");\nlet s = obs::span!(\"sim.y\");\n";
        let diags = lint_text("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "SC103"));
        // constants are fine
        let ok = "let c = registry.counter(obs::names::RS_X);\n";
        assert!(lint_text("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let diags = lint_text("crates/analysis/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC105");
        // sanctioned sites: the pool and the LG TCP transport
        assert!(lint_text("crates/par/src/lib.rs", src).is_empty());
        assert!(lint_text("crates/looking-glass/src/transport.rs", src).is_empty());
        // ...but the rest of looking-glass is not exempt
        assert_eq!(
            lint_text("crates/looking-glass/src/server.rs", src).len(),
            1
        );
        // scoped threads and builders count too
        let scoped = "fn f() { std::thread::scope(|s| {}); }\n";
        assert_eq!(lint_text("crates/x/src/lib.rs", scoped)[0].code, "SC105");
        // test code is exempt like the other lints
        let test_src = "#[cfg(test)]\nmod tests {\n fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_text("crates/x/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn trace_context_flagged_outside_plumbing() {
        let src = "fn f() { let p = obs::trace::capture(); }\n";
        let diags = lint_text("crates/analysis/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC106");
        // sanctioned sites: obs itself, the pool, the LG transport
        assert!(lint_text("crates/obs/src/trace.rs", src).is_empty());
        assert!(lint_text("crates/par/src/lib.rs", src).is_empty());
        assert!(lint_text("crates/looking-glass/src/transport.rs", src).is_empty());
        // attach/adopt count too
        let attach = "fn f() { let _g = obs::trace::attach_task(None, 0); }\n";
        assert_eq!(lint_text("crates/x/src/lib.rs", attach)[0].code, "SC106");
        let adopt = "fn f() { let _g = obs::trace::adopt_wire(ctx); }\n";
        assert_eq!(lint_text("crates/x/src/lib.rs", adopt)[0].code, "SC106");
        // test modules are exempt like the other lints
        let test_src = "#[cfg(test)]\nmod tests {\n fn g() { let p = obs::trace::capture(); }\n}\n";
        assert!(lint_text("crates/x/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn registry_check_passes_on_this_workspace() {
        // walk up from the staticheck manifest to the workspace root
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let mut out = Vec::new();
        check_names_registry(root, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
