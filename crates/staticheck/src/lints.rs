//! Engine 2: the metric-name registry linter.
//!
//! A deliberately lightweight line/token-level scanner over
//! `crates/*/src/**.rs` (plus the root crate's `src/`). No `syn`, no
//! network, no proc-macro expansion — the container is offline and the
//! two invariants below are visible at the token level once comments
//! and string contents are blanked out:
//!
//! * **SC103** — no string-literal metric or span names outside `obs`:
//!   every minted name must come from the `obs::names` registry;
//! * **SC104** — the `obs::names` registry itself is self-consistent
//!   (every constant listed in `ALL`, no duplicate values, names follow
//!   the `dotted.lowercase` convention).
//!
//! Both cover the trace names too: `obs::span!` mints both the
//! histogram and the trace span from the same `obs::names` constant,
//! and the registry check extends to dynamic families like
//! `par.task_ns/<site>` because those join existing registered names.
//!
//! The rules about *calls* — no panics in library code, no raw clock
//! reads, no ad-hoc threads, no hand-rolled trace context — are clippy
//! lints (`clippy.toml` and the `#![deny(..)]` line of every library
//! crate root): they need path resolution, which a substring scan
//! cannot do (`use std::time::Instant as Clock` hides the call).
//!
//! The scanner first *cleans* each file: comment bodies and string
//! contents are replaced by spaces (quotes are kept so SC103 can still
//! see that a literal was passed), and `#[cfg(test)]` item bodies are
//! skipped via brace-depth tracking. This keeps SC103 a plain
//! substring scan on the cleaned text.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Severity};

/// Run both registry lints: SC103 over `sources` (from
/// [`workspace_sources`]) and SC104 on the registry under `root`.
pub(crate) fn lint_workspace(root: &Path, sources: &[(String, String)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (rel, text) in sources {
        lint_file(rel, text, &mut out);
    }
    check_names_registry(root, &mut out);
    out
}

/// All library sources under `crates/*/src/` and the root `src/` as
/// `(workspace-relative path, text)` pairs, sorted for deterministic
/// reports (shared with [`crate::lock_order`]).
pub(crate) fn workspace_sources(root: &Path) -> Vec<(String, String)> {
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
    // obs is the registry's home: it mints names from its own constants
    if rel.starts_with("crates/obs/") {
        return;
    }
    let cleaned = clean_source(text);

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
        if lintable {
            check_metric_names(rel, lineno, line, out);
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
    // the ALL block: identifiers between `const ALL` and `];`
    let all_block: String = text
        .lines()
        .skip_while(|l| !l.contains("const ALL"))
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
pub(crate) fn clean_source(text: &str) -> String {
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
    fn literal_metric_names_flagged_outside_obs() {
        let src = "let c = registry.counter(\"rs.x\");\nlet s = obs::span!(\"sim.y\");\n";
        let diags = lint_text("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "SC103"));
        // constants are fine
        let ok = "let c = registry.counter(obs::names::RS_X);\n";
        assert!(lint_text("crates/x/src/lib.rs", ok).is_empty());
        // obs itself and `#[cfg(test)]` bodies are exempt...
        assert!(lint_text("crates/obs/src/metrics.rs", src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n fn g() { r.counter(\"t.x\"); }\n}\n";
        assert!(lint_text("crates/x/src/lib.rs", test_mod).is_empty());
        // ...but code after the test module is linted again
        let after = format!("{test_mod}fn h() {{ r.gauge(\"t.y\"); }}\n");
        let diags = lint_text("crates/x/src/lib.rs", &after);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location, "crates/x/src/lib.rs:5");
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
