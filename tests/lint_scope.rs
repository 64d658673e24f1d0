//! The scope of the clippy-enforced source rules.
//!
//! No panics in library code, no raw clock reads, no ad-hoc threads and
//! no hand-rolled trace context are clippy lints: the panic lints are
//! denied per library crate root (so bins and integration tests stay
//! out of scope), the call rules are `disallowed-methods` in
//! `clippy.toml`. A new crate whose root omits the deny line, or a
//! config that drops a path, silently loses the rule; these tests fail
//! instead.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The lints every library crate root denies.
const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::unreachable",
];

/// The call paths `clippy.toml` disallows.
const DISALLOWED: [&str; 8] = [
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::new",
    "obs::trace::capture",
    "obs::trace::attach_task",
    "obs::trace::adopt_wire",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `src/lib.rs` plus every `crates/*/src/lib.rs`.
fn library_roots() -> Vec<PathBuf> {
    let mut roots = vec![root().join("src/lib.rs")];
    for entry in std::fs::read_dir(root().join("crates")).expect("crates dir") {
        let lib = entry.expect("dir entry").path().join("src/lib.rs");
        if lib.exists() {
            roots.push(lib);
        }
    }
    roots.sort();
    roots
}

/// The lint names of every `#![deny(..)]` attribute in `text`, comment
/// lines skipped.
fn denied_lints(text: &str) -> BTreeSet<String> {
    let code: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut lints = BTreeSet::new();
    let mut rest = code.as_str();
    while let Some(start) = rest.find("#![deny(") {
        let body = &rest[start + "#![deny(".len()..];
        let end = body.find(")]").expect("closed deny attribute");
        lints.extend(
            body[..end]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string),
        );
        rest = &body[end..];
    }
    lints
}

#[test]
fn every_library_root_denies_the_panic_lints() {
    let roots = library_roots();
    assert!(roots.len() >= 15, "found only {roots:?}");
    for lib in roots {
        let text = std::fs::read_to_string(&lib).expect("read lib.rs");
        let denied = denied_lints(&text);
        for lint in PANIC_LINTS {
            assert!(
                denied.contains(lint),
                "{} does not deny {lint}: add `#![deny({})]` beside \
                 `#![forbid(unsafe_code)]`",
                lib.display(),
                PANIC_LINTS.join(", ")
            );
        }
    }
}

#[test]
fn clippy_config_disallows_the_call_rules() {
    let text = std::fs::read_to_string(root().join("clippy.toml")).expect("read clippy.toml");
    let paths: BTreeSet<&str> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once("path = \""))
        .filter_map(|(_, rest)| rest.split_once('"'))
        .map(|(path, _)| path)
        .collect();
    let expected: BTreeSet<&str> = DISALLOWED.into_iter().collect();
    assert_eq!(paths, expected, "clippy.toml disallowed-methods");
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(
            text.lines().any(|l| l.trim() == format!("{key} = true")),
            "clippy.toml must set {key} = true"
        );
    }
}
