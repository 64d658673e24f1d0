//! SC110: inconsistent lock-acquisition order, checked inside each
//! function body.
//!
//! A token scan over the cleaned sources ([`clean_source`]), without a
//! call graph. The lock names are the identifiers declared anywhere in
//! the scanned sources with a `Mutex` or `RwLock` type (struct fields,
//! statics, parameters, typed `let`s) or bound by a `let` whose
//! initializer builds one. Inside a function, `name.lock()`,
//! `name.read()` or `name.write()` acquires lock `name`. The lock stays
//! *held* when the statement binds the guard (`let g = m.lock();`,
//! optionally through `?`, `.unwrap()`, `.expect(..)` or `.ok()`),
//! until its block closes or `drop(g)`. Acquiring `b` while `a` is held
//! records the ordered pair `(a, b)`; a pair seen in both orders
//! anywhere in the workspace is an error that names both witnesses.
//! Closures belong to the enclosing function's body, so two par tasks
//! of one closure that branch into opposite orders are caught.
//!
//! Accepted blind spots: a lock taken in a callee does not count (`f`
//! holds `a` and calls `g`, which takes `b`); locks are matched by the
//! last path segment of the receiver; and a guard that is stored or
//! returned is released at the end of its block as far as the scan
//! knows. `#[cfg(test)]` items are skipped.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Severity};
use crate::lints::clean_source;

/// One token of cleaned source: an identifier/number or a single
/// punctuation character, with its 1-based line.
#[derive(Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    line: usize,
}

impl Tok<'_> {
    fn is_ident(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    }
}

/// Where one function saw lock `first` held while `second` was taken.
struct Witness {
    desc: String,
    location: String,
}

/// A guard the scan considers held.
struct Held<'a> {
    lock: &'a str,
    depth: i32,
    guard: &'a str,
    line: usize,
}

/// Run SC110 over `(workspace-relative path, source)` pairs.
pub(crate) fn check(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let cleaned: Vec<String> = sources.iter().map(|(_, text)| clean_source(text)).collect();
    let toks: Vec<(&str, Vec<Tok<'_>>)> = sources
        .iter()
        .zip(&cleaned)
        .map(|((rel, _), text)| (rel.as_str(), strip_test_items(tokens(text))))
        .collect();
    let mut names = BTreeSet::new();
    for (_, t) in &toks {
        collect_lock_names(t, &mut names);
    }
    let mut pairs: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for (rel, t) in &toks {
        collect_pairs(rel, t, &names, &mut pairs);
    }
    let mut out = Vec::new();
    for ((a, b), first) in &pairs {
        if a >= b {
            continue;
        }
        let Some(second) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        out.push(Diagnostic::new(
            "SC110",
            Severity::Error,
            first.location.clone(),
            format!(
                "inconsistent lock-acquisition order for `{a}` and `{b}`: {} — but — {}; \
                 concurrent execution can deadlock",
                first.desc, second.desc
            ),
        ));
    }
    out
}

fn tokens(cleaned: &str) -> Vec<Tok<'_>> {
    let mut out = Vec::new();
    for (line, text) in (1..).zip(cleaned.lines()) {
        let mut chars = text.char_indices().peekable();
        while let Some((start, c)) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            let mut end = start + c.len_utf8();
            if c.is_alphanumeric() || c == '_' {
                while let Some(&(i, d)) = chars.peek() {
                    if !(d.is_alphanumeric() || d == '_') {
                        break;
                    }
                    end = i + d.len_utf8();
                    chars.next();
                }
            }
            out.push(Tok {
                text: &text[start..end],
                line,
            });
        }
    }
    out
}

fn texts_at(toks: &[Tok<'_>], i: usize, want: &[&str]) -> bool {
    want.iter()
        .enumerate()
        .all(|(k, w)| toks.get(i + k).is_some_and(|t| t.text == *w))
}

/// Drop every `#[cfg(test)]` item: up to its `;`, or through the
/// matching `}` of its body.
fn strip_test_items(toks: Vec<Tok<'_>>) -> Vec<Tok<'_>> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if !texts_at(&toks, i, &ATTR) {
            out.push(toks[i]);
            i += 1;
            continue;
        }
        i += ATTR.len();
        let mut depth = 0;
        while let Some(t) = toks.get(i) {
            i += 1;
            match t.text {
                ";" if depth == 0 => break,
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

fn is_lock_type(t: &Tok<'_>) -> bool {
    matches!(t.text, "Mutex" | "RwLock")
}

/// Does the type (`is_type`) or `let` initializer starting at
/// `toks[i]` mention a lock type before it ends? Both end at a `;` or
/// at a bracket they did not open; a type also ends at a brace, or at a
/// `,` or `=` outside its brackets.
fn mentions_lock(toks: &[Tok<'_>], i: usize, is_type: bool) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().skip(i) {
        match t.text {
            ";" => return false,
            "{" | "}" if is_type => return false,
            "," | "=" if is_type && depth == 0 => return false,
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ if is_lock_type(t) => return true,
            _ => {}
        }
    }
    false
}

fn collect_lock_names(toks: &[Tok<'_>], names: &mut BTreeSet<String>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident() {
            continue;
        }
        // `name: <type>` (not a `::` path separator)
        let typed = texts_at(toks, i + 1, &[":"])
            && !texts_at(toks, i + 2, &[":"])
            && !(i > 0 && toks[i - 1].text == ":");
        if typed && mentions_lock(toks, i + 2, true) {
            names.insert(t.text.to_string());
        }
        // `let [mut] name = <initializer>;`
        if t.text == "let" {
            let j = if texts_at(toks, i + 1, &["mut"]) {
                i + 2
            } else {
                i + 1
            };
            if toks.get(j).is_some_and(Tok::is_ident)
                && texts_at(toks, j + 1, &["="])
                && mentions_lock(toks, j + 2, false)
            {
                names.insert(toks[j].text.to_string());
            }
        }
    }
}

/// The guard a `let` statement binds when the acquisition whose
/// receiver chain starts at `toks[start]` is its whole value.
fn guard_binding<'a>(toks: &[Tok<'a>], start: usize, call_end: usize) -> Option<&'a str> {
    if start == 0 || toks[start - 1].text != "=" {
        return None;
    }
    // the statement begins with `let`
    let mut s = start - 1;
    while s > 0 && !matches!(toks[s - 1].text, ";" | "{" | "}") {
        s -= 1;
    }
    if toks[s].text != "let" {
        return None;
    }
    // nothing but `?`, `.unwrap()`, `.expect(..)`, `.ok()` after the call
    let mut p = call_end;
    loop {
        match toks.get(p).map(|t| t.text) {
            Some(";" | "else") => break,
            Some("?") => p += 1,
            Some(".")
                if toks
                    .get(p + 1)
                    .is_some_and(|t| matches!(t.text, "unwrap" | "expect" | "ok"))
                    && texts_at(toks, p + 2, &["("]) =>
            {
                p = matching_close(toks, p + 2)? + 1;
            }
            _ => return None,
        }
    }
    // the first plain identifier of the pattern (`g`, `mut g`, `g: T`,
    // `Ok(g)`), skipping constructors and path segments
    (s + 1..start - 1)
        .find(|&k| {
            toks[k].is_ident()
                && !matches!(toks[k].text, "mut" | "ref")
                && !texts_at(toks, k + 1, &["("])
                && !texts_at(toks, k + 1, &["{"])
                && !texts_at(toks, k + 1, &[":", ":"])
        })
        .map(|k| toks[k].text)
}

fn matching_close(toks: &[Tok<'_>], open: usize) -> Option<usize> {
    let mut depth = 0;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

fn collect_pairs<'a>(
    rel: &str,
    toks: &[Tok<'a>],
    names: &BTreeSet<String>,
    pairs: &mut BTreeMap<(String, String), Witness>,
) {
    // (function name, brace depth of its body, guards held in it)
    let mut fns: Vec<(&'a str, i32, Vec<Held<'a>>)> = Vec::new();
    let mut pending_fn: Option<&'a str> = None;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate() {
        match t.text {
            // `fn name` starts an item; `fn(..)` is a pointer type
            "fn" if toks.get(j + 1).is_some_and(Tok::is_ident) => {
                pending_fn = Some(toks[j + 1].text);
            }
            ";" => pending_fn = None,
            "{" => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fns.push((name, depth, Vec::new()));
                }
            }
            "}" => {
                if let Some((_, body, held)) = fns.last_mut() {
                    held.retain(|h| h.depth < depth);
                    if *body == depth {
                        fns.pop();
                    }
                }
                depth -= 1;
            }
            "drop" if texts_at(toks, j + 1, &["("]) && texts_at(toks, j + 3, &[")"]) => {
                if let (Some((_, _, held)), Some(g)) = (fns.last_mut(), toks.get(j + 2)) {
                    held.retain(|h| h.guard != g.text);
                }
            }
            "lock" | "read" | "write"
                if j >= 2
                    && toks[j - 1].text == "."
                    && names.contains(toks[j - 2].text)
                    && texts_at(toks, j + 1, &["(", ")"]) =>
            {
                let Some((fn_name, _, held)) = fns.last_mut() else {
                    continue;
                };
                let lock = toks[j - 2].text;
                for h in held.iter().filter(|h| h.lock != lock) {
                    pairs
                        .entry((h.lock.to_string(), lock.to_string()))
                        .or_insert_with(|| Witness {
                            desc: format!(
                                "`{fn_name}` locks `{}` then `{lock}` ({rel}:{} then :{})",
                                h.lock, h.line, t.line
                            ),
                            location: format!("{rel}:{}", h.line),
                        });
                }
                // walk back over the receiver chain `a.b.lock`
                let mut start = j - 2;
                while start >= 2 && toks[start - 1].text == "." && toks[start - 2].is_ident() {
                    start -= 2;
                }
                if let Some(guard) = guard_binding(toks, start, j + 3) {
                    held.push(Held {
                        lock,
                        depth,
                        guard,
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SC110 over a one-file workspace.
    fn scan(src: &str) -> Vec<Diagnostic> {
        check(&[("crates/x/src/lib.rs".to_string(), src.to_string())])
    }

    const SHARED: &str = "use std::sync::Mutex;\nstruct S { a: Mutex<u32>, b: Mutex<u32> }\n";

    #[test]
    fn inverted_order_names_both_functions() {
        let src = format!(
            "{SHARED}fn forward(s: &S) {{ let ga: G = s.a.lock().unwrap(); let gb = s.b.lock(); }}\n\
             fn backward(s: &S) {{ let Ok(gb) = s.b.lock() else {{ return }}; let ga = s.a.lock(); }}\n"
        );
        let out = scan(&src);
        assert_eq!(out.len(), 1, "{out:?}");
        let d = &out[0];
        assert_eq!((d.code.as_str(), d.severity), ("SC110", Severity::Error));
        assert!(d.message.contains("`forward` locks `a` then `b`"), "{d:?}");
        assert!(d.message.contains("`backward` locks `b` then `a`"), "{d:?}");
        assert_eq!(d.location, "crates/x/src/lib.rs:3");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{SHARED}fn one(s: &S) {{ let ga = s.a.lock().unwrap(); let gb = s.b.lock()?; }}\n\
             fn two(s: &S) {{ let ga = s.a.lock().expect(\"a\"); let gb = s.b.lock(); }}\n"
        );
        assert!(scan(&src).is_empty());
    }

    #[test]
    fn temporaries_drops_and_block_ends_release_the_guard() {
        // the first lock of each function is released before the second
        let src = format!(
            "{SHARED}fn one(s: &S) {{ let x = *s.a.lock().unwrap(); let gb = s.b.lock(); }}\n\
             fn two(s: &S) {{ let n = s.b.lock().len(); let ga = s.a.lock(); }}\n\
             fn three(s: &S) {{ let gb = s.b.lock(); drop(gb); let ga = s.a.lock(); }}\n\
             fn four(s: &S) {{ {{ let gb = s.b.lock(); }} let ga = s.a.lock(); }}\n"
        );
        assert!(scan(&src).is_empty());
    }

    #[test]
    fn opposite_branches_of_one_closure_are_caught() {
        // the seeded par-task form: local locks, one order per family
        let src = "fn report(units: &[u8]) {\n\
             let cache = std::sync::Mutex::new(0);\n\
             let stats = std::sync::Mutex::new(0);\n\
             par::map_indexed(units, |_, u| {\n\
                 if *u == 4 { let c = cache.lock(); let s = stats.lock(); }\n\
                 else { let s = stats.lock(); let c = cache.lock(); }\n\
             });\n}\n";
        let out = scan(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`cache` and `stats`"), "{out:?}");
    }

    #[test]
    fn a_lock_taken_in_a_callee_is_a_blind_spot() {
        let src = format!(
            "{SHARED}fn grab_b(s: &S) {{ let g = s.b.lock(); }}\n\
             fn forward(s: &S) {{ let ga = s.a.lock(); grab_b(s); }}\n\
             fn backward(s: &S) {{ let gb = s.b.lock(); let ga = s.a.lock(); }}\n"
        );
        assert!(scan(&src).is_empty());
    }

    #[test]
    fn test_items_and_non_lock_reads_are_ignored() {
        let src = format!(
            "{SHARED}fn io(f: &mut File, s: &S) {{ let ga = s.a.lock(); let n = f.read(); let gb = s.b.lock(); }}\n\
             #[cfg(test)]\nmod tests {{\n fn backward(s: &S) {{ let gb = s.b.lock(); let ga = s.a.lock(); }}\n}}\n"
        );
        assert!(scan(&src).is_empty());
    }
}
