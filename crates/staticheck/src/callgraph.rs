//! Item/brace-structure parsing and the workspace call graph.
//!
//! Built on [`crate::lexer`]: each file's token stream is walked once,
//! recognizing `fn` items (through `mod`/`impl`/`trait` nesting, with
//! `#[cfg(test)]` and `#[test]` regions dropped), recording per function
//! its parameter types and call sites, plus
//! per struct which fields hold `HashMap`/`HashSet` or an
//! interior-mutability type (`RefCell`, `Mutex`, `Atomic*`, ...). The
//! per-file symbol tables are then stitched into a [`CallGraph`] whose
//! edges resolve call sites to workspace functions **by name** — a
//! deliberate over-approximation (no type-directed method resolution
//! without `syn`), kept useful by a stoplist of ubiquitous std method
//! names that would otherwise wire everything to everything.
//!
//! # Closures are anonymous functions
//!
//! A closure literal (`|args| body`, `move || body`) is parsed into its
//! own [`FnDef`] named `{closure@<line>}`, with:
//! * a **capture list** — free identifiers in the closure body resolved
//!   against the enclosing function's parameters and `let`-bound locals
//!   (`self` included);
//! * a **`passed_to` edge** — the callee the closure literal is an
//!   argument of (`map_indexed`, `thread::scope(..)`, `spawn`, ...),
//!   found by walking back over unbalanced parens from the literal;
//! * a synthetic call edge *enclosing function → closure*, so every
//!   reachability query walks through closure bodies.
//!
//! The concurrency pass ([`crate::concurrency`]) keys off `passed_to`
//! to identify *par-task closures*: task bodies handed to the `par`
//! pool, a `thread::scope`, or a spawned handler thread.
//!
//! Accepted blind spots (documented in TESTING.md): captures that only
//! occur as method-call *receivers of path segments* (`a.b.c()` only
//! captures `a`), captures of function items passed as values, and
//! trait-object indirection (calls through `dyn Trait` resolve by bare
//! method name like every other method call).
//!
//! Reachability queries drive the dataflow lints:
//! * *sink-reaching* — can this function reach serialized output,
//!   digests, or metrics (SC107's interprocedural half, SC111's sinks);
//! * *IM-/blocking-reaching* — can a par-task closure reach interior
//!   mutability (SC109) or a blocking call (SC112).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, TokKind};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallSite {
    /// Callee name; macros carry a trailing `!` (`writeln!`).
    pub callee: String,
    /// Last path segment before the name for `qual::name(...)` calls
    /// (`serde_json::to_string` → `Some("serde_json")`).
    pub qualifier: Option<String>,
    /// `recv.name(...)` rather than `name(...)`.
    pub is_method: bool,
    /// 1-based source line.
    pub line: u32,
}

/// One parsed function, method, or closure literal.
#[derive(Debug, Clone)]
pub(crate) struct FnDef {
    /// Bare name (no path; resolution is by name). Closures are named
    /// `{closure@<line>}` and never participate in name resolution.
    pub name: String,
    /// 1-based line of the `fn` keyword (or the closure's first `|`).
    pub line: u32,
    /// Token range of the body in the file stream: `(open, close)`
    /// indices of the braces; `open == close` means no body. The scan
    /// range is `body.0 + 1 .. body.1`; expression-bodied closures use
    /// synthetic indices keeping that convention.
    pub body: (usize, usize),
    /// All parameter names, `self` included when present.
    pub params: Vec<String>,
    /// Parameter names whose declared type mentions `HashMap`/`HashSet`.
    pub hash_params: Vec<String>,
    /// `let`-bound local names (simple bindings only; destructuring
    /// patterns and `match` arms are accepted blind spots).
    pub locals: Vec<String>,
    /// Everything this body calls (nested closure regions excluded —
    /// those calls belong to the closure's own def).
    pub calls: Vec<CallSite>,
    /// True for closure literals parsed as anonymous functions.
    pub is_closure: bool,
    /// For closures: the callee this literal is an argument of
    /// (`map_indexed`, `scope`, `spawn`, ...), found by walking back
    /// over unbalanced parens to the enclosing call.
    pub passed_to: Option<String>,
    /// For closures: free identifiers in the body resolved against the
    /// enclosing scope (params + locals visible at the closure site).
    pub captures: Vec<String>,
    /// For closures: local index (into the file's `fns`) of the
    /// enclosing named function. Nested closures attach flat to it.
    pub encl: Option<usize>,
}

/// The symbol table of one source file.
#[derive(Debug, Default)]
pub(crate) struct FileSyms {
    /// Workspace-relative path (`crates/x/src/lib.rs`).
    pub rel: String,
    /// The full token stream (bodies index into it).
    pub toks: Vec<Tok>,
    /// Functions found (test regions excluded).
    pub fns: Vec<FnDef>,
    /// `(struct, field)` pairs whose type mentions `HashMap`/`HashSet`.
    pub hash_fields: BTreeSet<(String, String)>,
    /// `(struct, field, type)` triples whose field type is an
    /// interior-mutability container (`RefCell`, `Mutex`, `Atomic*`, ...).
    pub im_fields: BTreeSet<(String, String, String)>,
    /// `(name, type)` for module-level interior-mutability statics:
    /// `static mut` items (type `"static mut"`), IM-typed statics, and
    /// `thread_local!` inner statics (type `"thread_local"`).
    pub im_statics: BTreeSet<(String, String)>,
}

/// Interior-mutability type names — SC109's seeds. `static mut` and
/// `thread_local!` are recognized structurally, not by type name.
pub(crate) fn im_type(id: &str) -> bool {
    matches!(
        id,
        "RefCell" | "Cell" | "UnsafeCell" | "Mutex" | "RwLock" | "Condvar"
    ) || id.starts_with("Atomic")
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 11] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "fn",
];

/// Ubiquitous std method/function names excluded from call-graph edges:
/// resolving `x.get(...)` to some workspace `get` would wire unrelated
/// code together and drown both reachability queries in noise.
const EDGE_STOPLIST: [&str; 58] = [
    "new",
    "default",
    "clone",
    "insert",
    "get",
    "get_mut",
    "get_or_insert_with",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "extend",
    "contains",
    "contains_key",
    "remove",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "min",
    "max",
    "cmp",
    "eq",
    "ne",
    "fmt",
    "from",
    "into",
    "to_owned",
    "as_str",
    "as_ref",
    "as_bytes",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "filter",
    "fold",
    "any",
    "all",
    "find",
    "position",
    "keys",
    "values",
    "drain",
    "clear",
    "with_capacity",
];

/// Parse one file into its symbol table.
pub(crate) fn parse_file(rel: &str, src: &str) -> FileSyms {
    let toks = lex(src);
    let mut syms = FileSyms {
        rel: rel.to_string(),
        toks,
        ..FileSyms::default()
    };
    let end = syms.toks.len();
    let mut p = Parser { syms: &mut syms };
    p.items(0, end);
    syms
}

struct Parser<'a> {
    syms: &'a mut FileSyms,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.syms.toks.get(i)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(s))
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
    }

    fn ident_text(&self, i: usize) -> Option<&str> {
        self.tok(i).and_then(|t| {
            if t.kind == TokKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    /// Index just past the delimiter-balanced group opening at `i`
    /// (`toks[i]` must be `{`, `(`, or `[`).
    fn skip_balanced(&self, i: usize) -> usize {
        let (open, close) = match self.tok(i) {
            Some(t) if t.is_punct('{') => ('{', '}'),
            Some(t) if t.is_punct('(') => ('(', ')'),
            Some(t) if t.is_punct('[') => ('[', ']'),
            _ => return i + 1,
        };
        let mut depth = 0i32;
        let mut j = i;
        while let Some(t) = self.tok(j) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Index just past a generic parameter list opening at `i` (`<`).
    /// `->` arrows inside bounds must not close the list.
    fn skip_generics(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while let Some(t) = self.tok(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                if j > 0 && self.is_punct(j - 1, '-') {
                    // `->` arrow, not a close
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                j = self.skip_balanced(j);
                continue;
            }
            j += 1;
        }
        j
    }

    /// Parse an attribute opening at `i` (the `#`). Returns
    /// `(next_index, is_test_attr)`.
    fn attr(&self, i: usize) -> (usize, bool) {
        let mut j = i + 1;
        let inner = self.is_punct(j, '!');
        if inner {
            j += 1;
        }
        if !self.is_punct(j, '[') {
            return (i + 1, false);
        }
        let end = self.skip_balanced(j);
        if inner {
            return (end, false);
        }
        let idents: Vec<&str> = self.syms.toks[j..end]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        // `#[test]` / `#[cfg(test)]`, but not `#[cfg(not(test))]`
        let is_test = idents == ["test"]
            || (idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not"));
        (end, is_test)
    }

    /// Parse items in `[i, end)`.
    fn items(&mut self, mut i: usize, end: usize) {
        let mut pending_test = false;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct('#') {
                let (next, is_test) = self.attr(i);
                pending_test |= is_test;
                i = next;
                continue;
            }
            if t.kind != TokKind::Ident {
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    i = self.skip_balanced(i);
                } else {
                    i += 1;
                }
                continue;
            }
            match t.text.as_str() {
                "fn" => {
                    i = self.function(i, pending_test);
                    pending_test = false;
                }
                "mod" => {
                    let mut j = i + 2; // mod <name>
                    if self.is_punct(j, '{') {
                        let close = self.skip_balanced(j);
                        if !pending_test {
                            self.items(j + 1, close - 1);
                        }
                        j = close;
                    } else if self.is_punct(j, ';') {
                        j += 1;
                    }
                    i = j;
                    pending_test = false;
                }
                "impl" | "trait" => {
                    // scan the header to the block
                    let mut j = i + 1;
                    while let Some(h) = self.tok(j) {
                        if h.is_punct('{') {
                            break;
                        }
                        if h.is_punct('<') {
                            j = self.skip_generics(j);
                            continue;
                        }
                        j += 1;
                    }
                    if self.is_punct(j, '{') {
                        let close = self.skip_balanced(j);
                        if !pending_test {
                            self.items(j + 1, close - 1);
                        }
                        j = close;
                    }
                    i = j;
                    pending_test = false;
                }
                "struct" => {
                    i = self.structure(i);
                    pending_test = false;
                }
                "enum" | "union" => {
                    let mut j = i + 2;
                    if self.is_punct(j, '<') {
                        j = self.skip_generics(j);
                    }
                    while j < end && !self.is_punct(j, '{') && !self.is_punct(j, ';') {
                        j += 1;
                    }
                    i = if self.is_punct(j, '{') {
                        self.skip_balanced(j)
                    } else {
                        j + 1
                    };
                    pending_test = false;
                }
                "macro_rules" => {
                    let mut j = i + 1;
                    while j < end
                        && !self.is_punct(j, '{')
                        && !self.is_punct(j, '(')
                        && !self.is_punct(j, '[')
                    {
                        j += 1;
                    }
                    i = self.skip_balanced(j);
                    pending_test = false;
                }
                "const" | "static" if self.is_ident(i + 1, "fn") => {
                    // `const fn` — let the fn arm handle it
                    i += 1;
                }
                "static" => {
                    // `static [mut] NAME: Type = ...;` — record IM statics
                    let mut j = i + 1;
                    let is_mut = self.is_ident(j, "mut");
                    if is_mut {
                        j += 1;
                    }
                    let name = self.ident_text(j).map(str::to_string);
                    let mut ty: Option<String> = None;
                    while j < end {
                        if self.is_punct(j, ';') {
                            j += 1;
                            break;
                        }
                        if self.is_punct(j, '{') || self.is_punct(j, '(') || self.is_punct(j, '[') {
                            j = self.skip_balanced(j);
                            continue;
                        }
                        if ty.is_none() {
                            if let Some(id) = self.ident_text(j) {
                                if im_type(id) {
                                    ty = Some(id.to_string());
                                }
                            }
                        }
                        j += 1;
                    }
                    if let Some(name) = name {
                        if is_mut {
                            self.syms
                                .im_statics
                                .insert((name, "static mut".to_string()));
                        } else if let Some(ty) = ty {
                            self.syms.im_statics.insert((name, ty));
                        }
                    }
                    i = j;
                    pending_test = false;
                }
                "thread_local" if self.is_punct(i + 1, '!') => {
                    // thread_local! { static NAME: Ty = ...; }
                    let mut j = i + 2;
                    if self.is_punct(j, '{') || self.is_punct(j, '(') || self.is_punct(j, '[') {
                        let close = self.skip_balanced(j);
                        let mut k = j + 1;
                        while k + 1 < close {
                            if self.is_ident(k, "static") {
                                let n = if self.is_ident(k + 1, "mut") {
                                    k + 2
                                } else {
                                    k + 1
                                };
                                if let Some(name) = self.ident_text(n) {
                                    self.syms
                                        .im_statics
                                        .insert((name.to_string(), "thread_local".to_string()));
                                }
                            }
                            k += 1;
                        }
                        j = close;
                    }
                    i = j;
                    pending_test = false;
                }
                "use" | "const" | "type" | "extern" => {
                    // skip to the terminating `;`, stepping over groups
                    let mut j = i + 1;
                    while j < end {
                        if self.is_punct(j, ';') {
                            j += 1;
                            break;
                        }
                        if self.is_punct(j, '{') || self.is_punct(j, '(') || self.is_punct(j, '[') {
                            j = self.skip_balanced(j);
                        } else {
                            j += 1;
                        }
                    }
                    i = j;
                    pending_test = false;
                }
                _ => i += 1,
            }
        }
    }

    /// Parse `struct Name { fields }`, recording hash-typed fields.
    fn structure(&mut self, i: usize) -> usize {
        let Some(name) = self.ident_text(i + 1).map(str::to_string) else {
            return i + 1;
        };
        let mut j = i + 2;
        if self.is_punct(j, '<') {
            j = self.skip_generics(j);
        }
        // where clause before the body
        while j < self.syms.toks.len()
            && !self.is_punct(j, '{')
            && !self.is_punct(j, '(')
            && !self.is_punct(j, ';')
        {
            j += 1;
        }
        if self.is_punct(j, '(') {
            // tuple struct: no named fields
            let after = self.skip_balanced(j);
            return if self.is_punct(after, ';') {
                after + 1
            } else {
                after
            };
        }
        if !self.is_punct(j, '{') {
            return j + 1;
        }
        let close = self.skip_balanced(j);
        let mut k = j + 1;
        while k < close - 1 {
            if self.is_punct(k, '#') {
                let (next, _) = self.attr(k);
                k = next;
                continue;
            }
            if self.is_ident(k, "pub") {
                k += 1;
                if self.is_punct(k, '(') {
                    k = self.skip_balanced(k);
                }
                continue;
            }
            let Some(field) = self.ident_text(k).map(str::to_string) else {
                k += 1;
                continue;
            };
            if !self.is_punct(k + 1, ':') {
                k += 1;
                continue;
            }
            // type runs to the `,` at this level (or the closing brace)
            let mut t = k + 2;
            let mut hash = false;
            let mut im: Option<String> = None;
            while t < close - 1 {
                if self.is_punct(t, ',') {
                    break;
                }
                if self.is_punct(t, '<') {
                    let g = self.skip_generics(t);
                    for x in &self.syms.toks[t..g] {
                        hash |= x.is_ident("HashMap") || x.is_ident("HashSet");
                        if im.is_none() && x.kind == TokKind::Ident && im_type(&x.text) {
                            im = Some(x.text.clone());
                        }
                    }
                    t = g;
                    continue;
                }
                if self.is_punct(t, '(') || self.is_punct(t, '[') || self.is_punct(t, '{') {
                    t = self.skip_balanced(t);
                    continue;
                }
                hash |= self.is_ident(t, "HashMap") || self.is_ident(t, "HashSet");
                if im.is_none() {
                    if let Some(id) = self.ident_text(t) {
                        if im_type(id) {
                            im = Some(id.to_string());
                        }
                    }
                }
                t += 1;
            }
            if hash {
                self.syms.hash_fields.insert((name.clone(), field.clone()));
            }
            if let Some(ty) = im {
                self.syms.im_fields.insert((name.clone(), field, ty));
            }
            k = t + 1;
        }
        close
    }

    /// Parse a `fn` item starting at `i` (the `fn` keyword). Returns the
    /// index past the item.
    fn function(&mut self, i: usize, in_test: bool) -> usize {
        let line = self.tok(i).map(|t| t.line).unwrap_or(0);
        let Some(name) = self.ident_text(i + 1).map(str::to_string) else {
            // `fn(u32) -> u32` in type position
            return i + 1;
        };
        let mut j = i + 2;
        if self.is_punct(j, '<') {
            j = self.skip_generics(j);
        }
        if !self.is_punct(j, '(') {
            return j;
        }
        let params_end = self.skip_balanced(j);
        let (params, hash_params) = self.params(j + 1, params_end - 1);
        // signature tail: return type / where clause, to `{` or `;`
        let mut k = params_end;
        while let Some(t) = self.tok(k) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('<') {
                k = self.skip_generics(k);
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                k = self.skip_balanced(k);
                continue;
            }
            k += 1;
        }
        if self.is_punct(k, ';') {
            // trait method declaration: record the signature, no body
            if !in_test {
                self.syms.fns.push(FnDef {
                    name,
                    line,
                    body: (k, k),
                    params,
                    hash_params,
                    locals: Vec::new(),
                    calls: Vec::new(),
                    is_closure: false,
                    passed_to: None,
                    captures: Vec::new(),
                    encl: None,
                });
            }
            return k + 1;
        }
        if !self.is_punct(k, '{') {
            return k;
        }
        let close = self.skip_balanced(k);
        if in_test {
            return close;
        }
        let mut def = FnDef {
            name,
            line,
            body: (k, close - 1),
            params,
            hash_params,
            locals: Vec::new(),
            calls: Vec::new(),
            is_closure: false,
            passed_to: None,
            captures: Vec::new(),
            encl: None,
        };
        let mut closures = Vec::new();
        self.scan_body(k + 1, close - 1, &mut def, &mut closures, &[]);
        let encl = self.syms.fns.len();
        self.syms.fns.push(def);
        for mut c in closures {
            c.encl = Some(encl);
            self.syms.fns.push(c);
        }
        close
    }

    /// Parameter names in `[i, end)`: all of them (`self` included),
    /// plus the subset whose declared type mentions hash containers.
    fn params(&self, i: usize, end: usize) -> (Vec<String>, Vec<String>) {
        let mut all = Vec::new();
        let mut hash = Vec::new();
        let mut j = i;
        let mut current: Option<String> = None;
        let mut depth = 0i32;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                j = self.skip_balanced(j);
                continue;
            }
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(j > 0 && self.is_punct(j - 1, '-')) {
                depth -= 1;
            } else if t.is_punct(',') && depth <= 0 {
                current = None;
            } else if t.kind == TokKind::Ident && depth <= 0 && t.text == "self" {
                all.push(t.text.clone());
            } else if t.kind == TokKind::Ident && self.is_punct(j + 1, ':') && depth <= 0 {
                all.push(t.text.clone());
                current = Some(t.text.clone());
            } else if t.kind == TokKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
                && current.is_some()
            {
                if let Some(name) = current.take() {
                    hash.push(name);
                }
            }
            j += 1;
        }
        (all, hash)
    }

    /// Could the `|` at `j` open a closure literal? True when the
    /// previous token cannot end an expression (so `|` is not binary
    /// or-/union syntax): an opening/separator punct or a keyword like
    /// `move`. `a || b` and `x | y` never trigger — their first `|`
    /// follows an expression.
    fn closure_trigger(&self, j: usize, start: usize) -> bool {
        if j == start {
            return true;
        }
        let Some(p) = self.tok(j - 1) else {
            return false;
        };
        match p.kind {
            TokKind::Punct => matches!(
                p.text.chars().next(),
                Some('(' | ',' | '=' | '{' | ';' | '[' | ':')
            ),
            TokKind::Ident => matches!(p.text.as_str(), "move" | "return" | "else" | "in"),
            _ => false,
        }
    }

    /// The callee a closure starting at `j` is an argument of, if any:
    /// walk back over balanced groups to the first unbalanced `(` — the
    /// enclosing call's argument list — and name the ident before it.
    fn passed_to(&self, j: usize) -> Option<String> {
        let mut depth = 0i32;
        let mut k = j;
        while k > 0 {
            k -= 1;
            let t = self.tok(k)?;
            if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth += 1;
            } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                if depth > 0 {
                    depth -= 1;
                    continue;
                }
                if t.is_punct('(') && k > 0 {
                    if let Some(name) = self.ident_text(k - 1) {
                        if !NON_CALL_KEYWORDS.contains(&name) {
                            return Some(name.to_string());
                        }
                    }
                }
                return None;
            } else if depth == 0 && t.is_punct(';') {
                // a `(` cannot stay open across a statement boundary
                return None;
            }
        }
        None
    }

    /// Parse a closure literal whose first `|` is at `j`: its own
    /// [`FnDef`] named `{closure@<line>}` pushed into `closures`
    /// (nested ones too, flat), captures resolved against `scope`.
    /// Returns the index past the closure.
    fn closure(
        &mut self,
        j: usize,
        end: usize,
        closures: &mut Vec<FnDef>,
        scope: &[String],
    ) -> usize {
        let line = self.tok(j).map(|t| t.line).unwrap_or(0);
        let mut params = Vec::new();
        let mut k = j + 1;
        if self.is_punct(k, '|') {
            k += 1; // `||`: empty parameter list
        } else {
            let mut after_colon = false;
            while k < end && !self.is_punct(k, '|') {
                if self.is_punct(k, '(') || self.is_punct(k, '[') || self.is_punct(k, '{') {
                    k = self.skip_balanced(k);
                    continue;
                }
                if self.is_punct(k, '<') {
                    k = self.skip_generics(k);
                    continue;
                }
                if self.is_punct(k, ':') {
                    after_colon = true;
                } else if self.is_punct(k, ',') {
                    after_colon = false;
                } else if !after_colon {
                    if let Some(id) = self.ident_text(k) {
                        if id != "mut" && id != "ref" && id != "_" {
                            params.push(id.to_string());
                        }
                    }
                }
                k += 1;
            }
            k += 1; // past the closing `|`
        }
        // optional `-> Type` before a braced body
        if self.is_punct(k, '-') && self.is_punct(k + 1, '>') {
            k += 2;
            while k < end && !self.is_punct(k, '{') {
                if self.is_punct(k, '<') {
                    k = self.skip_generics(k);
                } else if self.is_punct(k, '(') || self.is_punct(k, '[') {
                    k = self.skip_balanced(k);
                } else {
                    k += 1;
                }
            }
        }
        let (body, past) = if self.is_punct(k, '{') {
            let close = self.skip_balanced(k);
            ((k, close - 1), close)
        } else {
            // expression body: runs to `,`/`;` at depth 0 or to the
            // closer of the group the closure sits in
            let mut depth = 0i32;
            let mut e = k;
            while e < end {
                let Some(t) = self.tok(e) else { break };
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if depth == 0 && (t.is_punct(',') || t.is_punct(';')) {
                    break;
                }
                e += 1;
            }
            // synthetic (open, close): scan range body.0+1..body.1
            ((k - 1, e), e)
        };
        let back = if j > 0 && self.is_ident(j - 1, "move") {
            j - 1
        } else {
            j
        };
        let mut c = FnDef {
            name: format!("{{closure@{line}}}"),
            line,
            body,
            params: params.clone(),
            hash_params: Vec::new(),
            locals: Vec::new(),
            calls: Vec::new(),
            is_closure: true,
            passed_to: self.passed_to(back),
            captures: Vec::new(),
            encl: None,
        };
        // the closure's body scan sees the enclosing scope plus its own
        // params; nested closures land flat in the same out-vec
        let mut inner_scope: Vec<String> = scope.to_vec();
        inner_scope.extend(params);
        self.scan_body(body.0 + 1, body.1, &mut c, closures, &inner_scope);
        c.captures = self.free_idents(body.0 + 1, body.1, &c, scope);
        closures.push(c);
        past
    }

    /// Free identifiers in `[i, end)` — not path-qualified, not called,
    /// not bound by `def` — that resolve in the enclosing `scope`.
    fn free_idents(&self, i: usize, end: usize, def: &FnDef, scope: &[String]) -> Vec<String> {
        let bound: BTreeSet<&str> = def
            .params
            .iter()
            .chain(def.locals.iter())
            .map(String::as_str)
            .collect();
        let scope_set: BTreeSet<&str> = scope.iter().map(String::as_str).collect();
        let mut out = BTreeSet::new();
        for j in i..end.min(self.syms.toks.len()) {
            let Some(t) = self.tok(j) else { break };
            if t.kind != TokKind::Ident {
                continue;
            }
            let id = t.text.as_str();
            let after_path = (j >= 1 && self.is_punct(j - 1, '.'))
                || (j >= 2 && self.is_punct(j - 1, ':') && self.is_punct(j - 2, ':'));
            let is_called = self.is_punct(j + 1, '(') || self.is_punct(j + 1, '!');
            if !after_path && !is_called && !bound.contains(id) && scope_set.contains(id) {
                out.insert(id.to_string());
            }
        }
        out.into_iter().collect()
    }

    /// Scan a function body for calls, `let`-bound locals, nested
    /// items, and closure literals. Closure regions are skipped here —
    /// their calls belong to the closure's own [`FnDef`]
    /// (pushed into `closures`), kept reachable through the synthetic
    /// enclosing→closure edge [`CallGraph::build`] adds.
    fn scan_body(
        &mut self,
        i: usize,
        end: usize,
        def: &mut FnDef,
        closures: &mut Vec<FnDef>,
        outer_scope: &[String],
    ) {
        let mut j = i;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            // nested fn: its own FnDef, not part of this body's calls
            if t.is_ident("fn") && self.tok(j + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                j = self.function(j, false);
                continue;
            }
            // `let [mut] name =` / `for name in`: a local binding
            if t.is_ident("let") {
                let mut k = j + 1;
                if self.is_ident(k, "mut") {
                    k += 1;
                }
                if let Some(name) = self.ident_text(k) {
                    // plain binding, not `let Some(x)` destructuring
                    if self.is_punct(k + 1, '=') || self.is_punct(k + 1, ':') {
                        def.locals.push(name.to_string());
                    }
                }
                j += 1;
                continue;
            }
            if t.is_ident("for") {
                if let Some(name) = self.ident_text(j + 1) {
                    if self.is_ident(j + 2, "in") {
                        def.locals.push(name.to_string());
                    }
                }
            }
            if t.is_punct('|') && self.closure_trigger(j, i) {
                let mut scope: Vec<String> = outer_scope.to_vec();
                scope.extend(def.params.iter().cloned());
                scope.extend(def.locals.iter().cloned());
                j = self.closure(j, end, closures, &scope);
                continue;
            }
            if t.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                // macro invocation `name!(..)` / `name![..]` / `name!{..}`
                if self.is_punct(j + 1, '!')
                    && (self.is_punct(j + 2, '(')
                        || self.is_punct(j + 2, '[')
                        || self.is_punct(j + 2, '{'))
                {
                    def.calls.push(CallSite {
                        callee: format!("{}!", t.text),
                        qualifier: None,
                        is_method: false,
                        line: t.line,
                    });
                    j += 2;
                    continue;
                }
                // plain or method call `name(..)`
                if self.is_punct(j + 1, '(') {
                    let is_method = j > 0 && self.is_punct(j - 1, '.');
                    let qualifier =
                        if j >= 3 && self.is_punct(j - 1, ':') && self.is_punct(j - 2, ':') {
                            self.ident_text(j - 3).map(str::to_string)
                        } else {
                            None
                        };
                    def.calls.push(CallSite {
                        callee: t.text.clone(),
                        qualifier,
                        is_method,
                        line: t.line,
                    });
                }
            }
            j += 1;
        }
    }
}

/// A function node in the workspace call graph.
#[derive(Debug, Clone)]
pub(crate) struct FnNode {
    /// Which file (index into the [`CallGraph::files`] order).
    pub file: usize,
    /// Index into that file's `fns`.
    pub local: usize,
    /// Bare name (copied out for cheap access).
    pub name: String,
    /// Workspace-relative path.
    pub rel: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Resolved callee node indices (deduped, stoplist applied).
    pub callees: Vec<usize>,
}

/// The workspace call graph over every parsed file.
#[derive(Debug, Default)]
pub(crate) struct CallGraph {
    /// Parsed files, in the order given to [`CallGraph::build`].
    pub files: Vec<FileSyms>,
    /// Flattened function nodes.
    pub nodes: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the graph from parsed files.
    pub(crate) fn build(files: Vec<FileSyms>) -> CallGraph {
        let mut g = CallGraph {
            files,
            nodes: Vec::new(),
            by_name: BTreeMap::new(),
        };
        let mut base = Vec::with_capacity(g.files.len());
        for (fi, file) in g.files.iter().enumerate() {
            base.push(g.nodes.len());
            for (li, f) in file.fns.iter().enumerate() {
                let idx = g.nodes.len();
                g.nodes.push(FnNode {
                    file: fi,
                    local: li,
                    name: f.name.clone(),
                    rel: file.rel.clone(),
                    line: f.line,
                    callees: Vec::new(),
                });
                // closures never resolve by name; `{closure@N}` can
                // collide across a file and is reached via `encl` edges
                if !f.is_closure {
                    g.by_name.entry(f.name.clone()).or_default().push(idx);
                }
            }
        }
        for idx in 0..g.nodes.len() {
            let (fi, li) = (g.nodes[idx].file, g.nodes[idx].local);
            let mut callees = BTreeSet::new();
            for call in &g.files[fi].fns[li].calls {
                for &target in g.resolve(&call.callee) {
                    if target != idx {
                        callees.insert(target);
                    }
                }
            }
            // synthetic edge: enclosing fn → each of its closures
            for (ci, cf) in g.files[fi].fns.iter().enumerate() {
                if cf.is_closure && cf.encl == Some(li) && !g.files[fi].fns[li].is_closure {
                    callees.insert(base[fi] + ci);
                }
            }
            g.nodes[idx].callees = callees.into_iter().collect();
        }
        g
    }

    /// The function definition behind a node.
    pub(crate) fn def(&self, idx: usize) -> &FnDef {
        &self.files[self.nodes[idx].file].fns[self.nodes[idx].local]
    }

    /// Workspace functions a call site with this callee name may reach
    /// (empty for stoplisted or external names; macros never resolve).
    pub(crate) fn resolve(&self, callee: &str) -> &[usize] {
        if callee.ends_with('!') || EDGE_STOPLIST.contains(&callee) {
            return &[];
        }
        self.by_name.get(callee).map(Vec::as_slice).unwrap_or(&[])
    }

    /// For every node, whether it can reach a node satisfying `seed` by
    /// following call edges, and through which callee: `next[i]` is
    /// `Some(i)` for seeds themselves, `Some(callee)` for the first hop
    /// of a witness path, `None` when unreachable.
    pub(crate) fn reach(&self, seed: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
        let mut next: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, slot) in next.iter_mut().enumerate() {
            if seed(i) {
                *slot = Some(i);
                queue.push(i);
            }
        }
        // reverse-BFS: walking callers of reached nodes
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.callees {
                callers[c].push(i);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for &caller in &callers[cur] {
                if next[caller].is_none() {
                    next[caller] = Some(cur);
                    queue.push(caller);
                }
            }
        }
        next
    }

    /// The witness path from `from` to the seed, as node indices
    /// (`from` first, the seed last).
    pub(crate) fn chain(&self, from: usize, next: &[Option<usize>]) -> Vec<usize> {
        let mut out = vec![from];
        let mut cur = from;
        while let Some(n) = next[cur] {
            if n == cur {
                break;
            }
            out.push(n);
            cur = n;
        }
        out
    }

    /// Render a chain as `a → b → c` using function names.
    pub(crate) fn chain_names(&self, chain: &[usize]) -> String {
        chain
            .iter()
            .map(|&i| self.nodes[i].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileSyms {
        parse_file("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn functions_and_calls_are_recorded() {
        let syms = parse(
            "pub fn api() { helper(); }\n\
             fn helper() {}\n\
             pub(crate) fn internal() {}\n",
        );
        let names: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["api", "helper", "internal"]);
        assert_eq!(syms.fns[0].calls.len(), 1);
        assert_eq!(syms.fns[0].calls[0].callee, "helper");
    }

    #[test]
    fn test_regions_are_dropped() {
        let syms = parse(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests {\n  fn dead() { x.unwrap(); }\n}\n\
             #[test]\nfn also_dead() {}\n\
             fn live_too() {}\n",
        );
        let names: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "live_too"]);
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let syms = parse("#[cfg(not(test))]\nfn kept() {}\n");
        assert_eq!(syms.fns.len(), 1);
    }

    #[test]
    fn impl_blocks_yield_methods_and_hash_fields() {
        let syms = parse(
            "struct Index { map: HashMap<u32, u32>, n: u32 }\n\
             impl Index {\n  fn rebuild(&mut self) { self.touch(); }\n  fn touch(&mut self) {}\n}\n\
             impl std::fmt::Display for Index {\n  fn fmt(&self) {}\n}\n",
        );
        assert!(syms
            .hash_fields
            .contains(&("Index".to_string(), "map".to_string())));
        assert!(!syms.hash_fields.iter().any(|(_, f)| f == "n"));
        let names: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["rebuild", "touch", "fmt"]);
    }

    #[test]
    fn hash_typed_params_are_recorded() {
        let syms = parse("fn f(a: &HashMap<u32, u32>, b: u32, c: HashSet<u8>) {}\n");
        assert_eq!(syms.fns[0].hash_params, vec!["a", "c"]);
    }

    #[test]
    fn reachability_and_chains() {
        let files = vec![
            parse_file(
                "crates/demo/src/lib.rs",
                "pub fn api() { middle(); }\nfn middle() { deep(); }\n",
            ),
            parse_file(
                "crates/demo/src/deep.rs",
                "pub fn deep() { other(); }\nfn other() {}\nfn unrelated() {}\n",
            ),
        ];
        let g = CallGraph::build(files);
        let other = g.nodes.iter().position(|n| n.name == "other").unwrap();
        let next = g.reach(|i| i == other);
        let api = g.nodes.iter().position(|n| n.name == "api").unwrap();
        let chain = g.chain(api, &next);
        assert_eq!(g.chain_names(&chain), "api -> middle -> deep -> other");
        let unrelated = g.nodes.iter().position(|n| n.name == "unrelated").unwrap();
        assert!(next[unrelated].is_none());
    }

    #[test]
    fn stoplisted_names_make_no_edges() {
        let g = CallGraph::build(vec![parse_file(
            "crates/demo/src/lib.rs",
            "pub fn insert() {}\nfn f(v: &mut Vec<u32>) { v.insert(0, 1); }\n",
        )]);
        let f = g.nodes.iter().position(|n| n.name == "f").unwrap();
        assert!(g.nodes[f].callees.is_empty());
    }

    #[test]
    fn all_params_and_locals_are_recorded() {
        let syms = parse(
            "impl T { fn m(&self, snap: &World, n: u32) { let total = n + 1;\n\
             let mut acc: u32 = total; for row in rows { acc += row; } } }\n",
        );
        let m = &syms.fns[0];
        assert_eq!(m.params, vec!["self", "snap", "n"]);
        assert_eq!(m.locals, vec!["total", "acc", "row"]);
    }

    #[test]
    fn closure_becomes_anonymous_fn_with_captures() {
        let syms = parse(
            "fn outer(snap: &World, dict: &Dict) {\n\
             let scale = 2;\n\
             let out = map_indexed(&units, |i, unit| { helper(snap, scale); dict.classify(unit) });\n\
             }\n",
        );
        let names: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "{closure@3}"]);
        let c = &syms.fns[1];
        assert!(c.is_closure);
        assert_eq!(c.passed_to.as_deref(), Some("map_indexed"));
        assert_eq!(c.params, vec!["i", "unit"]);
        // free idents resolved against outer's params + locals; `i` and
        // `unit` are bound, `helper` is a call, `units` is module-level
        assert_eq!(c.captures, vec!["dict", "scale", "snap"]);
        assert_eq!(c.encl, Some(0));
        // the closure's calls live on the closure, not on `outer`
        assert!(c.calls.iter().any(|s| s.callee == "helper"));
        assert!(!syms.fns[0].calls.iter().any(|s| s.callee == "helper"));
        assert!(syms.fns[0].calls.iter().any(|s| s.callee == "map_indexed"));
    }

    #[test]
    fn logical_or_and_bitor_are_not_closures() {
        let syms = parse("fn f(a: bool, b: u32) -> bool { a || (b | 3) > 4 }\n");
        assert_eq!(syms.fns.len(), 1, "no phantom closures from `||` or `|`");
    }

    #[test]
    fn expression_bodied_and_nested_closures() {
        let syms = parse(
            "fn outer(n: u32) {\n\
             let f = |x: u32| x + n;\n\
             run(move || { inner_call(n); spawn(|| n + 1); });\n\
             }\n",
        );
        let names: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["outer", "{closure@2}", "{closure@3}", "{closure@3}"]
        );
        let expr = &syms.fns[1];
        assert_eq!(expr.captures, vec!["n"]);
        assert_eq!(expr.passed_to, None, "let-bound, not an argument");
        // nested closures attach flat to the enclosing fn
        let spawned = syms
            .fns
            .iter()
            .find(|f| f.passed_to.as_deref() == Some("spawn"));
        assert_eq!(spawned.unwrap().encl, Some(0));
        let run = syms
            .fns
            .iter()
            .find(|f| f.passed_to.as_deref() == Some("run"));
        assert!(run.unwrap().calls.iter().any(|s| s.callee == "inner_call"));
    }

    #[test]
    fn closure_edges_flow_through_the_graph() {
        let g = CallGraph::build(vec![parse_file(
            "crates/demo/src/lib.rs",
            "pub fn api() { par_run(|| deep()); }\n\
             fn par_run(f: u32) {}\n\
             fn deep() { x.unwrap(); }\n",
        )]);
        let deep = g.nodes.iter().position(|n| n.name == "deep").unwrap();
        let next = g.reach(|i| i == deep);
        let api = g.nodes.iter().position(|n| n.name == "api").unwrap();
        let chain = g.chain(api, &next);
        assert_eq!(g.chain_names(&chain), "api -> {closure@1} -> deep");
        let closure = g
            .nodes
            .iter()
            .position(|n| n.name.starts_with("{closure"))
            .unwrap();
        assert!(g.def(closure).is_closure);
        assert_eq!(g.def(closure).passed_to.as_deref(), Some("par_run"));
    }

    #[test]
    fn interior_mutability_fields_and_statics() {
        let syms = parse(
            "struct View { memo: RefCell<HashMap<u32, u32>>, n: u32, hits: AtomicU64 }\n\
             struct Plain { k: u32 }\n\
             static TOTAL: AtomicUsize = AtomicUsize::new(0);\n\
             static NAME: &str = \"x\";\n\
             static mut RAW: u32 = 0;\n\
             thread_local! { static SCRATCH: Cell<u32> = Cell::new(0); }\n",
        );
        assert!(syms.im_fields.contains(&(
            "View".to_string(),
            "memo".to_string(),
            "RefCell".to_string()
        )));
        assert!(syms.im_fields.contains(&(
            "View".to_string(),
            "hits".to_string(),
            "AtomicU64".to_string()
        )));
        assert!(!syms.im_fields.iter().any(|(s, ..)| s == "Plain"));
        assert!(syms
            .im_statics
            .contains(&("TOTAL".to_string(), "AtomicUsize".to_string())));
        assert!(syms
            .im_statics
            .contains(&("RAW".to_string(), "static mut".to_string())));
        assert!(syms
            .im_statics
            .contains(&("SCRATCH".to_string(), "thread_local".to_string())));
        assert!(!syms.im_statics.iter().any(|(n, _)| n == "NAME"));
        // hash recording still works alongside the IM table
        assert!(syms
            .hash_fields
            .contains(&("View".to_string(), "memo".to_string())));
    }
}
