//! The determinism dataflow pass (SC107), built on
//! [`crate::callgraph`], and the entry point of the concurrency checks
//! ([`crate::concurrency`]) that share its call graph.
//!
//! * **SC107** — iteration over a `HashMap`/`HashSet` (`.iter()`,
//!   `.keys()`, `.values()`, `.drain()`, `for x in map`) whose order
//!   can reach serialized output, digests, metrics, or an ordered
//!   collection without an intervening sort. Hash iteration order is
//!   nondeterministic across processes, so one such path silently
//!   breaks every byte-identical oracle in this workspace (par
//!   equivalence, trace digests, chaos fingerprints, golden fixtures).
//!   The pass is interprocedural: an iteration handed to a function
//!   that transitively reaches a sink is flagged with the call chain.
//!
//! Known blind spots, by construction (documented in TESTING.md): flow
//! through return values into a caller that emits, flow through `&mut`
//! out-parameters, and method calls resolved by bare name (no type
//! info), mitigated by the std-name stoplist in the call graph.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::callgraph::{parse_file, CallGraph, FileSyms};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};

/// Iterator-producing methods whose order is the hash container's.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminators whose result is independent of iteration order.
const ORDER_INSENSITIVE: [&str; 11] = [
    "count",
    "sum",
    "product",
    "max",
    "min",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "any",
    "all",
];

/// Adapters that pass iteration order through unchanged.
const ORDER_PRESERVING: [&str; 16] = [
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "cloned",
    "copied",
    "rev",
    "enumerate",
    "zip",
    "chain",
    "take",
    "skip",
    "inspect",
    "peekable",
    "fuse",
];

/// Sorting methods that launder an order-tainted collection.
const SORTERS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Is a call to `name` (optionally `qual::name`) a serialization /
/// digest / metrics sink? Macro names carry their `!`.
pub(crate) fn is_sink_name(qual: Option<&str>, name: &str) -> bool {
    if let Some(base) = name.strip_suffix('!') {
        return matches!(
            base,
            "write" | "writeln" | "print" | "println" | "eprint" | "eprintln" | "format"
        );
    }
    if qual == Some("serde_json") {
        return true;
    }
    matches!(name, "push_str" | "hash" | "inc" | "observe" | "record")
        || name.contains("serialize")
        || name.contains("render")
        || name.contains("digest")
        || name.contains("json")
        || name.contains("fingerprint")
        || name.contains("prometheus")
}

/// Run the dataflow and concurrency checks over the workspace rooted
/// at `root`. `only` restricts analysis to files whose
/// workspace-relative path starts with it (the `--only` self-lint
/// filter).
pub fn analyze(root: &Path, only: Option<&str>) -> Vec<Diagnostic> {
    analyze_sources(&crate::lints::workspace_sources(root, only))
}

/// The testable core: analyze in-memory `(rel_path, source)` pairs.
pub fn analyze_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let files: Vec<FileSyms> = sources
        .iter()
        .map(|(rel, text)| parse_file(rel, text))
        .collect();
    let graph = CallGraph::build(files);

    // a node seeds sink-reachability when its body calls a sink directly
    let sink_next = graph.reach(|i| {
        graph
            .def(i)
            .calls
            .iter()
            .any(|c| is_sink_name(c.qualifier.as_deref(), &c.callee))
    });

    let mut out = Vec::new();
    sc107(&graph, &sink_next, &mut out);
    crate::concurrency::check(&graph, &sink_next, &mut out);
    out
}

/// Render the witness chain from a call into `callee` down to the
/// concrete sink call, e.g. `` `emit` -> `render` (sink `writeln!`) ``.
pub(crate) fn sink_chain(
    graph: &CallGraph,
    sink_next: &[Option<usize>],
    callee: &str,
) -> Option<String> {
    if is_sink_name(None, callee) {
        return Some(format!("sink `{callee}`"));
    }
    let target = graph
        .resolve(callee)
        .iter()
        .copied()
        .find(|&t| sink_next[t].is_some())?;
    let chain = graph.chain(target, sink_next);
    let last = *chain.last()?;
    let sink = graph
        .def(last)
        .calls
        .iter()
        .find(|c| is_sink_name(c.qualifier.as_deref(), &c.callee))
        .map(|c| c.callee.clone())
        .unwrap_or_else(|| "sink".to_string());
    Some(format!(
        "`{}` (sink `{sink}`)",
        graph.chain_names(&chain).replace(" -> ", "` -> `")
    ))
}

// --- SC107: hash-order determinism ---------------------------------------

/// What a scanned iteration chain ends up as.
enum ChainEnd {
    /// Provably order-insensitive (count/sum/... or collect into an
    /// unordered/sorted container).
    Clean,
    /// The iteration order escapes into a value (token index just past
    /// the chain).
    Escapes(usize),
    /// The chain itself contains a sink (description for the message).
    Sink(String),
}

fn sc107(graph: &CallGraph, sink_next: &[Option<usize>], out: &mut Vec<Diagnostic>) {
    // every hash-typed struct field name in the workspace: receivers are
    // matched by path segment, not resolved types
    let hash_fields: BTreeSet<&str> = graph
        .files
        .iter()
        .flat_map(|f| f.hash_fields.iter().map(|(_, field)| field.as_str()))
        .collect();
    for (fi, file) in graph.files.iter().enumerate() {
        for (li, def) in file.fns.iter().enumerate() {
            let _ = li;
            if def.body.0 == def.body.1 {
                continue;
            }
            // closure token ranges lie inside the enclosing fn's body, so
            // the enclosing scan already covers them; a second scan would
            // double-report every finding
            if def.is_closure {
                continue;
            }
            let mut scan = FnScan {
                graph,
                sink_next,
                file,
                fi,
                hash_fields: &hash_fields,
                hash_locals: def.hash_params.iter().cloned().collect(),
                ordered_locals: BTreeSet::new(),
                tainted: BTreeMap::new(),
                out,
            };
            scan.run(def.body.0 + 1, def.body.1);
        }
    }
}

/// Collection types whose iteration order is deterministic.
fn is_ordered_ty(ident: Option<&str>) -> bool {
    matches!(
        ident,
        Some("BTreeMap" | "BTreeSet" | "Vec" | "VecDeque" | "BinaryHeap")
    )
}

struct FnScan<'a> {
    graph: &'a CallGraph,
    sink_next: &'a [Option<usize>],
    file: &'a FileSyms,
    fi: usize,
    hash_fields: &'a BTreeSet<&'a str>,
    /// Locals (and params) currently known to hold hash containers.
    hash_locals: BTreeSet<String>,
    /// Locals positively declared with an ordered type (`BTreeMap`,
    /// `Vec`, ...): they shadow a same-named hash field elsewhere in
    /// the workspace, so the name heuristic must not fire on them.
    ordered_locals: BTreeSet<String>,
    /// Order-tainted locals: name → (line, origin description).
    tainted: BTreeMap<String, (u32, String)>,
    out: &'a mut Vec<Diagnostic>,
}

impl FnScan<'_> {
    fn toks(&self) -> &[Tok] {
        &self.file.toks
    }

    fn tok(&self, i: usize) -> Option<&Tok> {
        self.file.toks.get(i)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.tok(i)
            .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    }

    fn skip_balanced(&self, i: usize) -> usize {
        let (open, close) = match self.tok(i) {
            Some(t) if t.is_punct('(') => ('(', ')'),
            Some(t) if t.is_punct('[') => ('[', ']'),
            Some(t) if t.is_punct('{') => ('{', '}'),
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

    fn report(&mut self, line: u32, what: &str, via: &str) {
        self.out.push(Diagnostic::new(
            "SC107",
            Severity::Error,
            format!("{}:{line}", self.graph.files[self.fi].rel),
            format!(
                "hash iteration order of {what} flows into {via}: use a \
                 BTree collection or sort before emitting"
            ),
        ));
    }

    /// Main scan over `[i, end)` of the body.
    fn run(&mut self, i: usize, end: usize) {
        let mut j = i;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.kind != TokKind::Ident {
                j += 1;
                continue;
            }
            match t.text.as_str() {
                "let" => {
                    self.scan_let(j, end);
                    j += 1;
                }
                "for" => {
                    j = self.scan_for(j, end);
                }
                name if ITER_METHODS.contains(&name)
                    && self.is_punct(j.wrapping_sub(1), '.')
                    && self.is_punct(j + 1, '(') =>
                {
                    if let Some((recv, recv_start)) = self.receiver(j - 2) {
                        let tainted_recv =
                            recv.iter().any(|s| self.tainted.contains_key(s.as_str()));
                        if self.receiver_is_hash(&recv) || tainted_recv {
                            let line = t.line;
                            let what = format!("`{}.{}()`", recv.join("."), t.text);
                            let site = (line, what, recv_start);
                            j = self.scan_chain(self.skip_balanced(j + 1), end, site);
                            continue;
                        }
                    }
                    j += 1;
                }
                name if self.is_punct(j + 1, '!')
                    && self.is_punct(j + 2, '(')
                    && is_sink_name(None, &format!("{name}!"))
                    && !self.tainted.is_empty() =>
                {
                    self.inline_captures(j, &format!("{name}!"));
                    j += 1;
                }
                name if self.tainted.contains_key(name)
                    && !self.is_punct(j.wrapping_sub(1), '.') =>
                {
                    j = self.tainted_use(j, end, name.to_string());
                }
                _ => j += 1,
            }
        }
    }

    /// `let [mut] name [: Type] = RHS;` — track hash-typed bindings.
    fn scan_let(&mut self, i: usize, end: usize) {
        let mut j = i + 1;
        if self.ident(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = self.ident(j).map(str::to_string) else {
            return;
        };
        // find the `=` and the end of the statement at this level
        let mut k = j + 1;
        let mut ty_hash = false;
        let mut ty_ordered = false;
        let mut eq = None;
        while k < end {
            if self.is_punct(k, ';') {
                break;
            }
            if self.is_punct(k, '=') && !self.is_punct(k + 1, '=') {
                eq = Some(k);
                break;
            }
            if self.is_punct(k, '(') || self.is_punct(k, '[') || self.is_punct(k, '{') {
                k = self.skip_balanced(k);
                continue;
            }
            ty_hash |= matches!(self.ident(k), Some("HashMap" | "HashSet"));
            ty_ordered |= is_ordered_ty(self.ident(k));
            k += 1;
        }
        let mut rhs_hash = false;
        let mut rhs_ordered = false;
        if let Some(eq) = eq {
            let mut r = eq + 1;
            while r < end && !self.is_punct(r, ';') {
                if self.is_punct(r, '(') || self.is_punct(r, '[') || self.is_punct(r, '{') {
                    r = self.skip_balanced(r);
                    continue;
                }
                // `HashMap::new()` / `collect::<HashMap<..>>()`
                if matches!(self.ident(r), Some("HashMap" | "HashSet")) {
                    rhs_hash = true;
                }
                rhs_ordered |= is_ordered_ty(self.ident(r));
                r += 1;
            }
        }
        if ty_hash || rhs_hash {
            self.hash_locals.insert(name.clone());
            self.ordered_locals.remove(&name);
        } else if ty_ordered || rhs_ordered {
            // positively ordered: shadows any same-named hash field
            self.ordered_locals.insert(name.clone());
            self.hash_locals.remove(&name);
        }
    }

    /// `for pat in expr { body }` — direct iteration over a hash
    /// container or a tainted vec.
    fn scan_for(&mut self, i: usize, end: usize) -> usize {
        // `for<'a>` higher-ranked bounds are not loops
        if self.is_punct(i + 1, '<') {
            return i + 1;
        }
        // find `in` at delimiter level 0
        let mut j = i + 1;
        while j < end {
            if self.is_punct(j, '(') || self.is_punct(j, '[') {
                j = self.skip_balanced(j);
                continue;
            }
            if self.is_punct(j, '{') {
                return i + 1; // malformed / not a loop
            }
            if self.ident(j) == Some("in") {
                break;
            }
            j += 1;
        }
        if j >= end {
            return i + 1;
        }
        // expression: from after `in` to the `{` at level 0
        let mut k = j + 1;
        let expr_start = k;
        while k < end && !self.is_punct(k, '{') {
            if self.is_punct(k, '(') || self.is_punct(k, '[') {
                k = self.skip_balanced(k);
                continue;
            }
            k += 1;
        }
        if k >= end {
            return i + 1;
        }
        // pure path expression `[&[mut]] a.b.c`?
        let mut segs = Vec::new();
        let mut p = expr_start;
        while p < k {
            match self.tok(p) {
                Some(t) if t.is_punct('&') || t.is_ident("mut") || t.is_punct('.') => p += 1,
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    p += 1;
                }
                _ => {
                    segs.clear();
                    break;
                }
            }
        }
        let body_end = self.skip_balanced(k);
        if segs.is_empty() {
            // method-chain header (`for k in m.keys() {`): the chain
            // handler sees the `in` before the receiver and scans the
            // loop body itself
            self.run(expr_start, k);
        } else {
            let line = self.tok(i).map(|t| t.line).unwrap_or(0);
            if self.receiver_is_hash(&segs) {
                let what = format!("`for _ in {}`", segs.join("."));
                self.loop_body(k + 1, body_end - 1, line, &what);
            } else if let Some(name) = segs.first() {
                if let Some((tline, origin)) = self.tainted.get(name.as_str()).cloned() {
                    let _ = tline;
                    let what = format!("`for _ in {name}` ({origin})");
                    self.loop_body(k + 1, body_end - 1, line, &what);
                }
            }
        }
        // scan the body normally too (nested lets, chains, uses)
        self.run(k + 1, body_end - 1);
        body_end
    }

    /// Inside a loop iterating in hash order: direct sinks are findings,
    /// pushes into locals taint them.
    fn loop_body(&mut self, i: usize, end: usize, line: u32, what: &str) {
        if let Some(via) = self.span_sink(i, end) {
            self.report(line, what, &via);
            return;
        }
        // `target.push(..)` / `target.extend(..)` inside the loop body
        let mut j = i;
        while j < end {
            if matches!(self.ident(j), Some("push" | "extend"))
                && self.is_punct(j.wrapping_sub(1), '.')
                && self.is_punct(j + 1, '(')
            {
                if let Some((recv, _)) = self.receiver(j - 2) {
                    if let Some(name) = recv.first() {
                        self.tainted
                            .insert(name.clone(), (line, format!("filled from {what}")));
                    }
                }
            }
            j += 1;
        }
    }

    /// First sink call in `[i, end)`, rendered with its chain.
    fn span_sink(&self, i: usize, end: usize) -> Option<String> {
        let mut j = i;
        while j < end {
            if let Some(name) = self.ident(j) {
                let mac = self.is_punct(j + 1, '!')
                    && (self.is_punct(j + 2, '(')
                        || self.is_punct(j + 2, '[')
                        || self.is_punct(j + 2, '{'));
                let call = self.is_punct(j + 1, '(');
                if mac {
                    let full = format!("{name}!");
                    if is_sink_name(None, &full) {
                        return Some(format!("sink `{full}`"));
                    }
                } else if call {
                    if let Some(chain) = sink_chain(self.graph, self.sink_next, name) {
                        return Some(chain);
                    }
                }
            }
            j += 1;
        }
        None
    }

    /// Walk back from `i` collecting a `a.b.c` receiver path. Returns
    /// the segments (in source order) and the start index.
    fn receiver(&self, i: usize) -> Option<(Vec<String>, usize)> {
        let mut segs = Vec::new();
        let mut j = i;
        loop {
            let t = self.tok(j)?;
            if t.kind != TokKind::Ident {
                return None;
            }
            segs.push(t.text.clone());
            if j >= 1 && self.is_punct(j - 1, '.') && j >= 2 {
                j -= 2;
                continue;
            }
            break;
        }
        segs.reverse();
        Some((segs, j))
    }

    /// Is any path segment a known hash local, param, or field name?
    /// A bare local positively declared with an ordered type shadows a
    /// same-named hash field elsewhere in the workspace.
    fn receiver_is_hash(&self, segs: &[String]) -> bool {
        if let [only] = segs {
            if self.ordered_locals.contains(only) {
                return false;
            }
        }
        segs.iter()
            .any(|s| self.hash_locals.contains(s) || self.hash_fields.contains(s.as_str()))
    }

    /// Walk a method chain starting at `cur` (just past the iterator
    /// call's closing paren). `site` is `(line, what, receiver_start)`.
    /// Returns the resume index for the main scan.
    fn scan_chain(&mut self, mut cur: usize, end: usize, site: (u32, String, usize)) -> usize {
        let (line, what, recv_start) = site;
        let verdict = loop {
            if cur >= end || !self.is_punct(cur, '.') {
                break ChainEnd::Escapes(cur);
            }
            let Some(m) = self.ident(cur + 1).map(str::to_string) else {
                break ChainEnd::Escapes(cur);
            };
            // `.await`-style or field access: stop
            // turbofish: collect::<...>
            let mut args = cur + 2;
            let mut turbofish = (args, args);
            if self.is_punct(args, ':')
                && self.is_punct(args + 1, ':')
                && self.is_punct(args + 2, '<')
            {
                let g = self.skip_generics_at(args + 2);
                turbofish = (args + 2, g);
                args = g;
            }
            if !self.is_punct(args, '(') {
                break ChainEnd::Escapes(cur);
            }
            let args_end = self.skip_balanced(args);
            if ORDER_INSENSITIVE.contains(&m.as_str()) {
                break ChainEnd::Clean;
            }
            if m == "collect" {
                let tf = &self.toks()[turbofish.0..turbofish.1];
                let unordered_or_sorted = tf.iter().any(|t| {
                    t.is_ident("BTreeMap")
                        || t.is_ident("BTreeSet")
                        || t.is_ident("HashMap")
                        || t.is_ident("HashSet")
                        || t.is_ident("BinaryHeap")
                });
                if unordered_or_sorted {
                    break ChainEnd::Clean;
                }
                // Vec / String / unannotated: order escapes
                break ChainEnd::Escapes(args_end);
            }
            if ORDER_PRESERVING.contains(&m.as_str()) {
                // a sink inside the adapter's closure runs per element,
                // in hash order
                if let Some(via) = self.span_sink(args + 1, args_end - 1) {
                    break ChainEnd::Sink(via);
                }
                cur = args_end;
                continue;
            }
            // order-sensitive consumers and unknown methods: a sink in
            // the closure is a finding; otherwise the value escapes
            if let Some(via) = self.span_sink(args + 1, args_end - 1) {
                break ChainEnd::Sink(via);
            }
            break ChainEnd::Escapes(args_end);
        };
        match verdict {
            ChainEnd::Clean => cur.max(recv_start + 1),
            ChainEnd::Sink(via) => {
                self.report(line, &what, &via);
                cur.max(recv_start + 1)
            }
            ChainEnd::Escapes(after) => {
                self.escaped(line, what, recv_start, after, end);
                after.max(recv_start + 1)
            }
        }
    }

    /// `skip_generics` for chain turbofish (delegates to the same logic
    /// as the parser).
    fn skip_generics_at(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while let Some(t) = self.tok(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                if !(j > 0 && self.is_punct(j - 1, '-')) {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            } else if t.is_punct('(') || t.is_punct('[') {
                j = self.skip_balanced(j);
                continue;
            }
            j += 1;
        }
        j
    }

    /// An iteration's order escaped as a value: bind, loop, or argument.
    fn escaped(&mut self, line: u32, what: String, recv_start: usize, after: usize, end: usize) {
        // `for x in <chain> { body }`?
        let before = recv_start.wrapping_sub(1);
        let header = (0..=2).any(|back| self.ident(before.wrapping_sub(back)) == Some("in"));
        if header {
            // the loop's `{` may sit exactly at `end` when the chain was
            // scanned as a for-header expression
            let _ = end;
            let n = self.toks().len();
            let mut k = after;
            while k < n && !self.is_punct(k, '{') {
                k += 1;
            }
            if k < n {
                let body_end = self.skip_balanced(k);
                self.loop_body(k + 1, body_end - 1, line, &what);
            }
            return;
        }
        // `let [mut] name = <chain>` / `let name: T = <chain>`?
        if let Some(name) = self.binding_name(recv_start) {
            self.tainted.insert(name, (line, format!("from {what}")));
            return;
        }
        // argument to an enclosing call that reaches a sink?
        if let Some(via) = self.enclosing_sink(recv_start) {
            self.report(line, &what, &via);
        }
    }

    /// If the expression starting at `recv_start` is the RHS of a `let`,
    /// return the bound name.
    fn binding_name(&self, recv_start: usize) -> Option<String> {
        if recv_start == 0 || !self.is_punct(recv_start - 1, '=') {
            return None;
        }
        // walk back a bounded window for `let [mut] name [: Type] =`
        let lo = recv_start.saturating_sub(40);
        let mut j = recv_start - 1;
        while j > lo {
            j -= 1;
            if self.ident(j) == Some("let") {
                let mut k = j + 1;
                if self.ident(k) == Some("mut") {
                    k += 1;
                }
                return self.ident(k).map(str::to_string);
            }
            if self.is_punct(j, ';') || self.is_punct(j, '{') || self.is_punct(j, '}') {
                break;
            }
        }
        None
    }

    /// Innermost enclosing call at `pos` whose callee reaches a sink.
    /// Reconstructed by walking back over unbalanced `(`s.
    fn enclosing_sink(&self, pos: usize) -> Option<String> {
        let mut depth = 0i32;
        let mut j = pos;
        while j > 0 {
            j -= 1;
            let t = self.tok(j)?;
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                if depth == 0 {
                    // callee? `name(` or `name!(`
                    let callee = if self.is_punct(j.wrapping_sub(1), '!') {
                        self.ident(j.wrapping_sub(2)).map(|n| format!("{n}!"))
                    } else {
                        self.ident(j.wrapping_sub(1)).map(str::to_string)
                    };
                    if let Some(name) = callee {
                        if let Some(chain) = sink_chain(self.graph, self.sink_next, &name) {
                            return Some(chain);
                        }
                    }
                    // keep walking outward
                } else {
                    depth -= 1;
                }
            } else if t.is_punct(';') && depth == 0 {
                return None;
            }
        }
        None
    }

    /// A sink macro at `j` (`format!`, `writeln!`, ...): inline format
    /// captures (`"{ks:?}"`) never appear as identifier tokens, so scan
    /// the macro's string literals for tainted names by text.
    fn inline_captures(&mut self, j: usize, mac: &str) {
        let args_end = self.skip_balanced(j + 2);
        let names: Vec<String> = self.tainted.keys().cloned().collect();
        for name in names {
            let open = format!("{{{name}");
            let hit = self.toks()[j + 3..args_end.saturating_sub(1)]
                .iter()
                .any(|t| {
                    t.kind == TokKind::Str
                        && t.text
                            .split(&open)
                            .skip(1)
                            .any(|rest| rest.starts_with('}') || rest.starts_with(':'))
                });
            if hit {
                if let Some((_, origin)) = self.tainted.remove(&name) {
                    let line = self.tok(j).map(|t| t.line).unwrap_or(0);
                    let what = format!("`{name}` ({origin})");
                    self.report(line, &what, &format!("sink `{mac}`"));
                }
            }
        }
    }

    /// A use of a tainted local: sorting launders it, sinking flags it.
    fn tainted_use(&mut self, i: usize, end: usize, name: String) -> usize {
        let Some((line, origin)) = self.tainted.get(&name).cloned() else {
            return i + 1;
        };
        let _ = line;
        // `name.sort*()` launders
        if self.is_punct(i + 1, '.') {
            if let Some(m) = self.ident(i + 2) {
                if SORTERS.contains(&m) {
                    self.tainted.remove(&name);
                    return i + 3;
                }
            }
        }
        // used inside a sink-reaching call?
        if let Some(via) = self.enclosing_sink(i) {
            let use_line = self.tok(i).map(|t| t.line).unwrap_or(0);
            let what = format!("`{name}` ({origin})");
            self.report(use_line, &what, &via);
            self.tainted.remove(&name);
            return i + 1;
        }
        let _ = end;
        i + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let sources = vec![("crates/demo/src/lib.rs".to_string(), src.to_string())];
        analyze_sources(&sources)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn hash_keys_into_writeln_is_flagged() {
        let diags = run("use std::collections::HashMap;\n\
             pub fn emit(m: &HashMap<u32, u32>, out: &mut String) {\n\
                 for k in m.keys() { out.push_str(&k.to_string()); }\n\
             }\n");
        assert_eq!(codes(&diags), vec!["SC107"]);
        assert!(diags[0].message.contains("push_str"), "{diags:?}");
        assert!(diags[0].location.ends_with(":3"), "{diags:?}");
    }

    #[test]
    fn order_insensitive_reductions_are_clean() {
        let diags = run("use std::collections::HashMap;\n\
             pub fn total(m: &HashMap<u32, u32>) -> u32 {\n\
                 let n = m.values().count() as u32;\n\
                 n + m.values().sum::<u32>()\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn collect_into_btree_launders() {
        let diags = run("use std::collections::{BTreeMap, HashMap};\n\
             pub fn snapshot(m: &HashMap<u32, u32>) -> BTreeMap<u32, u32> {\n\
                 m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u32, u32>>()\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sort_before_emit_launders() {
        let diags = run("use std::collections::HashMap;\n\
             pub fn emit(m: &HashMap<u32, u32>, out: &mut String) {\n\
                 let mut ks = m.keys().copied().collect::<Vec<u32>>();\n\
                 ks.sort();\n\
                 for k in ks { out.push_str(&k.to_string()); }\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn ordered_local_shadows_same_named_hash_field() {
        // `index` is a HashMap *field* in another file; a local BTreeMap
        // with the same name must not inherit the field's hash taint
        let sources = vec![
            (
                "crates/store/src/lib.rs".to_string(),
                "use std::collections::HashMap;\n\
                 pub struct Store { pub index: HashMap<u32, u32> }\n"
                    .to_string(),
            ),
            (
                "crates/demo/src/lib.rs".to_string(),
                "use std::collections::BTreeMap;\n\
                 pub fn emit(out: &mut String) {\n\
                     let mut index: BTreeMap<u32, u32> = BTreeMap::new();\n\
                     index.insert(1, 2);\n\
                     for k in index.keys() { out.push_str(&k.to_string()); }\n\
                 }\n"
                .to_string(),
            ),
        ];
        let diags = analyze_sources(&sources);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unsorted_vec_reaching_sink_is_flagged() {
        let diags = run("use std::collections::HashMap;\n\
             pub fn emit(m: &HashMap<u32, u32>) -> String {\n\
                 let ks = m.keys().copied().collect::<Vec<u32>>();\n\
                 format!(\"{ks:?}\")\n\
             }\n");
        assert_eq!(codes(&diags), vec!["SC107"]);
    }

    #[test]
    fn interprocedural_sink_is_found_with_chain() {
        let diags = run("use std::collections::HashMap;\n\
             fn render_row(k: u32) -> String { format!(\"{k}\") }\n\
             fn emit_rows(ks: Vec<u32>) -> String {\n\
                 ks.iter().map(|k| render_row(*k)).collect::<String>()\n\
             }\n\
             pub fn table(m: &HashMap<u32, u32>) -> String {\n\
                 emit_rows(m.keys().copied().collect::<Vec<u32>>())\n\
             }\n");
        assert_eq!(codes(&diags), vec!["SC107"]);
        assert!(diags[0].message.contains("emit_rows"), "{diags:?}");
    }
}
