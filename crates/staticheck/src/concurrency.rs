//! The concurrency-safety engine: four interprocedural checks over the
//! closure-aware call graph ([`crate::callgraph`]), guarding the
//! workspace's core claim that parallel runs are byte-identical to the
//! serial oracle.
//!
//! * **SC109** — a *par-task closure* (a closure passed to
//!   `par::map_indexed`, `thread::scope`, or a spawned handler) that
//!   captures or transitively reaches interior mutability. Unsynchronized
//!   types (`RefCell`, `Cell`, `UnsafeCell`, `static mut`,
//!   `thread_local!`) are errors — shared across tasks they are UB or
//!   borrow panics waiting on a schedule; synchronized types (`Mutex`,
//!   `RwLock`, `Atomic*`, `Condvar`) are warnings — safe, but the value
//!   sequence observed still depends on scheduling. Waiverable only via
//!   `staticheck.toml` with a determinism argument ([`crate::allow`]
//!   rejects SC109 waivers whose reason lacks one).
//! * **SC110** — inconsistent lock-acquisition order: per-function
//!   `Mutex`/`RwLock` acquisition sequences (strict `let guard = ..`
//!   statement bindings only — temporaries drop at statement end),
//!   propagated through the call graph; inverted pairs are reported
//!   with both witness chains.
//! * **SC111** — an `Ordering::Relaxed` atomic read whose value flows
//!   (let-taint or argument position, interprocedurally via the sink
//!   reachability map shared with SC107) into serialized output,
//!   metrics, or digests.
//! * **SC112** — a blocking call (`read`/`write` on streams, `sleep`,
//!   `pace`, `recv`, `accept`, ...) reachable from a par-task closure
//!   with no timeout/deadline anywhere on the chain: one straggler
//!   serializes the pool because the ordered join waits for every task.
//!
//! The `obs` and `par` crates implement the machinery these checks
//! protect (sharded counters, worker cursors) and are sanctioned: their
//! IM definitions seed nothing and their closures are not par tasks for
//! SC109/SC112 purposes. Everything else — including the looking-glass
//! transport — is in scope.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::dataflow::{is_sink_name, sink_chain};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};

/// Crates implementing the concurrency/metrics machinery itself.
fn sanctioned_rel(rel: &str) -> bool {
    rel.starts_with("crates/obs/") || rel.starts_with("crates/par/")
}

/// Callees whose closure argument runs as a parallel task.
const PAR_ENTRY: [&str; 3] = ["map_indexed", "scope", "spawn"];

/// Unsynchronized interior mutability: sharing across tasks is an error.
fn unsync_im(ty: &str) -> bool {
    matches!(ty, "RefCell" | "Cell" | "UnsafeCell") || ty == "static mut" || ty == "thread_local"
}

/// Run all four checks. `sink_next` is SC107's sink-reachability map
/// (reused by SC111).
pub(crate) fn check(graph: &CallGraph, sink_next: &[Option<usize>], out: &mut Vec<Diagnostic>) {
    let par_tasks: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let def = graph.def(i);
            def.is_closure
                && def
                    .passed_to
                    .as_deref()
                    .is_some_and(|p| PAR_ENTRY.contains(&p))
                && !sanctioned_rel(&graph.nodes[i].rel)
        })
        .collect();
    sc109(graph, &par_tasks, out);
    sc110(graph, out);
    sc111(graph, sink_next, out);
    sc112(graph, &par_tasks, out);
}

/// Token-scan helpers over one file's stream.
struct Scan<'a> {
    toks: &'a [Tok],
}

impl<'a> Scan<'a> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.tok(i)
            .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
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

    /// Walk back from `i` collecting an `a.b.c` receiver path. Returns
    /// the segments in source order and the start index.
    fn receiver(&self, i: usize) -> Option<(Vec<String>, usize)> {
        let mut segs = Vec::new();
        let mut j = i;
        loop {
            let t = self.tok(j)?;
            if t.kind != TokKind::Ident {
                return None;
            }
            segs.push(t.text.clone());
            if j >= 2 && self.is_punct(j - 1, '.') {
                j -= 2;
                continue;
            }
            break;
        }
        segs.reverse();
        Some((segs, j))
    }

    /// If the expression starting at `start` is the RHS of a
    /// `let [mut] name = ...`, return the bound name.
    fn binding_name(&self, start: usize) -> Option<String> {
        if start == 0 || !self.is_punct(start - 1, '=') {
            return None;
        }
        let lo = start.saturating_sub(40);
        let mut j = start - 1;
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

    /// Innermost enclosing call at `pos` whose callee reaches a sink
    /// (same walk as SC107's escape analysis).
    fn enclosing_sink(
        &self,
        pos: usize,
        graph: &CallGraph,
        sink_next: &[Option<usize>],
    ) -> Option<String> {
        let mut depth = 0i32;
        let mut j = pos;
        while j > 0 {
            j -= 1;
            let t = self.tok(j)?;
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                if depth == 0 {
                    let callee = if j >= 1 && self.is_punct(j - 1, '!') {
                        self.ident(j.wrapping_sub(2)).map(|n| format!("{n}!"))
                    } else {
                        self.ident(j.wrapping_sub(1)).map(str::to_string)
                    };
                    if let Some(name) = callee {
                        if let Some(chain) = sink_chain(graph, sink_next, &name) {
                            return Some(chain);
                        }
                    }
                } else {
                    depth -= 1;
                }
            } else if t.is_punct(';') && depth == 0 {
                return None;
            }
        }
        None
    }
}

// --- SC109: interior mutability reachable from par tasks ------------------

/// One interior-mutability value: how it is named at use sites, its
/// type, and a human description of where it lives.
struct ImIndex {
    /// field name → (type, owner description)
    fields: BTreeMap<String, (String, String)>,
    /// static name → (type, owner description)
    statics: BTreeMap<String, (String, String)>,
}

impl ImIndex {
    fn build(graph: &CallGraph) -> ImIndex {
        let mut fields = BTreeMap::new();
        let mut statics = BTreeMap::new();
        for file in &graph.files {
            if sanctioned_rel(&file.rel) {
                continue;
            }
            for (owner, field, ty) in &file.im_fields {
                fields
                    .entry(field.clone())
                    .or_insert_with(|| (ty.clone(), format!("field of `{owner}`")));
            }
            for (name, ty) in &file.im_statics {
                let desc = match ty.as_str() {
                    "static mut" => "mutable static".to_string(),
                    "thread_local" => "thread-local static".to_string(),
                    _ => "static".to_string(),
                };
                statics
                    .entry(name.clone())
                    .or_insert_with(|| (ty.clone(), desc));
            }
        }
        ImIndex { fields, statics }
    }
}

/// The first interior-mutability value a body references: field names
/// as `.name` accesses, static names as path idents.
fn im_ref(graph: &CallGraph, idx: usize, im: &ImIndex) -> Option<(String, String, String)> {
    let def = graph.def(idx);
    if def.body.0 >= def.body.1 {
        return None;
    }
    let scan = Scan {
        toks: &graph.files[graph.nodes[idx].file].toks,
    };
    for j in def.body.0 + 1..def.body.1 {
        let Some(id) = scan.ident(j) else { continue };
        if j >= 1 && scan.is_punct(j - 1, '.') {
            if let Some((ty, owner)) = im.fields.get(id) {
                return Some((id.to_string(), ty.clone(), owner.clone()));
            }
        } else if let Some((ty, owner)) = im.statics.get(id) {
            return Some((id.to_string(), ty.clone(), owner.clone()));
        }
    }
    None
}

/// Interior-mutability locals of a body: `let [mut] name = ...` whose
/// initializer statement mentions an IM type name.
fn im_locals(graph: &CallGraph, idx: usize) -> BTreeMap<String, String> {
    let def = graph.def(idx);
    let scan = Scan {
        toks: &graph.files[graph.nodes[idx].file].toks,
    };
    let mut out = BTreeMap::new();
    if def.body.0 >= def.body.1 {
        return out;
    }
    let mut j = def.body.0 + 1;
    while j < def.body.1 {
        if scan.ident(j) == Some("let") {
            let mut k = j + 1;
            if scan.ident(k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = scan.ident(k).map(str::to_string) {
                // statement runs to the `;` at this level
                let mut t = k + 1;
                let mut ty = None;
                while t < def.body.1 && !scan.is_punct(t, ';') {
                    if scan.is_punct(t, '{') {
                        t = scan.skip_balanced(t);
                        continue;
                    }
                    if ty.is_none() {
                        if let Some(id) = scan.ident(t) {
                            if crate::callgraph::im_type(id) {
                                ty = Some(id.to_string());
                            }
                        }
                    }
                    t += 1;
                }
                if let Some(ty) = ty {
                    out.insert(name, ty);
                }
                j = t;
                continue;
            }
        }
        j += 1;
    }
    out
}

fn sc109(graph: &CallGraph, par_tasks: &[usize], out: &mut Vec<Diagnostic>) {
    let im = ImIndex::build(graph);
    let next =
        graph.reach(|i| !sanctioned_rel(&graph.nodes[i].rel) && im_ref(graph, i, &im).is_some());
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    // node index of the enclosing fn, for closures
    let encl_node = |i: usize| -> Option<usize> {
        let node = &graph.nodes[i];
        let encl = graph.def(i).encl?;
        Some(i - node.local + encl)
    };
    for &p in par_tasks {
        let node = &graph.nodes[p];
        let def = graph.def(p);
        let passed = def.passed_to.as_deref().unwrap_or("?");
        // captured IM locals of the enclosing function
        if let Some(e) = encl_node(p) {
            let locals = im_locals(graph, e);
            for cap in &def.captures {
                if let Some(ty) = locals.get(cap) {
                    if seen.insert((p, cap.clone())) {
                        out.push(Diagnostic::new(
                            "SC109",
                            if unsync_im(ty) {
                                Severity::Error
                            } else {
                                Severity::Warning
                            },
                            format!("{}:{}", node.rel, node.line),
                            format!(
                                "par-task closure (passed to `{passed}`) captures `{cap}` \
                                 ({ty} local of `{}`): scheduling-dependent state in a \
                                 parallel task; waiver requires a determinism argument",
                                graph.nodes[e].name
                            ),
                        ));
                    }
                }
            }
        }
        // IM reachable through the call graph
        if next[p].is_some() {
            let chain = graph.chain(p, &next);
            let seed = *chain.last().unwrap_or(&p);
            let Some((name, ty, owner)) = im_ref(graph, seed, &im) else {
                continue;
            };
            if !seen.insert((p, name.clone())) {
                continue;
            }
            let sev = if unsync_im(&ty) {
                Severity::Error
            } else {
                Severity::Warning
            };
            let msg = if chain.len() == 1 {
                format!(
                    "par-task closure (passed to `{passed}`) references `{name}` \
                     ({ty} {owner}): scheduling-dependent state in a parallel task; \
                     waiver requires a determinism argument"
                )
            } else {
                format!(
                    "par-task closure (passed to `{passed}`) reaches interior \
                     mutability: `{}` references `{name}` ({ty} {owner}); \
                     waiver requires a determinism argument",
                    graph.chain_names(&chain).replace(" -> ", "` -> `")
                )
            };
            out.push(Diagnostic::new(
                "SC109",
                sev,
                format!("{}:{}", node.rel, node.line),
                msg,
            ));
        }
    }
}

// --- SC110: lock-acquisition order ----------------------------------------

/// Where one witness saw lock `first` held while `second` was acquired.
#[derive(Clone)]
struct LockWitness {
    desc: String,
    location: String,
}

fn sc110(graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    // every Mutex/RwLock field or static name in the workspace
    let mut lock_names: BTreeSet<String> = BTreeSet::new();
    for file in &graph.files {
        for (_, field, ty) in &file.im_fields {
            if ty == "Mutex" || ty == "RwLock" {
                lock_names.insert(field.clone());
            }
        }
        for (name, ty) in &file.im_statics {
            if ty == "Mutex" || ty == "RwLock" {
                lock_names.insert(name.clone());
            }
        }
    }
    if lock_names.is_empty() {
        return;
    }

    // per node: direct acquisitions, ordered pairs, calls made under a
    // held lock (for interprocedural pairs)
    let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.nodes.len()];
    let mut pairs: BTreeMap<(String, String), LockWitness> = BTreeMap::new();
    let mut under: Vec<(usize, String, String, u32)> = Vec::new(); // (node, callee, held, line)
    for (i, node) in graph.nodes.iter().enumerate() {
        let def = graph.def(i);
        if def.is_closure || def.body.0 >= def.body.1 {
            continue; // closure tokens are inside the enclosing fn's range
        }
        let scan = Scan {
            toks: &graph.files[node.file].toks,
        };
        // (lock name, brace depth at acquisition, guard variable)
        let mut held: Vec<(String, i32, String, u32)> = Vec::new();
        let mut depth = 0i32;
        let mut j = def.body.0 + 1;
        while j < def.body.1 {
            let Some(t) = scan.tok(j) else { break };
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                held.retain(|(_, d, _, _)| *d <= depth);
            } else if t.is_ident("drop") && scan.is_punct(j + 1, '(') {
                if let Some(g) = scan.ident(j + 2) {
                    held.retain(|(_, _, guard, _)| guard != g);
                }
            } else if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "lock" | "read" | "write")
                && j >= 1
                && scan.is_punct(j - 1, '.')
                && scan.is_punct(j + 1, '(')
            {
                if let Some((segs, start)) = scan.receiver(j - 2) {
                    if let Some(name) = segs.last().filter(|s| lock_names.contains(*s)) {
                        for (h, _, _, hl) in &held {
                            if h != name {
                                pairs.entry((h.clone(), name.clone())).or_insert_with(|| {
                                    LockWitness {
                                        desc: format!(
                                            "`{}` locks `{h}` then `{name}` ({}:{} then :{})",
                                            node.name, node.rel, hl, t.line
                                        ),
                                        location: format!("{}:{}", node.rel, hl),
                                    }
                                });
                            }
                        }
                        direct[i].insert(name.clone());
                        // held only when statement-bound to a guard
                        if let Some(guard) = scan.binding_name(start) {
                            held.push((name.clone(), depth, guard, t.line));
                        }
                    }
                }
            } else if t.kind == TokKind::Ident
                && !held.is_empty()
                && scan.is_punct(j + 1, '(')
                && !scan.is_punct(j.wrapping_sub(1), '.')
            {
                // plain call under a held lock — method calls resolve too
                // noisily by name to chase here
                for (h, _, _, _) in &held {
                    under.push((i, t.text.clone(), h.clone(), t.line));
                }
            }
            j += 1;
        }
    }

    // transitive acquisitions, to a fixed point (the graph has cycles)
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        for i in 0..graph.nodes.len() {
            let mut add = Vec::new();
            for &c in &graph.nodes[i].callees {
                for l in &trans[c] {
                    if !trans[i].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[i].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    // per-lock reachability maps for witness chains, built lazily
    let mut reach_cache: BTreeMap<String, Vec<Option<usize>>> = BTreeMap::new();
    for (i, callee, h, line) in under {
        for &t in graph.resolve(&callee) {
            for b in trans[t].clone() {
                if b == h {
                    continue;
                }
                let key = (h.clone(), b.clone());
                if pairs.contains_key(&key) {
                    continue;
                }
                let next = reach_cache
                    .entry(b.clone())
                    .or_insert_with(|| graph.reach(|n| direct[n].contains(&b)));
                if next[t].is_none() {
                    continue;
                }
                let chain = graph.chain(t, next);
                let node = &graph.nodes[i];
                pairs.insert(
                    key,
                    LockWitness {
                        desc: format!(
                            "`{}` holds `{h}` ({}:{line}) and calls `{}` which locks `{b}`",
                            node.name,
                            node.rel,
                            graph.chain_names(&chain).replace(" -> ", "` -> `")
                        ),
                        location: format!("{}:{line}", node.rel),
                    },
                );
            }
        }
    }

    // inverted pairs: both (a, b) and (b, a) observed
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), w1) in &pairs {
        let Some(w2) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if !reported.insert(key) {
            continue;
        }
        out.push(Diagnostic::new(
            "SC110",
            Severity::Error,
            w1.location.clone(),
            format!(
                "inconsistent lock-acquisition order for `{a}` and `{b}`: \
                 {} — but — {}; concurrent execution can deadlock",
                w1.desc, w2.desc
            ),
        ));
    }
}

// --- SC111: Relaxed atomics into serialized output ------------------------

/// Atomic read/RMW methods whose result carries the racy value.
const RELAXED_READS: [&str; 10] = [
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
];

fn sc111(graph: &CallGraph, sink_next: &[Option<usize>], out: &mut Vec<Diagnostic>) {
    for (i, node) in graph.nodes.iter().enumerate() {
        let def = graph.def(i);
        if def.is_closure || def.body.0 >= def.body.1 {
            continue; // closure tokens scan inside the enclosing fn
        }
        let scan = Scan {
            toks: &graph.files[node.file].toks,
        };
        // tainted local → the op description that produced it
        let mut tainted: BTreeMap<String, String> = BTreeMap::new();
        let mut j = def.body.0 + 1;
        while j < def.body.1 {
            let Some(t) = scan.tok(j) else { break };
            if t.kind != TokKind::Ident {
                j += 1;
                continue;
            }
            let name = t.text.as_str();
            if RELAXED_READS.contains(&name)
                && j >= 1
                && scan.is_punct(j - 1, '.')
                && scan.is_punct(j + 1, '(')
            {
                let args_end = scan.skip_balanced(j + 1);
                let relaxed =
                    (j + 2..args_end.saturating_sub(1)).any(|k| scan.ident(k) == Some("Relaxed"));
                if relaxed {
                    if let Some((segs, start)) = scan.receiver(j - 2) {
                        let op = format!("`{}.{name}(Relaxed)`", segs.join("."));
                        // statement-discarded RMW: the value is unused
                        let discarded = scan.is_punct(args_end, ';')
                            && (start == 0
                                || scan.is_punct(start - 1, ';')
                                || scan.is_punct(start - 1, '{')
                                || scan.is_punct(start - 1, '}'));
                        if !discarded {
                            if let Some(bound) = scan.binding_name(start) {
                                tainted.insert(bound, op);
                            } else if let Some(via) = scan.enclosing_sink(start, graph, sink_next) {
                                out.push(sc111_diag(&node.rel, t.line, &op, &via));
                            }
                        }
                        j = args_end;
                        continue;
                    }
                }
            } else if tainted.contains_key(name) && !scan.is_punct(j.wrapping_sub(1), '.') {
                if let Some(via) = scan.enclosing_sink(j, graph, sink_next) {
                    let op = tainted.remove(name).unwrap_or_default();
                    out.push(sc111_diag(&node.rel, t.line, &op, &via));
                }
            } else if scan.is_punct(j + 1, '!')
                && scan.is_punct(j + 2, '(')
                && is_sink_name(None, &format!("{name}!"))
                && !tainted.is_empty()
            {
                // inline format captures ("{n}") never lex as idents
                let mac_end = scan.skip_balanced(j + 2);
                let names: Vec<String> = tainted.keys().cloned().collect();
                for tn in names {
                    let open = format!("{{{tn}");
                    let hit = (j + 3..mac_end.saturating_sub(1)).any(|k| {
                        scan.tok(k).is_some_and(|t| {
                            t.kind == TokKind::Str
                                && t.text
                                    .split(&open)
                                    .skip(1)
                                    .any(|rest| rest.starts_with('}') || rest.starts_with(':'))
                        })
                    });
                    if hit {
                        let op = tainted.remove(&tn).unwrap_or_default();
                        out.push(sc111_diag(
                            &node.rel,
                            t.line,
                            &op,
                            &format!("sink `{name}!`"),
                        ));
                    }
                }
            }
            j += 1;
        }
    }
}

fn sc111_diag(rel: &str, line: u32, op: &str, via: &str) -> Diagnostic {
    Diagnostic::new(
        "SC111",
        Severity::Error,
        format!("{rel}:{line}"),
        format!(
            "value of Relaxed atomic op {op} flows into {via}: the observed \
             value is schedule-dependent; use acquire/release ordering or \
             waive with an output-invariance argument"
        ),
    )
}

// --- SC112: blocking calls in par tasks without deadlines -----------------

/// Calls that block the calling thread indefinitely by default.
const BLOCKING: [&str; 10] = [
    "sleep",
    "pace",
    "recv",
    "accept",
    "read_exact",
    "read_to_end",
    "read_line",
    "write_all",
    "park",
    "wait",
];

/// Tokens that bound a blocking call on the same chain.
const DEADLINE: [&str; 8] = [
    "set_read_timeout",
    "set_write_timeout",
    "set_nonblocking",
    "recv_timeout",
    "wait_timeout",
    "timeout",
    "deadline",
    "try_recv",
];

/// The first blocking call in a body; `read`/`write` count only as
/// method calls whose receiver is not a lock (`RwLock::read/write`).
fn blocking_site(
    graph: &CallGraph,
    idx: usize,
    lock_names: &BTreeSet<String>,
) -> Option<(String, u32)> {
    let def = graph.def(idx);
    if def.body.0 >= def.body.1 {
        return None;
    }
    let scan = Scan {
        toks: &graph.files[graph.nodes[idx].file].toks,
    };
    for j in def.body.0 + 1..def.body.1 {
        let Some(id) = scan.ident(j) else { continue };
        if !scan.is_punct(j + 1, '(') {
            continue;
        }
        if BLOCKING.contains(&id) {
            return Some((id.to_string(), scan.tok(j).map(|t| t.line).unwrap_or(0)));
        }
        if matches!(id, "read" | "write") && j >= 1 && scan.is_punct(j - 1, '.') {
            if let Some((segs, _)) = scan.receiver(j - 2) {
                if segs.last().is_some_and(|s| !lock_names.contains(s)) {
                    return Some((
                        format!("{}.{id}", segs.join(".")),
                        scan.tok(j).map(|t| t.line).unwrap_or(0),
                    ));
                }
            }
        }
    }
    None
}

/// Does the body mention any timeout/deadline machinery?
fn has_deadline(graph: &CallGraph, idx: usize) -> bool {
    let def = graph.def(idx);
    if def.body.0 >= def.body.1 {
        return false;
    }
    let scan = Scan {
        toks: &graph.files[graph.nodes[idx].file].toks,
    };
    (def.body.0 + 1..def.body.1).any(|j| {
        scan.ident(j)
            .is_some_and(|id| DEADLINE.contains(&id) || id.contains("timeout"))
    })
}

fn sc112(graph: &CallGraph, par_tasks: &[usize], out: &mut Vec<Diagnostic>) {
    let mut lock_names: BTreeSet<String> = BTreeSet::new();
    for file in &graph.files {
        for (_, field, ty) in &file.im_fields {
            if ty == "Mutex" || ty == "RwLock" {
                lock_names.insert(field.clone());
            }
        }
        for (name, ty) in &file.im_statics {
            if ty == "Mutex" || ty == "RwLock" {
                lock_names.insert(name.clone());
            }
        }
    }
    let sites: Vec<Option<(String, u32)>> = (0..graph.nodes.len())
        .map(|i| {
            if sanctioned_rel(&graph.nodes[i].rel) || has_deadline(graph, i) {
                None
            } else {
                blocking_site(graph, i, &lock_names)
            }
        })
        .collect();
    let next = graph.reach(|i| sites[i].is_some());
    let encl_node = |i: usize| -> Option<usize> {
        let node = &graph.nodes[i];
        let encl = graph.def(i).encl?;
        Some(i - node.local + encl)
    };
    for &p in par_tasks {
        if next[p].is_none() {
            continue;
        }
        let chain = graph.chain(p, &next);
        // a deadline anywhere on the chain (or in the enclosing fn that
        // configured the stream before handing it to the closure) bounds
        // the blocking call
        if chain.iter().any(|&n| has_deadline(graph, n)) {
            continue;
        }
        if encl_node(p).is_some_and(|e| has_deadline(graph, e)) {
            continue;
        }
        let seed = *chain.last().unwrap_or(&p);
        let Some((what, line)) = sites[seed].clone() else {
            continue;
        };
        let node = &graph.nodes[p];
        let passed = graph.def(p).passed_to.as_deref().unwrap_or("?");
        out.push(Diagnostic::new(
            "SC112",
            Severity::Error,
            format!("{}:{}", node.rel, node.line),
            format!(
                "par-task closure (passed to `{passed}`) reaches blocking \
                 `{what}` with no timeout/deadline on the chain: `{}` \
                 (`{what}` at {}:{line}); one straggler serializes the pool",
                graph.chain_names(&chain).replace(" -> ", "` -> `"),
                graph.nodes[seed].rel
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::analyze_sources;

    fn run(src: &str) -> Vec<Diagnostic> {
        let sources = vec![("crates/demo/src/lib.rs".to_string(), src.to_string())];
        analyze_sources(&sources)
    }

    fn by_code<'a>(diags: &'a [Diagnostic], code: &str) -> Vec<&'a Diagnostic> {
        diags.iter().filter(|d| d.code == code).collect()
    }

    #[test]
    fn sc109_captured_refcell_is_an_error() {
        let diags = run("use std::cell::RefCell;\n\
             pub fn run(units: &[u32]) {\n\
             let memo = RefCell::new(0u32);\n\
             map_indexed(units, |i, u| { *memo.borrow_mut() += u; i });\n\
             }\n");
        let found = by_code(&diags, "SC109");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(found[0].severity, Severity::Error);
        assert!(found[0].message.contains("captures `memo`"), "{diags:?}");
        assert!(found[0].message.contains("RefCell"), "{diags:?}");
    }

    #[test]
    fn sc109_reached_im_field_names_the_chain() {
        let diags = run("use std::cell::RefCell;\n\
             pub struct View { memo: RefCell<u32> }\n\
             impl View { pub fn classify(&self) -> u32 { *self.memo.borrow() } }\n\
             fn analyze_unit(v: &View) -> u32 { v.classify() }\n\
             pub fn run(v: &View, units: &[u32]) {\n\
             map_indexed(units, |_i, _u| analyze_unit(v));\n\
             }\n");
        let found = by_code(&diags, "SC109");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(found[0].severity, Severity::Error);
        assert!(
            found[0].message.contains("analyze_unit` -> `classify"),
            "{diags:?}"
        );
        assert!(found[0].message.contains("`memo`"), "{diags:?}");
    }

    #[test]
    fn sc109_mutex_is_a_warning_not_an_error() {
        let diags = run("use std::sync::Mutex;\n\
             pub struct Shared { agg: Mutex<u32> }\n\
             pub fn run(s: &Shared, units: &[u32]) {\n\
             map_indexed(units, |i, u| { *s.agg.lock().unwrap() += u; i });\n\
             }\n");
        let found = by_code(&diags, "SC109");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert_eq!(found[0].severity, Severity::Warning);
    }

    #[test]
    fn sc109_silent_without_par_entry() {
        // same capture, but the closure goes to a plain serial helper
        let diags = run("use std::cell::RefCell;\n\
             pub fn run(units: &[u32]) {\n\
             let memo = RefCell::new(0u32);\n\
             each_serial(units, |u| { *memo.borrow_mut() += u; });\n\
             }\n");
        assert!(by_code(&diags, "SC109").is_empty(), "{diags:?}");
    }

    #[test]
    fn sc110_inverted_lock_order_is_reported_with_both_chains() {
        let diags = run(
            "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             pub fn forward(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); }\n\
             pub fn backward(s: &S) { let gb = s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); }\n",
        );
        let found = by_code(&diags, "SC110");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert!(
            found[0].message.contains("`forward` locks `a` then `b`"),
            "{diags:?}"
        );
        assert!(
            found[0].message.contains("`backward` locks `b` then `a`"),
            "{diags:?}"
        );
    }

    #[test]
    fn sc110_interprocedural_inversion_names_the_callee_chain() {
        let diags = run(
            "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             fn grab_b(s: &S) { let g = s.b.lock().unwrap(); }\n\
             pub fn forward(s: &S) { let ga = s.a.lock().unwrap(); grab_b(s); }\n\
             pub fn backward(s: &S) { let gb = s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); }\n",
        );
        let found = by_code(&diags, "SC110");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert!(found[0].message.contains("holds `a`"), "{diags:?}");
        assert!(found[0].message.contains("grab_b"), "{diags:?}");
    }

    #[test]
    fn sc110_consistent_order_is_clean() {
        let diags = run("use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             pub fn one(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); }\n\
             pub fn two(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); }\n");
        assert!(by_code(&diags, "SC110").is_empty(), "{diags:?}");
    }

    #[test]
    fn sc110_temporary_guard_drops_at_statement_end() {
        // the second lock is taken after the first temporary guard is
        // gone: no ordering constraint, no inversion
        let diags = run("use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             pub fn one(s: &S) { let x = *s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); }\n\
             pub fn two(s: &S) { let y = *s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); }\n");
        // `let x = *s.a.lock()...` binds the copied value, not the guard
        // — still statement-bound, so this stays conservative: accept
        // either no finding or none is the requirement
        assert!(by_code(&diags, "SC110").is_empty(), "{diags:?}");
    }

    #[test]
    fn sc111_relaxed_load_into_sink_is_flagged() {
        let diags = run("use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub fn emit(c: &AtomicU64, out: &mut String) {\n\
             let n = c.load(Ordering::Relaxed);\n\
             out.push_str(&format!(\"{n}\"));\n\
             }\n");
        let found = by_code(&diags, "SC111");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert!(found[0].message.contains("c.load(Relaxed)"), "{diags:?}");
    }

    #[test]
    fn sc111_discarded_rmw_is_clean() {
        let diags = run("use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub fn bump(c: &AtomicU64) {\n\
             c.fetch_add(1, Ordering::Relaxed);\n\
             }\n");
        assert!(by_code(&diags, "SC111").is_empty(), "{diags:?}");
    }

    #[test]
    fn sc111_interprocedural_flow_into_serializer() {
        let diags = run("use std::sync::atomic::{AtomicU64, Ordering};\n\
             fn render_count(n: u64) -> String { format!(\"{n}\") }\n\
             pub fn emit(c: &AtomicU64) -> String {\n\
             render_count(c.swap(0, Ordering::Relaxed))\n\
             }\n");
        let found = by_code(&diags, "SC111");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert!(found[0].message.contains("render_count"), "{diags:?}");
    }

    #[test]
    fn sc111_seqcst_is_clean() {
        let diags = run("use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub fn emit(c: &AtomicU64, out: &mut String) {\n\
             let n = c.load(Ordering::SeqCst);\n\
             out.push_str(&format!(\"{n}\"));\n\
             }\n");
        assert!(by_code(&diags, "SC111").is_empty(), "{diags:?}");
    }

    #[test]
    fn sc112_blocking_sleep_in_par_task_is_flagged() {
        let diags = run("pub fn run(units: &[u32]) {\n\
             map_indexed(units, |i, _u| { throttle(); i });\n\
             }\n\
             fn throttle() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n");
        let found = by_code(&diags, "SC112");
        assert_eq!(found.len(), 1, "{diags:?}");
        assert!(found[0].message.contains("throttle"), "{diags:?}");
        assert!(found[0].message.contains("`sleep`"), "{diags:?}");
    }

    #[test]
    fn sc112_deadline_on_the_chain_sanctions() {
        let diags = run("pub fn run(units: &[u32]) {\n\
             map_indexed(units, |i, _u| { fetch(); i });\n\
             }\n\
             fn fetch() {\n\
             let s = connect();\n\
             s.set_read_timeout(None);\n\
             s.read_exact(&mut [0u8; 4]);\n\
             }\n");
        assert!(by_code(&diags, "SC112").is_empty(), "{diags:?}");
    }

    #[test]
    fn sc112_rwlock_read_is_not_blocking_io() {
        let diags = run("use std::sync::RwLock;\n\
             pub struct S { table: RwLock<u32> }\n\
             pub fn run(s: &S, units: &[u32]) {\n\
             map_indexed(units, |i, _u| { let g = s.table.read().unwrap(); i });\n\
             }\n");
        assert!(by_code(&diags, "SC112").is_empty(), "{diags:?}");
    }
}
